//! Unified telemetry for the edp workspace: a structured trace ring, a
//! metrics registry with Prometheus/JSON exporters, and the thread-local
//! session the instrumentation hooks in every other crate write into.
//!
//! # Design
//!
//! Telemetry is a per-thread *session*, like the `edp_pisa::probe`
//! recorder the analyzer uses. Every hook first loads a global count
//! of live sessions — one relaxed load and one predictable branch — and
//! returns immediately when it is zero, so the instrumented hot paths pay
//! a single branch when nobody is watching. With a session live, a hook
//! reaches it through one thread-local pointer cell: a const-initialised
//! `Cell` with no destructor, so the access has no lazy-init check and no
//! borrow flag. The session itself lives in a separate owning slot that
//! only [`enable`], [`disable`] and thread exit touch; the slot publishes
//! the pointer after it stores the session and clears it before the
//! session leaves. [`with`], the one hook that runs caller code on the
//! session, parks the cell on a sentinel meanwhile, so a hook reached from
//! inside it panics instead of aliasing the caller's `&mut`. The
//! [`TelemetryConfig`] gates are applied by the session as it stores a
//! record, so a gated hook needs no second look at the session. Sessions
//! being thread-local is also what keeps `EDP_SWEEP_THREADS` determinism:
//! a sweep worker enables a fresh session per point, so the trace a point
//! produces is a pure function of that point's seed, never of which
//! thread ran it or what ran before.
//!
//! The trace ring is written in place: a `Vec` filled once to capacity,
//! then overwritten at a head index, so a record costs one store whether
//! or not the ring has wrapped (see [`ring`]).
//!
//! Records carry *sim time only* (nanoseconds), never wall-clock time.
//! Wall-clock attribution lives in the separate, opt-in [`prof`] module
//! (per-phase lap totals of the sharded engine), whose output is
//! structurally nondeterministic and therefore never feeds a canonical
//! export.
//!
//! # Span/cause model
//!
//! [`span_begin`] allocates the next span id from a per-session counter,
//! emits the opening record (e.g. `EventFired`), and makes that span the
//! *current cause*. Every record emitted until the matching [`span_end`]
//! carries the span's id in its `cause` field — so the packets a handler
//! enqueued and the follow-on events it raised all point back at the
//! handler firing that produced them. Spans nest: `span_begin` saves the
//! previous cause in the returned token and `span_end` restores it.

pub mod export;
pub mod json;
pub mod metrics;
pub mod prof;
pub mod record;
pub mod ring;

pub use export::{to_json, to_prometheus_text};
pub use metrics::{LogHistogram, Registry};
pub use record::{event_kind_label, register_label, DropReason, RecordKind, TraceRecord};
pub use ring::Ring;

use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The span/cause id meaning "none" (top level).
pub const NO_SPAN: u64 = 0;

/// Name prefix marking a register as telemetry state, not program state.
/// `edp-analyze` exempts registers with this prefix from the multi-writer
/// (W001) and cross-handler RMW (W002) hazard lints: telemetry mirrors
/// observe the data path, they are not data-plane state contended over
/// SRAM ports.
pub const TELEMETRY_REGISTER_PREFIX: &str = "tele:";

/// True when `name` names telemetry state exempt from hazard lints.
pub fn is_telemetry_register(name: &str) -> bool {
    name.starts_with(TELEMETRY_REGISTER_PREFIX)
}

/// What a telemetry session records. All fields gate *enabled-path*
/// detail; the disabled path is always the same single branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Trace-ring capacity in records (oldest evicted beyond this).
    pub trace_capacity: usize,
    /// Record `QueueDepth` samples on every enqueue/dequeue. The session
    /// applies the gate itself: with it off, [`emit`] drops those records.
    pub queue_depth_samples: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            trace_capacity: 65_536,
            queue_depth_samples: true,
        }
    }
}

/// A live telemetry session: the trace ring, the unified metrics
/// registry, and the span bookkeeping.
#[derive(Debug)]
pub struct Telemetry {
    /// The configuration the session was enabled with.
    pub config: TelemetryConfig,
    /// The structured trace ring.
    pub ring: Ring<TraceRecord>,
    /// The unified metrics registry hooks publish into.
    pub registry: Registry,
    next_span: u64,
    cause: u64,
}

impl Telemetry {
    fn new(config: TelemetryConfig) -> Self {
        Telemetry {
            config,
            ring: Ring::new(config.trace_capacity),
            registry: Registry::new(),
            next_span: NO_SPAN,
            cause: NO_SPAN,
        }
    }

    /// Pushes one record under the current cause, unless the config
    /// gates its class off. The method form of [`emit`], for consumers
    /// already inside a [`with`] closure.
    #[inline]
    pub fn emit(&mut self, at_ns: u64, kind: RecordKind) {
        if matches!(kind, RecordKind::QueueDepth { .. }) && !self.config.queue_depth_samples {
            return;
        }
        self.ring.push(TraceRecord {
            at_ns,
            span: NO_SPAN,
            cause: self.cause,
            kind,
        });
    }

    #[inline]
    fn span_begin(&mut self, at_ns: u64, kind: RecordKind) -> SpanToken {
        self.next_span += 1;
        let span = self.next_span;
        self.ring.push(TraceRecord {
            at_ns,
            span,
            cause: self.cause,
            kind,
        });
        let prev_cause = self.cause;
        self.cause = span;
        SpanToken { span, prev_cause }
    }

    #[inline]
    fn span_end(&mut self, at_ns: u64, token: SpanToken, kind: RecordKind) {
        self.ring.push(TraceRecord {
            at_ns,
            span: token.span,
            cause: token.prev_cause,
            kind,
        });
        self.cause = token.prev_cause;
    }

    /// Renders the whole trace ring as stable text, one record per line,
    /// with a footer reporting ring-eviction losses.
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        for rec in self.ring.iter() {
            out.push_str(&rec.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "-- {} records, {} dropped (ring capacity {})\n",
            self.ring.len(),
            self.ring.dropped(),
            self.ring.capacity()
        ));
        out
    }
}

/// Token returned by [`span_begin`]; hand it back to [`span_end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanToken {
    span: u64,
    prev_cause: u64,
}

impl SpanToken {
    /// The id of the span this token opened (0 when telemetry was off).
    pub fn span(&self) -> u64 {
        self.span
    }
}

/// The token [`span_begin`] returns when no session is live.
const NO_TOKEN: SpanToken = SpanToken {
    span: NO_SPAN,
    prev_cause: NO_SPAN,
};

thread_local! {
    /// This thread's live session, null when there is none, [`BUSY`]
    /// while [`with`] runs caller code on it. No destructor and a const
    /// initialiser: reading it is one thread-local load.
    static LIVE: Cell<*mut Telemetry> = const { Cell::new(ptr::null_mut()) };
    /// Owns the session `LIVE` points into. Only [`enable`], [`disable`]
    /// and thread exit touch it.
    static OWNER: Owner = const { Owner(Cell::new(None)) };
}

/// `LIVE`'s value while [`with`] lends the session to caller code. It is
/// never dereferenced, and no allocation sits at that address.
const BUSY: *mut Telemetry = ptr::dangling_mut();

/// Count of live sessions across all threads. The first gate of every
/// hook: with no session anywhere, hooks pay one relaxed load of this
/// static and never touch thread-local storage.
static ACTIVE_SESSIONS: AtomicUsize = AtomicUsize::new(0);

/// The slot that owns a thread's session.
struct Owner(Cell<Option<Box<Telemetry>>>);

impl Drop for Owner {
    /// Thread exit: unpublish the session before it drops. No `with` is
    /// running any more, so this needs none of `replace_session`'s check.
    fn drop(&mut self) {
        LIVE.set(ptr::null_mut());
        if self.0.get_mut().take().is_some() {
            ACTIVE_SESSIONS.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Installs `new` as this thread's session and returns the old one.
/// `LIVE` is null while the slot changes hands, then points into `new`.
fn replace_session(mut new: Option<Box<Telemetry>>) -> Option<Box<Telemetry>> {
    assert!(
        LIVE.get() != BUSY,
        "telemetry session enabled or disabled inside `edp_telemetry::with`"
    );
    LIVE.set(ptr::null_mut());
    let session = new.as_deref_mut().map_or(ptr::null_mut(), ptr::from_mut);
    let old = OWNER.with(|owner| owner.0.replace(new));
    match (old.is_some(), !session.is_null()) {
        (false, true) => {
            ACTIVE_SESSIONS.fetch_add(1, Ordering::Relaxed);
        }
        (true, false) => {
            ACTIVE_SESSIONS.fetch_sub(1, Ordering::Relaxed);
        }
        _ => {}
    }
    LIVE.set(session);
    old
}

/// Puts the session pointer back into `LIVE` when [`with`]'s caller code
/// returns or unwinds.
struct Lent(*mut Telemetry);

impl Drop for Lent {
    #[inline]
    fn drop(&mut self) {
        LIVE.set(self.0);
    }
}

/// Runs `f` on this thread's live session, if any: the one path every
/// hook takes to it. `lend` says `f` is caller code (from [`with`]).
/// `LIVE` is read by value, not through a `LocalKey::with` closure around
/// `f`: that closure grows past what the inliner takes, and an
/// out-of-line call per hook is what the cell exists to avoid.
#[inline(always)]
fn live<R>(lend: bool, f: impl FnOnce(&mut Telemetry) -> R) -> Option<R> {
    if ACTIVE_SESSIONS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    let session = LIVE.get();
    if session.is_null() {
        return None;
    }
    assert!(
        session != BUSY,
        "telemetry hook called inside `edp_telemetry::with`"
    );
    // SAFETY: `session` is neither null nor BUSY, so it points into the
    // boxed session this thread's `OWNER` holds: `replace_session` points
    // `LIVE` at a box only after storing it in the slot, and it and
    // `Owner::drop` (thread exit) clear `LIVE` before a box leaves the
    // slot. `LIVE` is thread-local, so no other thread holds the pointer.
    // The `&mut` is the only one: the hooks' own `f` reaches no hook, and
    // caller code (`lend`) runs with `LIVE` on BUSY, so a hook or
    // `enable` / `disable` it reaches panics before it touches the session.
    let session_mut = unsafe { &mut *session };
    if !lend {
        return Some(f(session_mut));
    }
    LIVE.set(BUSY);
    let _lent = Lent(session);
    Some(f(session_mut))
}

/// True while a telemetry session is enabled on this thread. With no
/// session on *any* thread this is a single static load and predictable
/// branch — the only cost instrumented hot paths pay when disabled.
#[inline(always)]
pub fn on() -> bool {
    ACTIVE_SESSIONS.load(Ordering::Relaxed) != 0 && !LIVE.get().is_null()
}

/// Starts a fresh session on this thread, discarding any previous one.
pub fn enable(config: TelemetryConfig) {
    drop(replace_session(Some(Box::new(Telemetry::new(config)))));
}

/// Stops the session on this thread and returns everything it recorded.
pub fn disable() -> Option<Telemetry> {
    replace_session(None).map(|t| *t)
}

/// Runs `f` against the live session, if any. Hooks use the dedicated
/// helpers below; this is for consumers that need registry access. A
/// hook, [`enable`] or [`disable`] called from inside `f` panics.
pub fn with<R>(f: impl FnOnce(&mut Telemetry) -> R) -> Option<R> {
    live(true, f)
}

/// Emits one trace record under the current cause. No-op when disabled.
#[inline]
pub fn emit(at_ns: u64, kind: RecordKind) {
    live(false, |t| t.emit(at_ns, kind));
}

/// Opens a span: emits `kind` carrying the new span id, and makes the
/// span the current cause until the matching [`span_end`].
#[inline]
pub fn span_begin(at_ns: u64, kind: RecordKind) -> SpanToken {
    live(false, |t| t.span_begin(at_ns, kind)).unwrap_or(NO_TOKEN)
}

/// Closes a span opened by [`span_begin`]: emits `kind` with the span's
/// id and restores the previous cause. No-op on a disabled-path token.
#[inline]
pub fn span_end(at_ns: u64, token: SpanToken, kind: RecordKind) {
    if token.span == NO_SPAN {
        return;
    }
    live(false, |t| t.span_end(at_ns, token, kind));
}

/// Records `v` into registry histogram `name` in `scope`. No-op when
/// disabled.
#[inline]
pub fn observe(name: &str, scope: &str, v: u64) {
    live(false, |t| t.registry.observe(name, scope, v));
}

/// Raises gauge `name` in `scope` to at least `v`. No-op when disabled.
#[inline]
pub fn gauge_max(name: &str, scope: &str, v: i64) {
    live(false, |t| t.registry.gauge_max(name, scope, v));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let _ = disable();
        emit(
            10,
            RecordKind::Note {
                code: 1,
                a: 0,
                b: 0,
            },
        );
        observe("lat", "sw0", 1);
        let tok = span_begin(11, RecordKind::EventFired { kind: 0 });
        assert_eq!(tok.span(), NO_SPAN);
        span_end(12, tok, RecordKind::HandlerDone { kind: 0 });
        assert!(disable().is_none());
    }

    #[test]
    fn span_cause_chain_links_children_to_handler() {
        enable(TelemetryConfig::default());
        emit(
            1,
            RecordKind::Note {
                code: 0,
                a: 0,
                b: 0,
            },
        ); // top level
        let outer = span_begin(2, RecordKind::EventFired { kind: 0 });
        emit(
            3,
            RecordKind::PacketRx {
                switch: 0,
                port: 1,
                len: 64,
            },
        );
        let inner = span_begin(4, RecordKind::EventFired { kind: 5 });
        emit(5, RecordKind::EventRaised { kind: 12 });
        span_end(6, inner, RecordKind::HandlerDone { kind: 5 });
        emit(
            7,
            RecordKind::Note {
                code: 9,
                a: 0,
                b: 0,
            },
        ); // back under outer
        span_end(8, outer, RecordKind::HandlerDone { kind: 0 });
        let t = disable().expect("session");
        let recs: Vec<TraceRecord> = t.ring.iter().copied().collect();
        assert_eq!(recs.len(), 8);
        assert_eq!(recs[0].cause, NO_SPAN);
        assert_eq!(recs[1].span, 1); // outer opened
        assert_eq!(recs[2].cause, 1); // child of outer
        assert_eq!(recs[3].span, 2); // inner opened
        assert_eq!(recs[3].cause, 1); // ... caused by outer
        assert_eq!(recs[4].cause, 2); // raised inside inner
        assert_eq!(recs[5].span, 2); // inner closed
        assert_eq!(recs[6].cause, 1); // cause restored to outer
        assert_eq!(recs[7].span, 1); // outer closed
        assert_eq!(recs[7].cause, NO_SPAN);
    }

    #[test]
    fn enable_resets_session_state() {
        enable(TelemetryConfig::default());
        let tok = span_begin(1, RecordKind::EventFired { kind: 0 });
        assert_eq!(tok.span(), 1);
        // Re-enabling (a new sweep point on this worker) starts from a
        // clean ring and span counter — determinism across thread counts.
        enable(TelemetryConfig::default());
        let tok = span_begin(1, RecordKind::EventFired { kind: 0 });
        assert_eq!(tok.span(), 1);
        let t = disable().expect("session");
        assert_eq!(t.ring.len(), 1);
    }

    #[test]
    fn registry_helpers_write_through() {
        enable(TelemetryConfig::default());
        observe("lat", "sw0", 7);
        gauge_max("stale", "sw0", 5);
        gauge_max("stale", "sw0", 3);
        let t = disable().expect("session");
        assert_eq!(t.registry.histogram("lat", "sw0").unwrap().count(), 1);
        assert_eq!(t.registry.gauge("stale", "sw0"), Some(5));
    }

    #[test]
    fn render_trace_reports_drops() {
        enable(TelemetryConfig {
            trace_capacity: 2,
            ..TelemetryConfig::default()
        });
        for i in 0..5 {
            emit(
                i,
                RecordKind::Note {
                    code: 0,
                    a: i,
                    b: 0,
                },
            );
        }
        let t = disable().expect("session");
        let text = t.render_trace();
        assert!(text.contains("-- 2 records, 3 dropped (ring capacity 2)"));
    }

    #[test]
    #[should_panic(expected = "telemetry hook called inside `edp_telemetry::with`")]
    fn hook_inside_with_panics() {
        enable(TelemetryConfig::default());
        with(|_| {
            emit(
                1,
                RecordKind::Note {
                    code: 0,
                    a: 0,
                    b: 0,
                },
            )
        });
    }

    #[test]
    #[should_panic(expected = "enabled or disabled inside `edp_telemetry::with`")]
    fn disable_inside_with_panics() {
        enable(TelemetryConfig::default());
        with(|_| disable());
    }

    #[test]
    fn with_lends_the_session_back_when_caller_code_panics() {
        enable(TelemetryConfig::default());
        let lent = std::panic::catch_unwind(|| with(|_| panic!("caller code")));
        assert!(lent.is_err());
        emit(
            1,
            RecordKind::Note {
                code: 0,
                a: 0,
                b: 0,
            },
        );
        assert_eq!(with(|t| t.ring.len()), Some(1));
        assert_eq!(disable().expect("session").ring.len(), 1);
        assert!(!on());
    }

    #[test]
    fn queue_depth_gate_is_the_sessions() {
        let depth = RecordKind::QueueDepth {
            port: 1,
            q_bytes: 64,
            q_pkts: 1,
        };
        for samples in [false, true] {
            enable(TelemetryConfig {
                queue_depth_samples: samples,
                ..TelemetryConfig::default()
            });
            emit(1, depth);
            emit(
                2,
                RecordKind::Note {
                    code: 0,
                    a: 0,
                    b: 0,
                },
            );
            let t = disable().expect("session");
            assert_eq!(t.ring.len(), 1 + usize::from(samples));
        }
    }

    #[test]
    fn a_thread_that_exits_with_a_session_drops_it() {
        std::thread::spawn(|| {
            enable(TelemetryConfig::default());
            emit(
                1,
                RecordKind::Note {
                    code: 0,
                    a: 0,
                    b: 0,
                },
            );
            assert!(on());
        })
        .join()
        .expect("thread exit with a live session");
        assert!(!on());
    }

    #[test]
    fn telemetry_register_prefix() {
        assert!(is_telemetry_register("tele:rx_mirror"));
        assert!(!is_telemetry_register("flowBufSize_reg"));
    }
}
