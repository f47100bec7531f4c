//! Unified telemetry for the edp workspace: a structured trace ring, a
//! metrics registry with Prometheus/JSON exporters, and the thread-local
//! session the instrumentation hooks in every other crate write into.
//!
//! # Design
//!
//! Telemetry is a per-thread *session*, mirroring the `edp_pisa::probe`
//! idiom the analyzer already uses: a `Cell<bool>` armed flag plus a
//! `RefCell` holding the live state. Every hook first calls [`on`] — one
//! thread-local load and one predictable branch — and returns
//! immediately when telemetry is disabled, so the instrumented hot paths
//! pay a single branch when nobody is watching. Sessions being
//! thread-local is also what keeps `EDP_SWEEP_THREADS` determinism: a
//! sweep worker enables a fresh session per point, so the trace a point
//! produces is a pure function of that point's seed, never of which
//! thread ran it or what ran before.
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
pub mod metrics;
pub mod prof;
pub mod record;
pub mod ring;

pub use export::{to_json, to_prometheus_text};
pub use metrics::{LogHistogram, Registry};
pub use record::{event_kind_label, register_label, DropReason, RecordKind, TraceRecord};
pub use ring::Ring;

use std::cell::{Cell, RefCell};
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
    /// Record `QueueDepth` samples on every enqueue/dequeue.
    pub queue_depth_samples: bool,
    /// Record scheduler arm/fire/cancel activity.
    pub scheduler_records: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            trace_capacity: 65_536,
            queue_depth_samples: true,
            scheduler_records: true,
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

    /// Pushes one record under the current cause. The method form of
    /// [`emit`], for hooks already inside a [`with`] closure (e.g. after
    /// checking a [`TelemetryConfig`] gate).
    pub fn emit(&mut self, at_ns: u64, kind: RecordKind) {
        let cause = self.cause;
        self.ring.push(TraceRecord {
            at_ns,
            span: NO_SPAN,
            cause,
            kind,
        });
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

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static SESSION: RefCell<Option<Telemetry>> = const { RefCell::new(None) };
}

/// Count of enabled sessions across all threads. The first gate in
/// [`on`]: with no session anywhere, hooks pay one relaxed load of this
/// static and never touch thread-local storage — TLS access is the part
/// that actually shows up in tight loops like the scheduler's re-arm
/// path. (A thread that dies without `disable` leaks its count, which
/// only costs other threads the TLS check, never correctness.)
static ACTIVE_SESSIONS: AtomicUsize = AtomicUsize::new(0);

/// True while a telemetry session is enabled on this thread. With no
/// session on *any* thread this is a single static load and predictable
/// branch — the only cost instrumented hot paths pay when disabled.
#[inline(always)]
pub fn on() -> bool {
    if ACTIVE_SESSIONS.load(Ordering::Relaxed) == 0 {
        return false;
    }
    ON.with(|c| c.get())
}

/// Starts a fresh session on this thread, discarding any previous one.
pub fn enable(config: TelemetryConfig) {
    SESSION.with(|s| *s.borrow_mut() = Some(Telemetry::new(config)));
    ON.with(|c| {
        if !c.get() {
            ACTIVE_SESSIONS.fetch_add(1, Ordering::Relaxed);
            c.set(true);
        }
    });
}

/// Stops the session on this thread and returns everything it recorded.
pub fn disable() -> Option<Telemetry> {
    ON.with(|c| {
        if c.get() {
            ACTIVE_SESSIONS.fetch_sub(1, Ordering::Relaxed);
            c.set(false);
        }
    });
    SESSION.with(|s| s.borrow_mut().take())
}

/// Runs `f` against the live session, if any. Hooks use the dedicated
/// helpers below; this is for consumers that need registry access.
pub fn with<R>(f: impl FnOnce(&mut Telemetry) -> R) -> Option<R> {
    if !on() {
        return None;
    }
    SESSION.with(|s| s.borrow_mut().as_mut().map(f))
}

/// Emits one trace record under the current cause. No-op when disabled.
#[inline]
pub fn emit(at_ns: u64, kind: RecordKind) {
    if !on() {
        return;
    }
    SESSION.with(|s| {
        if let Some(t) = s.borrow_mut().as_mut() {
            t.emit(at_ns, kind);
        }
    });
}

/// Opens a span: emits `kind` carrying the new span id, and makes the
/// span the current cause until the matching [`span_end`].
#[inline]
pub fn span_begin(at_ns: u64, kind: RecordKind) -> SpanToken {
    if !on() {
        return SpanToken {
            span: NO_SPAN,
            prev_cause: NO_SPAN,
        };
    }
    SESSION.with(|s| {
        let mut s = s.borrow_mut();
        let Some(t) = s.as_mut() else {
            return SpanToken {
                span: NO_SPAN,
                prev_cause: NO_SPAN,
            };
        };
        t.next_span += 1;
        let span = t.next_span;
        t.ring.push(TraceRecord {
            at_ns,
            span,
            cause: t.cause,
            kind,
        });
        let prev_cause = t.cause;
        t.cause = span;
        SpanToken { span, prev_cause }
    })
}

/// Closes a span opened by [`span_begin`]: emits `kind` with the span's
/// id and restores the previous cause. No-op on a disabled-path token.
#[inline]
pub fn span_end(at_ns: u64, token: SpanToken, kind: RecordKind) {
    if !on() || token.span == NO_SPAN {
        return;
    }
    SESSION.with(|s| {
        if let Some(t) = s.borrow_mut().as_mut() {
            t.ring.push(TraceRecord {
                at_ns,
                span: token.span,
                cause: token.prev_cause,
                kind,
            });
            t.cause = token.prev_cause;
        }
    });
}

/// Adds `n` to registry counter `name` in `scope`. No-op when disabled.
#[inline]
pub fn count(name: &str, scope: &str, n: u64) {
    if !on() {
        return;
    }
    with(|t| t.registry.add_counter(name, scope, n));
}

/// Records `v` into registry histogram `name` in `scope`. No-op when
/// disabled.
#[inline]
pub fn observe(name: &str, scope: &str, v: u64) {
    if !on() {
        return;
    }
    with(|t| t.registry.observe(name, scope, v));
}

/// Raises gauge `name` in `scope` to at least `v`. No-op when disabled.
#[inline]
pub fn gauge_max(name: &str, scope: &str, v: i64) {
    if !on() {
        return;
    }
    with(|t| t.registry.gauge_max(name, scope, v));
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
        count("rx", "sw0", 1);
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
        count("rx", "sw0", 2);
        count("rx", "sw0", 3);
        observe("lat", "sw0", 7);
        gauge_max("stale", "sw0", 5);
        gauge_max("stale", "sw0", 3);
        let t = disable().expect("session");
        assert_eq!(t.registry.counter("rx", "sw0"), 5);
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
    fn telemetry_register_prefix() {
        assert!(is_telemetry_register("tele:rx_mirror"));
        assert!(!is_telemetry_register("flowBufSize_reg"));
    }
}
