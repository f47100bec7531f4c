//! Wall-clock shard profiler: where does the *real* time go?
//!
//! The trace ring and metrics registry in this crate are sim-time-only
//! and determinism-pinned — byte-identical across thread counts, shard
//! counts, and sub-window counts. That is exactly why they cannot answer the
//! question the sharded engine's perf work needs answered: of a run's
//! wall-clock seconds, how many were compute, how many were barrier
//! wait, and how many were mailbox exchange? This module is the
//! complementary layer: a per-thread *profiling session* over the
//! monotonic clock ([`std::time::Instant`]), opt-in, and structurally
//! nondeterministic — its output must never feed a canonical render,
//! JSON export, or Prometheus dump that a determinism pin covers.
//!
//! # Clock discipline
//!
//! Every session on a run shares one `Instant` *epoch* (created by
//! whoever orchestrates the run, before worker threads spawn), so all
//! timestamps are nanoseconds since the same instant and per-shard
//! tracks line up in a trace viewer. Records never mix sim time and
//! wall time: the trace ring speaks `at_ns` of *simulated* time, this
//! module speaks nanoseconds of *elapsed wall clock*, and nothing
//! converts between them.
//!
//! # Attribution model: laps, not paired spans
//!
//! Instrumented code calls [`lap`]`(phase)` at each phase *boundary*:
//! every nanosecond between two laps is attributed to the phase named
//! by the second one. One clock read per transition, no unbalanced
//! begin/end pairs possible, and — because [`enable`] starts the
//! stopwatch and [`disable`] laps the tail into [`Phase::Finish`] —
//! the sum of per-phase totals equals the session's wall-clock span by
//! construction. The ≥95% attribution bar is therefore met structurally;
//! anything that would have been "unattributed" lands in the phase
//! whose boundary follows it.
//!
//! Each lap also appends a span to a capped timeline (evictions are
//! counted, never silent — the aggregate totals stay exact regardless),
//! and while a window is open ([`window_begin`]/[`window_end`]) feeds
//! the per-window compute/wait accumulators that the straggler analysis
//! reads.
//!
//! # Flow marks
//!
//! Cross-shard mailbox batches are recorded on both sides:
//! [`flow_send`] on the publisher, [`flow_recv`] on the acceptor. The
//! pair is matched by `(barrier_seq, src, dst)` — [`rendezvous`]
//! advances `barrier_seq` in lockstep on every shard (each rendezvous
//! is a full-group barrier), a batch is published immediately *before*
//! one barrier and accepted immediately *after* it, so the sender tags
//! the upcoming barrier (`seq + 1`) and the receiver the one it just
//! crossed (`seq`). [`to_trace_json`] turns matched pairs into Chrome
//! trace-event flow arrows between shard tracks.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Number of profiling phases (the length of [`Phase::ALL`]).
pub const NPHASES: usize = 8;

/// The wall-clock phase a lap attributes time to. Mirrors the event
/// lifecycle of one shard worker: build the world, then loop
/// negotiate → execute → fill mailboxes → wait at the barrier →
/// extend the window, and finally tear down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// World construction: topology build, workload scheduling,
    /// partitioning, timer arming — everything before the window loop.
    Setup = 0,
    /// Event execution: `Sim::run_before` / `run_until` firing handlers.
    Execute = 1,
    /// Window negotiation: publishing the local earliest event times and
    /// waiting for the global minima (both rendezvous of
    /// `WindowSync::negotiate_bound`).
    Negotiate = 2,
    /// Mailbox exchange work: draining inbound mailboxes into the
    /// schedule and staging/publishing outbound batches.
    Mailbox = 3,
    /// Blocked at an exchange / vote barrier waiting for peer shards.
    Barrier = 4,
    /// Horizon extension: continuing a window past a sub-barrier
    /// (mid-window accepts and the next-horizon bookkeeping).
    Extend = 5,
    /// Rendezvous elision: the bookkeeping of sub-steps that advance
    /// without a barrier (bound-floor checks and horizon merging).
    Elide = 6,
    /// Teardown after the window loop: metric publication, session
    /// collection, and the tail up to `disable`.
    Finish = 7,
}

impl Phase {
    /// All phases, in `phase_ns` index order.
    pub const ALL: [Phase; NPHASES] = [
        Phase::Setup,
        Phase::Execute,
        Phase::Negotiate,
        Phase::Mailbox,
        Phase::Barrier,
        Phase::Extend,
        Phase::Elide,
        Phase::Finish,
    ];

    /// Index into a `phase_ns` array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-case label (used in tables and the trace export).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Execute => "execute",
            Phase::Negotiate => "negotiate",
            Phase::Mailbox => "mailbox",
            Phase::Barrier => "barrier",
            Phase::Extend => "extend",
            Phase::Elide => "elide",
            Phase::Finish => "finish",
        }
    }
}

/// One attributed interval on a shard's timeline: `[start_ns, end_ns)`
/// since the run epoch, attributed to `phase`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfSpan {
    /// Phase the interval was attributed to.
    pub phase: Phase,
    /// Interval start, nanoseconds since the run epoch.
    pub start_ns: u64,
    /// Interval end, nanoseconds since the run epoch.
    pub end_ns: u64,
}

/// Per-negotiated-window wall-clock sample on one shard: the window's
/// span plus how much of it was event execution vs rendezvous wait.
/// Windows are negotiated by the whole group, so sample index `i` on
/// every shard of a run refers to the same logical window — that
/// alignment is what the straggler analysis leans on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSample {
    /// Window open (negotiation settled), ns since the run epoch.
    pub start_ns: u64,
    /// Window close (final barrier of the window), ns since the epoch.
    pub end_ns: u64,
    /// Nanoseconds spent in [`Phase::Execute`] inside this window.
    pub exec_ns: u64,
    /// Nanoseconds spent in [`Phase::Barrier`] + [`Phase::Negotiate`]
    /// inside this window.
    pub wait_ns: u64,
}

/// One side of a cross-shard mailbox batch: `peer` is the destination
/// shard on the sending side and the source shard on the receiving
/// side; `seq` is the rendezvous the batch crossed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowMark {
    /// Nanoseconds since the run epoch at which the mark was recorded.
    pub at_ns: u64,
    /// The other shard of the exchange.
    pub peer: u32,
    /// Barrier sequence number the batch crossed at (see module docs).
    pub seq: u64,
    /// Messages in the batch.
    pub count: u64,
}

/// Retention caps for the timeline detail a session keeps. Aggregates
/// (phase totals, message matrix) are always exact; only the per-span /
/// per-window / per-flow detail is capped, with evictions counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfConfig {
    /// Timeline spans retained per session (oldest kept, newest dropped).
    pub span_capacity: usize,
    /// Per-window samples retained per session.
    pub window_capacity: usize,
    /// Flow marks retained per direction per session.
    pub flow_capacity: usize,
}

impl Default for ProfConfig {
    fn default() -> Self {
        ProfConfig {
            span_capacity: 262_144,
            window_capacity: 131_072,
            flow_capacity: 65_536,
        }
    }
}

/// Everything one profiling session recorded, returned by [`disable`].
#[derive(Debug, Clone)]
pub struct Profile {
    /// Shard id the session profiled (0 on the classic engine).
    pub shard: usize,
    /// Shard count of the run (1 on the classic engine).
    pub shards: usize,
    /// Session start, nanoseconds since the shared run epoch.
    pub start_ns: u64,
    /// Wall-clock nanoseconds from [`enable`] to [`disable`].
    pub total_ns: u64,
    /// Per-phase attributed nanoseconds, indexed by [`Phase::index`].
    /// Sums to `total_ns` by construction of the lap model.
    pub phase_ns: [u64; NPHASES],
    /// Timeline of attributed spans (capped; see `spans_dropped`).
    pub spans: Vec<ProfSpan>,
    /// Spans evicted by [`ProfConfig::span_capacity`].
    pub spans_dropped: u64,
    /// Per-negotiated-window samples (capped; see `windows_dropped`).
    pub windows: Vec<WindowSample>,
    /// Window samples evicted by [`ProfConfig::window_capacity`].
    pub windows_dropped: u64,
    /// Outbound mailbox batches this shard published.
    pub flows_out: Vec<FlowMark>,
    /// Inbound mailbox batches this shard accepted.
    pub flows_in: Vec<FlowMark>,
    /// Flow marks evicted by [`ProfConfig::flow_capacity`].
    pub flows_dropped: u64,
    /// Cross-shard messages sent, by destination shard (the session's
    /// row of the run's message matrix). Always exact.
    pub msgs_to: Vec<u64>,
}

impl Profile {
    /// Nanoseconds attributed to named phases — equals `total_ns` in a
    /// healthy session (the lap model attributes everything).
    pub fn attributed_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Fraction of attributed time spent in `phase` (0.0 when empty).
    pub fn frac(&self, phase: Phase) -> f64 {
        let attr = self.attributed_ns();
        if attr == 0 {
            return 0.0;
        }
        self.phase_ns[phase.index()] as f64 / attr as f64
    }
}

struct ProfState {
    epoch: Instant,
    config: ProfConfig,
    shard: usize,
    shards: usize,
    start_ns: u64,
    last_ns: u64,
    phase_ns: [u64; NPHASES],
    spans: Vec<ProfSpan>,
    spans_dropped: u64,
    windows: Vec<WindowSample>,
    windows_dropped: u64,
    open_window: Option<WindowSample>,
    flows_out: Vec<FlowMark>,
    flows_in: Vec<FlowMark>,
    flows_dropped: u64,
    msgs_to: Vec<u64>,
    seq: u64,
}

impl ProfState {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lap(&mut self, phase: Phase) {
        let now = self.now_ns();
        let start = self.last_ns;
        self.last_ns = now;
        self.phase_ns[phase.index()] += now - start;
        if self.spans.len() < self.config.span_capacity {
            self.spans.push(ProfSpan {
                phase,
                start_ns: start,
                end_ns: now,
            });
        } else {
            self.spans_dropped += 1;
        }
        if let Some(w) = self.open_window.as_mut() {
            match phase {
                Phase::Execute => w.exec_ns += now - start,
                Phase::Barrier | Phase::Negotiate => w.wait_ns += now - start,
                _ => {}
            }
        }
    }
}

thread_local! {
    static PROF_ON: Cell<bool> = const { Cell::new(false) };
    static PROF: RefCell<Option<ProfState>> = const { RefCell::new(None) };
}

/// Count of enabled profiling sessions across all threads — the same
/// disabled-path discipline as the telemetry session: with no session
/// anywhere, every hook is one relaxed static load and a predictable
/// branch, never a TLS access.
static PROF_ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// True while a profiling session is enabled on this thread.
#[inline(always)]
pub fn on() -> bool {
    if PROF_ACTIVE.load(Ordering::Relaxed) == 0 {
        return false;
    }
    PROF_ON.with(|c| c.get())
}

/// Starts a profiling session on this thread with default caps.
/// `epoch` must be shared by every session of the run so their
/// timestamps align; `shard`/`shards` place this session on the run's
/// track layout (use `0`/`1` on the classic engine).
pub fn enable(epoch: Instant, shard: usize, shards: usize) {
    enable_with(epoch, shard, shards, ProfConfig::default());
}

/// [`enable`] with explicit retention caps.
pub fn enable_with(epoch: Instant, shard: usize, shards: usize, config: ProfConfig) {
    let start_ns = epoch.elapsed().as_nanos() as u64;
    PROF.with(|s| {
        *s.borrow_mut() = Some(ProfState {
            epoch,
            config,
            shard,
            shards: shards.max(1),
            start_ns,
            last_ns: start_ns,
            phase_ns: [0; NPHASES],
            spans: Vec::new(),
            spans_dropped: 0,
            windows: Vec::new(),
            windows_dropped: 0,
            open_window: None,
            flows_out: Vec::new(),
            flows_in: Vec::new(),
            flows_dropped: 0,
            msgs_to: vec![0; shards.max(1)],
            seq: 0,
        })
    });
    PROF_ON.with(|c| {
        if !c.get() {
            PROF_ACTIVE.fetch_add(1, Ordering::Relaxed);
            c.set(true);
        }
    });
}

/// Stops the session on this thread and returns its profile. The tail
/// since the last lap is attributed to [`Phase::Finish`], so the
/// per-phase totals account for the session's whole wall-clock span.
pub fn disable() -> Option<Profile> {
    PROF_ON.with(|c| {
        if c.get() {
            PROF_ACTIVE.fetch_sub(1, Ordering::Relaxed);
            c.set(false);
        }
    });
    PROF.with(|s| s.borrow_mut().take()).map(|mut st| {
        st.lap(Phase::Finish);
        Profile {
            shard: st.shard,
            shards: st.shards,
            start_ns: st.start_ns,
            total_ns: st.last_ns - st.start_ns,
            phase_ns: st.phase_ns,
            spans: st.spans,
            spans_dropped: st.spans_dropped,
            windows: st.windows,
            windows_dropped: st.windows_dropped,
            flows_out: st.flows_out,
            flows_in: st.flows_in,
            flows_dropped: st.flows_dropped,
            msgs_to: st.msgs_to,
        }
    })
}

/// Attributes everything since the previous lap (or [`enable`]) to
/// `phase`. No-op when disabled.
#[inline]
pub fn lap(phase: Phase) {
    if !on() {
        return;
    }
    PROF.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            st.lap(phase);
        }
    });
}

/// Opens a per-window sample at the current lap boundary (call right
/// after the negotiation lap). No clock read: the window opens where
/// the last lap ended.
#[inline]
pub fn window_begin() {
    if !on() {
        return;
    }
    PROF.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            st.open_window = Some(WindowSample {
                start_ns: st.last_ns,
                ..WindowSample::default()
            });
        }
    });
}

/// Closes the open window sample at the current lap boundary (call
/// right after the window's final barrier lap).
#[inline]
pub fn window_end() {
    if !on() {
        return;
    }
    PROF.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            if let Some(mut w) = st.open_window.take() {
                w.end_ns = st.last_ns;
                if st.windows.len() < st.config.window_capacity {
                    st.windows.push(w);
                } else {
                    st.windows_dropped += 1;
                }
            }
        }
    });
}

/// Advances the barrier sequence by `n` (call wherever the drive loop
/// counts rendezvous, with the same `n`, so every shard's sequence
/// stays in lockstep). No-op when disabled.
#[inline]
pub fn rendezvous(n: u64) {
    if !on() {
        return;
    }
    PROF.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            st.seq += n;
        }
    });
}

/// Records an outbound mailbox batch of `count` messages to shard
/// `dst`, tagged with the *upcoming* rendezvous (the one that will
/// publish it). Also feeds the exact message matrix.
#[inline]
pub fn flow_send(dst: usize, count: u64) {
    if !on() {
        return;
    }
    PROF.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            if let Some(slot) = st.msgs_to.get_mut(dst) {
                *slot += count;
            }
            let mark = FlowMark {
                at_ns: st.now_ns(),
                peer: dst as u32,
                seq: st.seq + 1,
                count,
            };
            if st.flows_out.len() < st.config.flow_capacity {
                st.flows_out.push(mark);
            } else {
                st.flows_dropped += 1;
            }
        }
    });
}

/// Records an inbound mailbox batch of `count` messages from shard
/// `src`, tagged with the rendezvous just crossed.
#[inline]
pub fn flow_recv(src: usize, count: u64) {
    if !on() {
        return;
    }
    PROF.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            let mark = FlowMark {
                at_ns: st.now_ns(),
                peer: src as u32,
                seq: st.seq,
                count,
            };
            if st.flows_in.len() < st.config.flow_capacity {
                st.flows_in.push(mark);
            } else {
                st.flows_dropped += 1;
            }
        }
    });
}

// ---------------------------------------------------------------------
// Aggregation & reporting
// ---------------------------------------------------------------------

/// Per-shard totals folded over one or more profiled points (seeds).
#[derive(Debug, Clone, Default)]
pub struct ShardAgg {
    /// Shard id.
    pub shard: usize,
    /// Summed wall-clock nanoseconds across points.
    pub total_ns: u64,
    /// Summed per-phase nanoseconds across points.
    pub phase_ns: [u64; NPHASES],
    /// Windows sampled across points.
    pub windows: u64,
    /// Cross-shard messages sent across points.
    pub messages: u64,
}

impl ShardAgg {
    /// Nanoseconds attributed to named phases.
    pub fn attributed_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }
}

fn shard_count(points: &[&[Profile]]) -> usize {
    points
        .iter()
        .flat_map(|p| p.iter())
        .map(|p| p.shards)
        .max()
        .unwrap_or(0)
}

/// Folds per-point per-shard profiles into one [`ShardAgg`] per shard.
pub fn aggregate(points: &[&[Profile]]) -> Vec<ShardAgg> {
    let shards = shard_count(points);
    let mut out: Vec<ShardAgg> = (0..shards)
        .map(|shard| ShardAgg {
            shard,
            ..ShardAgg::default()
        })
        .collect();
    for point in points {
        for p in point.iter() {
            let a = &mut out[p.shard];
            a.total_ns += p.total_ns;
            for (dst, src) in a.phase_ns.iter_mut().zip(p.phase_ns.iter()) {
                *dst += src;
            }
            a.windows += p.windows.len() as u64;
            a.messages += p.msgs_to.iter().sum::<u64>();
        }
    }
    out
}

/// The run's cross-shard message matrix: `matrix[src][dst]` messages,
/// summed across points. Exact (fed by [`flow_send`], never capped).
pub fn message_matrix(points: &[&[Profile]]) -> Vec<Vec<u64>> {
    let shards = shard_count(points);
    let mut m = vec![vec![0u64; shards]; shards];
    for point in points {
        for p in point.iter() {
            for (dst, n) in p.msgs_to.iter().enumerate() {
                m[p.shard][dst] += n;
            }
        }
    }
    m
}

/// Straggler analysis: splits each point's window sequence into ten
/// deciles and reports, per decile, the shard that was most often the
/// *straggler* (largest in-window execute time — the shard the others
/// waited for). Returns `(modal straggler shard, times it straggled,
/// windows in the decile)` per decile; empty when no windows sampled.
pub fn straggler_deciles(points: &[&[Profile]]) -> Vec<(usize, u64, u64)> {
    let shards = shard_count(points);
    if shards == 0 {
        return Vec::new();
    }
    // counts[decile][shard] = windows in which `shard` straggled.
    let mut counts = vec![vec![0u64; shards]; 10];
    let mut totals = [0u64; 10];
    for point in points {
        // Window index i means the same negotiated window on every
        // shard of a point; profiles with fewer samples (capped) bound
        // the comparable range.
        let n = point.iter().map(|p| p.windows.len()).min().unwrap_or(0);
        if n == 0 {
            continue;
        }
        for i in 0..n {
            let straggler = point
                .iter()
                .max_by_key(|p| p.windows[i].exec_ns)
                .map(|p| p.shard)
                .unwrap_or(0);
            let decile = (i * 10 / n).min(9);
            counts[decile][straggler] += 1;
            totals[decile] += 1;
        }
    }
    if totals.iter().all(|&t| t == 0) {
        return Vec::new();
    }
    (0..10)
        .map(|d| {
            let (shard, &n) = counts[d]
                .iter()
                .enumerate()
                .max_by_key(|(_, &n)| n)
                .unwrap();
            (shard, n, totals[d])
        })
        .collect()
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// Renders the human profile table: per-shard wall-clock and phase
/// percentages, the compute / barrier-wait / exchange headline, the
/// straggler-by-decile line, and the cross-shard message matrix.
/// Wall-clock and therefore nondeterministic — never part of a
/// canonical export.
pub fn render_table(points: &[&[Profile]]) -> String {
    let aggs = aggregate(points);
    let mut out = String::new();
    if aggs.is_empty() {
        out.push_str("  wall-clock profile: no sessions recorded\n");
        return out;
    }
    let _ = writeln!(
        out,
        "  wall-clock profile ({} point(s), {} shard track(s))",
        points.len(),
        aggs.len()
    );
    let _ = writeln!(
        out,
        "  shard     wall ms   attr%  setup%   exec%  negot%  mailbx%  barrier%  extend%  elide%  finish%"
    );
    let mut grand = ShardAgg::default();
    for a in &aggs {
        grand.total_ns += a.total_ns;
        for (dst, src) in grand.phase_ns.iter_mut().zip(a.phase_ns.iter()) {
            *dst += src;
        }
        let attr = a.attributed_ns();
        let _ = writeln!(
            out,
            "  {:<7} {:>9.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>8.1} {:>9.1} {:>8.1} {:>7.1} {:>8.1}",
            a.shard,
            a.total_ns as f64 / 1e6,
            pct(attr, a.total_ns),
            pct(a.phase_ns[Phase::Setup.index()], attr),
            pct(a.phase_ns[Phase::Execute.index()], attr),
            pct(a.phase_ns[Phase::Negotiate.index()], attr),
            pct(a.phase_ns[Phase::Mailbox.index()], attr),
            pct(a.phase_ns[Phase::Barrier.index()], attr),
            pct(a.phase_ns[Phase::Extend.index()], attr),
            pct(a.phase_ns[Phase::Elide.index()], attr),
            pct(a.phase_ns[Phase::Finish.index()], attr),
        );
    }
    let attr = grand.attributed_ns();
    let compute = grand.phase_ns[Phase::Execute.index()];
    let wait = grand.phase_ns[Phase::Negotiate.index()] + grand.phase_ns[Phase::Barrier.index()];
    let exchange = grand.phase_ns[Phase::Mailbox.index()] + grand.phase_ns[Phase::Extend.index()];
    let _ = writeln!(
        out,
        "  totals: compute {:.1}% | barrier-wait {:.1}% | exchange {:.1}% | attributed {:.1}% of wall",
        pct(compute, attr),
        pct(wait, attr),
        pct(exchange, attr),
        pct(attr, grand.total_ns),
    );
    let deciles = straggler_deciles(points);
    if !deciles.is_empty() && aggs.len() > 1 {
        out.push_str("  straggler shard by window decile (largest in-window execute):\n   ");
        for (d, (shard, n, total)) in deciles.iter().enumerate() {
            if *total == 0 {
                continue;
            }
            let _ = write!(out, " d{d}:s{shard}({:.0}%)", pct(*n, *total));
        }
        out.push('\n');
    }
    let matrix = message_matrix(points);
    if matrix.iter().flatten().any(|&n| n > 0) {
        out.push_str("  cross-shard messages (row = from, col = to):\n");
        out.push_str("  from \\ to");
        for dst in 0..matrix.len() {
            let _ = write!(out, " {dst:>10}");
        }
        out.push('\n');
        for (src, row) in matrix.iter().enumerate() {
            let _ = write!(out, "  {src:<9}");
            for (dst, n) in row.iter().enumerate() {
                if src == dst {
                    let _ = write!(out, " {:>10}", "-");
                } else {
                    let _ = write!(out, " {n:>10}");
                }
            }
            out.push('\n');
        }
    }
    let dropped: u64 = points
        .iter()
        .flat_map(|p| p.iter())
        .map(|p| p.spans_dropped + p.windows_dropped + p.flows_dropped)
        .sum();
    if dropped > 0 {
        let _ = writeln!(
            out,
            "  note: {dropped} timeline record(s) beyond retention caps (totals stay exact)"
        );
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Microseconds with nanosecond precision, the trace-event `ts` unit.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

/// Renders profiled points as Chrome trace-event JSON, loadable in
/// Perfetto (`ui.perfetto.dev`) or `chrome://tracing`: one process per
/// point, one thread track per shard, phase laps as complete (`"X"`)
/// spans, and matched [`flow_send`]/[`flow_recv`] pairs as flow arrows
/// (`"s"`/`"f"`) between tracks. Events on each track are emitted in
/// nondecreasing `ts` order.
pub fn to_trace_json(points: &[(String, &[Profile])]) -> String {
    // (pid, tid, ts_ns, rendered event) — sorted so every track is
    // monotone and tracks are grouped.
    let mut events: Vec<(usize, usize, u64, String)> = Vec::new();
    let mut meta: Vec<String> = Vec::new();
    for (idx, (label, profiles)) in points.iter().enumerate() {
        let pid = idx + 1;
        meta.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(label)
        ));
        for p in profiles.iter() {
            let tid = p.shard;
            meta.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"shard {tid}\"}}}}"
            ));
            for s in &p.spans {
                events.push((
                    pid,
                    tid,
                    s.start_ns,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{},\
                         \"dur\":{},\"pid\":{pid},\"tid\":{tid}}}",
                        s.phase.label(),
                        us(s.start_ns),
                        us(s.end_ns - s.start_ns),
                    ),
                ));
            }
        }
        // Flow arrows: match send/recv marks by (seq, src, dst).
        let mut sends: std::collections::HashMap<(u64, u32, u32), (u64, u64)> =
            std::collections::HashMap::new();
        for p in profiles.iter() {
            for f in &p.flows_out {
                sends.insert((f.seq, p.shard as u32, f.peer), (f.at_ns, f.count));
            }
        }
        let shards = shard_count(&[profiles]) as u64;
        for p in profiles.iter() {
            for f in &p.flows_in {
                let key = (f.seq, f.peer, p.shard as u32);
                let Some(&(sent_at, count)) = sends.get(&key) else {
                    continue;
                };
                let id = ((pid as u64) << 48)
                    | ((f.seq * shards + f.peer as u64) * shards + p.shard as u64);
                events.push((
                    pid,
                    f.peer as usize,
                    sent_at,
                    format!(
                        "{{\"name\":\"xshard\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{id},\
                         \"ts\":{},\"pid\":{pid},\"tid\":{},\"args\":{{\"msgs\":{count}}}}}",
                        us(sent_at),
                        f.peer,
                    ),
                ));
                events.push((
                    pid,
                    p.shard,
                    f.at_ns.max(sent_at),
                    format!(
                        "{{\"name\":\"xshard\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\
                         \"id\":{id},\"ts\":{},\"pid\":{pid},\"tid\":{}}}",
                        us(f.at_ns.max(sent_at)),
                        p.shard,
                    ),
                ));
            }
        }
    }
    events.sort_by_key(|a| (a.0, a.1, a.2));
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    for m in &meta {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(m);
    }
    for (_, _, _, e) in &events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(e);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t0 = Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_path_is_inert() {
        let _ = disable();
        lap(Phase::Execute);
        window_begin();
        window_end();
        rendezvous(2);
        flow_send(0, 5);
        flow_recv(0, 5);
        assert!(!on());
        assert!(disable().is_none());
    }

    #[test]
    fn laps_attribute_every_nanosecond() {
        enable(Instant::now(), 0, 1);
        spin(50_000);
        lap(Phase::Setup);
        spin(50_000);
        lap(Phase::Execute);
        let p = disable().expect("session");
        assert_eq!(
            p.attributed_ns(),
            p.total_ns,
            "lap model must attribute the whole session"
        );
        assert!(p.phase_ns[Phase::Setup.index()] >= 50_000);
        assert!(p.phase_ns[Phase::Execute.index()] >= 50_000);
        // The tail between the last lap and disable lands in Finish.
        assert_eq!(p.spans.last().unwrap().phase, Phase::Finish);
        // Spans tile the session: contiguous, no gaps.
        assert_eq!(p.spans[0].start_ns, p.start_ns);
        for w in p.spans.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns, "timeline must be gap-free");
        }
    }

    #[test]
    fn window_samples_nest_the_phase_spans_between_their_bounds() {
        enable(Instant::now(), 0, 2);
        lap(Phase::Mailbox);
        lap(Phase::Negotiate);
        window_begin();
        spin(20_000);
        lap(Phase::Execute);
        lap(Phase::Mailbox);
        spin(20_000);
        lap(Phase::Barrier);
        window_end();
        lap(Phase::Negotiate);
        let p = disable().expect("session");
        assert_eq!(p.windows.len(), 1);
        let w = p.windows[0];
        let exec: u64 = p
            .spans
            .iter()
            .filter(|s| s.phase == Phase::Execute)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let barrier: u64 = p
            .spans
            .iter()
            .filter(|s| s.phase == Phase::Barrier)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(
            w.exec_ns, exec,
            "window must absorb exactly its execute laps"
        );
        assert_eq!(w.wait_ns, barrier, "in-window barrier time is wait");
        // The window opens where the negotiate lap ended and closes
        // where its final barrier lap ended — span nesting by times.
        let negotiate_end = p
            .spans
            .iter()
            .find(|s| s.phase == Phase::Negotiate)
            .unwrap()
            .end_ns;
        assert_eq!(w.start_ns, negotiate_end);
        assert!(w.end_ns >= w.start_ns + 40_000);
        for s in p.spans.iter().filter(|s| s.phase == Phase::Execute) {
            assert!(
                s.start_ns >= w.start_ns && s.end_ns <= w.end_ns,
                "execute spans nest inside their window"
            );
        }
        // The post-window negotiate lap must not leak into the sample.
        assert!(w.wait_ns < p.phase_ns[Phase::Negotiate.index()] + barrier);
    }

    #[test]
    fn span_cap_evicts_loudly_but_totals_stay_exact() {
        enable_with(
            Instant::now(),
            0,
            1,
            ProfConfig {
                span_capacity: 2,
                ..ProfConfig::default()
            },
        );
        for _ in 0..5 {
            spin(5_000);
            lap(Phase::Execute);
        }
        let p = disable().expect("session");
        assert_eq!(p.spans.len(), 2);
        assert_eq!(p.spans_dropped, 4, "3 execute laps + the finish lap");
        assert_eq!(p.attributed_ns(), p.total_ns, "totals unaffected by caps");
        assert!(p.phase_ns[Phase::Execute.index()] >= 25_000);
    }

    fn fake_profile(shard: usize, shards: usize, exec: u64, wait: u64) -> Profile {
        let mut phase_ns = [0u64; NPHASES];
        phase_ns[Phase::Execute.index()] = exec;
        phase_ns[Phase::Barrier.index()] = wait;
        Profile {
            shard,
            shards,
            start_ns: 0,
            total_ns: exec + wait,
            phase_ns,
            spans: vec![
                ProfSpan {
                    phase: Phase::Execute,
                    start_ns: 0,
                    end_ns: exec,
                },
                ProfSpan {
                    phase: Phase::Barrier,
                    start_ns: exec,
                    end_ns: exec + wait,
                },
            ],
            spans_dropped: 0,
            windows: (0..10)
                .map(|i| WindowSample {
                    start_ns: i * 100,
                    end_ns: i * 100 + 100,
                    // Shard 1 executes longer in every window.
                    exec_ns: 10 + shard as u64 * 5,
                    wait_ns: 5,
                })
                .collect(),
            windows_dropped: 0,
            flows_out: Vec::new(),
            flows_in: Vec::new(),
            flows_dropped: 0,
            msgs_to: (0..shards)
                .map(|d| if d == shard { 0 } else { 7 })
                .collect(),
        }
    }

    #[test]
    fn aggregation_folds_points_per_shard() {
        let a = vec![fake_profile(0, 2, 100, 50), fake_profile(1, 2, 120, 30)];
        let b = vec![fake_profile(0, 2, 10, 5), fake_profile(1, 2, 12, 3)];
        let aggs = aggregate(&[&a, &b]);
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].phase_ns[Phase::Execute.index()], 110);
        assert_eq!(aggs[1].phase_ns[Phase::Execute.index()], 132);
        assert_eq!(aggs[0].total_ns, 165);
        assert_eq!(aggs[0].windows, 20);
        assert_eq!(aggs[0].messages, 14);
        let m = message_matrix(&[&a, &b]);
        assert_eq!(m[0][1], 14);
        assert_eq!(m[1][0], 14);
        assert_eq!(m[0][0], 0);
        // Shard 1's exec_ns is larger in every window sample: it is the
        // straggler in all ten deciles.
        let deciles = straggler_deciles(&[&a, &b]);
        assert_eq!(deciles.len(), 10);
        for (shard, n, total) in deciles {
            assert_eq!(shard, 1);
            assert_eq!(n, total);
        }
    }

    #[test]
    fn render_table_names_the_headline_fractions() {
        let a = vec![fake_profile(0, 2, 100, 50), fake_profile(1, 2, 120, 30)];
        let text = render_table(&[&a]);
        assert!(text.contains("wall-clock profile"));
        assert!(text.contains("compute"));
        assert!(text.contains("barrier-wait"));
        assert!(text.contains("exchange"));
        assert!(text.contains("straggler shard by window decile"));
        assert!(text.contains("cross-shard messages"));
    }

    #[test]
    fn trace_json_pairs_flows_and_keeps_tracks_monotone() {
        let mut a = fake_profile(0, 2, 100, 50);
        let mut b = fake_profile(1, 2, 120, 30);
        a.flows_out.push(FlowMark {
            at_ns: 90,
            peer: 1,
            seq: 3,
            count: 7,
        });
        b.flows_in.push(FlowMark {
            at_ns: 130,
            peer: 0,
            seq: 3,
            count: 7,
        });
        // An unmatched recv (sender side evicted) must be skipped, not
        // emitted as a dangling arrow.
        b.flows_in.push(FlowMark {
            at_ns: 140,
            peer: 0,
            seq: 9,
            count: 1,
        });
        let point = vec![a, b];
        let json = to_trace_json(&[("seed 1".to_string(), &point)]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"execute\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1, "one matched flow");
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1);
        // Monotone ts per (pid, tid) track over complete spans: walk the
        // rendered lines in order and track the last ts seen per track.
        let mut last: std::collections::HashMap<(u64, u64), f64> = std::collections::HashMap::new();
        for line in json.lines().filter(|l| l.contains("\"ph\":\"X\"")) {
            let field = |k: &str| -> f64 {
                let i = line.find(k).unwrap() + k.len();
                line[i..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '.')
                    .collect::<String>()
                    .parse()
                    .unwrap()
            };
            let key = (field("\"pid\":") as u64, field("\"tid\":") as u64);
            let ts = field("\"ts\":");
            assert!(
                ts >= *last.get(&key).unwrap_or(&-1.0),
                "track {key:?} ts must be nondecreasing"
            );
            last.insert(key, ts);
        }
        assert!(!last.is_empty());
    }

    #[test]
    fn flow_marks_tag_the_carrying_rendezvous() {
        enable(Instant::now(), 0, 2);
        rendezvous(2); // a negotiation
        flow_send(1, 4); // published before barrier 3
        rendezvous(1); // the exchange that carries it
        flow_recv(1, 2); // accepted right after barrier 3
        let p = disable().expect("session");
        assert_eq!(p.flows_out[0].seq, 3);
        assert_eq!(p.flows_in[0].seq, 3);
        assert_eq!(p.msgs_to[1], 4);
        assert_eq!(p.msgs_to[0], 0);
    }
}
