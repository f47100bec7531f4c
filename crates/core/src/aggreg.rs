//! Aggregation registers for single-ported state (§4, Figure 3).
//!
//! On a high-line-rate device, multiported memory is impractical, so the
//! logically-shared state is kept in a *single-ported* main register
//! array. Packet events get the main register's port every cycle they
//! need it; enqueue and dequeue events instead accumulate their
//! read-modify-writes into separate per-index *aggregation registers*.
//! During idle cycles — when the workload has larger-than-minimum packets
//! or the pipeline runs faster than line rate — the aggregated deltas are
//! folded into the main register.
//!
//! The price is *staleness*: the main register lags the true value by
//! whatever is still parked in the aggregation arrays. The paper's claim,
//! which `fig3_staleness` reproduces, is that staleness is **bounded** as
//! long as idle cycles arrive at a sufficient rate (pipeline faster than
//! line rate) and grows without bound otherwise.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A named binary merge/fold operation for aggregation registers.
///
/// Idle-cycle folding applies parked event-side updates to the main
/// register in an order the program does not control (§4): whichever
/// dirty slot reaches the front of the FIFO folds first, and updates from
/// different handler contexts interleave arbitrarily. A merge op is
/// therefore only legal when reordering provably cannot change the final
/// value — it must be **commutative**, **associative**, and have the
/// declared **identity** as its no-op element. `edp-analyze` checks all
/// three by exhaustive small-domain plus seeded randomized probing;
/// programs declare the ops backing their shared state in their
/// [`crate::AppManifest`].
#[derive(Debug, Clone, Copy)]
pub struct MergeOp {
    /// Human-readable operation name (stable; appears in diagnostics).
    pub name: &'static str,
    /// The identity element: `apply(identity, x) == x` for all `x`.
    pub identity: u64,
    /// The binary operation itself.
    pub apply: fn(u64, u64) -> u64,
}

fn merge_sat_add(a: u64, b: u64) -> u64 {
    a.saturating_add(b)
}

/// Saturating addition — the enqueue/dequeue delta-accumulation idiom
/// ([`AggregatedState::enqueue`] uses exactly this on its aggregation
/// array). Saturation preserves associativity: the result clamps iff the
/// true sum exceeds `u64::MAX`, regardless of grouping.
pub const MERGE_ADD: MergeOp = MergeOp {
    name: "sat-add",
    identity: 0,
    apply: merge_sat_add,
};

/// Configuration for an aggregated register bank.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AggregConfig {
    /// Number of state entries (e.g. queues whose size is tracked).
    pub entries: usize,
    /// Aggregated operations folded into the main register per idle
    /// cycle. 1 models a single spare port transaction; higher values
    /// model a wider idle-bandwidth budget.
    pub folds_per_idle_cycle: usize,
}

impl Default for AggregConfig {
    fn default() -> Self {
        AggregConfig {
            entries: 64,
            folds_per_idle_cycle: 1,
        }
    }
}

/// Which aggregation array a pending fold lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Side {
    Enq,
    Deq,
}

/// The Figure 3 register complex: main state + enqueue/dequeue
/// aggregation arrays with idle-cycle folding.
#[derive(Debug, Clone)]
pub struct AggregatedState {
    /// Diagnostic name (appears in analyzer access matrices).
    name: String,
    cfg: AggregConfig,
    /// Algorithmic state as packet events read it (possibly stale).
    /// Signed: fold order can transiently invert an enqueue/dequeue pair
    /// (the dequeue's SUB may fold before its enqueue's ADD), so the
    /// register is two's-complement like real hardware; reads clamp at 0.
    main: Vec<i64>,
    /// Pending increments from enqueue events.
    enq_agg: Vec<u64>,
    /// Pending decrements from dequeue events.
    deq_agg: Vec<u64>,
    /// FIFO of dirty (side, index) pairs awaiting a fold; an index
    /// appears at most once per side.
    dirty: VecDeque<(Side, usize)>,
    enq_dirty: Vec<bool>,
    deq_dirty: Vec<bool>,
    /// Counters.
    folds: u64,
    idle_cycles: u64,
    stale_reads: u64,
    reads: u64,
    /// FNV hash of `name`, precomputed for telemetry records.
    tele_id: u32,
}

impl AggregatedState {
    /// Creates a zeroed bank.
    pub fn new(cfg: AggregConfig) -> Self {
        Self::named("aggregated", cfg)
    }

    /// Creates a zeroed bank under a diagnostic `name`.
    pub fn named(name: impl Into<String>, cfg: AggregConfig) -> Self {
        assert!(cfg.entries > 0 && cfg.folds_per_idle_cycle > 0);
        let name = name.into();
        AggregatedState {
            tele_id: edp_telemetry::register_label(&name),
            name,
            main: vec![0; cfg.entries],
            enq_agg: vec![0; cfg.entries],
            deq_agg: vec![0; cfg.entries],
            dirty: VecDeque::new(),
            enq_dirty: vec![false; cfg.entries],
            deq_dirty: vec![false; cfg.entries],
            cfg,
            folds: 0,
            idle_cycles: 0,
            stale_reads: 0,
            reads: 0,
        }
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.cfg.entries
    }

    /// Packet-event read of entry `i`: returns the **main** register value,
    /// which may be stale.
    pub fn packet_read(&mut self, i: usize) -> u64 {
        let i = i % self.cfg.entries;
        self.reads += 1;
        edp_pisa::probe::record(
            &self.name,
            edp_pisa::ProbeClass::Aggregated,
            edp_pisa::ProbeAccess::Read,
        );
        if self.enq_agg[i] != 0 || self.deq_agg[i] != 0 {
            self.stale_reads += 1;
            if edp_telemetry::on() {
                // The bank has no sim clock; records are stamped with the
                // read ordinal, which is deterministic per run.
                let bound = self.enq_agg[i].saturating_add(self.deq_agg[i]);
                edp_telemetry::emit(
                    self.reads,
                    edp_telemetry::RecordKind::Staleness {
                        register: self.tele_id,
                        bound,
                    },
                );
                edp_telemetry::gauge_max("staleness_bound", &self.name, bound as i64);
            }
        }
        self.main[i].max(0) as u64
    }

    /// Enqueue-event handler: aggregate `delta` for entry `i`.
    pub fn enqueue(&mut self, i: usize, delta: u64) {
        let i = i % self.cfg.entries;
        edp_pisa::probe::record(
            &self.name,
            edp_pisa::ProbeClass::Aggregated,
            edp_pisa::ProbeAccess::Write,
        );
        self.enq_agg[i] = self.enq_agg[i].saturating_add(delta);
        if !self.enq_dirty[i] {
            self.enq_dirty[i] = true;
            self.dirty.push_back((Side::Enq, i));
        }
    }

    /// Dequeue-event handler: aggregate `delta` for entry `i`.
    pub fn dequeue(&mut self, i: usize, delta: u64) {
        let i = i % self.cfg.entries;
        edp_pisa::probe::record(
            &self.name,
            edp_pisa::ProbeClass::Aggregated,
            edp_pisa::ProbeAccess::Write,
        );
        self.deq_agg[i] = self.deq_agg[i].saturating_add(delta);
        if !self.deq_dirty[i] {
            self.deq_dirty[i] = true;
            self.dirty.push_back((Side::Deq, i));
        }
    }

    /// An idle pipeline cycle: fold up to `folds_per_idle_cycle` pending
    /// aggregation entries into the main register. Returns folds applied.
    pub fn idle_cycle(&mut self) -> usize {
        self.idle_cycles += 1;
        let mut applied = 0;
        while applied < self.cfg.folds_per_idle_cycle {
            let Some((side, i)) = self.dirty.pop_front() else {
                break;
            };
            match side {
                Side::Enq => {
                    self.main[i] += self.enq_agg[i] as i64;
                    self.enq_agg[i] = 0;
                    self.enq_dirty[i] = false;
                }
                Side::Deq => {
                    self.main[i] -= self.deq_agg[i] as i64;
                    self.deq_agg[i] = 0;
                    self.deq_dirty[i] = false;
                }
            }
            self.folds += 1;
            applied += 1;
        }
        if applied > 0 {
            // Stamped with the idle-cycle ordinal (no sim clock here).
            edp_telemetry::emit(
                self.idle_cycles,
                edp_telemetry::RecordKind::RegisterFlush {
                    register: self.tele_id,
                    folds: applied as u64,
                },
            );
        }
        applied
    }

    /// The exact (unstale) value of entry `i`: main plus parked deltas.
    pub fn true_value(&self, i: usize) -> u64 {
        let i = i % self.cfg.entries;
        (self.main[i] + self.enq_agg[i] as i64 - self.deq_agg[i] as i64).max(0) as u64
    }

    /// Staleness of entry `i`: the total unapplied aggregated magnitude
    /// (`enq_agg + deq_agg`). This is the paper's bounded/unbounded
    /// quantity — it upper-bounds the instantaneous read error *and* the
    /// counter width the aggregation registers must provision.
    pub fn staleness(&self, i: usize) -> u64 {
        let i = i % self.cfg.entries;
        self.enq_agg[i].saturating_add(self.deq_agg[i])
    }

    /// Worst staleness across all entries.
    pub fn max_staleness(&self) -> u64 {
        (0..self.cfg.entries)
            .map(|i| self.staleness(i))
            .max()
            .unwrap_or(0)
    }

    /// Pending aggregated operations not yet folded.
    pub fn pending_folds(&self) -> usize {
        self.dirty.len()
    }

    /// True when main equals the true value everywhere.
    pub fn is_drained(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Folds applied so far.
    pub fn folds(&self) -> u64 {
        self.folds
    }

    /// Idle cycles seen so far.
    pub fn idle_cycles(&self) -> u64 {
        self.idle_cycles
    }

    /// Packet reads that observed a stale value.
    pub fn stale_reads(&self) -> u64 {
        self.stale_reads
    }

    /// Total packet reads.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// State footprint in words: main + both aggregation arrays (3×),
    /// what the resource model prices for this design.
    pub fn state_words(&self) -> usize {
        3 * self.cfg.entries
    }
}

/// Outcome summary of a [`run_staleness_experiment`] sweep point.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StalenessReport {
    /// Pipeline cycles per packet arrival (the speedup factor × packet
    /// serialization cycles).
    pub cycles_per_packet: f64,
    /// Worst staleness observed at any sampling point (bytes).
    pub max_staleness: u64,
    /// Mean staleness over samples (bytes).
    pub mean_staleness: f64,
    /// Fraction of packet reads that saw a stale value.
    pub stale_read_frac: f64,
    /// Whether the aggregation arrays fully drained by the end.
    pub drained: bool,
    /// Dirty aggregation slots left when the workload ended (the end
    /// backlog; bounded by construction at 2 × entries, so compare
    /// `max_staleness` for the unbounded-growth signal).
    pub final_pending: usize,
}

/// Drives an [`AggregatedState`] with a synthetic enqueue/dequeue/read
/// workload at a given pipeline speed, sampling staleness each packet.
///
/// `speedup` is the ratio of pipeline slots to line-rate packet slots:
/// `1.0` means every cycle carries a packet (no idle cycles, unbounded
/// staleness); `1.25` leaves one idle cycle per four packets. Every packet
/// performs one main-register read (its forwarding decision), one enqueue
/// op, and one dequeue op (for a packet leaving another queue) — the
/// example workload from §4.
pub fn run_staleness_experiment(
    cfg: AggregConfig,
    speedup: f64,
    packets: u64,
    queue_of: impl Fn(u64) -> usize,
) -> StalenessReport {
    assert!(speedup >= 1.0, "pipeline slower than line rate");
    let mut st = AggregatedState::new(cfg);
    let mut max_stale = 0u64;
    let mut sum_stale = 0f64;
    let mut samples = 0u64;
    // Fixed-point accumulator of idle-slot credit.
    let mut idle_credit = 0f64;
    for p in 0..packets {
        let q = queue_of(p);
        // Packet slot: read + enqueue to q, dequeue from the "previous" q.
        st.packet_read(q);
        st.enqueue(q, 100);
        st.dequeue(queue_of(p.wrapping_add(1)), 100);
        // Idle slots owed for this packet beyond its own slot.
        idle_credit += speedup - 1.0;
        while idle_credit >= 1.0 {
            st.idle_cycle();
            idle_credit -= 1.0;
        }
        let s = st.max_staleness();
        max_stale = max_stale.max(s);
        sum_stale += s as f64;
        samples += 1;
    }
    StalenessReport {
        cycles_per_packet: speedup,
        max_staleness: max_stale,
        mean_staleness: sum_stale / samples.max(1) as f64,
        stale_read_frac: st.stale_reads() as f64 / st.reads().max(1) as f64,
        drained: st.is_drained(),
        final_pending: st.pending_folds(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_worked_example() {
        // The exact scenario in Figure 3: enqueue ADD 200 to q0, ADD 100
        // to q3; dequeue SUB 100 from q0 and q2; main holds 300/0/200/0.
        let mut st = AggregatedState::new(AggregConfig {
            entries: 4,
            folds_per_idle_cycle: 1,
        });
        // Seed main by folding initial enqueues.
        st.enqueue(0, 300);
        st.enqueue(2, 200);
        while !st.is_drained() {
            st.idle_cycle();
        }
        assert_eq!(st.packet_read(0), 300);
        assert_eq!(st.packet_read(2), 200);

        // Now the figure's pending ops.
        st.enqueue(0, 200);
        st.enqueue(3, 100);
        st.dequeue(0, 100);
        st.dequeue(2, 100);
        // Main is stale; true values already reflect the ops.
        assert_eq!(st.packet_read(0), 300);
        assert_eq!(st.true_value(0), 400);
        assert_eq!(st.true_value(2), 100);
        assert_eq!(st.true_value(3), 100);
        assert_eq!(st.staleness(0), 300, "200 enq + 100 deq parked");
        // Four idle cycles drain everything.
        for _ in 0..4 {
            st.idle_cycle();
        }
        assert!(st.is_drained());
        assert_eq!(st.packet_read(0), 400);
        assert_eq!(st.packet_read(2), 100);
        assert_eq!(st.packet_read(3), 100);
        assert_eq!(st.max_staleness(), 0);
    }

    #[test]
    fn repeated_updates_aggregate_in_place() {
        let mut st = AggregatedState::new(AggregConfig {
            entries: 2,
            folds_per_idle_cycle: 1,
        });
        for _ in 0..10 {
            st.enqueue(1, 5);
        }
        assert_eq!(st.pending_folds(), 1, "same index coalesces");
        st.idle_cycle();
        assert_eq!(st.packet_read(1), 50);
    }

    #[test]
    fn staleness_bounded_when_faster_than_line_rate() {
        let r = run_staleness_experiment(
            AggregConfig {
                entries: 8,
                folds_per_idle_cycle: 1,
            },
            1.5,
            20_000,
            |p| (p % 8) as usize,
        );
        // 0.5 folds per packet over 16 coalescing slots: each slot is
        // served once per ~32 packets, so parked magnitude stays bounded.
        assert!(
            r.max_staleness < 8 * 100 * 10,
            "staleness {}",
            r.max_staleness
        );
        // And some staleness exists (it's not free).
        assert!(r.mean_staleness > 0.0);
    }

    #[test]
    fn staleness_grows_at_line_rate() {
        // speedup = 1.0: no idle cycles ever; aggregation never folds.
        let r = run_staleness_experiment(
            AggregConfig {
                entries: 4,
                folds_per_idle_cycle: 1,
            },
            1.0,
            5_000,
            |p| (p % 4) as usize,
        );
        assert!(!r.drained);
        assert!(
            r.max_staleness >= 100 * 1000,
            "staleness {}",
            r.max_staleness
        );
        assert!(r.stale_read_frac > 0.9);
    }

    #[test]
    fn wider_fold_budget_reduces_staleness() {
        let narrow = run_staleness_experiment(
            AggregConfig {
                entries: 16,
                folds_per_idle_cycle: 1,
            },
            1.1,
            20_000,
            |p| (p % 16) as usize,
        );
        let wide = run_staleness_experiment(
            AggregConfig {
                entries: 16,
                folds_per_idle_cycle: 4,
            },
            1.1,
            20_000,
            |p| (p % 16) as usize,
        );
        assert!(
            wide.mean_staleness <= narrow.mean_staleness,
            "wide {} vs narrow {}",
            wide.mean_staleness,
            narrow.mean_staleness
        );
    }

    #[test]
    fn state_words_triple() {
        let st = AggregatedState::new(AggregConfig {
            entries: 10,
            folds_per_idle_cycle: 1,
        });
        assert_eq!(st.state_words(), 30);
    }

    #[test]
    fn telemetry_records_staleness_and_flushes() {
        use edp_telemetry::RecordKind as RK;
        edp_telemetry::enable(edp_telemetry::TelemetryConfig::default());
        let mut st = AggregatedState::named(
            "qlen",
            AggregConfig {
                entries: 2,
                folds_per_idle_cycle: 2,
            },
        );
        st.enqueue(0, 100);
        st.packet_read(0); // stale: 100 parked
        st.idle_cycle(); // folds the one dirty slot
        st.packet_read(0); // fresh: no record
        let t = edp_telemetry::disable().expect("session");
        let reg = edp_telemetry::register_label("qlen");
        let recs: Vec<_> = t.ring.iter().map(|r| r.kind).collect();
        assert_eq!(
            recs,
            vec![
                RK::Staleness {
                    register: reg,
                    bound: 100
                },
                RK::RegisterFlush {
                    register: reg,
                    folds: 1
                },
            ]
        );
        assert_eq!(t.registry.gauge("staleness_bound", "qlen"), Some(100));
    }

    #[test]
    fn saturating_never_underflows() {
        let mut st = AggregatedState::new(AggregConfig::default());
        st.dequeue(0, 500); // dequeue before any enqueue folds
        st.idle_cycle();
        assert_eq!(st.packet_read(0), 0);
    }
}
