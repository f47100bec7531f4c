//! Figure 3 / §4 — aggregation registers: staleness vs. pipeline headroom.
//!
//! Sweeps the pipeline speedup factor (pipeline slots per line-rate
//! packet) and the idle-cycle fold budget, reporting the staleness of the
//! main register. Reproduction targets:
//!
//! * staleness grows without bound at exactly line rate (speedup 1.0);
//! * it is bounded for any speedup > 1 ("staleness is bounded if the
//!   pipeline runs slightly faster than the line rate");
//! * more idle-cycle memory bandwidth tightens the bound (the paper's
//!   "packet processing bandwidth versus accuracy" trade-off).

use crate::{f2, Report};
use edp_core::{run_staleness_experiment, AggregConfig, StalenessReport};
use edp_evsim::{default_threads, sweep};

pub fn run() -> Report {
    let mut report = Report::default();
    const ENTRIES: usize = 64;
    const PACKETS: u64 = 200_000;

    let table = report.table(
        "Figure 3: staleness vs pipeline speedup (folds/idle-cycle = 1)",
        &[
            ("speedup", 8),
            ("max stale (B)", 14),
            ("mean stale (B)", 15),
            ("stale reads", 12),
            ("end backlog", 12),
        ],
    );
    // The sweep points are independent simulations: fan them out over a
    // thread pool (results come back in input order, bit-identical to a
    // sequential run).
    let speedups = vec![1.0, 1.02, 1.05, 1.1, 1.25, 1.5, 2.0];
    let reports: Vec<StalenessReport> = sweep(speedups.clone(), default_threads(), |speedup| {
        let cfg = AggregConfig {
            entries: ENTRIES,
            folds_per_idle_cycle: 1,
        };
        run_staleness_experiment(cfg, speedup, PACKETS, |p| (p % ENTRIES as u64) as usize)
    });
    for (speedup, r) in speedups.iter().zip(&reports) {
        table.row(cells![
            f2(*speedup),
            r.max_staleness,
            f2(r.mean_staleness),
            f2(r.stale_read_frac),
            r.final_pending
        ]);
    }

    let table = report.table(
        "ablation: idle-cycle fold budget at speedup 1.1",
        &[
            ("folds/idle", 11),
            ("max stale (B)", 14),
            ("mean stale (B)", 15),
        ],
    );
    for &folds in &[1usize, 2, 4, 8, 16] {
        let cfg = AggregConfig {
            entries: ENTRIES,
            folds_per_idle_cycle: folds,
        };
        let r = run_staleness_experiment(cfg, 1.1, PACKETS, |p| (p % ENTRIES as u64) as usize);
        table.row(cells![folds, r.max_staleness, f2(r.mean_staleness)]);
    }

    let table = report.table(
        "skewed workload (all ops hit one entry) at folds = 1",
        &[
            ("speedup", 8),
            ("max stale (B)", 14),
            ("mean stale (B)", 15),
        ],
    );
    for &speedup in &[1.0, 1.1, 1.5] {
        let cfg = AggregConfig {
            entries: ENTRIES,
            folds_per_idle_cycle: 1,
        };
        let r = run_staleness_experiment(cfg, speedup, PACKETS, |_| 0);
        table.row(cells![f2(speedup), r.max_staleness, f2(r.mean_staleness)]);
    }

    report.note(
        "staleness = unapplied aggregated bytes (enq_agg + deq_agg), the \
         quantity that bounds both read error and required aggregation \
         register width. Unbounded at speedup 1.0, bounded for any \
         speedup > 1 — the paper's §4 claim.",
    )
}
