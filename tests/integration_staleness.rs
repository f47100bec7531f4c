//! §4 / Figure 3 end-to-end: the aggregation-register staleness bound.
//!
//! The paper's claim: "staleness is bounded if the pipeline runs slightly
//! faster than the line rate (as is typical)" — and, implicitly, grows
//! without bound at exactly line rate.

use edp_core::{run_staleness_experiment, AggregConfig, AggregatedState};

#[test]
fn staleness_bounded_iff_faster_than_line_rate() {
    let cfg = AggregConfig {
        entries: 16,
        folds_per_idle_cycle: 1,
    };
    let at_line_rate = run_staleness_experiment(cfg, 1.0, 30_000, |p| (p % 16) as usize);
    let slightly_faster = run_staleness_experiment(cfg, 1.25, 30_000, |p| (p % 16) as usize);
    let much_faster = run_staleness_experiment(cfg, 2.0, 30_000, |p| (p % 16) as usize);

    // At line rate: monotone growth, never drains. 30k packets spread 2
    // ops of 100 bytes over 16 entries: ~375 KB parked per entry.
    assert!(!at_line_rate.drained);
    assert!(at_line_rate.max_staleness > 300_000);

    // Faster than line rate: bounded, and more headroom = tighter.
    assert!(slightly_faster.max_staleness < at_line_rate.max_staleness / 10);
    assert!(much_faster.max_staleness <= slightly_faster.max_staleness);
    assert!(much_faster.mean_staleness <= slightly_faster.mean_staleness);
}

#[test]
fn staleness_scales_down_with_headroom_sweep() {
    // The figure's x-axis: pipeline speedup; y-axis: staleness. Must be
    // monotonically non-increasing (modulo small plateaus).
    let cfg = AggregConfig {
        entries: 8,
        folds_per_idle_cycle: 1,
    };
    let sweep: Vec<f64> = [1.05, 1.1, 1.25, 1.5, 2.0, 3.0]
        .iter()
        .map(|&s| run_staleness_experiment(cfg, s, 20_000, |p| (p % 8) as usize).mean_staleness)
        .collect();
    for w in sweep.windows(2) {
        assert!(
            w[1] <= w[0] * 1.05,
            "staleness not decreasing with speedup: {sweep:?}"
        );
    }
}

#[test]
fn reads_see_consistent_state_after_drain() {
    // After the workload ends and idle cycles drain the aggregation
    // arrays, the main register equals ground truth exactly.
    let mut st = AggregatedState::new(AggregConfig {
        entries: 4,
        folds_per_idle_cycle: 2,
    });
    let mut truth = [0i64; 4];
    for p in 0..1000u64 {
        let q = (p % 4) as usize;
        st.enqueue(q, 100);
        truth[q] += 100;
        if p % 3 == 0 {
            let dq = ((p / 3) % 4) as usize;
            st.dequeue(dq, 60);
            truth[dq] = (truth[dq] - 60).max(0);
        }
    }
    while !st.is_drained() {
        st.idle_cycle();
    }
    for (q, &t) in truth.iter().enumerate() {
        assert_eq!(st.packet_read(q) as i64, t, "queue {q}");
        assert_eq!(st.staleness(q), 0);
    }
}

#[test]
fn bandwidth_accuracy_tradeoff() {
    // §4: "packet processing bandwidth versus accuracy of the data-plane
    // algorithm" — freeing pipeline capacity (more folds per idle cycle,
    // i.e. fewer external ports in use) buys accuracy.
    let speedup = 1.1;
    let errs: Vec<f64> = [1usize, 2, 4, 8]
        .iter()
        .map(|&folds| {
            let cfg = AggregConfig {
                entries: 32,
                folds_per_idle_cycle: folds,
            };
            run_staleness_experiment(cfg, speedup, 30_000, |p| (p % 32) as usize).mean_staleness
        })
        .collect();
    assert!(
        errs.windows(2).all(|w| w[1] <= w[0] * 1.05),
        "more fold bandwidth must not worsen staleness: {errs:?}"
    );
    assert!(
        errs[3] < errs[0],
        "8x fold bandwidth should measurably help: {errs:?}"
    );
}
