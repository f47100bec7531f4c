//! Reproducibility: a run is a pure function of (program, seed).
//!
//! The experiment harness depends on this — every table in
//! EXPERIMENTS.md must regenerate bit-identically.

use edp_apps::common::{run_until, Dumbbell, Flow, Pattern, Scenario};
use edp_apps::fred::{FredAqm, TIMER_REPORT};
use edp_core::{EventSwitch, EventSwitchConfig, TimerSpec};
use edp_evsim::{SimDuration, SimTime};
use edp_pisa::QueueConfig;

/// A moderately complex run: FRED switch, CBR + Poisson traffic, timers.
/// Returns a fingerprint of everything observable.
fn fingerprint(seed: u64) -> (u64, u64, u64, Vec<(u64, u64)>) {
    let cfg = EventSwitchConfig {
        n_ports: 3,
        queue: QueueConfig {
            capacity_bytes: 40_000,
            ..QueueConfig::default()
        },
        timers: vec![TimerSpec {
            id: TIMER_REPORT,
            period: SimDuration::from_millis(1),
            start: SimDuration::from_millis(1),
        }],
        ..Default::default()
    };
    let sw = EventSwitch::new(FredAqm::new(32, 40_000, 1500, 2), cfg);
    let interval = SimDuration::from_micros(40);
    let cbr = Flow::cbr(0, SimTime::ZERO, interval, u64::MAX, 1, 2, 1200);
    let mean = SimDuration::from_micros(60);
    let poisson = Flow {
        from: 1,
        sport: 3,
        dport: 4,
        len: 800,
        pattern: Pattern::Poisson(SimTime::ZERO, mean, SimTime::from_millis(30)),
    };
    let sc = Scenario {
        dumbbell: Dumbbell {
            senders: 2,
            bottleneck_bps: 200_000_000,
            seed,
        },
        flows: vec![cbr, poisson],
        until: SimTime::from_millis(30),
    };
    let sink = sc.sink();
    let (mut net, mut sim) = sc.build(Box::new(sw));
    run_until(&mut net, &mut sim, sc.until);
    let prog = &net.switch_as::<EventSwitch<FredAqm>>(0).program;
    let series: Vec<(u64, u64)> = prog
        .occupancy_series
        .points()
        .iter()
        .map(|&(t, v)| (t, v as u64))
        .collect();
    (
        net.hosts[sink].stats.rx_pkts,
        net.hosts[sink].stats.rx_bytes,
        sim.events_fired(),
        series,
    )
}

#[test]
fn identical_seeds_produce_identical_runs() {
    let a = fingerprint(424242);
    let b = fingerprint(424242);
    assert_eq!(a, b, "same seed must be bit-identical");
}

#[test]
fn different_seeds_differ() {
    let a = fingerprint(1);
    let b = fingerprint(2);
    // Poisson arrivals differ => some observable difference.
    assert_ne!((a.0, a.1, a.2), (b.0, b.1, b.2), "seeds should matter");
}

#[test]
fn staleness_experiment_is_deterministic() {
    use edp_core::{run_staleness_experiment, AggregConfig};
    let cfg = AggregConfig {
        entries: 8,
        folds_per_idle_cycle: 1,
    };
    let a = run_staleness_experiment(cfg, 1.3, 10_000, |p| (p % 8) as usize);
    let b = run_staleness_experiment(cfg, 1.3, 10_000, |p| (p % 8) as usize);
    assert_eq!(a.max_staleness, b.max_staleness);
    assert_eq!(a.mean_staleness, b.mean_staleness);
    assert_eq!(a.stale_read_frac, b.stale_read_frac);
}
