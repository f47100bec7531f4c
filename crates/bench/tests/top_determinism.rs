//! `edp_top` determinism: a sweep point's telemetry is a pure function
//! of its seed. Running the same seeds on 1 worker thread and on 8 must
//! produce byte-identical traces and exports — the acceptance bar for
//! `EDP_SWEEP_THREADS` independence. The sharded engine raises the bar:
//! the same point on 1, 2, or 4 shards must also be byte-identical,
//! for every registered app.

use edp_bench::top::{app_names, run, to_json_report, TopOptions, TopWorkload};
use edp_evsim::SimDuration;

fn opts(threads: usize) -> TopOptions {
    TopOptions {
        seeds: vec![1, 2, 3, 4],
        duration: SimDuration::from_millis(2),
        threads,
        trace_capacity: 8192,
        shards: 0,
        workload: TopWorkload::Cbr,
        profile: false,
    }
}

#[test]
fn trace_and_exports_identical_for_1_vs_8_threads() {
    for app in ["microburst", "ndp-trim"] {
        let a = run(app, &opts(1)).expect("1-thread run");
        let b = run(app, &opts(8)).expect("8-thread run");
        assert_eq!(a.trace, b.trace, "{app}: trace must not depend on threads");
        assert_eq!(
            to_json_report(&a),
            to_json_report(&b),
            "{app}: JSON report must not depend on threads"
        );
        assert_eq!(
            edp_telemetry::to_prometheus_text(&a.registry),
            edp_telemetry::to_prometheus_text(&b.registry),
            "{app}: Prometheus export must not depend on threads"
        );
        // The load actually exercised the switch in every point.
        assert!(a.registry.counter("rx", "sw0") > 0);
        assert!(a.trace.matches("== ").count() == 4, "one section per seed");
    }
}

/// Options for the shard-invariance sweep: short duration (16 apps x 3
/// shard counts), a ring big enough that no shard evicts (eviction order
/// is the one thing that legitimately depends on the shard count — the
/// summed `dropped` footer turns any eviction into a loud diff).
fn shard_opts(shards: usize) -> TopOptions {
    TopOptions {
        seeds: vec![1, 2],
        duration: SimDuration::from_millis(1),
        threads: 1,
        trace_capacity: 65_536,
        shards,
        workload: TopWorkload::Cbr,
        profile: false,
    }
}

#[test]
fn every_app_is_byte_identical_across_shard_counts() {
    for app in app_names() {
        let one = run(app, &shard_opts(1)).expect("1-shard run");
        assert!(one.trace_records > 0, "{app}: sharded run recorded nothing");
        assert_eq!(one.trace_dropped, 0, "{app}: ring evicted; raise capacity");
        let one_json = to_json_report(&one);
        let one_prom = edp_telemetry::to_prometheus_text(&one.registry);
        for shards in [2usize, 4] {
            let many = run(app, &shard_opts(shards)).expect("sharded run");
            assert_eq!(
                one.trace, many.trace,
                "{app}: trace differs at {shards} shards"
            );
            assert_eq!(
                one_json,
                to_json_report(&many),
                "{app}: JSON report differs at {shards} shards"
            );
            assert_eq!(
                one_prom,
                edp_telemetry::to_prometheus_text(&many.registry),
                "{app}: Prometheus export differs at {shards} shards"
            );
        }
    }
}

/// The PR-9 pin: the wall-clock profiler is opt-in and *outside* the
/// determinism boundary. Enabling it on the classic and the sharded
/// path must leave every canonical output — trace, JSON report,
/// Prometheus export — byte-identical to the unprofiled run, while the
/// profiles themselves land only in the separate `profiles` field.
#[test]
fn profiling_leaves_canonical_outputs_byte_identical() {
    for shards in [0usize, 2] {
        let off = shard_opts(shards); // 0 = the classic single-world path
        let base = run("microburst", &off).expect("unprofiled run");
        let mut on = off.clone();
        on.profile = true;
        let profiled = run("microburst", &on).expect("profiled run");
        assert_eq!(
            base.trace, profiled.trace,
            "shards={shards}: profiling changed the canonical trace"
        );
        assert_eq!(
            to_json_report(&base),
            to_json_report(&profiled),
            "shards={shards}: profiling changed the JSON report"
        );
        assert_eq!(
            edp_telemetry::to_prometheus_text(&base.registry),
            edp_telemetry::to_prometheus_text(&profiled.registry),
            "shards={shards}: profiling changed the Prometheus export"
        );
        assert!(base.profiles.is_empty(), "unprofiled run must carry none");
        assert_eq!(
            profiled.profiles.len(),
            off.seeds.len(),
            "shards={shards}: one profile set per seed"
        );
        let tracks = shards.max(1);
        for (_, point) in &profiled.profiles {
            assert_eq!(point.len(), tracks, "one profile per shard track");
            for p in point {
                assert_eq!(
                    p.attributed_ns(),
                    p.total_ns,
                    "shards={shards}: lap attribution must cover the session"
                );
            }
        }
    }
}

#[test]
fn sharded_sweep_is_thread_independent_too() {
    let mut a_opts = shard_opts(2);
    let mut b_opts = shard_opts(2);
    a_opts.threads = 1;
    b_opts.threads = 8;
    let a = run("microburst", &a_opts).expect("run");
    let b = run("microburst", &b_opts).expect("run");
    assert_eq!(a.trace, b.trace);
    assert_eq!(to_json_report(&a), to_json_report(&b));
    assert_eq!(a.shard_windows, b.shard_windows);
    assert_eq!(a.shard_messages, b.shard_messages);
}
