//! The untraced pass: what a user of the simulator pays, per workload.
//!
//! One invocation = one untimed warm-up repetition, then set-up + timed
//! repetitions of a fixed-size run until the time budget is spent. The
//! run is a fixed size so its modelled statistics (the digest) and work
//! counters repeat exactly; only host time varies.
//!
//! `wall_s` and `pkts_per_s` are the **best repetition**, not the
//! median. The work is deterministic and interference only ever adds
//! time; on the shared 2-core host it comes in two modes (a neighbour on
//! or off the core, tens of seconds each, about 25 % apart), so the
//! median of a 20 s run flips between them while the best repetition
//! sits on the quiet mode. Measured over ten runs of `line8_fwd64`:
//! quartile spread 17 % for the per-run median, 8 % for the best
//! repetition. `setup_s` is the median of its per-repetition samples;
//! median, min, max, MAD and the samples of all three go to the result
//! file.

use crate::digest::{sim_digest, unaccounted};
use crate::json::Json;
use crate::spec::RunResult;
use crate::worlds::{self, Drive, Kind, Outcome, Probe, Workload};
use crate::{host, stats};
use edp_telemetry as telemetry;
use std::time::{Duration, Instant};

/// One repetition: build the world (set-up), run it (timed region).
/// Returns `(set-up seconds, outcome)`. Set-up is sampled once per
/// repetition, after the previous run has evicted it from every cache —
/// the state a user's set-up runs in, and (measured) a steadier number
/// than back-to-back rebuilds, whose microseconds depend on allocator
/// state.
pub fn repetition(w: &Workload, seed: u64, scale: u64) -> (f64, Outcome) {
    let t0 = Instant::now();
    if w.kind == Kind::Microburst {
        worlds::telemetry_on();
    }
    let world = worlds::build(w, seed, scale, Probe::Off);
    let setup_s = t0.elapsed().as_secs_f64();
    let outcome = if w.kind == Kind::Line8Shards2 {
        // The sharded engine builds its worlds itself, on the shard
        // threads; the one built above is what a single build costs.
        drop(world);
        worlds::run_sharded(w, seed, scale, Probe::Off, |_| (), |_| ()).0
    } else {
        worlds::run(world, Drive::Engine)
    };
    telemetry::disable();
    (setup_s, outcome)
}

/// The digest an outcome of `w` must have, when it is known up front:
/// the pin for the pinned configuration, and — for the sharded line, at
/// any seed — the digest of the same world on the classic engine.
pub fn expected_digest(w: &Workload, seed: u64, scale: u64) -> Option<u64> {
    if w.kind == Kind::Line8Shards2 {
        let classic = worlds::run(worlds::build(w, seed, scale, Probe::Off), Drive::Engine);
        Some(sim_digest(&classic))
    } else if seed == 1 && scale == w.full {
        Some(w.pin)
    } else {
        None
    }
}

/// Packets of `o` that count as failed: all of them when its digest is
/// not `want`, else those conservation cannot account for.
pub fn failed_packets(o: &Outcome, want: u64) -> u64 {
    if sim_digest(o) == want {
        unaccounted(o)
    } else {
        o.packets.max(1)
    }
}

/// Median, extremes, MAD and count of a timing's samples.
pub fn summary(samples: &[f64]) -> Json {
    Json::obj([
        ("median", Json::Num(stats::median(samples))),
        ("min", Json::Num(stats::min(samples))),
        ("max", Json::Num(stats::max(samples))),
        ("mad", Json::Num(stats::mad(samples))),
        ("n", Json::Num(samples.len() as f64)),
        ("samples", Json::nums(samples)),
    ])
}

/// Measures the end-to-end metrics of `w` for about `seconds`.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64, scale: u64, min_reps: usize) -> RunResult {
    let load_before = host::loadavg();
    let want = expected_digest(w, seed, scale);
    let (_, warm) = repetition(w, seed, scale);
    // Without a pin the warm-up defines the digest every repetition
    // must reproduce.
    let want = want.unwrap_or_else(|| sim_digest(&warm));
    if sim_digest(&warm) != want {
        eprintln!(
            "{}: sim_digest {:016x}, expected {want:016x}",
            w.name,
            sim_digest(&warm)
        );
    }
    let mut failed = failed_packets(&warm, want);
    let mut attempted = 0;
    let (mut setup, mut wall, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(seconds);
    let (cpu0, t0) = (host::cpu_times(), Instant::now());
    while wall.len() < min_reps || t0.elapsed() < budget {
        let (s, o) = repetition(w, seed, scale);
        failed += failed_packets(&o, want);
        attempted += o.packets;
        setup.push(s);
        wall.push(o.wall_s);
        rate.push(o.packets as f64 / o.wall_s);
    }
    let cpu1 = host::cpu_times();
    let detail = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("scale", Json::Num(scale as f64)),
        ("repetitions", Json::Num(wall.len() as f64)),
        ("packets_per_repetition", Json::Num(warm.packets as f64)),
        ("sim_digest", Json::str(format!("{want:016x}"))),
        ("pkts_per_s", summary(&rate)),
        ("wall_s", summary(&wall)),
        ("setup_s", summary(&setup)),
        ("cpu_s", Json::nums(&[cpu1.0 - cpu0.0, cpu1.1 - cpu0.1])),
        ("host", host::fingerprint(load_before)),
    ]);
    RunResult {
        attempted,
        failed,
        metrics: vec![
            ("pkts_per_s", stats::max(&rate)),
            ("wall_s", stats::min(&wall)),
            ("setup_s", stats::median(&setup)),
            ("peak_rss_mb", host::peak_rss_mib()),
        ],
        detail,
    }
}
