//! The correctness gate: a digest of the *modelled* statistics and the
//! packet-conservation check. A faster simulator must leave both alone.

use crate::worlds::Outcome;
use edp_packet::Fnv1a;

/// Registry keys that count engine work, not modelled behaviour; they may
/// move when an execution strategy changes, so the digest skips them.
fn is_engine_counter(name: &str) -> bool {
    name.starts_with("flow_cache_") || name.starts_with("tracer_")
}

/// FNV-1a over every modelled statistic of a run: all registry counters
/// and gauges in `(name, scope)` order — switch rx/tx/drops-by-reason,
/// the `events_*` coverage, per-queue counts and depths, `link_*`,
/// `proto_*`, `endpoint_*`, control-plane counts — then each host's
/// receive totals. Engine-work counters and anything wall-clock are
/// excluded, so every engine configuration of one world hashes equal.
pub fn sim_digest(o: &Outcome) -> u64 {
    let mut h = Fnv1a::new();
    for (name, scope, v) in o.registry.counters() {
        if is_engine_counter(name) {
            continue;
        }
        h.write(name.as_bytes());
        h.write(&[0]);
        h.write(scope.as_bytes());
        h.write(&[0]);
        h.write(&v.to_le_bytes());
    }
    for (name, scope, v) in o.registry.gauges() {
        h.write(name.as_bytes());
        h.write(&[1]);
        h.write(scope.as_bytes());
        h.write(&[1]);
        h.write(&v.to_le_bytes());
    }
    for host in &o.hosts {
        for v in [host.rx_pkts, host.rx_bytes, host.flows, host.flow_fold] {
            h.write(&v.to_le_bytes());
        }
    }
    h.finish()
}

/// Packets the run cannot account for. Zero on a correct simulator:
///
/// * per switch, `rx + generated = tx + Σ drops-by-reason + buffered`
///   (the workloads are unicast, so no copy is ever made);
/// * per host downlink, frames put on the wire = frames the host received;
/// * over all links, frames carried = frames switches and hosts received
///   (every deadline leaves the wires empty).
pub fn unaccounted(o: &Outcome) -> u64 {
    let reg = &o.registry;
    let mut bad = 0u64;
    let mut switch_rx = 0u64;
    for i in 0.. {
        let sw = format!("sw{i}");
        // Every switch publishes a depth gauge for its port 0.
        if reg.gauge("queue_pkts", &format!("{sw}:p0")).is_none() {
            break;
        }
        let rx = reg.counter("rx", &sw);
        switch_rx += rx;
        let buffered: i64 = (0..)
            .map_while(|p| reg.gauge("queue_pkts", &format!("{sw}:p{p}")))
            .sum();
        let accounted = reg.counter("tx", &sw)
            + reg.counter("dropped_by_program", &sw)
            + reg.counter("dropped_overflow", &sw)
            + reg.counter("dropped_link_down", &sw)
            + reg.counter("parse_errors", &sw)
            + buffered as u64;
        bad += (rx + reg.counter("generated", &sw)).abs_diff(accounted);
    }
    let mut host_rx = 0u64;
    for (host, down) in o.hosts.iter().zip(&o.downlink_frames) {
        host_rx += host.rx_pkts;
        bad += host.rx_pkts.abs_diff(*down);
    }
    bad + reg
        .counter("link_frames", "net")
        .abs_diff(switch_rx + host_rx)
}

/// Σ switch receives: the run's switch hops.
pub fn switch_hops(o: &Outcome) -> u64 {
    o.registry
        .counters()
        .filter(|(name, scope, _)| *name == "rx" && scope.starts_with("sw"))
        .map(|(_, _, v)| v)
        .sum()
}

/// Sum of a counter over every scope.
pub fn total(o: &Outcome, counter: &str) -> u64 {
    o.registry
        .counters()
        .filter(|(name, _, _)| *name == counter)
        .map(|(_, _, v)| v)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::{build, run, Drive, Probe, WORKLOADS};

    #[test]
    fn digest_is_stable_across_two_builds_and_seed_sensitive() {
        for w in &WORKLOADS[..4] {
            let a = run(build(w, 7, w.smoke, Probe::Off), Drive::Engine);
            let b = run(build(w, 7, w.smoke, Probe::Off), Drive::Engine);
            let c = run(build(w, 8, w.smoke, Probe::Off), Drive::Engine);
            assert_eq!(sim_digest(&a), sim_digest(&b), "{}", w.name);
            assert_ne!(sim_digest(&a), sim_digest(&c), "{}", w.name);
            assert_eq!(unaccounted(&a), 0, "{}", w.name);
            assert!(a.packets > 0 && switch_hops(&a) >= a.packets, "{}", w.name);
        }
    }

    #[test]
    fn timed_decorator_and_stepped_drive_are_transparent() {
        for w in &WORKLOADS[..4] {
            let plain = run(build(w, 3, w.smoke, Probe::Off), Drive::Engine);
            crate::probe::enable(std::time::Instant::now(), 0, 1 << 16, 1_000);
            let probed = run(build(w, 3, w.smoke, Probe::On), Drive::Stepped);
            let session = crate::probe::disable().expect("session");
            assert_eq!(sim_digest(&plain), sim_digest(&probed), "{}", w.name);
            assert_eq!(plain.events, probed.events, "{}", w.name);
            assert!(!session.spans.is_empty() && !session.frames.is_empty());
        }
    }

    #[test]
    fn lost_packets_are_counted() {
        let w = &WORKLOADS[0];
        let mut o = run(build(w, 1, w.smoke, Probe::Off), Drive::Engine);
        assert_eq!(unaccounted(&o), 0);
        o.registry
            .set_counter("tx", "sw3", o.registry.counter("tx", "sw3") - 2);
        // Switch 3 lost two; the wire total no longer matches either way
        // only if frames vanished between switches, which they did not.
        assert_eq!(unaccounted(&o), 2);
        o.hosts[1].rx_pkts -= 1;
        assert_eq!(unaccounted(&o), 2 + 1 + 1);
    }
}
