//! Workload generators.
//!
//! Each generator is a function that arms events on a [`Sim<Network>`];
//! frames come from a caller-supplied builder closure so experiments
//! control every header field. All randomness draws from the network's
//! seeded RNG, keeping workloads reproducible.

use crate::host::HostId;
use crate::net::Network;
use crate::source::Source;
use edp_evsim::{Sim, SimDuration, SimTime};

/// A frame factory: builds the `i`-th frame of a stream.
pub trait FrameFn: FnMut(u64) -> Vec<u8> + 'static {}
impl<F: FnMut(u64) -> Vec<u8> + 'static> FrameFn for F {}

/// Constant-bit-rate stream: `count` frames from `host`, one every
/// `interval`, starting at `start`. `count = u64::MAX` runs until the
/// simulation deadline.
pub fn start_cbr(
    sim: &mut Sim<Network>,
    host: HostId,
    start: SimTime,
    interval: SimDuration,
    count: u64,
    frame: impl FrameFn,
) {
    if count == 0 {
        return;
    }
    Source::Cbr(host, interval, count, 0, Box::new(frame)).arm(sim, start);
}

/// Poisson arrivals with the given mean interval, from `start` until
/// `until` (exclusive).
pub fn start_poisson(
    sim: &mut Sim<Network>,
    host: HostId,
    start: SimTime,
    mean_interval: SimDuration,
    until: SimTime,
    frame: impl FrameFn,
) {
    let mean_ns = mean_interval.as_nanos() as f64;
    Source::Poisson(host, mean_ns, until, 0, false, Box::new(frame)).arm(sim, start);
}

/// A microburst: `n` frames back-to-back at `at`; host egress
/// serialization paces them.
pub fn start_burst(sim: &mut Sim<Network>, host: HostId, at: SimTime, n: u64, frame: impl FrameFn) {
    Source::Burst(host, n, Box::new(frame)).arm(sim, at);
}

/// An on/off source: bursts of `burst_len` frames every `period`, frames
/// within a burst spaced by `spacing`; runs until `until`.
#[allow(clippy::too_many_arguments)]
pub fn start_on_off(
    sim: &mut Sim<Network>,
    host: HostId,
    start: SimTime,
    period: SimDuration,
    burst_len: u64,
    spacing: SimDuration,
    until: SimTime,
    frame: impl FrameFn,
) {
    let frame = Box::new(frame);
    Source::OnOff(host, period, burst_len, spacing, until, 0, frame).arm(sim, start);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{Host, HostApp};
    use crate::link::LinkSpec;
    use crate::net::NodeRef;
    use edp_packet::PacketBuilder;
    use std::net::Ipv4Addr;

    fn a(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    fn two_hosts() -> (Network, HostId, HostId) {
        let mut net = Network::new(3);
        let h0 = net.add_host(Host::new(a(1), HostApp::Sink));
        let h1 = net.add_host(Host::new(a(2), HostApp::Sink));
        net.connect(
            (NodeRef::Host(h0), 0),
            (NodeRef::Host(h1), 0),
            LinkSpec::ten_gig(SimDuration::from_nanos(10)),
        );
        (net, h0, h1)
    }

    fn mk_frame(i: u64) -> Vec<u8> {
        PacketBuilder::udp(a(1), a(2), 5, 6, &[])
            .ident(i as u16)
            .build()
    }

    #[test]
    fn cbr_sends_exact_count() {
        let (mut net, h0, _h1) = two_hosts();
        let mut sim: Sim<Network> = Sim::new();
        start_cbr(
            &mut sim,
            h0,
            SimTime::from_micros(1),
            SimDuration::from_micros(1),
            25,
            mk_frame,
        );
        sim.run(&mut net);
        assert_eq!(net.hosts[1].stats.rx_pkts, 25);
    }

    #[test]
    fn poisson_rate_approximately_right() {
        let (mut net, h0, _) = two_hosts();
        let mut sim: Sim<Network> = Sim::new();
        start_poisson(
            &mut sim,
            h0,
            SimTime::ZERO,
            SimDuration::from_micros(10),
            SimTime::from_millis(10),
            mk_frame,
        );
        sim.run(&mut net);
        let n = net.hosts[1].stats.rx_pkts;
        // Expect ~1000 arrivals; allow generous CI.
        assert!((800..1200).contains(&n), "poisson sent {n}");
    }

    #[test]
    fn burst_delivers_all() {
        let (mut net, h0, _) = two_hosts();
        let mut sim: Sim<Network> = Sim::new();
        start_burst(&mut sim, h0, SimTime::from_micros(5), 40, mk_frame);
        sim.run(&mut net);
        assert_eq!(net.hosts[1].stats.rx_pkts, 40);
    }

    #[test]
    fn on_off_produces_periodic_bursts() {
        let (mut net, h0, _) = two_hosts();
        let mut sim: Sim<Network> = Sim::new();
        start_on_off(
            &mut sim,
            h0,
            SimTime::ZERO,
            SimDuration::from_millis(1),
            10,
            SimDuration::ZERO,
            SimTime::from_millis(5),
            mk_frame,
        );
        sim.run(&mut net);
        // Bursts at 0,1,2,3,4 ms = 50 frames.
        assert_eq!(net.hosts[1].stats.rx_pkts, 50);
    }

    #[test]
    fn on_off_spacing_gives_each_frame_its_own_instant() {
        let (mut net, h0, _) = two_hosts();
        net.tracer.enabled = true;
        let mut sim: Sim<Network> = Sim::new();
        start_on_off(
            &mut sim,
            h0,
            SimTime::ZERO,
            SimDuration::from_millis(1),
            4,
            SimDuration::from_micros(1),
            SimTime::from_millis(2),
            mk_frame,
        );
        sim.run(&mut net);
        // Frames leave 1 µs apart, far apart enough that none waits for
        // the wire, so each arrives one fixed wire time after its instant.
        let at: Vec<u64> = net.tracer.entries().map(|e| e.at.as_nanos()).collect();
        let wire = at[0];
        let want: Vec<u64> = [0, 1_000_000]
            .into_iter()
            .flat_map(|burst| (0..4).map(move |k| burst + k * 1_000 + wire))
            .collect();
        assert_eq!(at, want);
    }

    #[test]
    fn zero_count_cbr_is_noop() {
        let (mut net, h0, _) = two_hosts();
        let mut sim: Sim<Network> = Sim::new();
        start_cbr(
            &mut sim,
            h0,
            SimTime::ZERO,
            SimDuration::from_micros(1),
            0,
            mk_frame,
        );
        sim.run(&mut net);
        assert_eq!(net.hosts[1].stats.rx_pkts, 0);
    }
}
