//! Workload generators.
//!
//! Each generator is a function that arms events on a [`Sim<Network>`];
//! frames come from a caller-supplied builder closure so experiments
//! control every header field. All randomness draws from the network's
//! seeded RNG, keeping workloads reproducible.

use crate::host::HostId;
use crate::net::Network;
use edp_evsim::{Periodic, Sim, SimDuration, SimTime};

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
    mut frame: impl FrameFn,
) {
    if count == 0 {
        return;
    }
    let mut sent = 0u64;
    sim.schedule_periodic(
        start,
        interval,
        move |w: &mut Network, s: &mut Sim<Network>| {
            w.host_send(s, host, frame(sent));
            sent += 1;
            if sent >= count {
                Periodic::Stop
            } else {
                Periodic::Continue
            }
        },
    );
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
    fn arm(
        sim: &mut Sim<Network>,
        w: &mut Network,
        host: HostId,
        mean_ns: f64,
        until: SimTime,
        mut frame: impl FrameFn,
        seq: u64,
    ) {
        let dt = SimDuration::from_nanos(w.rng.exp(mean_ns).max(1.0) as u64);
        let at = sim.now() + dt;
        if at >= until {
            return;
        }
        sim.schedule_at(at, move |w: &mut Network, s: &mut Sim<Network>| {
            w.host_send(s, host, frame(seq));
            arm(s, w, host, mean_ns, until, frame, seq + 1);
        });
    }
    let mean_ns = mean_interval.as_nanos() as f64;
    sim.schedule_at(start, move |w: &mut Network, s: &mut Sim<Network>| {
        arm(s, w, host, mean_ns, until, frame, 0);
    });
}

/// A microburst: `n` frames back-to-back at `at`; host egress
/// serialization paces them.
pub fn start_burst(
    sim: &mut Sim<Network>,
    host: HostId,
    at: SimTime,
    n: u64,
    mut frame: impl FrameFn,
) {
    sim.schedule_at(at, move |w: &mut Network, s: &mut Sim<Network>| {
        send_burst(w, s, host, 0..n, SimDuration::ZERO, &mut frame);
    });
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
    mut frame: impl FrameFn,
) {
    let mut seq = 0u64;
    sim.schedule_periodic(
        start,
        period,
        move |w: &mut Network, s: &mut Sim<Network>| {
            if s.now() >= until {
                return Periodic::Stop;
            }
            send_burst(w, s, host, seq..seq + burst_len, spacing, &mut frame);
            seq += burst_len;
            Periodic::Continue
        },
    );
}

/// Hands the frames `frame(i)` for `i` in `seqs` from `host` to the
/// network, each exactly once: all now when `spacing` is zero, otherwise
/// the `k`-th moved into its own event `spacing * k` from now.
fn send_burst(
    w: &mut Network,
    s: &mut Sim<Network>,
    host: HostId,
    seqs: std::ops::Range<u64>,
    spacing: SimDuration,
    frame: &mut impl FrameFn,
) {
    for (k, i) in seqs.enumerate() {
        let f = frame(i);
        if spacing.is_zero() {
            w.host_send(s, host, f);
        } else {
            s.schedule_in(
                spacing * k as u64,
                move |w: &mut Network, s: &mut Sim<Network>| {
                    w.host_send(s, host, f);
                },
            );
        }
    }
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
