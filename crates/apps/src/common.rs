//! Shared experiment scaffolding: canonical topologies and run helpers.

use edp_evsim::{Sim, SimDuration, SimTime};
use edp_netsim::{Host, HostApp, HostId, LinkSpec, Network, NodeRef, SwitchHarness};
use std::net::Ipv4Addr;

/// Host address `10.0.0.n`.
pub fn addr(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

/// A dumbbell: `n_senders` hosts on ports `0..n`, one sink on the last
/// port. All links 10 Gb/s with 1 µs latency except the bottleneck
/// (switch → sink), which is `bottleneck_bps`.
///
/// Returns `(network, sender ids, sink id, sink port)`.
pub fn dumbbell(
    switch: Box<dyn SwitchHarness>,
    n_senders: usize,
    bottleneck_bps: u64,
    seed: u64,
) -> (Network, Vec<HostId>, HostId, u8) {
    let n_ports = switch.n_ports();
    assert!(
        n_ports > n_senders,
        "switch needs {} ports, has {n_ports}",
        n_senders + 1
    );
    let mut net = Network::new(seed);
    let sw = net.add_switch(switch);
    let mut senders = Vec::new();
    let lat = SimDuration::from_micros(1);
    for i in 0..n_senders {
        let h = net.add_host(Host::new(addr(i as u8 + 1), HostApp::Sink));
        net.connect(
            (NodeRef::Host(h), 0),
            (NodeRef::Switch(sw), i as u8),
            LinkSpec::ten_gig(lat),
        );
        senders.push(h);
    }
    let sink_port = n_senders as u8;
    let sink = net.add_host(Host::new(addr(200), HostApp::Sink));
    net.connect(
        (NodeRef::Host(sink), 0),
        (NodeRef::Switch(sw), sink_port),
        LinkSpec {
            bandwidth_bps: bottleneck_bps,
            latency: lat,
            drop_prob: 0.0,
        },
    );
    (net, senders, sink, sink_port)
}

/// The sink host address used by [`dumbbell`].
pub fn sink_addr() -> Ipv4Addr {
    addr(200)
}

/// Runs the network until `deadline` (arming all switch timers first).
pub fn run_until(net: &mut Network, sim: &mut Sim<Network>, deadline: SimTime) {
    net.arm_all_timers(sim);
    sim.run_until(net, deadline);
}

#[cfg(test)]
mod tests {
    use super::*;
    use edp_core::EventSwitch;
    use edp_netsim::traffic::start_cbr;
    use edp_packet::PacketBuilder;
    use edp_pisa::{ForwardTo, QueueConfig};

    #[test]
    fn dumbbell_carries_traffic() {
        let sw = Box::new(EventSwitch::baseline(
            ForwardTo(2),
            3,
            QueueConfig::default(),
        ));
        let (mut net, senders, sink, _) = dumbbell(sw, 2, 1_000_000_000, 1);
        let mut sim: Sim<Network> = Sim::new();
        let src = addr(1);
        start_cbr(
            &mut sim,
            senders[0],
            SimTime::ZERO,
            SimDuration::from_micros(10),
            100,
            move |i| {
                PacketBuilder::udp(src, sink_addr(), 1, 2, &[])
                    .ident(i as u16)
                    .build()
            },
        );
        run_until(&mut net, &mut sim, SimTime::from_millis(10));
        assert_eq!(net.hosts[sink].stats.rx_pkts, 100);
    }
}
