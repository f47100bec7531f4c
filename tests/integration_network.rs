//! Cross-crate network-substrate checks: multi-hop forwarding with real
//! byte-level packets, latency accounting, fault injection, and mixed
//! baseline/event topologies.

use edp_core::{BaselineAdapter, EventActions, EventProgram, EventSwitch, EventSwitchConfig};
use edp_evsim::{Sim, SimDuration, SimTime};
use edp_netsim::traffic::start_cbr;
use edp_netsim::{Host, HostApp, LinkSpec, Network, NodeRef};
use edp_packet::{Packet, PacketBuilder, ParsedPacket};
use edp_pisa::{Destination, PisaProgram, QueueConfig, StdMeta};
use std::net::Ipv4Addr;

fn a(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

/// Forwards by destination address parity of the last octet: odd → port
/// 0 side, even → port 1 side. Enough routing for a line of switches.
struct UpDown;
impl PisaProgram for UpDown {
    fn ingress(&mut self, _p: &mut Packet, h: &ParsedPacket, m: &mut StdMeta, _n: SimTime) {
        let Some(ip) = h.ipv4 else {
            m.dest = Destination::Drop;
            return;
        };
        m.dest = Destination::Port(if ip.dst.octets()[3] <= 1 { 0 } else { 1 });
    }
}

struct UpDownEvent;
impl EventProgram for UpDownEvent {
    fn on_ingress(
        &mut self,
        _p: &mut Packet,
        h: &ParsedPacket,
        m: &mut StdMeta,
        _n: SimTime,
        _a: &mut EventActions,
    ) {
        let Some(ip) = h.ipv4 else {
            m.dest = Destination::Drop;
            return;
        };
        m.dest = Destination::Port(if ip.dst.octets()[3] <= 1 { 0 } else { 1 });
    }
}

/// h1 — baseline — event — baseline — h2 (a 3-switch line, mixed).
fn line() -> (Network, usize, usize) {
    let mut net = Network::new(8);
    let s0 = net.add_switch(Box::new(EventSwitch::baseline(
        UpDown,
        2,
        QueueConfig::default(),
    )));
    let s1 = net.add_switch(Box::new(EventSwitch::new(
        UpDownEvent,
        EventSwitchConfig {
            n_ports: 2,
            ..Default::default()
        },
    )));
    let s2 = net.add_switch(Box::new(EventSwitch::baseline(
        UpDown,
        2,
        QueueConfig::default(),
    )));
    let h1 = net.add_host(Host::new(a(1), HostApp::Sink));
    let h2 = net.add_host(Host::new(a(2), HostApp::Sink));
    let spec = LinkSpec::ten_gig(SimDuration::from_micros(1));
    net.connect((NodeRef::Host(h1), 0), (NodeRef::Switch(s0), 0), spec);
    net.connect((NodeRef::Switch(s0), 1), (NodeRef::Switch(s1), 0), spec);
    net.connect((NodeRef::Switch(s1), 1), (NodeRef::Switch(s2), 0), spec);
    net.connect((NodeRef::Switch(s2), 1), (NodeRef::Host(h2), 0), spec);
    (net, h1, h2)
}

#[test]
fn multi_hop_mixed_architectures_forward_both_ways() {
    let (mut net, h1, h2) = line();
    let mut sim: Sim<Network> = Sim::new();
    start_cbr(
        &mut sim,
        h1,
        SimTime::ZERO,
        SimDuration::from_micros(10),
        50,
        move |i| {
            PacketBuilder::udp(a(1), a(2), 100, 200, &[])
                .ident(i as u16)
                .pad_to(500)
                .build()
        },
    );
    start_cbr(
        &mut sim,
        h2,
        SimTime::ZERO,
        SimDuration::from_micros(10),
        50,
        move |i| {
            PacketBuilder::udp(a(2), a(1), 300, 400, &[])
                .ident(i as u16)
                .pad_to(500)
                .build()
        },
    );
    sim.run(&mut net);
    assert_eq!(net.hosts[h2].stats.rx_pkts, 50);
    assert_eq!(net.hosts[h1].stats.rx_pkts, 50);
    // Event switch in the middle saw traffic in both directions.
    let mid = net.switch_as::<EventSwitch<UpDownEvent>>(1);
    assert_eq!(mid.counters().rx, 100);
    assert_eq!(mid.counters().tx, 100);
}

#[test]
fn latency_is_sum_of_hops() {
    let (mut net, h1, h2) = line();
    let mut sim: Sim<Network> = Sim::new();
    let f = PacketBuilder::udp(a(1), a(2), 1, 2, &[])
        .pad_to(1250)
        .build();
    sim.schedule_at(
        SimTime::ZERO,
        move |w: &mut Network, s: &mut Sim<Network>| {
            w.host_send(s, h1, f.clone());
        },
    );
    sim.run(&mut net);
    let fs = net.hosts[h2].stats.flows.values().next().expect("flow");
    // 4 links × (1 us ser for 1250 B at 10G + 1 us prop) = 8 us exactly.
    assert_eq!(fs.latency_ns.mean(), 8_000.0);
}

#[test]
fn fault_injection_loses_roughly_the_configured_fraction() {
    let mut net = Network::new(99);
    let h1 = net.add_host(Host::new(a(1), HostApp::Sink));
    let h2 = net.add_host(Host::new(a(2), HostApp::Sink));
    net.connect(
        (NodeRef::Host(h1), 0),
        (NodeRef::Host(h2), 0),
        LinkSpec {
            bandwidth_bps: 10_000_000_000,
            latency: SimDuration::from_micros(1),
            drop_prob: 0.2,
        },
    );
    let mut sim: Sim<Network> = Sim::new();
    start_cbr(
        &mut sim,
        h1,
        SimTime::ZERO,
        SimDuration::from_micros(5),
        2000,
        move |i| {
            PacketBuilder::udp(a(1), a(2), 1, 2, &[])
                .ident(i as u16)
                .build()
        },
    );
    sim.run(&mut net);
    let got = net.hosts[h2].stats.rx_pkts;
    assert!(
        (1500..1700).contains(&got),
        "20% drop_prob delivered {got}/2000"
    );
    let (fault_drops, _) = net.link_drops(0);
    assert_eq!(fault_drops + got, 2000);
}

#[test]
fn tracer_captures_deliveries() {
    let (mut net, h1, _h2) = line();
    net.tracer.enabled = true;
    let mut sim: Sim<Network> = Sim::new();
    start_cbr(
        &mut sim,
        h1,
        SimTime::ZERO,
        SimDuration::from_micros(10),
        3,
        move |i| {
            PacketBuilder::udp(a(1), a(2), 100, 200, &[])
                .ident(i as u16)
                .pad_to(500)
                .build()
        },
    );
    sim.run(&mut net);
    // 3 packets × 4 hops (sw0, sw1, sw2, host) = 12 deliveries.
    assert_eq!(net.tracer.len(), 12);
    let rendered = net.tracer.render();
    assert!(
        rendered.contains("10.0.0.1:100 > 10.0.0.2:200 UDP 500B"),
        "{rendered}"
    );
    assert!(rendered.contains("host1"), "{rendered}");
    assert!(rendered.contains("sw1:p0"), "{rendered}");
}

#[test]
fn queue_overflow_under_severe_congestion() {
    // 10G in, 10M out: the switch queue must overflow and count drops.
    let mut net = Network::new(13);
    let s0 = net.add_switch(Box::new(EventSwitch::baseline(
        UpDown,
        2,
        QueueConfig {
            capacity_bytes: 10_000,
            ..QueueConfig::default()
        },
    )));
    let h1 = net.add_host(Host::new(a(1), HostApp::Sink));
    let h2 = net.add_host(Host::new(a(2), HostApp::Sink));
    net.connect(
        (NodeRef::Host(h1), 0),
        (NodeRef::Switch(s0), 0),
        LinkSpec::ten_gig(SimDuration::from_micros(1)),
    );
    net.connect(
        (NodeRef::Switch(s0), 1),
        (NodeRef::Host(h2), 0),
        LinkSpec {
            bandwidth_bps: 10_000_000,
            latency: SimDuration::from_micros(1),
            drop_prob: 0.0,
        },
    );
    let mut sim: Sim<Network> = Sim::new();
    start_cbr(
        &mut sim,
        h1,
        SimTime::ZERO,
        SimDuration::from_micros(2),
        500,
        move |i| {
            PacketBuilder::udp(a(1), a(2), 1, 2, &[])
                .ident(i as u16)
                .pad_to(1000)
                .build()
        },
    );
    sim.run_until(&mut net, SimTime::from_millis(500));
    let sw = net.switch_as::<EventSwitch<BaselineAdapter<UpDown>>>(0);
    let c = sw.counters();
    assert!(
        c.dropped_overflow > 100,
        "overflow drops {}",
        c.dropped_overflow
    );
    assert_eq!(
        c.rx,
        c.tx + c.dropped_overflow,
        "every packet either forwarded or dropped"
    );
    assert_eq!(net.hosts[h2].stats.rx_pkts, c.tx);
}
