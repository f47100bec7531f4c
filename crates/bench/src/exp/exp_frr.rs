//! §3/§5 experiment — fast re-route: packets lost vs control latency.
//!
//! The event-driven switch re-routes in the link-status handler; the
//! baseline waits for the controller. Reproduction target: baseline loss
//! scales linearly with the control loop; event-driven loss is ~0 and
//! independent of it.

use crate::{footnote, table_header};
use edp_apps::common::{addr, run_until};
use edp_apps::frr::{FrrBaseline, FrrEvent, CP_OP_SET_ROUTE};
use edp_core::{BaselineAdapter, EventSwitch, EventSwitchConfig};
use edp_evsim::{Sim, SimDuration, SimTime};
use edp_netsim::traffic::start_cbr;
use edp_netsim::{Host, HostApp, LinkSpec, Network, NodeRef, SwitchHarness};
use edp_packet::PacketBuilder;
use edp_pisa::{ForwardTo, QueueConfig};

const FAIL_AT: SimTime = SimTime::from_millis(5);
const PKTS: u64 = 2500;
const INTERVAL: SimDuration = SimDuration::from_micros(10);

fn diamond(sw_a: Box<dyn SwitchHarness>) -> (Network, usize, usize, usize) {
    let mut net = Network::new(41);
    let a = net.add_switch(sw_a);
    let r = net.add_switch(Box::new(EventSwitch::baseline(
        ForwardTo(2),
        3,
        QueueConfig::default(),
    )));
    let h0 = net.add_host(Host::new(addr(1), HostApp::Sink));
    let sink = net.add_host(Host::new(addr(9), HostApp::Sink));
    let spec = LinkSpec::ten_gig(SimDuration::from_micros(1));
    net.connect((NodeRef::Host(h0), 0), (NodeRef::Switch(a), 0), spec);
    let primary = net.connect((NodeRef::Switch(a), 1), (NodeRef::Switch(r), 0), spec);
    net.connect((NodeRef::Switch(a), 2), (NodeRef::Switch(r), 1), spec);
    net.connect((NodeRef::Switch(r), 2), (NodeRef::Host(sink), 0), spec);
    (net, h0, sink, primary)
}

fn send(sim: &mut Sim<Network>, sender: usize) {
    let src = addr(1);
    start_cbr(sim, sender, SimTime::ZERO, INTERVAL, PKTS, move |i| {
        PacketBuilder::udp(src, addr(9), 1, 2, &[])
            .ident(i as u16)
            .pad_to(500)
            .build()
    });
}

/// Runs the failover to completion; returns the network and the sink host.
pub(super) fn reroute(event: bool, cp_latency: SimDuration) -> (Network, usize) {
    let (mut net, sender, sink, primary) = if event {
        let cfg = EventSwitchConfig {
            n_ports: 3,
            ..Default::default()
        };
        diamond(Box::new(EventSwitch::new(FrrEvent::new(1, 2), cfg)))
    } else {
        diamond(Box::new(EventSwitch::baseline(
            FrrBaseline::new(1),
            3,
            QueueConfig::default(),
        )))
    };
    let mut sim: Sim<Network> = Sim::new();
    net.schedule_link_failure(&mut sim, primary, FAIL_AT, None);
    if !event {
        sim.schedule_at(FAIL_AT, move |w: &mut Network, s: &mut Sim<Network>| {
            w.control_plane_send(s, cp_latency, 0, CP_OP_SET_ROUTE, [2, 0, 0, 0]);
        });
    }
    send(&mut sim, sender);
    run_until(&mut net, &mut sim, SimTime::from_millis(60));
    (net, sink)
}

fn simulate(event: bool, cp_latency: SimDuration) -> (u64, Option<SimTime>) {
    let (net, sink) = reroute(event, cp_latency);
    let failover = if event {
        net.switch_as::<EventSwitch<FrrEvent>>(0)
            .program
            .stats
            .failover_at
    } else {
        net.switch_as::<EventSwitch<BaselineAdapter<FrrBaseline>>>(0)
            .program
            .0
            .stats
            .failover_at
    };
    (PKTS - net.hosts[sink].stats.rx_pkts, failover)
}

pub fn run() {
    println!("primary link fails at {FAIL_AT}; one 500 B packet per {INTERVAL} ({PKTS} total)");
    table_header(
        "fast re-route: packets lost during failover",
        &[
            ("variant", 26),
            ("CP latency", 11),
            ("lost", 6),
            ("failover at", 12),
        ],
    );
    let (lost, at) = simulate(true, SimDuration::ZERO);
    println!(
        "{:>26} {:>11} {:>6} {:>12}",
        "event-driven",
        "-",
        lost,
        at.map(|t| t.to_string()).unwrap_or_else(|| "-".into())
    );
    for &ms in &[1u64, 2, 5, 10, 20] {
        let (lost, at) = simulate(false, SimDuration::from_millis(ms));
        println!(
            "{:>26} {:>11} {:>6} {:>12}",
            "baseline + controller",
            format!("{ms} ms"),
            lost,
            at.map(|t| t.to_string()).unwrap_or_else(|| "-".into())
        );
    }
    footnote(
        "loss = control latency x packet rate for the baseline (a straight \
         line through the origin); the link-status event handler loses \
         only in-flight packets — effectively zero.",
    );
}
