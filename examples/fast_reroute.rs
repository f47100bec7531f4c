//! Fast re-route: data-plane link-status events vs. the control loop.
//!
//! A primary link dies mid-stream. The event-driven switch flips to its
//! backup path inside the link-status event handler; the baseline switch
//! blackholes traffic until the controller installs a new route. The
//! sweep shows packets lost as a function of control-loop latency.
//!
//! ```sh
//! cargo run --example fast_reroute
//! ```

use edp_apps::common::{addr, run_until};
use edp_apps::frr::{FrrBaseline, FrrEvent, CP_OP_SET_ROUTE};
use edp_core::{EventSwitch, EventSwitchConfig};
use edp_evsim::{Sim, SimDuration, SimTime};
use edp_netsim::traffic::start_cbr;
use edp_netsim::{Host, HostApp, LinkSpec, Network, NodeRef, SwitchHarness};
use edp_packet::PacketBuilder;
use edp_pisa::{ForwardTo, QueueConfig};

const FAIL_AT: SimTime = SimTime::from_millis(5);
const PKTS: u64 = 1500;
const INTERVAL: SimDuration = SimDuration::from_micros(10);

/// h0 — swA —(primary L1 / backup L2)— swR — sink.
fn diamond(sw_a: Box<dyn SwitchHarness>) -> (Network, usize, usize, usize) {
    let mut net = Network::new(77);
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

fn run_event() -> u64 {
    let cfg = EventSwitchConfig {
        n_ports: 3,
        ..Default::default()
    };
    let sw = EventSwitch::new(FrrEvent::new(1, 2), cfg);
    let (mut net, sender, sink, primary) = diamond(Box::new(sw));
    let mut sim: Sim<Network> = Sim::new();
    net.schedule_link_failure(&mut sim, primary, FAIL_AT, None);
    send(&mut sim, sender);
    run_until(&mut net, &mut sim, SimTime::from_millis(40));
    PKTS - net.hosts[sink].stats.rx_pkts
}

fn run_baseline(cp_latency: SimDuration) -> u64 {
    let sw = EventSwitch::baseline(FrrBaseline::new(1), 3, QueueConfig::default());
    let (mut net, sender, sink, primary) = diamond(Box::new(sw));
    let mut sim: Sim<Network> = Sim::new();
    net.schedule_link_failure(&mut sim, primary, FAIL_AT, None);
    sim.schedule_at(FAIL_AT, move |w: &mut Network, s: &mut Sim<Network>| {
        w.control_plane_send(s, cp_latency, 0, CP_OP_SET_ROUTE, [2, 0, 0, 0]);
    });
    send(&mut sim, sender);
    run_until(&mut net, &mut sim, SimTime::from_millis(40));
    PKTS - net.hosts[sink].stats.rx_pkts
}

fn main() {
    println!("=== fast re-route: link-status events vs control loop ===");
    println!("failure at {FAIL_AT}, one 500 B packet per {INTERVAL}\n");
    println!("{:<32} {:>14}", "variant", "packets lost");
    println!(
        "{:<32} {:>14}",
        "event-driven (on_link_status)",
        run_event()
    );
    for ms in [1u64, 2, 5, 10] {
        let lost = run_baseline(SimDuration::from_millis(ms));
        println!(
            "{:<32} {:>14}",
            format!("baseline, {ms} ms control loop"),
            lost
        );
    }
    println!("\nthe control loop converts directly into blackholed packets;");
    println!("the event-driven switch loses only what was in flight.");
}
