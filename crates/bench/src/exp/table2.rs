//! Table 2 — application classes, demonstrated live.
//!
//! Runs one representative application per class on a real topology and
//! prints the class, the example, and the event kinds it *actually used*
//! at run time (read from the switch's event counters). The fast
//! re-route, liveness, FRED and NetCache rows run the testbeds of their
//! own §5 experiments (`exp_frr`, `exp_liveness`, `exp_aqm`,
//! `exp_netcache`).

use super::{exp_aqm, exp_frr, exp_liveness, exp_netcache};
use crate::{footnote, table_header};
use edp_apps::common::{addr, dumbbell, run_until, sink_addr};
use edp_apps::fred::FredAqm;
use edp_apps::frr::FrrEvent;
use edp_apps::hula::{testbed, HulaLeaf};
use edp_apps::liveness::LivenessMonitor;
use edp_apps::microburst::MicroburstEvent;
use edp_apps::netcache::NetCacheSwitch;
use edp_core::{EventKind, EventProgram, EventSwitch, EventSwitchConfig};
use edp_evsim::{Sim, SimDuration, SimTime};
use edp_netsim::traffic::start_burst;
use edp_netsim::Network;
use edp_packet::PacketBuilder;
use edp_pisa::QueueConfig;

/// Event kinds switch 0 (an `EventSwitch<P>`) used beyond plain packet
/// forwarding, in Table 1 order.
fn interesting_events<P: EventProgram + 'static>(net: &Network) -> String {
    let c = net.switch_as::<EventSwitch<P>>(0).event_counters();
    let mut used: Vec<&str> = Vec::new();
    for kind in EventKind::ALL {
        if c.get(kind) > 0 && !kind.baseline_supported() {
            used.push(match kind {
                EventKind::BufferEnqueue => "Enqueue",
                EventKind::BufferDequeue => "Dequeue",
                EventKind::BufferOverflow => "Overflow",
                EventKind::BufferUnderflow => "Underflow",
                EventKind::TimerExpiration => "Timer",
                EventKind::LinkStatusChange => "Link Status",
                EventKind::GeneratedPacket => "Generated Pkt",
                EventKind::PacketTransmitted => "Transmit",
                EventKind::ControlPlaneTriggered => "CP Trigger",
                EventKind::UserEvent => "User",
                _ => continue,
            });
        }
    }
    used.join(", ")
}

fn run_hula() -> String {
    let (mut net, h0, h1) = testbed::fabric(&testbed::event_leaf);
    testbed::drive(&mut net, h0, h1, 4);
    interesting_events::<HulaLeaf>(&net)
}

fn run_frr() -> String {
    let (net, _) = exp_frr::reroute(true, SimDuration::ZERO);
    interesting_events::<FrrEvent>(&net)
}

fn run_liveness() -> String {
    let mut net = exp_liveness::build(1, 3);
    let mut sim: Sim<Network> = Sim::new();
    run_until(&mut net, &mut sim, SimTime::from_millis(20));
    interesting_events::<LivenessMonitor>(&net)
}

fn run_microburst() -> String {
    let cfg = EventSwitchConfig {
        n_ports: 3,
        queue: QueueConfig {
            capacity_bytes: 200_000,
            ..QueueConfig::default()
        },
        ..Default::default()
    };
    let sw = EventSwitch::new(MicroburstEvent::new(64, 20_000, 2), cfg);
    let (mut net, senders, _, _) = dumbbell(Box::new(sw), 2, 1_000_000_000, 6);
    let mut sim: Sim<Network> = Sim::new();
    let src = addr(2);
    start_burst(
        &mut sim,
        senders[1],
        SimTime::from_millis(1),
        60,
        move |i| {
            PacketBuilder::udp(src, sink_addr(), 3, 4, &[])
                .ident(i as u16)
                .pad_to(1500)
                .build()
        },
    );
    run_until(&mut net, &mut sim, SimTime::from_millis(10));
    interesting_events::<MicroburstEvent>(&net)
}

fn run_fred() -> String {
    let (net, _) = exp_aqm::contend(true, 30);
    interesting_events::<FredAqm>(&net)
}

fn run_netcache() -> String {
    let (mut net, client, _) = exp_netcache::build(true, 8);
    let mut sim: Sim<Network> = Sim::new();
    exp_netcache::gets(&mut sim, client, SimTime::ZERO, 400, 0.9, 0, 5);
    run_until(&mut net, &mut sim, SimTime::from_millis(30));
    interesting_events::<NetCacheSwitch>(&net)
}

pub fn run() {
    table_header(
        "Table 2: application classes (events observed at run time)",
        &[("class", 28), ("example", 22), ("events used", 42)],
    );
    let rows: Vec<(&str, &str, String)> = vec![
        (
            "Congestion Aware Forwarding",
            "HULA load balancing",
            run_hula(),
        ),
        ("Network Management", "Fast re-route", run_frr()),
        ("Network Management", "Liveness monitoring", run_liveness()),
        (
            "Network Monitoring",
            "Microburst detection",
            run_microburst(),
        ),
        ("Traffic Management", "FRED-like fair AQM", run_fred()),
        (
            "In-Network Computing",
            "NetCache-style cache",
            run_netcache(),
        ),
    ];
    for (class, example, events) in rows {
        println!("{class:>28} {example:>22} {events:>42}");
    }
    footnote(
        "each row ran its application on a simulated topology; the events \
         column lists the non-baseline event kinds the switch program \
         actually consumed — matching Table 2's \"Events Used\".",
    );
}
