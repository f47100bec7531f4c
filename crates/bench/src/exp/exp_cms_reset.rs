//! §1/§3 experiment — periodic CMS reset: timer event vs control plane.
//!
//! Sweeps the reset period and reports reset lateness (how long counters
//! keep accumulating past the window boundary) and control-plane message
//! load. Reproduction target: the data-plane timer resets are punctual
//! and free; the control-plane path pays its channel latency per window
//! and one message per reset — "significant overhead for the control
//! plane, especially if the data structure must be frequently reset".

use crate::{f2, footnote, table_header};
use edp_apps::cms_reset::{CmsMonitor, CP_OP_RESET};
use edp_apps::common::{addr, dumbbell, run_until, sink_addr};
use edp_core::{EventSwitch, EventSwitchConfig, TimerSpec};
use edp_evsim::{Sim, SimDuration, SimTime};
use edp_netsim::traffic::start_cbr;
use edp_netsim::Network;
use edp_packet::PacketBuilder;

const HORIZON: SimTime = SimTime::from_millis(100);
const CP_LATENCY: SimDuration = SimDuration::from_micros(250);

struct Outcome {
    resets: usize,
    lateness_us: f64,
    cp_msgs: u64,
}

/// The controller's loop: a reset command that reaches the switch
/// `CP_LATENCY` later, then the next one `period` on.
fn controller(period: SimDuration) -> impl FnOnce(&mut Network, &mut Sim<Network>) {
    move |w: &mut Network, s: &mut Sim<Network>| {
        w.control_plane_send(s, CP_LATENCY, 0, CP_OP_RESET, [0; 4]);
        s.rearm_at(s.now() + period, controller(period));
    }
}

fn simulate(period: SimDuration, via_timer: bool) -> Outcome {
    let timers = if via_timer {
        vec![TimerSpec {
            id: 0,
            period,
            start: period,
        }]
    } else {
        vec![]
    };
    let cfg = EventSwitchConfig {
        n_ports: 2,
        timers,
        ..Default::default()
    };
    let sw = EventSwitch::new(CmsMonitor::new(512, 4, 1), cfg);
    let (mut net, senders, _, _) = dumbbell(Box::new(sw), 1, 10_000_000_000, 13);
    let mut sim: Sim<Network> = Sim::new();
    if !via_timer {
        sim.schedule_at(SimTime::ZERO + period, controller(period));
    }
    let src = addr(1);
    start_cbr(
        &mut sim,
        senders[0],
        SimTime::ZERO,
        SimDuration::from_micros(10),
        u64::MAX,
        move |i| {
            PacketBuilder::udp(src, sink_addr(), 1, 2, &[])
                .ident(i as u16)
                .pad_to(600)
                .build()
        },
    );
    run_until(&mut net, &mut sim, HORIZON);
    let prog = &net.switch_as::<EventSwitch<CmsMonitor>>(0).program;
    Outcome {
        resets: prog.resets.len(),
        lateness_us: prog.mean_reset_lateness_ns(period.as_nanos()) / 1000.0,
        cp_msgs: net.cp_messages,
    }
}

pub fn run() {
    println!("workload: 100 Mb/s single flow for {HORIZON}; CP channel latency {CP_LATENCY}");
    table_header(
        "CMS periodic reset: data-plane timer vs control plane",
        &[
            ("period (ms)", 12),
            ("variant", 8),
            ("resets", 7),
            ("lateness (us)", 14),
            ("CP msgs", 8),
            ("CP msg/s", 9),
        ],
    );
    for &ms in &[10u64, 5, 2, 1] {
        let period = SimDuration::from_millis(ms);
        for &timer in &[true, false] {
            let o = simulate(period, timer);
            println!(
                "{:>12} {:>8} {:>7} {:>14} {:>8} {:>9}",
                ms,
                if timer { "timer" } else { "CP" },
                o.resets,
                f2(o.lateness_us),
                o.cp_msgs,
                f2(o.cp_msgs as f64 / HORIZON.as_secs_f64()),
            );
        }
    }
    footnote(
        "timer resets land exactly on the window boundary with zero \
         control-plane messages; control-plane resets are late by the \
         channel latency and cost messages proportional to the reset \
         frequency — the paper's control-plane-overhead argument, measured.",
    );
}
