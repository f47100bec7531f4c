//! The paper's §2 worked example: microburst-culprit detection.
//!
//! Runs the event-driven `microburst.p4` program and the Snappy-style
//! baseline against the same workload — two polite flows plus one
//! microbursting flow — and prints detections, detection latency, and
//! the stateful-memory comparison (the paper's "at least four-fold"
//! claim).
//!
//! ```sh
//! cargo run --example microburst
//! ```

use edp_apps::common::{addr, dumbbell, run_until, sink_addr};
use edp_apps::microburst::{MicroburstBaseline, MicroburstEvent};
use edp_core::{BaselineAdapter, EventSwitch, EventSwitchConfig};
use edp_evsim::{Sim, SimDuration, SimTime};
use edp_netsim::traffic::{start_burst, start_cbr};
use edp_netsim::Network;
use edp_packet::PacketBuilder;
use edp_pisa::QueueConfig;

const THRESH: u64 = 20_000;
const N_FLOWS: usize = 256;
const BURST_AT: SimTime = SimTime::from_millis(5);

fn queue_cfg() -> QueueConfig {
    QueueConfig {
        capacity_bytes: 300_000,
        ..QueueConfig::default()
    }
}

fn workload(sim: &mut Sim<Network>, senders: &[usize]) {
    // Two polite flows.
    for (i, &h) in senders.iter().take(2).enumerate() {
        let src = addr(i as u8 + 1);
        start_cbr(
            sim,
            h,
            SimTime::ZERO,
            SimDuration::from_micros(100),
            300,
            move |s| {
                PacketBuilder::udp(src, sink_addr(), 10 + i as u16, 20, &[])
                    .ident(s as u16)
                    .pad_to(1500)
                    .build()
            },
        );
    }
    // One 150-packet microburst.
    let src = addr(3);
    start_burst(sim, senders[2], BURST_AT, 150, move |s| {
        PacketBuilder::udp(src, sink_addr(), 30, 40, &[])
            .ident(s as u16)
            .pad_to(1500)
            .build()
    });
}

fn main() {
    println!("=== microburst culprit detection (paper §2) ===\n");

    // --- Event-driven (microburst.p4) ---
    let cfg = EventSwitchConfig {
        n_ports: 4,
        queue: queue_cfg(),
        ..Default::default()
    };
    let sw = EventSwitch::new(MicroburstEvent::new(N_FLOWS, THRESH, 3), cfg);
    let (mut net, senders, _, _) = dumbbell(Box::new(sw), 3, 1_000_000_000, 7);
    let mut sim: Sim<Network> = Sim::new();
    workload(&mut sim, &senders);
    run_until(&mut net, &mut sim, SimTime::from_millis(40));
    let ev = &net.switch_as::<EventSwitch<MicroburstEvent>>(0).program;

    println!("event-driven (1 shared_register, detect at INGRESS):");
    println!("  state words          : {}", ev.state_words());
    println!("  detections           : {}", ev.detections.len());
    if let Some(d) = ev.detections.first() {
        println!(
            "  first detection      : {} ({} after burst start)",
            d.at,
            d.at - BURST_AT
        );
        println!("  flagged flow index   : {}", d.flow_index);
        println!("  occupancy at flag    : {} bytes", d.occupancy);
    }

    // --- Baseline (Snappy-style) ---
    let prog = MicroburstBaseline::new(N_FLOWS, THRESH, 240_000, 3);
    let sw = EventSwitch::baseline(prog, 4, queue_cfg());
    let (mut net, senders, _, _) = dumbbell(Box::new(sw), 3, 1_000_000_000, 7);
    let mut sim: Sim<Network> = Sim::new();
    workload(&mut sim, &senders);
    run_until(&mut net, &mut sim, SimTime::from_millis(40));
    let base = &net
        .switch_as::<EventSwitch<BaselineAdapter<MicroburstBaseline>>>(0)
        .program
        .0;

    println!("\nbaseline (4 register arrays, detect at EGRESS):");
    println!("  state words          : {}", base.state_words());
    println!("  detections           : {}", base.detections.len());
    if let Some(d) = base.detections.first() {
        println!(
            "  first detection      : {} ({} after burst start)",
            d.at,
            d.at - BURST_AT
        );
    }

    println!("\ncomparison:");
    println!(
        "  state reduction      : {:.1}x (paper claims \"at least four-fold\")",
        base.state_words() as f64 / ev.state_words() as f64
    );
    match (ev.detections.first(), base.detections.first()) {
        (Some(e), Some(b)) => println!(
            "  detection lead       : event-driven earlier by {}",
            b.at.saturating_since(e.at)
        ),
        _ => println!("  detection lead       : n/a"),
    }
}
