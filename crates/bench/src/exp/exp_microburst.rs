//! §2 experiment — microburst detection: event-driven vs Snappy-style
//! baseline across burst intensities.
//!
//! Reproduction targets: ≥4× state reduction (constant, by construction)
//! and earlier detection (ingress, before enqueue) across the sweep.

use crate::{footnote, table_header};
use edp_apps::common::{addr, dumbbell, run_until, sink_addr};
use edp_apps::microburst::{Detection, MicroburstBaseline, MicroburstEvent};
use edp_core::{BaselineAdapter, EventSwitch, EventSwitchConfig};
use edp_evsim::{Sim, SimDuration, SimTime};
use edp_netsim::traffic::{start_burst, start_cbr};
use edp_netsim::Network;
use edp_packet::PacketBuilder;
use edp_pisa::QueueConfig;

const THRESH: u64 = 20_000;
const N_FLOWS: usize = 256;
const BURST_AT: SimTime = SimTime::from_millis(2);

fn qc() -> QueueConfig {
    QueueConfig {
        capacity_bytes: 400_000,
        ..QueueConfig::default()
    }
}

fn workload(sim: &mut Sim<Network>, senders: &[usize], burst_pkts: u64) {
    for (i, &h) in senders.iter().take(2).enumerate() {
        let src = addr(i as u8 + 1);
        start_cbr(
            sim,
            h,
            SimTime::ZERO,
            SimDuration::from_micros(150),
            250,
            move |s| {
                PacketBuilder::udp(src, sink_addr(), 10 + i as u16, 20, &[])
                    .ident(s as u16)
                    .pad_to(1500)
                    .build()
            },
        );
    }
    let src = addr(3);
    start_burst(sim, senders[2], BURST_AT, burst_pkts, move |s| {
        PacketBuilder::udp(src, sink_addr(), 30, 40, &[])
            .ident(s as u16)
            .pad_to(1500)
            .build()
    });
}

struct Outcome {
    state_words: usize,
    detections: usize,
    first: Option<Detection>,
}

fn simulate(event: bool, burst_pkts: u64) -> Outcome {
    if event {
        let cfg = EventSwitchConfig {
            n_ports: 4,
            queue: qc(),
            ..Default::default()
        };
        let sw = EventSwitch::new(MicroburstEvent::new(N_FLOWS, THRESH, 3), cfg);
        let (mut net, senders, _, _) = dumbbell(Box::new(sw), 3, 1_000_000_000, 2);
        let mut sim: Sim<Network> = Sim::new();
        workload(&mut sim, &senders, burst_pkts);
        run_until(&mut net, &mut sim, SimTime::from_millis(40));
        let p = &net.switch_as::<EventSwitch<MicroburstEvent>>(0).program;
        Outcome {
            state_words: p.state_words(),
            detections: p.detections.len(),
            first: p.detections.first().copied(),
        }
    } else {
        let prog = MicroburstBaseline::new(N_FLOWS, THRESH, 240_000, 3);
        let sw = EventSwitch::baseline(prog, 4, qc());
        let (mut net, senders, _, _) = dumbbell(Box::new(sw), 3, 1_000_000_000, 2);
        let mut sim: Sim<Network> = Sim::new();
        workload(&mut sim, &senders, burst_pkts);
        run_until(&mut net, &mut sim, SimTime::from_millis(40));
        let p = &net
            .switch_as::<EventSwitch<BaselineAdapter<MicroburstBaseline>>>(0)
            .program
            .0;
        Outcome {
            state_words: p.state_words(),
            detections: p.detections.len(),
            first: p.detections.first().copied(),
        }
    }
}

pub fn run() {
    let ev0 = simulate(true, 0);
    let base0 = simulate(false, 0);
    println!(
        "state: event-driven {} words, baseline {} words ({}x reduction)",
        ev0.state_words,
        base0.state_words,
        base0.state_words / ev0.state_words
    );
    println!("threshold {THRESH} B, burst at {BURST_AT}, detection measured from burst start");

    table_header(
        "microburst detection vs burst size (packets of 1500 B)",
        &[
            ("burst", 6),
            ("ev detects", 11),
            ("ev first (us)", 14),
            ("base detects", 13),
            ("base first (us)", 16),
            ("lead (us)", 10),
        ],
    );
    for &burst in &[0u64, 10, 20, 40, 80, 160, 240] {
        let ev = simulate(true, burst);
        let base = simulate(false, burst);
        let fmt = |d: &Option<Detection>| match d {
            Some(d) => format!(
                "{:.1}",
                d.at.saturating_since(BURST_AT).as_nanos() as f64 / 1000.0
            ),
            None => "-".into(),
        };
        let lead = match (&ev.first, &base.first) {
            (Some(e), Some(b)) => {
                format!(
                    "{:.1}",
                    b.at.saturating_since(e.at).as_nanos() as f64 / 1000.0
                )
            }
            _ => "-".into(),
        };
        println!(
            "{:>6} {:>11} {:>14} {:>13} {:>16} {:>10}",
            burst,
            ev.detections,
            fmt(&ev.first),
            base.detections,
            fmt(&base.first),
            lead
        );
    }
    footnote(
        "small bursts (≤ threshold/1500 ≈ 13 pkts) are invisible to both; \
         above threshold the event-driven program flags the culprit at \
         ingress tens of microseconds before the egress-side baseline, \
         with exactly 1/4 of the stateful memory.",
    );
}
