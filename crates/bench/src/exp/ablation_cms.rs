//! Footnote 1 ablation — exact per-flow register vs count-min sketch for
//! buffer-occupancy tracking.
//!
//! The design choice DESIGN.md calls out: the microburst detector can
//! trade the exact `shared_register` for a CMS, cutting state further at
//! the cost of collision-induced false positives. This sweep measures
//! detections on a clean (burst-free) background vs a bursty one, for
//! shrinking sketch widths.

use crate::{footnote, table_header};
use edp_apps::common::{addr, dumbbell, run_until, sink_addr};
use edp_apps::microburst::{MicroburstCms, MicroburstEvent};
use edp_core::{EventSwitch, EventSwitchConfig};
use edp_evsim::{Sim, SimDuration, SimTime};
use edp_netsim::traffic::{start_burst, start_cbr};
use edp_netsim::Network;
use edp_packet::PacketBuilder;
use edp_pisa::QueueConfig;

const THRESH: u64 = 20_000;

fn qc() -> QueueConfig {
    QueueConfig {
        capacity_bytes: 400_000,
        ..QueueConfig::default()
    }
}

/// Runs many polite flows (+ optional burst); returns detection count.
fn run_cms(width: usize, depth: usize, with_burst: bool) -> (usize, usize) {
    let cfg = EventSwitchConfig {
        n_ports: 5,
        queue: qc(),
        ..Default::default()
    };
    let sw = EventSwitch::new(MicroburstCms::new(width, depth, THRESH, 4), cfg);
    let (mut net, senders, _, _) = dumbbell(Box::new(sw), 4, 1_000_000_000, 9);
    let mut sim: Sim<Network> = Sim::new();
    // Many interleaved polite flows to provoke collisions.
    for (i, &h) in senders.iter().take(3).enumerate() {
        let src = addr(i as u8 + 1);
        for port in 0..8u16 {
            start_cbr(
                &mut sim,
                h,
                SimTime::from_micros(port as u64 * 11),
                SimDuration::from_micros(400),
                100,
                move |s| {
                    PacketBuilder::udp(src, sink_addr(), 1000 + port, 20, &[])
                        .ident(s as u16)
                        .pad_to(1500)
                        .build()
                },
            );
        }
    }
    if with_burst {
        let src = addr(4);
        start_burst(
            &mut sim,
            senders[3],
            SimTime::from_millis(5),
            120,
            move |s| {
                PacketBuilder::udp(src, sink_addr(), 30, 40, &[])
                    .ident(s as u16)
                    .pad_to(1500)
                    .build()
            },
        );
    }
    run_until(&mut net, &mut sim, SimTime::from_millis(40));
    let prog = &net.switch_as::<EventSwitch<MicroburstCms>>(0).program;
    (prog.detections.len(), prog.state_words())
}

fn run_exact(with_burst: bool) -> (usize, usize) {
    let cfg = EventSwitchConfig {
        n_ports: 5,
        queue: qc(),
        ..Default::default()
    };
    let sw = EventSwitch::new(MicroburstEvent::new(256, THRESH, 4), cfg);
    let (mut net, senders, _, _) = dumbbell(Box::new(sw), 4, 1_000_000_000, 9);
    let mut sim: Sim<Network> = Sim::new();
    for (i, &h) in senders.iter().take(3).enumerate() {
        let src = addr(i as u8 + 1);
        for port in 0..8u16 {
            start_cbr(
                &mut sim,
                h,
                SimTime::from_micros(port as u64 * 11),
                SimDuration::from_micros(400),
                100,
                move |s| {
                    PacketBuilder::udp(src, sink_addr(), 1000 + port, 20, &[])
                        .ident(s as u16)
                        .pad_to(1500)
                        .build()
                },
            );
        }
    }
    if with_burst {
        let src = addr(4);
        start_burst(
            &mut sim,
            senders[3],
            SimTime::from_millis(5),
            120,
            move |s| {
                PacketBuilder::udp(src, sink_addr(), 30, 40, &[])
                    .ident(s as u16)
                    .pad_to(1500)
                    .build()
            },
        );
    }
    run_until(&mut net, &mut sim, SimTime::from_millis(40));
    let prog = &net.switch_as::<EventSwitch<MicroburstEvent>>(0).program;
    (prog.detections.len(), prog.state_words())
}

pub fn run() {
    println!("24 polite flows (+ one 120-pkt microburst in the 'burst' runs), thresh {THRESH} B");
    table_header(
        "footnote 1: exact register vs CMS for per-flow occupancy",
        &[
            ("tracker", 16),
            ("state words", 12),
            ("detects (burst)", 16),
            ("detects (clean)", 16),
        ],
    );
    let (d_burst, words) = run_exact(true);
    let (d_clean, _) = run_exact(false);
    println!(
        "{:>16} {:>12} {:>16} {:>16}",
        "exact 256-entry", words, d_burst, d_clean
    );
    for &(w, d) in &[(256usize, 4usize), (64, 4), (32, 2), (8, 2), (4, 1)] {
        let (det_b, words) = run_cms(w, d, true);
        let (det_c, _) = run_cms(w, d, false);
        println!(
            "{:>16} {:>12} {:>16} {:>16}",
            format!("CMS {w}x{d}"),
            words,
            det_b,
            det_c
        );
    }
    footnote(
        "both trackers stay silent on clean traffic; the CMS keeps \
         catching the real burst down to 32 words (8x less state than the \
         exact register), and at the degenerate 8-word size collisions \
         start charging polite flows for the burst's bytes (detections \
         inflate) — the memory/accuracy trade §4 compares to sketches. \
         The exact variant flags more often during the burst because \
         ip-pair aggregation also crosses the threshold for backlogged \
         polite pairs.",
    );
}
