//! Footnote 1 ablation — exact per-flow register vs count-min sketch for
//! buffer-occupancy tracking.
//!
//! The design choice DESIGN.md calls out: the microburst detector can
//! trade the exact `shared_register` for a CMS, cutting state further at
//! the cost of collision-induced false positives. This sweep measures
//! detections on a clean (burst-free) background vs a bursty one, for
//! shrinking sketch widths.

use crate::Report;
use edp_apps::common::{Dumbbell, Flow, Scenario};
use edp_apps::microburst::{MicroburstCms, MicroburstEvent};
use edp_core::{EventProgram, EventSwitch, EventSwitchConfig};
use edp_evsim::{SimDuration, SimTime};
use edp_netsim::Network;
use edp_pisa::QueueConfig;

const THRESH: u64 = 20_000;

fn qc() -> QueueConfig {
    QueueConfig {
        capacity_bytes: 400_000,
        ..QueueConfig::default()
    }
}

/// Runs many polite flows (+ optional burst) through a switch running
/// `program`; returns the network after 40 ms.
fn run_tracker<P: EventProgram + 'static>(program: P, with_burst: bool) -> Network {
    let cfg = EventSwitchConfig {
        n_ports: 5,
        queue: qc(),
        ..Default::default()
    };
    let sw = EventSwitch::new(program, cfg);
    // Many interleaved polite flows to provoke collisions.
    let mut flows = Vec::new();
    for i in 0..3 {
        for port in 0..8u16 {
            let start = SimTime::from_micros(port as u64 * 11);
            let interval = SimDuration::from_micros(400);
            flows.push(Flow::cbr(i, start, interval, 100, 1000 + port, 20, 1500));
        }
    }
    if with_burst {
        flows.push(Flow::burst(3, SimTime::from_millis(5), 120, 30, 40, 1500));
    }
    let sc = Scenario {
        dumbbell: Dumbbell {
            senders: 4,
            bottleneck_bps: 1_000_000_000,
            seed: 9,
        },
        flows,
        until: SimTime::from_millis(40),
    };
    sc.run(Box::new(sw))
}

/// Detection count and state words of a `width` x `depth` CMS tracker.
fn run_cms(width: usize, depth: usize, with_burst: bool) -> (usize, usize) {
    let net = run_tracker(MicroburstCms::new(width, depth, THRESH, 4), with_burst);
    let prog = &net.switch_as::<EventSwitch<MicroburstCms>>(0).program;
    (prog.detections.len(), prog.state_words())
}

/// Detection count and state words of the exact 256-entry register.
fn run_exact(with_burst: bool) -> (usize, usize) {
    let net = run_tracker(MicroburstEvent::new(256, THRESH, 4), with_burst);
    let prog = &net.switch_as::<EventSwitch<MicroburstEvent>>(0).program;
    (prog.detections.len(), prog.state_words())
}

pub fn run() -> Report {
    let mut report = Report::default();
    report.line(format!(
        "24 polite flows (+ one 120-pkt microburst in the 'burst' runs), thresh {THRESH} B"
    ));
    let table = report.table(
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
    table.row(cells!["exact 256-entry", words, d_burst, d_clean]);
    for &(w, d) in &[(256usize, 4usize), (64, 4), (32, 2), (8, 2), (4, 1)] {
        let (det_b, words) = run_cms(w, d, true);
        let (det_c, _) = run_cms(w, d, false);
        table.row(cells![format!("CMS {w}x{d}"), words, det_b, det_c]);
    }
    report.note(
        "both trackers stay silent on clean traffic; the CMS keeps \
         catching the real burst down to 32 words (8x less state than the \
         exact register), and at the degenerate 8-word size collisions \
         start charging polite flows for the burst's bytes (detections \
         inflate) — the memory/accuracy trade §4 compares to sketches. \
         The exact variant flags more often during the burst because \
         ip-pair aggregation also crosses the threshold for backlogged \
         polite pairs.",
    )
}
