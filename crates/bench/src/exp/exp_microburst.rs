//! §2 experiment — microburst detection: event-driven vs Snappy-style
//! baseline across burst intensities.
//!
//! Reproduction targets: ≥4× state reduction (constant, by construction)
//! and earlier detection (ingress, before enqueue) across the sweep.

use crate::{Cell, Report};
use edp_apps::common::{Dumbbell, Flow, Scenario};
use edp_apps::microburst::{Detection, MicroburstBaseline, MicroburstEvent};
use edp_core::{BaselineAdapter, EventSwitch, EventSwitchConfig};
use edp_evsim::{SimDuration, SimTime};
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

/// Two polite flows and a `burst_pkts` burst at `BURST_AT`, for 40 ms.
fn scenario(burst_pkts: u64) -> Scenario {
    let polite = |i: usize| {
        let interval = SimDuration::from_micros(150);
        Flow::cbr(i, SimTime::ZERO, interval, 250, 10 + i as u16, 20, 1500)
    };
    let burst = Flow::burst(2, BURST_AT, burst_pkts, 30, 40, 1500);
    Scenario {
        dumbbell: Dumbbell {
            senders: 3,
            bottleneck_bps: 1_000_000_000,
            seed: 2,
        },
        flows: vec![polite(0), polite(1), burst],
        until: SimTime::from_millis(40),
    }
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
        let net = scenario(burst_pkts).run(Box::new(sw));
        let p = &net.switch_as::<EventSwitch<MicroburstEvent>>(0).program;
        Outcome {
            state_words: p.state_words(),
            detections: p.detections.len(),
            first: p.detections.first().copied(),
        }
    } else {
        let prog = MicroburstBaseline::new(N_FLOWS, THRESH, 240_000, 3);
        let sw = EventSwitch::baseline(prog, 4, qc());
        let net = scenario(burst_pkts).run(Box::new(sw));
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

pub fn run() -> Report {
    let mut report = Report::default();
    let ev0 = simulate(true, 0);
    let base0 = simulate(false, 0);
    report.line(format!(
        "state: event-driven {} words, baseline {} words ({}x reduction)",
        ev0.state_words,
        base0.state_words,
        base0.state_words / ev0.state_words
    ));
    report.line(format!(
        "threshold {THRESH} B, burst at {BURST_AT}, detection measured from burst start"
    ));

    let table = report.table(
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
        let us = |from: SimTime, to: SimTime| {
            Cell::Num(to.saturating_since(from).as_nanos() as f64 / 1000.0, 1, "")
        };
        let first = |d: &Option<Detection>| d.as_ref().map_or("-".into(), |d| us(BURST_AT, d.at));
        let lead = match (&ev.first, &base.first) {
            (Some(e), Some(b)) => us(e.at, b.at),
            _ => "-".into(),
        };
        table.row(cells![
            burst,
            ev.detections,
            first(&ev.first),
            base.detections,
            first(&base.first),
            lead
        ]);
    }
    report.note(
        "small bursts (≤ threshold/1500 ≈ 13 pkts) are invisible to both; \
         above threshold the event-driven program flags the culprit at \
         ingress tens of microseconds before the egress-side baseline, \
         with exactly 1/4 of the stateful memory.",
    )
}
