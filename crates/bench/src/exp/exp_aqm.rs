//! §5 experiment — FRED-style fair AQM from enqueue/dequeue events.
//!
//! Sweeps the hog's intensity against three polite flows on a 100 Mb/s
//! bottleneck and reports per-class goodput and Jain fairness for
//! drop-tail vs the event-driven FRED. Reproduction target: FRED holds
//! fairness near 1.0 regardless of hog intensity; drop-tail collapses.

use crate::{f2, mbps, Report};
use edp_apps::common::{Dumbbell, Flow, Scenario};
use edp_apps::fred::{FredAqm, TIMER_REPORT};
use edp_core::{EventSwitch, EventSwitchConfig, TimerSpec};
use edp_evsim::{jain_fairness, SimDuration, SimTime};
use edp_netsim::{Network, SwitchHarness};
use edp_pisa::{ForwardTo, QueueConfig};

const CAPACITY: u64 = 30_000;
const BOTTLENECK: u64 = 100_000_000;
const N: usize = 4;
const HORIZON: SimTime = SimTime::from_millis(100);

fn qc() -> QueueConfig {
    QueueConfig {
        capacity_bytes: CAPACITY,
        ..QueueConfig::default()
    }
}

/// Runs the four flows to `HORIZON`, the last one the hog; returns the
/// network and its scenario.
pub(super) fn contend(fair: bool, hog_interval_us: u64) -> (Network, Scenario) {
    let sw: Box<dyn SwitchHarness> = if fair {
        let cfg = EventSwitchConfig {
            n_ports: 5,
            queue: qc(),
            timers: vec![TimerSpec {
                id: TIMER_REPORT,
                period: SimDuration::from_millis(1),
                start: SimDuration::from_millis(1),
            }],
            ..Default::default()
        };
        Box::new(EventSwitch::new(FredAqm::new(64, CAPACITY, 2000, 4), cfg))
    } else {
        Box::new(EventSwitch::baseline(ForwardTo(4), 5, qc()))
    };
    let flows = (0..N).map(|i| {
        let us = if i == N - 1 { hog_interval_us } else { 300 };
        let interval = SimDuration::from_micros(us);
        let port = 1000 + i as u16;
        Flow::cbr(i, SimTime::ZERO, interval, u64::MAX, port, 9000, 1500)
    });
    let sc = Scenario {
        dumbbell: Dumbbell {
            senders: N,
            bottleneck_bps: BOTTLENECK,
            seed: 31,
        },
        flows: flows.collect(),
        until: HORIZON,
    };
    (sc.run(sw), sc)
}

/// Returns (per-flow goodputs, mean occupancy from data-plane reports).
fn simulate(fair: bool, hog_interval_us: u64) -> (Vec<f64>, f64) {
    let (net, sc) = contend(fair, hog_interval_us);
    let goodputs: Vec<f64> = sc
        .flows
        .iter()
        .map(|flow| {
            net.hosts[sc.sink()]
                .stats
                .flows
                .get(&flow.key())
                .map(|f| f.bytes as f64 * 8.0 / HORIZON.as_secs_f64())
                .unwrap_or(0.0)
        })
        .collect();
    let occ = if fair {
        net.switch_as::<EventSwitch<FredAqm>>(0)
            .program
            .occupancy_series
            .time_weighted_mean()
    } else {
        0.0
    };
    (goodputs, occ)
}

pub fn run() -> Report {
    let mut report = Report::default();
    report.line(format!(
        "3 polite flows @40 Mb/s + 1 hog into a 100 Mb/s bottleneck, {HORIZON}"
    ));
    let table = report.table(
        "fair AQM (FRED, event-driven) vs drop-tail across hog intensity",
        &[
            ("hog Mb/s", 9),
            ("variant", 9),
            ("polite min", 11),
            ("hog Mb/s", 9),
            ("Jain", 6),
        ],
    );
    for &hog_us in &[120u64, 60, 30, 15] {
        let hog_rate = 1500.0 * 8.0 / hog_us as f64 * 1e6;
        for &fair in &[false, true] {
            let (g, _) = simulate(fair, hog_us);
            let polite_min = g[..N - 1].iter().cloned().fold(f64::INFINITY, f64::min);
            table.row(cells![
                mbps(hog_rate),
                if fair { "FRED" } else { "droptail" },
                mbps(polite_min),
                mbps(g[N - 1]),
                f2(jain_fairness(&g))
            ]);
        }
    }
    let (_, occ) = simulate(true, 30);
    report.blank();
    report.line(format!(
        "mean buffer occupancy under FRED (data-plane reports): {occ:.0} bytes"
    ));
    report.note(
        "per-active-flow occupancy and flow counts come entirely from \
         enqueue/dequeue events — signals a baseline ingress pipeline \
         cannot obtain. FRED caps every flow at its fair share, so Jain \
         stays ~1.0 while drop-tail lets the hog take the buffer.",
    )
}
