//! §5 experiment — time-windowed flow-rate measurement.
//!
//! Timer events advance per-flow shift registers; this sweep compares the
//! measured rate against ground truth for CBR flows across three decades
//! of rate, plus a bursty flow. Reproduction target: steady-state error
//! within the window quantization (one bucket) for CBR, and the correct
//! average for bursty traffic.

use crate::{f2, Cell, Report};
use edp_apps::common::{Dumbbell, Flow, Scenario};
use edp_apps::rate_monitor::{RateMonitor, TIMER_SAMPLE, TIMER_SHIFT};
use edp_core::{EventSwitch, EventSwitchConfig, TimerSpec};
use edp_evsim::{SimDuration, SimTime};
use edp_netsim::Network;

const N_FLOWS: usize = 16;
const BUCKET: SimDuration = SimDuration::from_millis(1);

/// Runs `flow` through the rate monitor for 100 ms.
fn run_flow(flow: Flow) -> Network {
    let cfg = EventSwitchConfig {
        n_ports: 3,
        timers: vec![
            TimerSpec {
                id: TIMER_SHIFT,
                period: BUCKET,
                start: BUCKET,
            },
            TimerSpec {
                id: TIMER_SAMPLE,
                period: SimDuration::from_millis(5),
                start: SimDuration::from_millis(10),
            },
        ],
        ..Default::default()
    };
    let sw = EventSwitch::new(RateMonitor::new(N_FLOWS, 8, BUCKET.as_nanos(), 2), cfg);
    let sc = Scenario {
        dumbbell: Dumbbell {
            senders: 2,
            bottleneck_bps: 10_000_000_000,
            seed: 23,
        },
        flows: vec![flow],
        until: SimTime::from_millis(100),
    };
    sc.run(Box::new(sw))
}

pub fn run() -> Report {
    let mut report = Report::default();
    let table = report.table(
        "CBR flow-rate measurement via timer events + shift register",
        &[
            ("true Mb/s", 10),
            ("pkt every", 10),
            ("measured Mb/s", 14),
            ("error %", 8),
        ],
    );
    for &(interval_us, pkt_len) in &[(800u64, 1000usize), (200, 1000), (50, 1000), (10, 1250)] {
        let interval = SimDuration::from_micros(interval_us);
        let flow = Flow::cbr(0, SimTime::ZERO, interval, u64::MAX, 10, 20, pkt_len);
        let net = run_flow(flow);
        let truth = pkt_len as f64 * 8.0 * 1e6 / interval_us as f64;
        let slot = flow.key().index(N_FLOWS);
        let prog = &net.switch_as::<EventSwitch<RateMonitor>>(0).program;
        let steady: Vec<f64> = prog.samples[slot]
            .points()
            .iter()
            .skip(2)
            .map(|&(_, v)| v)
            .collect();
        let measured = steady.iter().sum::<f64>() / steady.len() as f64;
        table.row(cells![
            f2(truth / 1e6),
            Cell::Num(interval_us as f64, 0, " us"),
            f2(measured / 1e6),
            f2(100.0 * (measured - truth).abs() / truth)
        ]);
    }

    let table = report.table(
        "bursty flow (20 pkts per burst, 1000 B): average rate",
        &[
            ("burst period", 13),
            ("true Mb/s", 10),
            ("measured Mb/s", 14),
            ("error %", 8),
        ],
    );
    for &period_ms in &[3u64, 7, 13] {
        let flow = Flow::on_off(
            1,
            SimTime::ZERO,
            SimDuration::from_millis(period_ms),
            20,
            SimDuration::ZERO,
            SimTime::from_millis(100),
            30,
            40,
            1000,
        );
        let net = run_flow(flow);
        let truth = 20.0 * 1000.0 * 8.0 * 1000.0 / period_ms as f64;
        let slot = flow.key().index(N_FLOWS);
        let prog = &net.switch_as::<EventSwitch<RateMonitor>>(0).program;
        let measured = prog.samples[slot].time_weighted_mean();
        table.row(cells![
            Cell::Num(period_ms as f64, 0, " ms"),
            f2(truth / 1e6),
            f2(measured / 1e6),
            f2(100.0 * (measured - truth).abs() / truth)
        ]);
    }
    report.note(
        "an 8 x 1 ms shift register advanced by timer events tracks CBR \
         rates across three decades within a few percent; bursty averages \
         land within the window-quantization error. State: 8 words/flow.",
    )
}
