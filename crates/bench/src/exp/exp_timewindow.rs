//! §5 experiment — time-windowed flow-rate measurement.
//!
//! Timer events advance per-flow shift registers; this sweep compares the
//! measured rate against ground truth for CBR flows across three decades
//! of rate, plus a bursty flow. Reproduction target: steady-state error
//! within the window quantization (one bucket) for CBR, and the correct
//! average for bursty traffic.

use crate::{f2, footnote, table_header};
use edp_apps::common::{addr, dumbbell, run_until, sink_addr};
use edp_apps::rate_monitor::{RateMonitor, TIMER_SAMPLE, TIMER_SHIFT};
use edp_core::{EventSwitch, EventSwitchConfig, TimerSpec};
use edp_evsim::{Sim, SimDuration, SimTime};
use edp_netsim::traffic::{start_cbr, start_on_off};
use edp_netsim::Network;
use edp_packet::{FlowKey, IpProto, PacketBuilder};

const N_FLOWS: usize = 16;
const BUCKET: SimDuration = SimDuration::from_millis(1);

fn build() -> (Network, Vec<usize>) {
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
    let (net, senders, _, _) = dumbbell(Box::new(sw), 2, 10_000_000_000, 23);
    (net, senders)
}

pub fn run() {
    table_header(
        "CBR flow-rate measurement via timer events + shift register",
        &[
            ("true Mb/s", 10),
            ("pkt every", 10),
            ("measured Mb/s", 14),
            ("error %", 8),
        ],
    );
    for &(interval_us, pkt_len) in &[(800u64, 1000usize), (200, 1000), (50, 1000), (10, 1250)] {
        let (mut net, senders) = build();
        let mut sim: Sim<Network> = Sim::new();
        let src = addr(1);
        start_cbr(
            &mut sim,
            senders[0],
            SimTime::ZERO,
            SimDuration::from_micros(interval_us),
            u64::MAX,
            move |i| {
                PacketBuilder::udp(src, sink_addr(), 10, 20, &[])
                    .ident(i as u16)
                    .pad_to(pkt_len)
                    .build()
            },
        );
        run_until(&mut net, &mut sim, SimTime::from_millis(100));
        let truth = pkt_len as f64 * 8.0 * 1e6 / interval_us as f64;
        let slot = FlowKey::new(addr(1), sink_addr(), IpProto::Udp, 10, 20).index(N_FLOWS);
        let prog = &net.switch_as::<EventSwitch<RateMonitor>>(0).program;
        let steady: Vec<f64> = prog.samples[slot]
            .points()
            .iter()
            .skip(2)
            .map(|&(_, v)| v)
            .collect();
        let measured = steady.iter().sum::<f64>() / steady.len() as f64;
        println!(
            "{:>10} {:>10} {:>14} {:>8}",
            f2(truth / 1e6),
            format!("{interval_us} us"),
            f2(measured / 1e6),
            f2(100.0 * (measured - truth).abs() / truth),
        );
    }

    table_header(
        "bursty flow (20 pkts per burst, 1000 B): average rate",
        &[
            ("burst period", 13),
            ("true Mb/s", 10),
            ("measured Mb/s", 14),
            ("error %", 8),
        ],
    );
    for &period_ms in &[3u64, 7, 13] {
        let (mut net, senders) = build();
        let mut sim: Sim<Network> = Sim::new();
        let src = addr(2);
        start_on_off(
            &mut sim,
            senders[1],
            SimTime::ZERO,
            SimDuration::from_millis(period_ms),
            20,
            SimDuration::ZERO,
            SimTime::from_millis(100),
            move |i| {
                PacketBuilder::udp(src, sink_addr(), 30, 40, &[])
                    .ident(i as u16)
                    .pad_to(1000)
                    .build()
            },
        );
        run_until(&mut net, &mut sim, SimTime::from_millis(100));
        let truth = 20.0 * 1000.0 * 8.0 * 1000.0 / period_ms as f64;
        let slot = FlowKey::new(addr(2), sink_addr(), IpProto::Udp, 30, 40).index(N_FLOWS);
        let prog = &net.switch_as::<EventSwitch<RateMonitor>>(0).program;
        let measured = prog.samples[slot].time_weighted_mean();
        println!(
            "{:>13} {:>10} {:>14} {:>8}",
            format!("{period_ms} ms"),
            f2(truth / 1e6),
            f2(measured / 1e6),
            f2(100.0 * (measured - truth).abs() / truth),
        );
    }
    footnote(
        "an 8 x 1 ms shift register advanced by timer events tracks CBR \
         rates across three decades within a few percent; bursty averages \
         land within the window-quantization error. State: 8 words/flow.",
    );
}
