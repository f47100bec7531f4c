//! §5 experiment — FRED-style fair AQM from enqueue/dequeue events.
//!
//! Sweeps the hog's intensity against three polite flows on a 100 Mb/s
//! bottleneck and reports per-class goodput and Jain fairness for
//! drop-tail vs the event-driven FRED. Reproduction target: FRED holds
//! fairness near 1.0 regardless of hog intensity; drop-tail collapses.

use crate::{f2, footnote, mbps, table_header};
use edp_apps::common::{addr, dumbbell, run_until, sink_addr};
use edp_apps::fred::{FredAqm, TIMER_REPORT};
use edp_core::{EventSwitch, EventSwitchConfig, TimerSpec};
use edp_evsim::{jain_fairness, Sim, SimDuration, SimTime};
use edp_netsim::traffic::start_cbr;
use edp_netsim::Network;
use edp_packet::PacketBuilder;
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

/// Runs the four flows to `HORIZON`; returns the network and the sink host.
pub(super) fn contend(fair: bool, hog_interval_us: u64) -> (Network, usize) {
    let (mut net, senders, sink, _) = if fair {
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
        let sw = EventSwitch::new(FredAqm::new(64, CAPACITY, 2000, 4), cfg);
        dumbbell(Box::new(sw), N, BOTTLENECK, 31)
    } else {
        dumbbell(
            Box::new(EventSwitch::baseline(ForwardTo(4), 5, qc())),
            N,
            BOTTLENECK,
            31,
        )
    };
    let mut sim: Sim<Network> = Sim::new();
    for (i, &h) in senders.iter().enumerate() {
        let src = addr(i as u8 + 1);
        let port = 1000 + i as u16;
        let interval = if i == N - 1 {
            SimDuration::from_micros(hog_interval_us)
        } else {
            SimDuration::from_micros(300)
        };
        start_cbr(&mut sim, h, SimTime::ZERO, interval, u64::MAX, move |s| {
            PacketBuilder::udp(src, sink_addr(), port, 9000, &[])
                .ident(s as u16)
                .pad_to(1500)
                .build()
        });
    }
    run_until(&mut net, &mut sim, HORIZON);
    (net, sink)
}

/// Returns (per-flow goodputs, mean occupancy from data-plane reports).
fn simulate(fair: bool, hog_interval_us: u64) -> (Vec<f64>, f64) {
    let (net, sink) = contend(fair, hog_interval_us);
    let goodputs: Vec<f64> = (0..N)
        .map(|i| {
            let key = edp_packet::FlowKey::new(
                addr(i as u8 + 1),
                sink_addr(),
                edp_packet::IpProto::Udp,
                1000 + i as u16,
                9000,
            );
            net.hosts[sink]
                .stats
                .flows
                .get(&key)
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

pub fn run() {
    println!("3 polite flows @40 Mb/s + 1 hog into a 100 Mb/s bottleneck, {HORIZON}");
    table_header(
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
            println!(
                "{:>9} {:>9} {:>11} {:>9} {:>6}",
                mbps(hog_rate),
                if fair { "FRED" } else { "droptail" },
                mbps(polite_min),
                mbps(g[N - 1]),
                f2(jain_fairness(&g)),
            );
        }
    }
    let (_, occ) = simulate(true, 30);
    println!("\nmean buffer occupancy under FRED (data-plane reports): {occ:.0} bytes");
    footnote(
        "per-active-flow occupancy and flow counts come entirely from \
         enqueue/dequeue events — signals a baseline ingress pipeline \
         cannot obtain. FRED caps every flow at its fair share, so Jain \
         stays ~1.0 while drop-tail lets the hog take the buffer.",
    );
}
