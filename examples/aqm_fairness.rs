//! Flow-fair AQM from enqueue/dequeue events vs. drop-tail.
//!
//! Three polite 40 Mb/s flows share a 100 Mb/s bottleneck with one
//! 400 Mb/s hog. The event-driven FRED program tracks per-flow buffer
//! occupancy and active-flow count purely from enqueue/dequeue events and
//! caps each flow at its fair share; drop-tail lets the hog win.
//!
//! ```sh
//! cargo run --example aqm_fairness
//! ```

use edp_apps::common::{Dumbbell, Flow, Scenario};
use edp_apps::fred::{FredAqm, TIMER_REPORT};
use edp_core::{EventSwitch, EventSwitchConfig, TimerSpec};
use edp_evsim::{jain_fairness, SimDuration, SimTime};
use edp_netsim::SwitchHarness;
use edp_pisa::{ForwardTo, QueueConfig};

const CAPACITY: u64 = 30_000;
const BOTTLENECK: u64 = 100_000_000;
const N: usize = 4; // 3 polite + 1 hog
const HORIZON: SimTime = SimTime::from_millis(200);

fn queue_cfg() -> QueueConfig {
    QueueConfig {
        capacity_bytes: CAPACITY,
        ..QueueConfig::default()
    }
}

fn run(fair: bool) -> (Vec<f64>, Option<f64>) {
    let sw: Box<dyn SwitchHarness> = if fair {
        let cfg = EventSwitchConfig {
            n_ports: 5,
            queue: queue_cfg(),
            timers: vec![TimerSpec {
                id: TIMER_REPORT,
                period: SimDuration::from_millis(1),
                start: SimDuration::from_millis(1),
            }],
            ..Default::default()
        };
        Box::new(EventSwitch::new(FredAqm::new(64, CAPACITY, 2000, 4), cfg))
    } else {
        Box::new(EventSwitch::baseline(ForwardTo(4), 5, queue_cfg()))
    };
    let flows = (0..N).map(|i| {
        let interval = if i == N - 1 {
            SimDuration::from_micros(30) // hog: 400 Mb/s
        } else {
            SimDuration::from_micros(300) // polite: 40 Mb/s
        };
        let port = 1000 + i as u16;
        Flow::cbr(i, SimTime::ZERO, interval, u64::MAX, port, 9000, 1500)
    });
    let sc = Scenario {
        dumbbell: Dumbbell {
            senders: N,
            bottleneck_bps: BOTTLENECK,
            seed: 5,
        },
        flows: flows.collect(),
        until: HORIZON,
    };
    let net = sc.run(sw);
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
    let mean_occ = fair.then(|| {
        net.switch_as::<EventSwitch<FredAqm>>(0)
            .program
            .occupancy_series
            .time_weighted_mean()
    });
    (goodputs, mean_occ)
}

fn main() {
    println!("=== flow-fair AQM from enqueue/dequeue events ===");
    println!("3 polite flows @40 Mb/s + 1 hog @400 Mb/s into 100 Mb/s\n");
    let (droptail, _) = run(false);
    let (fred, occ) = run(true);
    println!(
        "{:<10} {:>16} {:>16}",
        "flow", "droptail (Mb/s)", "FRED (Mb/s)"
    );
    for i in 0..N {
        let label = if i == N - 1 { "hog" } else { "polite" };
        println!(
            "{:<10} {:>16.1} {:>16.1}",
            format!("{i} ({label})"),
            droptail[i] / 1e6,
            fred[i] / 1e6
        );
    }
    println!(
        "\nJain fairness: droptail {:.3} -> FRED {:.3}",
        jain_fairness(&droptail),
        jain_fairness(&fred)
    );
    if let Some(occ) = occ {
        println!("mean buffer occupancy (from data-plane reports): {occ:.0} bytes");
    }
}
