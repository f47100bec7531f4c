//! §2 end-to-end: the microburst worked example's claims, measured.
//!
//! Claims under test, from the paper:
//! 1. the event-driven program needs ≥4× less stateful memory;
//! 2. it detects the culprit in the ingress pipeline, *before* the packet
//!    is enqueued (the baseline flags only after the buffer was hogged);
//! 3. the per-flow occupancy it maintains is exact (returns to zero).

use edp_apps::common::{Dumbbell, Flow, Scenario};
use edp_apps::microburst::{MicroburstBaseline, MicroburstEvent};
use edp_core::{BaselineAdapter, EventSwitch, EventSwitchConfig};
use edp_evsim::{SimDuration, SimTime};
use edp_pisa::QueueConfig;

const THRESH: u64 = 20_000;
const N_FLOWS: usize = 256;
const BURST_AT: SimTime = SimTime::from_millis(2);

fn qc() -> QueueConfig {
    QueueConfig {
        capacity_bytes: 300_000,
        ..QueueConfig::default()
    }
}

/// Polite flow `i`: `count` frames of 1500 B, one every 150 us.
fn polite(i: usize, count: u64) -> Flow {
    let interval = SimDuration::from_micros(150);
    Flow::cbr(i, SimTime::ZERO, interval, count, 10 + i as u16, 20, 1500)
}

/// Two polite flows and a 120-packet burst at `BURST_AT`.
fn scenario(seed: u64, until: SimTime) -> Scenario {
    let burst = Flow::burst(2, BURST_AT, 120, 30, 40, 1500);
    Scenario {
        dumbbell: Dumbbell {
            senders: 3,
            bottleneck_bps: 1_000_000_000,
            seed,
        },
        flows: vec![polite(0, 200), polite(1, 200), burst],
        until,
    }
}

#[test]
fn state_reduction_detection_lead_and_exactness() {
    // Event-driven run.
    let cfg = EventSwitchConfig {
        n_ports: 4,
        queue: qc(),
        ..Default::default()
    };
    let sw = EventSwitch::new(MicroburstEvent::new(N_FLOWS, THRESH, 3), cfg);
    let net = scenario(3, SimTime::from_millis(40)).run(Box::new(sw));
    let ev = &net.switch_as::<EventSwitch<MicroburstEvent>>(0).program;
    let ev_words = ev.state_words();
    let ev_first = ev.detections.first().map(|d| d.at).expect("event detects");

    // Baseline run, identical workload.
    let prog = MicroburstBaseline::new(N_FLOWS, THRESH, 240_000, 3);
    let sw = EventSwitch::baseline(prog, 4, qc());
    let net = scenario(3, SimTime::from_millis(40)).run(Box::new(sw));
    let base = &net
        .switch_as::<EventSwitch<BaselineAdapter<MicroburstBaseline>>>(0)
        .program
        .0;
    let base_words = base.state_words();
    let base_first = base
        .detections
        .first()
        .map(|d| d.at)
        .expect("baseline detects");

    // Claim 1: ≥4× state reduction.
    assert!(
        base_words >= 4 * ev_words,
        "state: baseline {base_words} vs event {ev_words}"
    );
    // Claim 2: event-driven detects no later (ingress vs egress).
    assert!(
        ev_first <= base_first,
        "event {ev_first} vs baseline {base_first}"
    );
    // Both detect after the burst actually started.
    assert!(ev_first >= BURST_AT);
}

#[test]
fn event_occupancy_is_exact_and_self_cleaning() {
    let cfg = EventSwitchConfig {
        n_ports: 4,
        queue: qc(),
        ..Default::default()
    };
    let sw = EventSwitch::new(MicroburstEvent::new(N_FLOWS, THRESH, 3), cfg);
    let sc = scenario(4, SimTime::from_millis(100));
    let sink = sc.sink();
    let net = sc.run(Box::new(sw));
    let ev = &net.switch_as::<EventSwitch<MicroburstEvent>>(0).program;
    assert_eq!(
        ev.buf_size.nonzero_entries(),
        0,
        "exact accounting: every enqueued byte was dequeued"
    );
    // Shared-register ports: packet + enqueue + dequeue accessors.
    assert_eq!(ev.buf_size.ports_required(), 3);
    // Traffic flowed.
    assert!(net.hosts[sink].stats.rx_pkts > 400);
}

#[test]
fn no_false_positives_without_bursts() {
    let cfg = EventSwitchConfig {
        n_ports: 4,
        queue: qc(),
        ..Default::default()
    };
    let sw = EventSwitch::new(MicroburstEvent::new(N_FLOWS, THRESH, 3), cfg);
    // Only the polite flows.
    let sc = Scenario {
        flows: vec![polite(0, 300), polite(1, 300)],
        ..scenario(5, SimTime::from_millis(60))
    };
    let net = sc.run(Box::new(sw));
    let ev = &net.switch_as::<EventSwitch<MicroburstEvent>>(0).program;
    assert!(
        ev.detections.is_empty(),
        "polite traffic must not be flagged: {:?}",
        ev.detections
    );
}
