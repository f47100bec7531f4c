//! §2 end-to-end: the microburst worked example's claims, measured.
//!
//! Claims under test, from the paper:
//! 1. the event-driven program needs ≥4× less stateful memory;
//! 2. it detects the culprit in the ingress pipeline, *before* the packet
//!    is enqueued (the baseline flags only after the buffer was hogged);
//! 3. the per-flow occupancy it maintains is exact (returns to zero).

use edp_apps::common::{addr, dumbbell, run_until, sink_addr};
use edp_apps::microburst::{MicroburstBaseline, MicroburstEvent};
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
        capacity_bytes: 300_000,
        ..QueueConfig::default()
    }
}

fn workload(sim: &mut Sim<Network>, senders: &[usize]) {
    for (i, &h) in senders.iter().take(2).enumerate() {
        let src = addr(i as u8 + 1);
        start_cbr(
            sim,
            h,
            SimTime::ZERO,
            SimDuration::from_micros(150),
            200,
            move |s| {
                PacketBuilder::udp(src, sink_addr(), 10 + i as u16, 20, &[])
                    .ident(s as u16)
                    .pad_to(1500)
                    .build()
            },
        );
    }
    let src = addr(3);
    start_burst(sim, senders[2], BURST_AT, 120, move |s| {
        PacketBuilder::udp(src, sink_addr(), 30, 40, &[])
            .ident(s as u16)
            .pad_to(1500)
            .build()
    });
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
    let (mut net, senders, _, _) = dumbbell(Box::new(sw), 3, 1_000_000_000, 3);
    let mut sim: Sim<Network> = Sim::new();
    workload(&mut sim, &senders);
    run_until(&mut net, &mut sim, SimTime::from_millis(40));
    let ev = &net.switch_as::<EventSwitch<MicroburstEvent>>(0).program;
    let ev_words = ev.state_words();
    let ev_first = ev.detections.first().map(|d| d.at).expect("event detects");

    // Baseline run, identical workload.
    let prog = MicroburstBaseline::new(N_FLOWS, THRESH, 240_000, 3);
    let sw = EventSwitch::baseline(prog, 4, qc());
    let (mut net, senders, _, _) = dumbbell(Box::new(sw), 3, 1_000_000_000, 3);
    let mut sim: Sim<Network> = Sim::new();
    workload(&mut sim, &senders);
    run_until(&mut net, &mut sim, SimTime::from_millis(40));
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
    let (mut net, senders, sink, _) = dumbbell(Box::new(sw), 3, 1_000_000_000, 4);
    let mut sim: Sim<Network> = Sim::new();
    workload(&mut sim, &senders);
    run_until(&mut net, &mut sim, SimTime::from_millis(100));
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
    let (mut net, senders, _, _) = dumbbell(Box::new(sw), 3, 1_000_000_000, 5);
    let mut sim: Sim<Network> = Sim::new();
    // Only the polite flows.
    for (i, &h) in senders.iter().take(2).enumerate() {
        let src = addr(i as u8 + 1);
        start_cbr(
            &mut sim,
            h,
            SimTime::ZERO,
            SimDuration::from_micros(150),
            300,
            move |s| {
                PacketBuilder::udp(src, sink_addr(), 10 + i as u16, 20, &[])
                    .ident(s as u16)
                    .pad_to(1500)
                    .build()
            },
        );
    }
    run_until(&mut net, &mut sim, SimTime::from_millis(60));
    let ev = &net.switch_as::<EventSwitch<MicroburstEvent>>(0).program;
    assert!(
        ev.detections.is_empty(),
        "polite traffic must not be flagged: {:?}",
        ev.detections
    );
}
