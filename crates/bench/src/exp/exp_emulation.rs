//! §6 experiment — emulating events on today's PISA devices.
//!
//! "Tofino contains a configurable packet generator which the control
//! plane can configure to generate periodic packets and hence emulate
//! timer events. Tofino also supports packet recirculation, which can
//! emulate dequeue events that trigger the ingress pipeline."
//!
//! Emulation is possible — but every emulated event consumes a full
//! pipeline slot (a recirculated or generated packet competes with
//! ingress traffic), while the event-driven architecture carries events
//! in metadata alongside packets (piggyback; a carrier frame only when
//! the pipeline is idle). This bench makes that cost concrete: effective
//! forwarding capacity vs. event rate, slot-accounted, for both designs.

use crate::{f2, footnote, table_header};
use edp_core::event::UserEvent;
use edp_core::{Event, EventMerger, MergerConfig};
use edp_evsim::SimRng;

/// Slot-level pipeline model: `cycles` slots; data packets arrive at
/// `load` (fraction of slots); events arrive at `events_per_100` per 100
/// slots. Returns (packets forwarded, events delivered, packets deferred
/// because an emulated event stole the slot).
fn run_emulation(load: f64, events_per_100: u32, cycles: u64, seed: u64) -> (u64, u64, u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    // Recirculation queue: pending emulated-event packets. They take
    // strict priority over fresh ingress (that is how recirculation
    // ports behave), so each one defers a data packet when both contend.
    let mut pending_events: u64 = 0;
    let mut ev_budget = 0u32;
    let (mut fwd, mut delivered, mut deferred) = (0u64, 0u64, 0u64);
    // A small ingress backlog so deferred packets are not lost outright.
    let mut backlog: u64 = 0;
    for _ in 0..cycles {
        ev_budget += events_per_100;
        while ev_budget >= 100 {
            ev_budget -= 100;
            pending_events += 1;
        }
        if rng.chance(load) {
            backlog += 1;
        }
        if pending_events > 0 {
            // The slot goes to the recirculated event packet.
            pending_events -= 1;
            delivered += 1;
            if backlog > 0 {
                deferred += 1;
            }
        } else if backlog > 0 {
            backlog -= 1;
            fwd += 1;
        }
    }
    (fwd, delivered, deferred)
}

/// The event-driven equivalent: events ride the merger (metadata), never
/// stealing slots from packets; carrier frames only use idle slots.
fn run_native(load: f64, events_per_100: u32, cycles: u64, seed: u64) -> (u64, u64, u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut m = EventMerger::new(MergerConfig::default());
    let mut ev_budget = 0u32;
    let (mut fwd, mut delivered) = (0u64, 0u64);
    for c in 0..cycles {
        if rng.chance(load) {
            fwd += 1;
            delivered += m.packet_slot(c).len() as u64;
        } else {
            delivered += m.idle_slot(c).map(|b| b.len() as u64).unwrap_or(0);
        }
        ev_budget += events_per_100;
        while ev_budget >= 100 {
            ev_budget -= 100;
            m.push_event(
                c,
                Event::User(UserEvent {
                    code: 0,
                    args: [0; 4],
                }),
            );
        }
    }
    (fwd, delivered, 0)
}

pub fn run() {
    const CYCLES: u64 = 1_000_000;
    const LOAD: f64 = 0.95;
    println!("pipeline slot model: 95% offered packet load, 1M slots");
    table_header(
        "emulated events (recirculation) vs native (metadata piggyback)",
        &[
            ("events/100cyc", 14),
            ("emul pkts", 10),
            ("emul deferred", 14),
            ("native pkts", 12),
            ("pkt capacity cost", 18),
        ],
    );
    for &rate in &[0u32, 1, 5, 10, 25, 50, 100] {
        let (e_fwd, _e_del, e_def) = run_emulation(LOAD, rate, CYCLES, 3);
        let (n_fwd, _n_del, _) = run_native(LOAD, rate, CYCLES, 3);
        println!(
            "{:>14} {:>10} {:>14} {:>12} {:>18}",
            rate,
            e_fwd,
            e_def,
            n_fwd,
            format!(
                "{}%",
                f2(100.0 * (n_fwd as f64 - e_fwd as f64) / n_fwd as f64)
            ),
        );
    }
    footnote(
        "every recirculated pseudo-event packet steals a full pipeline \
         slot from ingress traffic, so emulation taxes forwarding \
         capacity linearly with the event rate (≈1% per event per 100 \
         cycles); the event-driven design pays nothing at high load — \
         the paper's argument for why native support needs (cheap, \
         Table 3) hardware changes rather than emulation.",
    );
}
