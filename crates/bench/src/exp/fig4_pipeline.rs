//! Figure 4 — the Event Merger under load.
//!
//! The merger either piggybacks event metadata on ingress packets or
//! injects carrier frames into idle slots. This bench sweeps offered
//! packet load and event rate and reports the delivery split, the
//! carrier-frame bandwidth overhead, and event delivery latency — the
//! operating envelope of the Figure 4 design.

use crate::{f2, footnote, table_header};
use edp_core::event::{TimerEvent, UserEvent};
use edp_core::{Event, EventMerger, MergerConfig};
use edp_evsim::SimRng;

/// Simulates `cycles` pipeline slots; a packet occupies a slot with
/// probability `load`, and `events_per_100` events arrive per 100 cycles.
fn simulate(load: f64, events_per_100: u32, cycles: u64, seed: u64) -> (f64, f64, u64, u64) {
    let mut m = EventMerger::new(MergerConfig::default());
    let mut rng = SimRng::seed_from_u64(seed);
    let mut ev_budget = 0u32;
    for c in 0..cycles {
        // The slot for cycle c carries events raised in earlier cycles;
        // events generated during c ride from c+1 on (hardware order).
        if rng.chance(load) {
            m.packet_slot(c);
        } else {
            m.idle_slot(c);
        }
        ev_budget += events_per_100;
        while ev_budget >= 100 {
            ev_budget -= 100;
            m.push_event(
                c,
                if c % 2 == 0 {
                    Event::Timer(TimerEvent {
                        timer_id: 0,
                        firing: c,
                    })
                } else {
                    Event::User(UserEvent {
                        code: 1,
                        args: [c, 0, 0, 0],
                    })
                },
            );
        }
    }
    let s = m.stats();
    let delivered = s.piggybacked + s.carried_injected;
    let piggy_frac = if delivered > 0 {
        s.piggybacked as f64 / delivered as f64
    } else {
        0.0
    };
    let overhead_bytes_per_kcycle = s.carrier_bytes as f64 * 1000.0 / cycles as f64;
    (
        piggy_frac,
        overhead_bytes_per_kcycle,
        s.wait_cycles.p99(),
        m.pending() as u64,
    )
}

pub fn run() {
    const CYCLES: u64 = 1_000_000;

    table_header(
        "Figure 4: event merger vs offered packet load (4 events/100 cycles)",
        &[
            ("pkt load", 9),
            ("piggyback frac", 15),
            ("carrier B/kcycle", 17),
            ("event p99 wait", 15),
            ("backlog", 8),
        ],
    );
    for &load in &[0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
        let (pf, ov, p99, backlog) = simulate(load, 4, CYCLES, 1);
        println!(
            "{:>9} {:>15} {:>17} {:>15} {:>8}",
            f2(load),
            f2(pf),
            f2(ov),
            p99,
            backlog
        );
    }

    table_header(
        "event-rate sweep at 90% packet load",
        &[
            ("events/100cyc", 14),
            ("piggyback frac", 15),
            ("event p99 wait", 15),
            ("backlog", 8),
        ],
    );
    for &rate in &[1u32, 4, 16, 64, 256, 390, 410, 500] {
        let (pf, _ov, p99, backlog) = simulate(0.9, rate, CYCLES, 2);
        println!("{:>14} {:>15} {:>15} {:>8}", rate, f2(pf), p99, backlog);
    }

    footnote(
        "at high packet load events ride for free (piggyback fraction → 1, \
         zero carrier overhead); at low load carriers fill idle slots with \
         small, bounded bandwidth cost. Delivery latency only grows when \
         the event rate approaches the slot capacity (max 4 events/slot).",
    );
}
