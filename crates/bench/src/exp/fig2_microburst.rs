//! Figure 2 — the logical event-driven architecture, exercised.
//!
//! Figure 2 shows ingress/enqueue/dequeue events each triggering a
//! separate *logical pipeline* sharing state. This bench runs the
//! microburst program and reports, per logical pipeline, how many times
//! it ran and how it touched the shared `flowBufSize` register — i.e.
//! the port usage a direct multiported (low-line-rate) realization needs,
//! which §4 then replaces with aggregation registers for fast devices.

use crate::{footnote, table_header};
use edp_apps::common::{addr, dumbbell, run_until, sink_addr};
use edp_apps::microburst::MicroburstEvent;
use edp_core::{Accessor, EventKind, EventSwitch, EventSwitchConfig};
use edp_evsim::{Sim, SimDuration, SimTime};
use edp_netsim::traffic::{start_burst, start_cbr};
use edp_netsim::Network;
use edp_packet::PacketBuilder;
use edp_pisa::QueueConfig;

pub fn run() {
    let cfg = EventSwitchConfig {
        n_ports: 4,
        queue: QueueConfig {
            capacity_bytes: 300_000,
            ..QueueConfig::default()
        },
        ..Default::default()
    };
    let sw = EventSwitch::new(MicroburstEvent::new(256, 20_000, 3), cfg);
    let (mut net, senders, _, _) = dumbbell(Box::new(sw), 3, 1_000_000_000, 1);
    let mut sim: Sim<Network> = Sim::new();
    for (i, &h) in senders.iter().take(2).enumerate() {
        let src = addr(i as u8 + 1);
        start_cbr(
            &mut sim,
            h,
            SimTime::ZERO,
            SimDuration::from_micros(120),
            400,
            move |s| {
                PacketBuilder::udp(src, sink_addr(), 10 + i as u16, 20, &[])
                    .ident(s as u16)
                    .pad_to(1500)
                    .build()
            },
        );
    }
    let src = addr(3);
    start_burst(
        &mut sim,
        senders[2],
        SimTime::from_millis(3),
        100,
        move |s| {
            PacketBuilder::udp(src, sink_addr(), 30, 40, &[])
                .ident(s as u16)
                .pad_to(1500)
                .build()
        },
    );
    run_until(&mut net, &mut sim, SimTime::from_millis(60));

    let sw = net.switch_as::<EventSwitch<MicroburstEvent>>(0);
    let counters = sw.event_counters();
    let prog = &sw.program;

    table_header(
        "Figure 2: logical pipelines of microburst.p4 (one run)",
        &[
            ("logical pipeline", 18),
            ("invocations", 12),
            ("shared-reg ops", 15),
        ],
    );
    let rows = [
        (
            "ingress packet",
            counters.get(EventKind::IngressPacket),
            prog.buf_size.accesses_by(Accessor::Packet),
        ),
        (
            "enqueue",
            counters.get(EventKind::BufferEnqueue),
            prog.buf_size.accesses_by(Accessor::Enqueue),
        ),
        (
            "dequeue",
            counters.get(EventKind::BufferDequeue),
            prog.buf_size.accesses_by(Accessor::Dequeue),
        ),
    ];
    for (name, inv, ops) in rows {
        println!("{name:>18} {inv:>12} {ops:>15}");
    }
    println!();
    println!(
        "shared_register ports required (multiported realization): {}",
        prog.buf_size.ports_required()
    );
    println!("register entries: {} x 1 word", prog.buf_size.size());
    println!("detections: {}", prog.detections.len());
    println!(
        "residual occupancy entries after drain: {}",
        prog.buf_size.nonzero_entries()
    );
    footnote(
        "every event class ran in its own logical pipeline against one \
         shared register, exactly the Figure 2 model; the port count is \
         what multi-ported memory must provide on low-rate devices, and \
         what Figure 3's aggregation registers eliminate on fast ones.",
    );
}
