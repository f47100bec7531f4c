//! Figure 2 — the logical event-driven architecture, exercised.
//!
//! Figure 2 shows ingress/enqueue/dequeue events each triggering a
//! separate *logical pipeline* sharing state. This bench runs the
//! microburst program and reports, per logical pipeline, how many times
//! it ran and how it touched the shared `flowBufSize` register — i.e.
//! the port usage a direct multiported (low-line-rate) realization needs,
//! which §4 then replaces with aggregation registers for fast devices.

use super::udp_flow;
use crate::Report;
use edp_apps::common::{addr, dumbbell, run_until};
use edp_apps::microburst::MicroburstEvent;
use edp_core::{Accessor, EventKind, EventSwitch, EventSwitchConfig};
use edp_evsim::{Sim, SimDuration, SimTime};
use edp_netsim::traffic::{start_burst, start_cbr};
use edp_netsim::Network;
use edp_pisa::QueueConfig;

pub fn run() -> Report {
    let mut report = Report::default();
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
        start_cbr(
            &mut sim,
            h,
            SimTime::ZERO,
            SimDuration::from_micros(120),
            400,
            udp_flow(addr(i as u8 + 1), 10 + i as u16, 20, 1500),
        );
    }
    start_burst(
        &mut sim,
        senders[2],
        SimTime::from_millis(3),
        100,
        udp_flow(addr(3), 30, 40, 1500),
    );
    run_until(&mut net, &mut sim, SimTime::from_millis(60));

    let sw = net.switch_as::<EventSwitch<MicroburstEvent>>(0);
    let counters = sw.event_counters();
    let prog = &sw.program;

    let table = report.table(
        "Figure 2: logical pipelines of microburst.p4 (one run)",
        &[
            ("logical pipeline", 18),
            ("invocations", 12),
            ("shared-reg ops", 15),
        ],
    );
    let reg = &prog.buf_size;
    for (name, kind, accessor) in [
        ("ingress packet", EventKind::IngressPacket, Accessor::Packet),
        ("enqueue", EventKind::BufferEnqueue, Accessor::Enqueue),
        ("dequeue", EventKind::BufferDequeue, Accessor::Dequeue),
    ] {
        table.row(cells![name, counters.get(kind), reg.accesses_by(accessor)]);
    }
    report.blank();
    report.line(format!(
        "shared_register ports required (multiported realization): {}",
        reg.ports_required()
    ));
    report.line(format!("register entries: {} x 1 word", reg.size()));
    report.line(format!("detections: {}", prog.detections.len()));
    report.line(format!(
        "residual occupancy entries after drain: {}",
        reg.nonzero_entries()
    ));
    report.note(
        "every event class ran in its own logical pipeline against one \
         shared register, exactly the Figure 2 model; the port count is \
         what multi-ported memory must provide on low-rate devices, and \
         what Figure 3's aggregation registers eliminate on fast ones.",
    )
}
