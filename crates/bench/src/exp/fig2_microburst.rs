//! Figure 2 — the logical event-driven architecture, exercised.
//!
//! Figure 2 shows ingress/enqueue/dequeue events each triggering a
//! separate *logical pipeline* sharing state. This bench runs the
//! microburst program and reports, per logical pipeline, how many times
//! it ran and how it touched the shared `flowBufSize` register — i.e.
//! the port usage a direct multiported (low-line-rate) realization needs,
//! which §4 then replaces with aggregation registers for fast devices.

use crate::Report;
use edp_apps::common::{Dumbbell, Flow, Scenario};
use edp_apps::microburst::MicroburstEvent;
use edp_core::{Accessor, EventKind, EventSwitch, EventSwitchConfig};
use edp_evsim::{SimDuration, SimTime};
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
    let polite = |i: usize| {
        let interval = SimDuration::from_micros(120);
        Flow::cbr(i, SimTime::ZERO, interval, 400, 10 + i as u16, 20, 1500)
    };
    let burst = Flow::burst(2, SimTime::from_millis(3), 100, 30, 40, 1500);
    let sc = Scenario {
        dumbbell: Dumbbell {
            senders: 3,
            bottleneck_bps: 1_000_000_000,
            seed: 1,
        },
        flows: vec![polite(0), polite(1), burst],
        until: SimTime::from_millis(60),
    };
    let net = sc.run(Box::new(sw));

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
