//! The data-plane event taxonomy (Table 1 of the paper).
//!
//! A *data-plane event* is "an architectural state change that triggers
//! processing in the programming model". Table 1 lists thirteen; this
//! module defines all of them as a closed enum plus the payload each
//! carries to its handler.

use edp_pisa::PortId;
use serde::{Deserialize, Serialize};

/// The thirteen event kinds of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EventKind {
    /// A packet arrived on an external port.
    IngressPacket,
    /// A packet is leaving through the egress pipeline.
    EgressPacket,
    /// A packet re-entered the ingress pipeline via recirculation.
    RecirculatedPacket,
    /// A packet produced by the on-switch packet generator.
    GeneratedPacket,
    /// A packet finished serializing onto the wire.
    PacketTransmitted,
    /// A packet was accepted into a switch buffer.
    BufferEnqueue,
    /// A packet was removed from a switch buffer.
    BufferDequeue,
    /// A packet was dropped because a buffer was full.
    BufferOverflow,
    /// A dequeue was attempted on an empty buffer.
    BufferUnderflow,
    /// A configured timer expired.
    TimerExpiration,
    /// The control plane triggered an event explicitly.
    ControlPlaneTriggered,
    /// A port's link went up or down.
    LinkStatusChange,
    /// A program-defined event raised by another handler.
    UserEvent,
}

impl EventKind {
    /// All thirteen kinds, in Table 1 order (column-major).
    pub const ALL: [EventKind; 13] = [
        EventKind::IngressPacket,
        EventKind::EgressPacket,
        EventKind::RecirculatedPacket,
        EventKind::GeneratedPacket,
        EventKind::PacketTransmitted,
        EventKind::BufferEnqueue,
        EventKind::BufferDequeue,
        EventKind::BufferOverflow,
        EventKind::BufferUnderflow,
        EventKind::TimerExpiration,
        EventKind::ControlPlaneTriggered,
        EventKind::LinkStatusChange,
        EventKind::UserEvent,
    ];

    /// Compact telemetry code: this kind's index in [`EventKind::ALL`].
    /// [`edp_telemetry::event_kind_label`] maps the code back to a short
    /// label in trace renders. Constant-time — this runs on every event
    /// dispatch, so a scan over `ALL` would tax the hot path.
    pub const fn code(self) -> u8 {
        match self {
            EventKind::IngressPacket => 0,
            EventKind::EgressPacket => 1,
            EventKind::RecirculatedPacket => 2,
            EventKind::GeneratedPacket => 3,
            EventKind::PacketTransmitted => 4,
            EventKind::BufferEnqueue => 5,
            EventKind::BufferDequeue => 6,
            EventKind::BufferOverflow => 7,
            EventKind::BufferUnderflow => 8,
            EventKind::TimerExpiration => 9,
            EventKind::ControlPlaneTriggered => 10,
            EventKind::LinkStatusChange => 11,
            EventKind::UserEvent => 12,
        }
    }

    /// This kind's bit in an event-set bitmask (`1 << code`), as used by
    /// [`EventProgram::passive_events`](crate::EventProgram::passive_events).
    pub const fn bit(self) -> u16 {
        1 << self.code()
    }

    /// The human-readable name used in Table 1.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::IngressPacket => "Ingress Packet",
            EventKind::EgressPacket => "Egress Packet",
            EventKind::RecirculatedPacket => "Recirculated Packet",
            EventKind::GeneratedPacket => "Generated Packet",
            EventKind::PacketTransmitted => "Packet Transmitted",
            EventKind::BufferEnqueue => "Buffer Enqueue",
            EventKind::BufferDequeue => "Buffer Dequeue",
            EventKind::BufferOverflow => "Buffer Overflow",
            EventKind::BufferUnderflow => "Buffer Underflow",
            EventKind::TimerExpiration => "Timer Expiration",
            EventKind::ControlPlaneTriggered => "Control-Plane Triggered",
            EventKind::LinkStatusChange => "Link Status Change",
            EventKind::UserEvent => "User Event",
        }
    }

    /// The `edp_pisa::probe` context label a handler of this kind runs
    /// under — the shared vocabulary between the switch's dispatch
    /// instrumentation and `edp-analyze`'s access/effect matrices.
    pub fn probe_context(self) -> &'static str {
        match self {
            EventKind::IngressPacket => "ingress",
            EventKind::EgressPacket => "egress",
            EventKind::RecirculatedPacket => "recirculated",
            EventKind::GeneratedPacket => "generated",
            EventKind::PacketTransmitted => "transmit",
            EventKind::BufferEnqueue => "enqueue",
            EventKind::BufferDequeue => "dequeue",
            EventKind::BufferOverflow => "overflow",
            EventKind::BufferUnderflow => "underflow",
            EventKind::TimerExpiration => "timer",
            EventKind::ControlPlaneTriggered => "control-plane",
            EventKind::LinkStatusChange => "link-status",
            EventKind::UserEvent => "user",
        }
    }

    /// True for the three packet events baseline PISA already supports
    /// ("commonly supported in the baseline programming model").
    pub fn baseline_supported(self) -> bool {
        matches!(
            self,
            EventKind::IngressPacket | EventKind::EgressPacket | EventKind::RecirculatedPacket
        )
    }
}

/// Payload of a buffer enqueue event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnqueueEvent {
    /// Output port whose queue accepted the packet.
    pub port: PortId,
    /// Packet length in bytes.
    pub pkt_len: u32,
    /// Queue occupancy in bytes after the enqueue.
    pub q_bytes: u64,
    /// Queue depth in packets after the enqueue.
    pub q_pkts: u32,
    /// Program-staged metadata (the paper's `enq_meta`).
    pub meta: [u64; 4],
}

/// Payload of a buffer dequeue event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DequeueEvent {
    /// Output port whose queue released the packet.
    pub port: PortId,
    /// Packet length in bytes.
    pub pkt_len: u32,
    /// Queue occupancy in bytes after the dequeue.
    pub q_bytes: u64,
    /// Queue depth in packets after the dequeue.
    pub q_pkts: u32,
    /// Time the packet spent queued, in nanoseconds.
    pub sojourn_ns: u64,
    /// Program-staged metadata (the paper's `deq_meta`).
    pub meta: [u64; 4],
}

/// Payload of a buffer overflow (drop) event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverflowEvent {
    /// Output port whose queue was full.
    pub port: PortId,
    /// Length of the dropped packet.
    pub pkt_len: u32,
    /// Queue occupancy at drop time.
    pub q_bytes: u64,
    /// Program-staged metadata.
    pub meta: [u64; 4],
}

/// Payload of a buffer underflow event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnderflowEvent {
    /// Port whose queue was empty on a dequeue attempt.
    pub port: PortId,
}

/// Payload of a timer expiration event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimerEvent {
    /// Which configured timer fired.
    pub timer_id: u16,
    /// How many times this timer has fired so far (1-based).
    pub firing: u64,
}

/// Payload of a control-plane-triggered event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlPlaneEvent {
    /// Program-defined opcode.
    pub opcode: u32,
    /// Program-defined arguments.
    pub args: [u64; 4],
}

/// Payload of a link status change event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStatusEvent {
    /// Affected port.
    pub port: PortId,
    /// New status: `true` when the link came up.
    pub up: bool,
}

/// Payload of a program-raised user event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserEvent {
    /// Program-defined code.
    pub code: u32,
    /// Program-defined arguments.
    pub args: [u64; 4],
}

/// Payload of a packet-transmitted event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransmitEvent {
    /// Port the packet left on.
    pub port: PortId,
    /// Frame length in bytes.
    pub pkt_len: u32,
}

/// A non-packet event with payload, as carried by the event merger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// Buffer enqueue.
    Enqueue(EnqueueEvent),
    /// Buffer dequeue.
    Dequeue(DequeueEvent),
    /// Buffer overflow.
    Overflow(OverflowEvent),
    /// Buffer underflow.
    Underflow(UnderflowEvent),
    /// Timer expiration.
    Timer(TimerEvent),
    /// Control-plane trigger.
    ControlPlane(ControlPlaneEvent),
    /// Link status change.
    LinkStatus(LinkStatusEvent),
    /// User-raised event.
    User(UserEvent),
    /// Packet finished transmitting.
    Transmit(TransmitEvent),
}

impl Event {
    /// The taxonomy kind of this event.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::Enqueue(_) => EventKind::BufferEnqueue,
            Event::Dequeue(_) => EventKind::BufferDequeue,
            Event::Overflow(_) => EventKind::BufferOverflow,
            Event::Underflow(_) => EventKind::BufferUnderflow,
            Event::Timer(_) => EventKind::TimerExpiration,
            Event::ControlPlane(_) => EventKind::ControlPlaneTriggered,
            Event::LinkStatus(_) => EventKind::LinkStatusChange,
            Event::User(_) => EventKind::UserEvent,
            Event::Transmit(_) => EventKind::PacketTransmitted,
        }
    }
}

/// Per-kind event counters: the coverage matrix behind Table 1.
///
/// Stored as a flat array indexed by [`EventKind::code`]: `record` runs
/// on every architectural event of every packet, so it must be a single
/// indexed add, not a map probe.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EventCounters {
    counts: [u64; 13],
}

impl EventCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one occurrence of `kind`.
    #[inline]
    pub fn record(&mut self, kind: EventKind) {
        self.counts[kind.code() as usize] += 1;
    }

    /// Occurrences of `kind` so far.
    pub fn get(&self, kind: EventKind) -> u64 {
        self.counts[kind.code() as usize]
    }

    /// Kinds that have fired at least once.
    pub fn covered(&self) -> Vec<EventKind> {
        EventKind::ALL
            .into_iter()
            .filter(|k| self.get(*k) > 0)
            .collect()
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Publishes per-kind counts into the unified metrics registry under
    /// `scope`, as `events_<label>` counters plus an `events_total`.
    pub fn publish(&self, reg: &mut edp_telemetry::Registry, scope: &str) {
        for kind in EventKind::ALL {
            let label = edp_telemetry::event_kind_label(kind.code());
            reg.set_counter(&format!("events_{label}"), scope, self.get(kind));
        }
        reg.set_counter("events_total", scope, self.total());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_kinds_unique_names() {
        assert_eq!(EventKind::ALL.len(), 13);
        let names: std::collections::HashSet<_> = EventKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn baseline_supports_only_packet_events() {
        let baseline: Vec<_> = EventKind::ALL
            .into_iter()
            .filter(|k| k.baseline_supported())
            .collect();
        assert_eq!(
            baseline,
            vec![
                EventKind::IngressPacket,
                EventKind::EgressPacket,
                EventKind::RecirculatedPacket
            ]
        );
    }

    #[test]
    fn event_kind_mapping() {
        let e = Event::Timer(TimerEvent {
            timer_id: 1,
            firing: 1,
        });
        assert_eq!(e.kind(), EventKind::TimerExpiration);
        let e = Event::Overflow(OverflowEvent {
            port: 0,
            pkt_len: 0,
            q_bytes: 0,
            meta: [0; 4],
        });
        assert_eq!(e.kind(), EventKind::BufferOverflow);
    }

    #[test]
    fn codes_index_all_and_have_labels() {
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.code() as usize, i);
            assert_ne!(edp_telemetry::event_kind_label(kind.code()), "unknown");
        }
        assert_eq!(edp_telemetry::event_kind_label(13), "unknown");
    }

    #[test]
    fn counters_publish_to_registry() {
        let mut c = EventCounters::new();
        c.record(EventKind::BufferEnqueue);
        c.record(EventKind::BufferEnqueue);
        c.record(EventKind::TimerExpiration);
        let mut reg = edp_telemetry::Registry::new();
        c.publish(&mut reg, "sw0");
        assert_eq!(reg.counter("events_enqueue", "sw0"), 2);
        assert_eq!(reg.counter("events_timer", "sw0"), 1);
        assert_eq!(reg.counter("events_user", "sw0"), 0);
        assert_eq!(reg.counter("events_total", "sw0"), 3);
    }

    #[test]
    fn counters_cover() {
        let mut c = EventCounters::new();
        c.record(EventKind::BufferEnqueue);
        c.record(EventKind::BufferEnqueue);
        c.record(EventKind::TimerExpiration);
        assert_eq!(c.get(EventKind::BufferEnqueue), 2);
        assert_eq!(c.get(EventKind::UserEvent), 0);
        assert_eq!(c.covered().len(), 2);
        assert_eq!(c.total(), 3);
    }
}
