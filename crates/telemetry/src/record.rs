//! The structured trace record schema.
//!
//! Every record is a small `Copy` struct: a sim-time stamp, a span id
//! (non-zero only on records that *open* or *close* a handler span), a
//! cause id (the span that was active when the record was emitted — zero
//! at top level), and a closed [`RecordKind`] payload. Records carry only
//! values derived from simulation state, never wall-clock time, so a
//! trace is a pure function of the run's seeds.
//!
//! Event-kind codes are indices into `EventKind::ALL` (Table 1 order);
//! [`event_kind_label`] maps them back to short stable labels.

/// Why a packet was dropped inside a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The program chose `Drop` (or left the destination unspecified).
    Program,
    /// A traffic-manager queue was full.
    Overflow,
    /// The parser rejected the frame.
    ParseError,
    /// The recirculation bound was exceeded.
    RecircLimit,
    /// The egress link was administratively down.
    LinkDown,
    /// The event-cascade depth bound was exceeded.
    CascadeLimit,
}

impl DropReason {
    /// Short stable label used in rendered traces and metric names.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::Program => "program",
            DropReason::Overflow => "overflow",
            DropReason::ParseError => "parse_error",
            DropReason::RecircLimit => "recirc_limit",
            DropReason::LinkDown => "link_down",
            DropReason::CascadeLimit => "cascade_limit",
        }
    }
}

/// The payload of one trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A handler raised a follow-on event (user event or generated
    /// packet) that will be dispatched.
    EventRaised {
        /// Index into `EventKind::ALL`.
        kind: u8,
    },
    /// An event was accepted into a queue/merger for later dispatch.
    EventEnqueued {
        /// Index into `EventKind::ALL`.
        kind: u8,
    },
    /// An event handler started running. Opens a span.
    EventFired {
        /// Index into `EventKind::ALL`.
        kind: u8,
    },
    /// The handler opened by the matching `EventFired` finished.
    HandlerDone {
        /// Index into `EventKind::ALL`.
        kind: u8,
    },
    /// A packet arrived on a switch port.
    PacketRx {
        /// Switch id (`EventSwitchConfig::switch_id`, 0 by default).
        switch: u16,
        /// Ingress port.
        port: u8,
        /// Frame length in bytes.
        len: u32,
    },
    /// A packet left a switch port.
    PacketTx {
        /// Switch id.
        switch: u16,
        /// Egress port.
        port: u8,
        /// Frame length in bytes.
        len: u32,
    },
    /// A packet re-entered the ingress pipeline.
    PacketRecirc {
        /// Switch id.
        switch: u16,
        /// Recirculation pass number (1-based).
        pass: u8,
    },
    /// A packet was dropped.
    PacketDrop {
        /// Switch id.
        switch: u16,
        /// Why.
        reason: DropReason,
    },
    /// Queue occupancy sampled after an enqueue or dequeue.
    QueueDepth {
        /// Output port.
        port: u8,
        /// Bytes queued after the operation.
        q_bytes: u64,
        /// Packets queued after the operation.
        q_pkts: u32,
    },
    /// An aggregation register folded its parked deltas into main state.
    RegisterFlush {
        /// FNV-1a hash of the register name ([`register_label`]).
        register: u32,
        /// Cells folded in this flush.
        folds: u64,
    },
    /// A staleness bound observed on an aggregation-register read.
    Staleness {
        /// FNV-1a hash of the register name.
        register: u32,
        /// Unfolded delta magnitude visible to the read.
        bound: u64,
    },
    /// The scheduler armed a future event.
    SchedArm {
        /// Heap sequence number of the armed event.
        seq: u64,
        /// Absolute due time in nanoseconds.
        due_ns: u64,
    },
    /// The scheduler fired an armed event.
    SchedFire {
        /// Heap sequence number of the fired event.
        seq: u64,
    },
    /// The scheduler cancelled an armed event.
    SchedCancel {
        /// Packed event handle that was cancelled.
        handle: u64,
    },
    /// The network delivered a frame to an endpoint.
    LinkDeliver {
        /// Destination node: switch index, or `0x8000_0000 | host`.
        node: u32,
        /// Destination port.
        port: u8,
        /// Frame length in bytes.
        len: u32,
    },
    /// A link (or link direction) changed administrative status.
    LinkStatus {
        /// Link index.
        link: u32,
        /// New status.
        up: bool,
    },
    /// Free-form annotation (stall markers, fault-plan notes, ...).
    Note {
        /// Producer-defined code.
        code: u32,
        /// Producer-defined arguments.
        a: u64,
        /// Producer-defined arguments.
        b: u64,
    },
}

/// One entry of the structured trace ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time of the record, nanoseconds.
    pub at_ns: u64,
    /// Span opened/closed by this record; 0 when the record is not a
    /// span boundary.
    pub span: u64,
    /// Span that was active when the record was emitted; 0 at top level.
    pub cause: u64,
    /// What happened.
    pub kind: RecordKind,
}

/// Short stable labels for event-kind codes, in `EventKind::ALL`
/// (Table 1) order.
const EVENT_KIND_LABELS: [&str; 13] = [
    "ingress",
    "egress",
    "recirculated",
    "generated",
    "transmitted",
    "enqueue",
    "dequeue",
    "overflow",
    "underflow",
    "timer",
    "control_plane",
    "link_status",
    "user",
];

/// Maps an event-kind code (index into `EventKind::ALL`) to its label.
pub fn event_kind_label(code: u8) -> &'static str {
    EVENT_KIND_LABELS
        .get(code as usize)
        .copied()
        .unwrap_or("unknown")
}

/// 32-bit FNV-1a of a register name: the deterministic id that
/// `RegisterFlush`/`Staleness` records carry instead of an allocation.
pub fn register_label(name: &str) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in name.as_bytes() {
        h ^= u32::from(*b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

impl TraceRecord {
    /// Renders the record as one stable text line.
    pub fn render(&self) -> String {
        format!(
            "{:>12} [span {:>4} cause {:>4}] {}",
            self.at_ns,
            self.span,
            self.cause,
            self.render_body()
        )
    }

    /// Renders the record *without* span/cause ids: `time body`.
    ///
    /// Span ids are allocated sequentially per session, so they depend on
    /// how records were distributed over sessions — under sharded
    /// execution, on the shard count. The canonical form drops them,
    /// leaving a line that is a pure function of the record itself;
    /// sorting canonical lines by `(time, text)` therefore merges
    /// per-shard rings into byte-identical text for any shard count.
    pub fn render_canonical(&self) -> String {
        format!("{:>12} {}", self.at_ns, self.render_body())
    }

    fn render_body(&self) -> String {
        match self.kind {
            RecordKind::EventRaised { kind } => {
                format!("event-raised {}", event_kind_label(kind))
            }
            RecordKind::EventEnqueued { kind } => {
                format!("event-enqueued {}", event_kind_label(kind))
            }
            RecordKind::EventFired { kind } => {
                format!("event-fired {}", event_kind_label(kind))
            }
            RecordKind::HandlerDone { kind } => {
                format!("handler-done {}", event_kind_label(kind))
            }
            RecordKind::PacketRx { switch, port, len } => {
                format!("pkt-rx sw{switch} p{port} {len}B")
            }
            RecordKind::PacketTx { switch, port, len } => {
                format!("pkt-tx sw{switch} p{port} {len}B")
            }
            RecordKind::PacketRecirc { switch, pass } => {
                format!("pkt-recirc sw{switch} pass={pass}")
            }
            RecordKind::PacketDrop { switch, reason } => {
                format!("pkt-drop sw{switch} {}", reason.label())
            }
            RecordKind::QueueDepth {
                port,
                q_bytes,
                q_pkts,
            } => format!("queue-depth p{port} {q_bytes}B/{q_pkts}p"),
            RecordKind::RegisterFlush { register, folds } => {
                format!("reg-flush r{register:08x} folds={folds}")
            }
            RecordKind::Staleness { register, bound } => {
                format!("staleness r{register:08x} bound={bound}")
            }
            RecordKind::SchedArm { seq, due_ns } => {
                format!("sched-arm seq={seq} due={due_ns}")
            }
            RecordKind::SchedFire { seq } => format!("sched-fire seq={seq}"),
            RecordKind::SchedCancel { handle } => {
                format!("sched-cancel handle={handle:#x}")
            }
            RecordKind::LinkDeliver { node, port, len } => {
                if node & 0x8000_0000 != 0 {
                    format!("link-deliver host{} p{port} {len}B", node & 0x7fff_ffff)
                } else {
                    format!("link-deliver sw{node} p{port} {len}B")
                }
            }
            RecordKind::LinkStatus { link, up } => {
                format!("link-status l{link} {}", if up { "up" } else { "down" })
            }
            RecordKind::Note { code, a, b } => format!("note c{code} a={a} b={b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_cover_all_codes() {
        for code in 0u8..13 {
            assert_ne!(event_kind_label(code), "unknown");
        }
        assert_eq!(event_kind_label(13), "unknown");
        assert_eq!(event_kind_label(0), "ingress");
        assert_eq!(event_kind_label(12), "user");
    }

    #[test]
    fn register_label_deterministic_and_spread() {
        assert_eq!(register_label("occ"), register_label("occ"));
        assert_ne!(register_label("occ"), register_label("flow_occ"));
        // FNV-1a of the empty string is the offset basis.
        assert_eq!(register_label(""), 0x811c_9dc5);
    }

    #[test]
    fn render_is_stable() {
        let r = TraceRecord {
            at_ns: 1500,
            span: 3,
            cause: 1,
            kind: RecordKind::EventFired { kind: 5 },
        };
        assert_eq!(
            r.render(),
            "        1500 [span    3 cause    1] event-fired enqueue"
        );
        let d = TraceRecord {
            at_ns: 0,
            span: 0,
            cause: 3,
            kind: RecordKind::PacketDrop {
                switch: 1,
                reason: DropReason::RecircLimit,
            },
        };
        assert_eq!(
            d.render(),
            "           0 [span    0 cause    3] pkt-drop sw1 recirc_limit"
        );
    }
}
