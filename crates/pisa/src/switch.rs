//! The baseline PSA switch (Figure 1 of the paper).
//!
//! Ingress pipeline → traffic manager → egress pipeline, with packet
//! recirculation. The [`TmEvent`] records produced by the traffic manager
//! are *discarded* here — a baseline architecture has no programming-model
//! slot to deliver them to. `edp-core::sume` builds the event-driven
//! variant on the same parts and delivers them.

use crate::meta::{Destination, PortId, StdMeta};
use crate::program::PisaProgram;
use crate::tm::{QueueConfig, QueueStats, TrafficManager};
use edp_evsim::SimTime;
use edp_packet::Packet;
use edp_telemetry::{emit, DropReason, RecordKind};
use serde::{Deserialize, Serialize};

/// Upper bound on recirculations per packet, guarding against programs
/// that loop a packet forever.
pub const MAX_RECIRCULATIONS: u8 = 8;

/// Aggregate switch counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchCounters {
    /// Frames offered to ingress.
    pub rx: u64,
    /// Frames handed out of egress.
    pub tx: u64,
    /// Frames dropped by program decision (dest = Drop / Unspecified).
    pub dropped_by_program: u64,
    /// Frames dropped on queue overflow.
    pub dropped_overflow: u64,
    /// Frames dropped because they failed to parse.
    pub parse_errors: u64,
    /// Recirculation passes executed.
    pub recirculated: u64,
    /// Frames dropped for exceeding [`MAX_RECIRCULATIONS`].
    pub recirc_limit_drops: u64,
}

impl SwitchCounters {
    /// Publishes the snapshot into the unified metrics registry under
    /// `scope` (conventionally `sw<N>`).
    pub fn publish(&self, reg: &mut edp_telemetry::Registry, scope: &str) {
        reg.set_counter("rx", scope, self.rx);
        reg.set_counter("tx", scope, self.tx);
        reg.set_counter("dropped_by_program", scope, self.dropped_by_program);
        reg.set_counter("dropped_overflow", scope, self.dropped_overflow);
        reg.set_counter("parse_errors", scope, self.parse_errors);
        reg.set_counter("recirculated", scope, self.recirculated);
        reg.set_counter("recirc_limit_drops", scope, self.recirc_limit_drops);
    }
}

/// A baseline PSA switch around a [`PisaProgram`].
#[derive(Debug)]
pub struct BaselineSwitch<P> {
    /// The P4-equivalent program.
    pub program: P,
    tm: TrafficManager,
    n_ports: usize,
    counters: SwitchCounters,
}

impl<P: PisaProgram> BaselineSwitch<P> {
    /// Creates a switch with `n_ports` ports and per-port queue `cfg`.
    pub fn new(program: P, n_ports: usize, cfg: QueueConfig) -> Self {
        BaselineSwitch {
            program,
            tm: TrafficManager::new(n_ports, cfg),
            n_ports,
            counters: SwitchCounters::default(),
        }
    }

    /// Number of ports.
    pub fn n_ports(&self) -> usize {
        self.n_ports
    }

    /// Counter snapshot.
    pub fn counters(&self) -> SwitchCounters {
        self.counters
    }

    /// Per-port queue statistics.
    pub fn queue_stats(&self, port: PortId) -> QueueStats {
        self.tm.stats(port)
    }

    /// Occupancy of `port`'s output queue in bytes.
    pub fn occupancy_bytes(&self, port: PortId) -> u64 {
        self.tm.occupancy_bytes(port)
    }

    /// Offers an arriving frame to the ingress pipeline; the packet lands
    /// in output queues (or is dropped). Call [`BaselineSwitch::transmit`]
    /// to drain.
    pub fn receive(&mut self, now: SimTime, port: PortId, pkt: Packet) {
        self.counters.rx += 1;
        emit(
            now.as_nanos(),
            RecordKind::PacketRx {
                switch: 0,
                port,
                len: pkt.len() as u32,
            },
        );
        let meta = StdMeta::ingress(port, now, pkt.len());
        self.ingress_pass(now, pkt, meta);
    }

    fn ingress_pass(&mut self, now: SimTime, mut pkt: Packet, mut meta: StdMeta) {
        let parsed = match pkt.parsed() {
            Ok(p) => *p,
            Err(_) => {
                self.counters.parse_errors += 1;
                emit(
                    now.as_nanos(),
                    RecordKind::PacketDrop {
                        switch: 0,
                        reason: DropReason::ParseError,
                    },
                );
                return;
            }
        };
        self.program.ingress(&mut pkt, &parsed, &mut meta, now);
        match meta.dest {
            Destination::Port(out) => {
                if (out as usize) < self.n_ports {
                    self.enqueue(out, pkt, meta, now);
                } else {
                    self.counters.dropped_by_program += 1;
                    emit(
                        now.as_nanos(),
                        RecordKind::PacketDrop {
                            switch: 0,
                            reason: DropReason::Program,
                        },
                    );
                }
            }
            Destination::Flood => {
                let ingress = meta.ingress_port;
                for out in 0..self.n_ports as PortId {
                    if out != ingress {
                        self.enqueue(out, pkt.clone(), meta, now);
                    }
                }
            }
            Destination::Recirculate => {
                if meta.recirc_count >= MAX_RECIRCULATIONS {
                    self.counters.recirc_limit_drops += 1;
                    emit(
                        now.as_nanos(),
                        RecordKind::PacketDrop {
                            switch: 0,
                            reason: DropReason::RecircLimit,
                        },
                    );
                    return;
                }
                self.counters.recirculated += 1;
                meta.recirc_count += 1;
                emit(
                    now.as_nanos(),
                    RecordKind::PacketRecirc {
                        switch: 0,
                        pass: meta.recirc_count,
                    },
                );
                meta.dest = Destination::Unspecified;
                self.ingress_pass(now, pkt, meta);
            }
            Destination::Drop | Destination::Unspecified => {
                self.counters.dropped_by_program += 1;
                emit(
                    now.as_nanos(),
                    RecordKind::PacketDrop {
                        switch: 0,
                        reason: DropReason::Program,
                    },
                );
            }
        }
    }

    fn enqueue(&mut self, out: PortId, pkt: Packet, meta: StdMeta, now: SimTime) {
        let (returned, _event) = self.tm.offer(out, pkt, meta, now);
        // Baseline architecture: the TmEvent is dropped on the floor.
        if returned.is_some() {
            self.counters.dropped_overflow += 1;
            emit(
                now.as_nanos(),
                RecordKind::PacketDrop {
                    switch: 0,
                    reason: DropReason::Overflow,
                },
            );
        }
    }

    /// Pulls the next frame queued for `port` through the egress pipeline.
    /// Returns `None` when the queue is empty or the egress program
    /// dropped the frame.
    pub fn transmit(&mut self, now: SimTime, port: PortId) -> Option<Packet> {
        let (mut pkt, mut meta, _event) = self.tm.dequeue(port, now).ok()?;
        let parsed = match pkt.parsed() {
            Ok(p) => *p,
            Err(_) => {
                self.counters.parse_errors += 1;
                emit(
                    now.as_nanos(),
                    RecordKind::PacketDrop {
                        switch: 0,
                        reason: DropReason::ParseError,
                    },
                );
                return None;
            }
        };
        self.program.egress(&mut pkt, &parsed, &mut meta, now);
        if meta.egress_drop {
            self.counters.dropped_by_program += 1;
            emit(
                now.as_nanos(),
                RecordKind::PacketDrop {
                    switch: 0,
                    reason: DropReason::Program,
                },
            );
            return None;
        }
        self.counters.tx += 1;
        emit(
            now.as_nanos(),
            RecordKind::PacketTx {
                switch: 0,
                port,
                len: pkt.len() as u32,
            },
        );
        Some(pkt)
    }

    /// True if `port` has frames waiting.
    pub fn has_pending(&self, port: PortId) -> bool {
        self.tm.depth_pkts(port) > 0
    }

    /// Delivers a control-plane update to the program (P4Runtime-style);
    /// the next packet sees the updated state.
    pub fn control_plane(&mut self, now: SimTime, opcode: u32, args: [u64; 4]) {
        self.program.control_update(opcode, args, now);
    }

    /// Publishes every counter this switch owns — aggregate counters and
    /// per-port queue statistics — into the unified metrics registry
    /// under `scope`.
    pub fn publish_metrics(&self, reg: &mut edp_telemetry::Registry, scope: &str) {
        self.counters.publish(reg, scope);
        for port in 0..self.n_ports as PortId {
            self.tm
                .stats(port)
                .publish(reg, &format!("{scope}:p{port}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ForwardTo;
    use edp_packet::PacketBuilder;
    use edp_packet::ParsedPacket;
    use std::net::Ipv4Addr;

    fn frame() -> Packet {
        Packet::anonymous(
            PacketBuilder::udp(
                Ipv4Addr::new(1, 0, 0, 1),
                Ipv4Addr::new(1, 0, 0, 2),
                1,
                2,
                b"x",
            )
            .build(),
        )
    }

    #[test]
    fn forwards_end_to_end() {
        let mut sw = BaselineSwitch::new(ForwardTo(2), 4, QueueConfig::default());
        sw.receive(SimTime::ZERO, 0, frame());
        assert!(sw.has_pending(2));
        assert!(!sw.has_pending(0));
        let out = sw.transmit(SimTime::from_nanos(5), 2);
        assert!(out.is_some());
        let c = sw.counters();
        assert_eq!(c.rx, 1);
        assert_eq!(c.tx, 1);
    }

    #[test]
    fn unparseable_frame_counted() {
        let mut sw = BaselineSwitch::new(ForwardTo(1), 2, QueueConfig::default());
        sw.receive(SimTime::ZERO, 0, Packet::anonymous(vec![1, 2, 3]));
        assert_eq!(sw.counters().parse_errors, 1);
        assert_eq!(sw.counters().tx, 0);
    }

    #[test]
    fn flood_replicates_to_all_but_ingress() {
        struct Flooder;
        impl PisaProgram for Flooder {
            fn ingress(
                &mut self,
                _p: &mut Packet,
                _h: &ParsedPacket,
                m: &mut StdMeta,
                _n: SimTime,
            ) {
                m.dest = Destination::Flood;
            }
        }
        let mut sw = BaselineSwitch::new(Flooder, 4, QueueConfig::default());
        sw.receive(SimTime::ZERO, 1, frame());
        assert!(sw.has_pending(0));
        assert!(!sw.has_pending(1));
        assert!(sw.has_pending(2));
        assert!(sw.has_pending(3));
    }

    #[test]
    fn drop_decision_counted() {
        struct Dropper;
        impl PisaProgram for Dropper {
            fn ingress(
                &mut self,
                _p: &mut Packet,
                _h: &ParsedPacket,
                m: &mut StdMeta,
                _n: SimTime,
            ) {
                m.dest = Destination::Drop;
            }
        }
        let mut sw = BaselineSwitch::new(Dropper, 2, QueueConfig::default());
        sw.receive(SimTime::ZERO, 0, frame());
        assert_eq!(sw.counters().dropped_by_program, 1);
    }

    #[test]
    fn recirculation_bounded() {
        struct Recirc;
        impl PisaProgram for Recirc {
            fn ingress(
                &mut self,
                _p: &mut Packet,
                _h: &ParsedPacket,
                m: &mut StdMeta,
                _n: SimTime,
            ) {
                m.dest = Destination::Recirculate;
            }
        }
        let mut sw = BaselineSwitch::new(Recirc, 2, QueueConfig::default());
        sw.receive(SimTime::ZERO, 0, frame());
        let c = sw.counters();
        assert_eq!(c.recirculated, MAX_RECIRCULATIONS as u64);
        assert_eq!(c.recirc_limit_drops, 1);
    }

    #[test]
    fn recirc_count_visible_to_program() {
        // Recirculate once, then forward; program sees the count.
        struct OneLoop;
        impl PisaProgram for OneLoop {
            fn ingress(
                &mut self,
                _p: &mut Packet,
                _h: &ParsedPacket,
                m: &mut StdMeta,
                _n: SimTime,
            ) {
                m.dest = if m.recirc_count == 0 {
                    Destination::Recirculate
                } else {
                    Destination::Port(1)
                };
            }
        }
        let mut sw = BaselineSwitch::new(OneLoop, 2, QueueConfig::default());
        sw.receive(SimTime::ZERO, 0, frame());
        assert!(sw.transmit(SimTime::ZERO, 1).is_some());
        assert_eq!(sw.counters().recirculated, 1);
    }

    /// The drop-accounting identity every counter snapshot must satisfy:
    /// every received frame either left the switch or is accounted to
    /// exactly one drop bucket (or still sits in a queue).
    fn assert_accounting_consistent(c: &SwitchCounters, queued: u64) {
        assert_eq!(
            c.rx - c.tx,
            c.dropped_by_program
                + c.dropped_overflow
                + c.parse_errors
                + c.recirc_limit_drops
                + queued,
            "rx - tx must equal the sum of the drop buckets plus still-queued frames: {c:?}"
        );
    }

    #[test]
    fn recirc_limit_drops_sum_consistently_with_rx_tx() {
        // A program that loops every packet until the recirculation bound
        // trips: all of rx must land in recirc_limit_drops, none in the
        // program/overflow buckets.
        struct Recirc;
        impl PisaProgram for Recirc {
            fn ingress(
                &mut self,
                _p: &mut Packet,
                _h: &ParsedPacket,
                m: &mut StdMeta,
                _n: SimTime,
            ) {
                m.dest = Destination::Recirculate;
            }
        }
        let mut sw = BaselineSwitch::new(Recirc, 2, QueueConfig::default());
        for _ in 0..3 {
            sw.receive(SimTime::ZERO, 0, frame());
        }
        sw.receive(SimTime::ZERO, 0, Packet::anonymous(vec![1, 2, 3])); // parse error
        let c = sw.counters();
        assert_eq!(c.rx, 4);
        assert_eq!(c.tx, 0);
        assert_eq!(c.recirc_limit_drops, 3);
        assert_eq!(c.recirculated, 3 * MAX_RECIRCULATIONS as u64);
        assert_eq!(c.dropped_by_program, 0);
        assert_eq!(c.dropped_overflow, 0);
        assert_eq!(c.parse_errors, 1);
        assert_accounting_consistent(&c, 0);
    }

    #[test]
    fn mixed_drop_buckets_sum_consistently_with_rx_tx() {
        // Odd packets recirculate forever; even packets forward into a
        // queue sized for exactly one of them, so the second even packet
        // overflows. Every drop bucket then holds a known share of rx.
        struct MixedRecirc {
            n: u64,
        }
        impl PisaProgram for MixedRecirc {
            fn ingress(
                &mut self,
                _p: &mut Packet,
                _h: &ParsedPacket,
                m: &mut StdMeta,
                _n: SimTime,
            ) {
                if m.recirc_count > 0 {
                    m.dest = Destination::Recirculate;
                    return;
                }
                self.n += 1;
                m.dest = if self.n % 2 == 1 {
                    Destination::Recirculate
                } else {
                    Destination::Port(1)
                };
            }
        }
        let cfg = QueueConfig {
            capacity_bytes: 64, // one ~50 B frame fits, the next overflows
            ..QueueConfig::default()
        };
        let mut sw = BaselineSwitch::new(MixedRecirc { n: 0 }, 2, cfg);
        for _ in 0..4 {
            sw.receive(SimTime::ZERO, 0, frame());
        }
        let sent = u64::from(sw.transmit(SimTime::ZERO, 1).is_some());
        let c = sw.counters();
        assert_eq!(c.rx, 4);
        assert_eq!(c.tx, sent);
        assert_eq!(c.recirc_limit_drops, 2, "both odd packets hit the bound");
        assert_eq!(c.dropped_overflow, 1, "second even packet overflowed");
        assert_eq!(c.dropped_by_program, 0);
        let queued = u64::from(sw.has_pending(1));
        assert_accounting_consistent(&c, queued);
    }

    #[test]
    fn egress_drop_respected() {
        struct EgressDropper;
        impl PisaProgram for EgressDropper {
            fn ingress(
                &mut self,
                _p: &mut Packet,
                _h: &ParsedPacket,
                m: &mut StdMeta,
                _n: SimTime,
            ) {
                m.dest = Destination::Port(1);
            }
            fn egress(&mut self, _p: &mut Packet, _h: &ParsedPacket, m: &mut StdMeta, _n: SimTime) {
                m.egress_drop = true;
            }
        }
        let mut sw = BaselineSwitch::new(EgressDropper, 2, QueueConfig::default());
        sw.receive(SimTime::ZERO, 0, frame());
        assert!(sw.transmit(SimTime::ZERO, 1).is_none());
        assert_eq!(sw.counters().tx, 0);
        assert_eq!(sw.counters().dropped_by_program, 1);
    }

    #[test]
    fn invalid_out_port_dropped() {
        let mut sw = BaselineSwitch::new(ForwardTo(9), 2, QueueConfig::default());
        sw.receive(SimTime::ZERO, 0, frame());
        assert_eq!(sw.counters().dropped_by_program, 1);
    }

    #[test]
    fn control_update_takes_effect_on_the_next_packet() {
        use crate::program::TableRouter;
        let dst = Ipv4Addr::new(1, 0, 0, 2);
        let mut sw = BaselineSwitch::new(TableRouter::new(), 4, QueueConfig::default());
        sw.control_plane(
            SimTime::ZERO,
            TableRouter::OP_INSERT_ROUTE,
            [u32::from(dst) as u64, 24, 1, 0],
        );
        sw.receive(SimTime::ZERO, 0, frame());
        sw.receive(SimTime::ZERO, 0, frame());
        assert!(sw.transmit(SimTime::ZERO, 1).is_some());
        assert!(sw.transmit(SimTime::ZERO, 1).is_some());
        // Mid-run route change: a more specific prefix to a new port.
        sw.control_plane(
            SimTime::ZERO,
            TableRouter::OP_INSERT_ROUTE,
            [u32::from(dst) as u64, 32, 3, 0],
        );
        sw.receive(SimTime::ZERO, 0, frame());
        assert!(
            sw.has_pending(3),
            "post-update packets must see the new route"
        );
        assert!(!sw.has_pending(1));
    }
}
