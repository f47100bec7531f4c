//! NDP-style packet trimming from buffer-overflow events (§3
//! "Congestion Aware Forwarding", citing Handley et al. \[8\]).
//!
//! NDP never silently drops a data packet: when the buffer is full the
//! switch *trims* the packet to its header and forwards the header at
//! high priority, so the receiver learns exactly what was lost and can
//! pull a retransmission immediately. The enabling primitive is reacting
//! to the **buffer overflow event** — unavailable in baseline PISA, one
//! line in the event-driven model:
//!
//! ```ignore
//! fn on_overflow(&mut self, ev, now, actions) {
//!     actions.trim_and_requeue(0); // rank 0 = highest priority
//! }
//! ```
//!
//! The comparator is plain drop-tail, where the same overflow is a
//! silent loss the receiver can only infer from a timeout.

use edp_core::event::OverflowEvent;
use edp_core::{EventActions, EventProgram};
use edp_evsim::SimTime;
use edp_packet::{Packet, ParsedPacket};
use edp_pisa::{Destination, PortId, StdMeta};

/// Scheduling rank for trimmed headers (highest priority).
pub const TRIM_RANK: u64 = 0;
/// Scheduling rank for full data packets.
pub const DATA_RANK: u64 = 1;

/// The trimming switch program.
#[derive(Debug)]
pub struct NdpTrim {
    /// Output port for data traffic.
    pub out_port: PortId,
    /// Overflow events seen.
    pub overflows: u64,
}

impl NdpTrim {
    /// Creates the program.
    pub fn new(out_port: PortId) -> Self {
        NdpTrim {
            out_port,
            overflows: 0,
        }
    }
}

impl EventProgram for NdpTrim {
    fn on_ingress(
        &mut self,
        _pkt: &mut Packet,
        _parsed: &ParsedPacket,
        meta: &mut StdMeta,
        _now: SimTime,
        _a: &mut EventActions,
    ) {
        meta.rank = DATA_RANK;
        meta.dest = Destination::Port(self.out_port);
    }

    fn on_overflow(&mut self, _ev: &OverflowEvent, _now: SimTime, a: &mut EventActions) {
        self.overflows += 1;
        a.trim_and_requeue(TRIM_RANK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{addr, dumbbell, run_until, sink_addr};
    use edp_core::{EventSwitch, EventSwitchConfig};
    use edp_evsim::{Sim, SimTime};
    use edp_netsim::traffic::start_burst;
    use edp_netsim::Network;
    use edp_packet::{PacketBuilder, TRIMMED_DSCP};
    use edp_pisa::{QueueConfig, QueueDisc};

    const CAPACITY: u64 = 20_000; // 13 full packets

    fn build(trim: bool) -> (Network, Vec<usize>, usize) {
        let cfg = EventSwitchConfig {
            n_ports: 2,
            queue: QueueConfig {
                capacity_bytes: CAPACITY,
                disc: QueueDisc::StrictPriority { classes: 2 },
                rank0_headroom: 8_000, // the reserved header queue
            },
            ..Default::default()
        };
        // The no-trim variant simply never calls trim_and_requeue: model
        // it by a program whose on_overflow does nothing.
        #[derive(Debug)]
        struct NoTrim(NdpTrim);
        impl EventProgram for NoTrim {
            fn on_ingress(
                &mut self,
                p: &mut Packet,
                h: &ParsedPacket,
                m: &mut StdMeta,
                t: SimTime,
                a: &mut EventActions,
            ) {
                self.0.on_ingress(p, h, m, t, a)
            }
            fn on_overflow(&mut self, _e: &OverflowEvent, _t: SimTime, _a: &mut EventActions) {
                self.0.overflows += 1;
            }
        }
        let (net, senders, sink, _) = if trim {
            let sw = EventSwitch::new(NdpTrim::new(1), cfg);
            dumbbell(Box::new(sw), 1, 100_000_000, 95)
        } else {
            let sw = EventSwitch::new(NoTrim(NdpTrim::new(1)), cfg);
            dumbbell(Box::new(sw), 1, 100_000_000, 95)
        };
        (net, senders, sink)
    }

    fn blast(net: &mut Network, sim: &mut Sim<Network>, sender: usize, n: u64) {
        let src = addr(1);
        start_burst(sim, sender, SimTime::ZERO, n, move |i| {
            PacketBuilder::udp(src, sink_addr(), 40, 50, &[])
                .ident(i as u16)
                .pad_to(1500)
                .build()
        });
        run_until(net, sim, SimTime::from_millis(50));
    }

    #[test]
    fn every_overflow_victim_arrives_as_a_trimmed_header() {
        let (mut net, senders, sink) = build(true);
        let mut sim: Sim<Network> = Sim::new();
        blast(&mut net, &mut sim, senders[0], 100);
        // Every one of the 100 packets arrives: full or trimmed.
        assert_eq!(net.hosts[sink].stats.rx_pkts, 100);
        // Trimmed ones are recognizable by size and DSCP.
        let trimmed_rx = net.hosts[sink]
            .stats
            .flows
            .values()
            .map(|f| f.pkts)
            .sum::<u64>();
        assert_eq!(trimmed_rx, 100);
        let sw = net.switch_as::<EventSwitch<NdpTrim>>(0);
        let c = sw.counters();
        assert!(c.trimmed > 0, "some packets must have been trimmed");
        assert_eq!(c.dropped_overflow, 0, "nothing silently lost");
        assert_eq!(sw.program.overflows, c.trimmed);
    }

    #[test]
    fn droptail_loses_what_trim_preserves() {
        let (mut net, senders, sink) = build(false);
        let mut sim: Sim<Network> = Sim::new();
        blast(&mut net, &mut sim, senders[0], 100);
        let delivered = net.hosts[sink].stats.rx_pkts;
        assert!(delivered < 100, "droptail must lose packets: {delivered}");
        let (mut net2, senders2, sink2) = build(true);
        let mut sim2: Sim<Network> = Sim::new();
        blast(&mut net2, &mut sim2, senders2[0], 100);
        assert_eq!(net2.hosts[sink2].stats.rx_pkts, 100);
        // Information delta: the trim run tells the receiver about every
        // loss; droptail tells it nothing about (100 - delivered) packets.
        assert!(net2.hosts[sink2].stats.rx_pkts > delivered);
    }

    #[test]
    fn trimmed_frames_carry_the_marker_dscp() {
        // Unit-level: drive the switch directly and inspect the trimmed
        // frame on the wire.
        let cfg = EventSwitchConfig {
            n_ports: 2,
            queue: QueueConfig {
                capacity_bytes: 1_600,
                disc: QueueDisc::StrictPriority { classes: 2 },
                rank0_headroom: 1_000,
            },
            ..Default::default()
        };
        let mut sw = EventSwitch::new(NdpTrim::new(1), cfg);
        let frame = PacketBuilder::udp(addr(1), addr(9), 1, 2, &[])
            .pad_to(1500)
            .build();
        sw.receive(SimTime::ZERO, 0, Packet::anonymous(frame.clone()));
        sw.receive(SimTime::ZERO, 0, Packet::anonymous(frame)); // overflows → trimmed
                                                                // Trimmed header has rank 0: it comes out FIRST despite arriving
                                                                // second (strict priority).
        let out1 = sw.transmit(SimTime::ZERO, 1).expect("first out");
        assert_eq!(out1.len(), 42, "headers only (eth+ip+udp)");
        let parsed = edp_packet::parse_packet(out1.bytes()).expect("parses");
        assert_eq!(parsed.ipv4.expect("ip").dscp, TRIMMED_DSCP);
        let out2 = sw.transmit(SimTime::ZERO, 1).expect("second out");
        assert_eq!(out2.len(), 1500, "the full packet follows");
    }
}
