//! Multi-bit congestion signalling (§3 "Congestion Aware Forwarding").
//!
//! "This allows for variants of ECN marking, with packets carrying
//! multiple bits rather than just one, to communicate queue occupancy
//! along the path, or just the maximum queue occupancy at the
//! bottleneck."
//!
//! [`TelemetryMarker`]: the dequeue event hands the egress pipeline the
//! exact queue occupancy and sojourn time; the program stamps them into
//! the packet's telemetry record. Receivers learn the bottleneck depth
//! *quantitatively*, where classic one-bit ECN tells them only whether
//! occupancy ever exceeded a threshold.

use edp_core::event::DequeueEvent;
use edp_core::{EventActions, EventProgram};
use edp_evsim::SimTime;
use edp_packet::{AppHeader, Packet, ParsedPacket, TelemetryHeader};
use edp_pisa::{Destination, PortId, StdMeta};

/// Event-driven telemetry stamping.
#[derive(Debug)]
pub struct TelemetryMarker {
    /// Output port for data traffic.
    pub out_port: PortId,
    /// Queue occupancy per port, as of the latest dequeue event.
    pub last_q_bytes: Vec<u64>,
    /// Sojourn of the packet currently in egress, per port.
    pub last_sojourn_ns: Vec<u64>,
    /// Port of the latest dequeue: the packet in egress left from there.
    egress_port: usize,
    /// Largest occupancy any dequeued packet experienced, in bytes.
    pub peak_q_bytes: u64,
    /// Packets stamped.
    pub stamped: u64,
}

impl TelemetryMarker {
    /// Creates the marker for a switch with `n_ports` ports.
    pub fn new(n_ports: usize, out_port: PortId) -> Self {
        TelemetryMarker {
            out_port,
            last_q_bytes: vec![0; n_ports],
            last_sojourn_ns: vec![0; n_ports],
            egress_port: 0,
            peak_q_bytes: 0,
            stamped: 0,
        }
    }
}

impl EventProgram for TelemetryMarker {
    fn on_ingress(
        &mut self,
        _pkt: &mut Packet,
        _parsed: &ParsedPacket,
        meta: &mut StdMeta,
        _now: SimTime,
        _a: &mut EventActions,
    ) {
        meta.dest = Destination::Port(self.out_port);
    }

    fn on_dequeue(&mut self, ev: &DequeueEvent, _now: SimTime, _a: &mut EventActions) {
        let p = ev.port as usize;
        self.egress_port = p;
        // Occupancy the departing packet experienced: queue after + itself.
        self.last_q_bytes[p] = ev.q_bytes + ev.pkt_len as u64;
        self.last_sojourn_ns[p] = ev.sojourn_ns;
        self.peak_q_bytes = self.peak_q_bytes.max(self.last_q_bytes[p]);
    }

    fn on_egress(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        _meta: &mut StdMeta,
        _now: SimTime,
        _a: &mut EventActions,
    ) {
        if matches!(parsed.app, Some(AppHeader::Telemetry(_))) {
            let rec_off = parsed.payload_offset - TelemetryHeader::WIRE_LEN;
            // StdMeta does not carry the egress port (PSA hides it), but
            // the dequeue event that fired just before this egress pass is
            // this packet's: stamp the port it named.
            let q = self.last_q_bytes[self.egress_port];
            let d = self.last_sojourn_ns[self.egress_port];
            TelemetryHeader::stamp(pkt.bytes_mut(), rec_off, q as u32, d as u32);
            // The payload changed under the UDP checksum; disable it the
            // way hardware INT stacks do.
            edp_packet::UdpHeader::patch_zero_checksum(pkt.bytes_mut(), parsed.l4_offset);
            self.stamped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{addr, run_until, sink_addr, Dumbbell, Scenario};
    use edp_core::{EventSwitch, EventSwitchConfig};
    use edp_evsim::SimDuration;
    use edp_netsim::traffic::start_cbr;
    use edp_packet::{parse_packet, PacketBuilder};
    use edp_pisa::QueueConfig;

    #[test]
    fn telemetry_reports_bottleneck_depth() {
        let cfg = EventSwitchConfig {
            n_ports: 2,
            queue: QueueConfig {
                capacity_bytes: 500_000,
                ..QueueConfig::default()
            },
            ..Default::default()
        };
        let sw = EventSwitch::new(TelemetryMarker::new(2, 1), cfg);
        // 100 Mb/s bottleneck, overdriven 4× so a queue builds.
        let sc = Scenario {
            dumbbell: Dumbbell {
                senders: 1,
                bottleneck_bps: 100_000_000,
                seed: 91,
            },
            flows: vec![],
            until: SimTime::from_millis(100),
        };
        let (mut net, mut sim) = sc.build(Box::new(sw));
        let sink = sc.sink();
        let src = addr(1);
        // Telemetry frames are not a UDP `Flow`: sender 0 sends them by hand.
        start_cbr(
            &mut sim,
            0,
            SimTime::ZERO,
            SimDuration::from_micros(30),
            500,
            move |_| {
                let rec = TelemetryHeader {
                    max_queue_bytes: 0,
                    path_delay_ns: 0,
                    hop_count: 0,
                };
                PacketBuilder::telemetry(src, sink_addr(), &rec, &[0u8; 1000]).build()
            },
        );
        run_until(&mut net, &mut sim, sc.until);
        // Receiver side: per-packet quantitative depth.
        assert!(net.hosts[sink].stats.rx_pkts > 400);
        let prog = &net.switch_as::<EventSwitch<TelemetryMarker>>(0).program;
        assert!(prog.stamped > 400);
        // Queue built up: the stamped maximum is substantial and below cap.
        assert!(
            prog.peak_q_bytes > 10_000,
            "peak occupancy {}",
            prog.peak_q_bytes
        );
        assert!(prog.peak_q_bytes <= 500_000);
    }

    #[test]
    fn receiver_sees_quantitative_signal() {
        // Single-switch loop without netsim: push packets in, hold the
        // egress, and verify the stamped record equals the real depth.
        let cfg = EventSwitchConfig {
            n_ports: 2,
            ..Default::default()
        };
        let mut sw = EventSwitch::new(TelemetryMarker::new(2, 1), cfg);
        let rec = TelemetryHeader {
            max_queue_bytes: 0,
            path_delay_ns: 0,
            hop_count: 0,
        };
        let frame = PacketBuilder::telemetry(addr(1), addr(2), &rec, &[0u8; 100]).build();
        let n = 10;
        for _ in 0..n {
            sw.receive(SimTime::ZERO, 0, Packet::anonymous(frame.clone()));
        }
        let depth_full = sw.occupancy_bytes(1);
        // Pop one packet: its stamp must reflect the full queue.
        let out = sw.transmit(SimTime::from_micros(5), 1).expect("pkt");
        let parsed = parse_packet(out.bytes()).expect("parse");
        match parsed.app {
            Some(AppHeader::Telemetry(t)) => {
                assert_eq!(t.max_queue_bytes as u64, depth_full);
                assert_eq!(t.hop_count, 1);
                assert!(t.path_delay_ns >= 5_000, "sojourn {}", t.path_delay_ns);
            }
            other => panic!("no telemetry: {other:?}"),
        }
    }

    /// One dequeue then one egress pass of a fresh telemetry frame
    /// through `prog`'s handlers; returns the stamped (depth, delay).
    fn stamp_after_dequeue(
        prog: &mut TelemetryMarker,
        port: PortId,
        q_bytes: u64,
        sojourn_ns: u64,
    ) -> (u32, u32) {
        let rec = TelemetryHeader {
            max_queue_bytes: 0,
            path_delay_ns: 0,
            hop_count: 0,
        };
        let mut pkt =
            Packet::anonymous(PacketBuilder::telemetry(addr(1), addr(2), &rec, &[]).build());
        let parsed = parse_packet(pkt.bytes()).expect("parse");
        let mut a = EventActions::new();
        let ev = DequeueEvent {
            port,
            pkt_len: pkt.len() as u32,
            q_bytes,
            q_pkts: 0,
            sojourn_ns,
            meta: [0; 4],
        };
        prog.on_dequeue(&ev, SimTime::ZERO, &mut a);
        let mut meta = StdMeta::ingress(0, SimTime::ZERO, pkt.len());
        prog.on_egress(&mut pkt, &parsed, &mut meta, SimTime::ZERO, &mut a);
        match parse_packet(pkt.bytes()).expect("parse").app {
            Some(AppHeader::Telemetry(t)) => (t.max_queue_bytes, t.path_delay_ns),
            other => panic!("no telemetry: {other:?}"),
        }
    }

    #[test]
    fn egress_stamps_the_port_it_dequeued_from() {
        let mut prog = TelemetryMarker::new(4, 1);
        let deep = stamp_after_dequeue(&mut prog, 2, 90_000, 700_000);
        let shallow = stamp_after_dequeue(&mut prog, 1, 1_000, 2_000);
        let len = deep.0 - 90_000;
        assert_eq!(deep, (90_000 + len, 700_000));
        // Port 2's deeper queue is still on record, but the packet left
        // port 1.
        assert_eq!(shallow, (1_000 + len, 2_000));
    }

    #[test]
    fn information_content_multi_bit_vs_one_bit() {
        // The architectural point: a receiver reads the stamped depth
        // itself, where one-bit ECN reads only which side of a threshold
        // it fell on. 20 KB and 60 KB both mark under a 15 KB threshold;
        // the stamps tell them apart, exactly.
        let threshold = 15_000u64;
        let mut prog = TelemetryMarker::new(2, 1);
        let (mid, _) = stamp_after_dequeue(&mut prog, 1, 20_000, 0);
        let (high, _) = stamp_after_dequeue(&mut prog, 1, 60_000, 0);
        assert_eq!(20_000 > threshold, 60_000 > threshold);
        assert_ne!(mid, high);
        assert_eq!(high - mid, 40_000);
    }
}
