//! Capture replay: inject a decoded pcap onto sim-time.
//!
//! [`start_replay`] turns a parsed [`PcapFile`](edp_packet::PcapFile)
//! into host traffic, preserving the capture's original inter-arrival
//! gaps (optionally compressed by a speedup factor). Injection goes
//! through [`Network::host_send`], so replay is ownership-gated under
//! sharded execution exactly like every other generator and the replayed
//! schedule is a pure function of the capture file.

use crate::host::HostId;
use crate::net::Network;
use crate::source::Source;
use edp_evsim::{Sim, SimTime};
use edp_packet::PcapPacket;
use std::sync::Arc;

/// Replays `packets` from `host`, starting at `start`.
///
/// The i-th frame is injected at `start + (ts_i - ts_0) / speedup`, so
/// the capture's relative timing is preserved; `speedup > 1` compresses
/// the gaps (10 = ten times faster), `speedup < 1` stretches them. A frame
/// stamped earlier than its predecessor (a multi-queue capture, a pcapng
/// Simple Packet Block, which carries no timestamp) is injected at its
/// predecessor's instant: file order is kept and time never runs back.
/// Frames whose scaled time lands at or past `until` are not injected.
/// Each frame's event arms the next, moving the one boxed source along:
/// one outstanding event per replay stream however large the capture,
/// and no allocation per event. Each frame is handed over once: moved
/// out of a capture this replay holds alone, copied from one still shared.
///
/// # Panics
/// Panics if `speedup` is not finite and positive.
pub fn start_replay(
    sim: &mut Sim<Network>,
    host: HostId,
    packets: Arc<Vec<PcapPacket>>,
    start: SimTime,
    speedup: f64,
    until: SimTime,
) {
    assert!(
        speedup.is_finite() && speedup > 0.0,
        "replay speedup must be finite and positive, got {speedup}"
    );
    // The first frame's scaled gap is zero: it is injected at `start`.
    if packets.is_empty() || start >= until {
        return;
    }
    Source::Replay(host, packets, start, speedup, until, 0).arm(sim, start);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{Host, HostApp};
    use crate::link::LinkSpec;
    use crate::net::NodeRef;
    use edp_evsim::SimDuration;
    use edp_packet::{PacketBuilder, PcapFile};
    use std::net::Ipv4Addr;

    fn a(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    fn two_hosts() -> (Network, HostId, HostId) {
        let mut net = Network::new(3);
        let h0 = net.add_host(Host::new(a(1), HostApp::Sink));
        let h1 = net.add_host(Host::new(a(2), HostApp::Sink));
        net.connect(
            (NodeRef::Host(h0), 0),
            (NodeRef::Host(h1), 0),
            LinkSpec::ten_gig(SimDuration::from_nanos(10)),
        );
        (net, h0, h1)
    }

    fn frame(i: u64) -> Vec<u8> {
        PacketBuilder::udp(a(1), a(2), 5, 6, &[])
            .ident(i as u16)
            .pad_to(64)
            .build()
    }

    fn capture(n: u64, gap_ns: u64) -> PcapFile {
        PcapFile {
            packets: (0..n)
                .map(|i| PcapPacket::full(1_000_000 + i * gap_ns, frame(i)))
                .collect(),
        }
    }

    /// Replays `packets` from 5 µs on and returns each frame's arrival at
    /// the far host less the start, one 64-byte serialization and the
    /// link's 10 ns: its injection instant, if it found the wire free.
    fn injected_at(packets: Vec<PcapPacket>) -> Vec<u64> {
        let (mut net, h0, h1) = two_hosts();
        net.tracer.enabled = true;
        let mut sim: Sim<Network> = Sim::new();
        let n = packets.len() as u64;
        let start = SimTime::from_micros(5);
        start_replay(
            &mut sim,
            h0,
            Arc::new(packets),
            start,
            1.0,
            SimTime::from_millis(1),
        );
        sim.run(&mut net);
        assert_eq!(net.hosts[h1].stats.rx_pkts, n);
        let wire = LinkSpec::ten_gig(SimDuration::ZERO)
            .ser_delay(64)
            .as_nanos()
            + 10;
        net.tracer
            .entries()
            .map(|e| e.at.as_nanos() - wire - start.as_nanos())
            .collect()
    }

    #[test]
    fn replay_delivers_all_frames_with_gaps() {
        let (mut net, h0, h1) = two_hosts();
        let mut sim: Sim<Network> = Sim::new();
        start_replay(
            &mut sim,
            h0,
            Arc::new(capture(20, 1_000).packets),
            SimTime::from_micros(5),
            1.0,
            SimTime::from_millis(1),
        );
        sim.run(&mut net);
        assert_eq!(net.hosts[h1].stats.rx_pkts, 20);
        // Last injection at 5µs + 19 gaps of 1µs = 24µs, plus wire time.
        assert!(sim.now().as_nanos() >= 24_000);
    }

    #[test]
    fn speedup_compresses_gaps() {
        let (mut net, h0, h1) = two_hosts();
        let mut sim: Sim<Network> = Sim::new();
        start_replay(
            &mut sim,
            h0,
            Arc::new(capture(10, 10_000).packets),
            SimTime::ZERO,
            10.0,
            SimTime::from_millis(1),
        );
        sim.run(&mut net);
        assert_eq!(net.hosts[h1].stats.rx_pkts, 10);
        // 9 gaps of 10µs compressed 10x -> last injection at 9µs.
        assert!(sim.now().as_nanos() < 15_000, "ended at {}", sim.now());
    }

    #[test]
    fn until_cuts_the_tail() {
        let (mut net, h0, h1) = two_hosts();
        let mut sim: Sim<Network> = Sim::new();
        start_replay(
            &mut sim,
            h0,
            Arc::new(capture(10, 1_000).packets),
            SimTime::ZERO,
            1.0,
            SimTime::from_nanos(4_500),
        );
        sim.run(&mut net);
        // Injections at 0..4µs make the cut; 5µs+ do not.
        assert_eq!(net.hosts[h1].stats.rx_pkts, 5);
    }

    #[test]
    fn a_frame_stamped_before_its_predecessor_goes_at_the_predecessors_instant() {
        let packets = [1_000, 2_000, 1_500, 3_000]
            .into_iter()
            .zip(0..)
            .map(|(ts, i)| PcapPacket::full(ts, frame(i)))
            .collect();
        // The third frame waits for the second on the wire, one 64-byte
        // serialization (52 ns at 10 Gb/s), then the schedule resumes.
        assert_eq!(injected_at(packets), [0, 1_000, 1_052, 2_000]);
    }

    /// A little-endian pcapng block: type, total length, the body padded
    /// to 32 bits, total length again.
    fn block(ty: u32, body: &[u8]) -> Vec<u8> {
        let padded = body.len().div_ceil(4) * 4;
        let total = (12 + padded) as u32;
        let mut b = [ty.to_le_bytes(), total.to_le_bytes()].concat();
        b.extend_from_slice(body);
        b.resize(8 + padded, 0);
        b.extend_from_slice(&total.to_le_bytes());
        b
    }

    #[test]
    fn a_pcapng_simple_packet_after_an_enhanced_one_replays_in_file_order() {
        let words = |w: &[u32]| -> Vec<u8> { w.iter().flat_map(|v| v.to_le_bytes()).collect() };
        let epb = |ts_us: u32, data: &[u8]| {
            let len = data.len() as u32;
            [words(&[0, 0, ts_us, len, len]), data.to_vec()].concat()
        };
        let (f0, f1, f2) = (frame(0), frame(1), frame(2));
        let bytes = [
            // Section header: byte-order magic, version 1.0, length unknown.
            block(0x0A0D_0D0A, &words(&[0x1A2B_3C4D, 1, u32::MAX, u32::MAX])),
            // Interface: Ethernet, no snap length, microsecond stamps.
            block(1, &words(&[1, 0])),
            block(6, &epb(1, &f0)),
            block(6, &epb(3, &f1)),
            // Simple Packet Block: original length and frame, no stamp.
            block(3, &[words(&[f2.len() as u32]), f2].concat()),
        ]
        .concat();
        let file = PcapFile::parse(&bytes).expect("pcapng parses");
        let stamps: Vec<u64> = file.packets.iter().map(|p| p.ts_ns).collect();
        assert_eq!(stamps, [1_000, 3_000, 0]);
        assert_eq!(injected_at(file.packets), [0, 2_000, 2_052]);
    }

    #[test]
    fn empty_capture_is_noop() {
        let (mut net, h0, _) = two_hosts();
        let mut sim: Sim<Network> = Sim::new();
        start_replay(
            &mut sim,
            h0,
            Arc::new(Vec::new()),
            SimTime::ZERO,
            1.0,
            SimTime::from_millis(1),
        );
        sim.run(&mut net);
        assert_eq!(net.hosts[0].stats.rx_pkts, 0);
    }
}
