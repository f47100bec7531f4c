//! Property-based tests: every codec round-trips, corruption is caught.

use edp_packet::wire::{fold, internet_checksum, sum_words};
use edp_packet::{
    parse_packet, Ecn, EthHeader, EtherType, HulaProbe, IcmpEcho, IcmpEchoKind, IpProto,
    Ipv4Header, KvHeader, KvOp, LivenessHeader, LivenessKind, MacAddr, PacketBuilder,
    TelemetryHeader, UdpHeader, L4,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_ecn() -> impl Strategy<Value = Ecn> {
    prop_oneof![
        Just(Ecn::NotEct),
        Just(Ecn::Ect0),
        Just(Ecn::Ect1),
        Just(Ecn::Ce)
    ]
}

/// A checksum input: arbitrary bytes, or an all-zero or all-0xFF run, of
/// any length, odd ones included.
fn arb_sum_buf() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..300),
        (0usize..300).prop_map(|n| vec![0u8; n]),
        (0usize..300).prop_map(|n| vec![0xFFu8; n]),
    ]
}

proptest! {
    /// `sum_words` folds to the RFC 1071 byte-pair sum: big-endian 16-bit
    /// words, an odd last byte padded with zero, chained onto `init`.
    #[test]
    fn sum_words_matches_the_byte_pair_definition(
        data in arb_sum_buf(),
        init in prop_oneof![Just(0u32), any::<u32>()],
    ) {
        let mut want = init as u64;
        for pair in data.chunks(2) {
            want += u16::from_be_bytes([pair[0], pair.get(1).copied().unwrap_or(0)]) as u64;
        }
        while want >> 16 != 0 {
            want = (want & 0xffff) + (want >> 16);
        }
        prop_assert_eq!(fold(sum_words(&data, init)) as u64, want);
    }

    /// The builder's L4 checksum skips the zero pad it writes after the
    /// payload, yet equals `internet_checksum` of the whole segment, pad
    /// included (behind the pseudo-header for UDP and TCP), for odd and
    /// even payloads and pads.
    #[test]
    fn padded_checksum_covers_the_whole_segment(
        proto in 0usize..3,
        payload in prop::collection::vec(any::<u8>(), 0..80),
        pad_to in 0usize..200,
    ) {
        let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let frame = match proto {
            0 => PacketBuilder::udp(src, dst, 7, 9, &payload),
            1 => PacketBuilder::tcp(src, dst, 7, 9, 1, 2, &payload),
            _ => PacketBuilder::icmp_echo(src, dst, true, 7, 9),
        }
        .pad_to(pad_to)
        .build();
        let segment = &frame[34..];
        let at = [6, 16, 2][proto];
        let mut whole = Vec::new();
        if proto < 2 {
            whole.extend_from_slice(&frame[26..34]);
            whole.extend_from_slice(&[0, frame[23]]);
            whole.extend_from_slice(&(segment.len() as u16).to_be_bytes());
        }
        let ck_at = whole.len() + at;
        whole.extend_from_slice(segment);
        whole[ck_at..ck_at + 2].fill(0);
        let mut want = internet_checksum(&whole);
        if proto == 0 && want == 0 {
            want = 0xffff; // RFC 768: a UDP zero is sent as all-ones
        }
        prop_assert_eq!(u16::from_be_bytes([segment[at], segment[at + 1]]), want);
    }

    /// Ethernet headers round-trip for every address/type combination.
    #[test]
    fn eth_round_trip(dst: [u8; 6], src: [u8; 6], ty in 0x0600u16..=0xffff) {
        let h = EthHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: EtherType::from_u16(ty),
        };
        let mut out = Vec::new();
        h.emit(&mut out);
        let (parsed, used) = EthHeader::parse(&out).expect("round trip");
        prop_assert_eq!(parsed, h);
        prop_assert_eq!(used, out.len());
    }

    /// IPv4 headers round-trip and their checksum verifies.
    #[test]
    fn ipv4_round_trip(
        src in arb_ip(),
        dst in arb_ip(),
        dscp in 0u8..64,
        ecn in arb_ecn(),
        ttl: u8,
        ident: u16,
        payload_len in 0u16..1000,
    ) {
        let h = Ipv4Header {
            dscp,
            ecn,
            total_len: 20 + payload_len,
            ident,
            ttl,
            proto: IpProto::Udp,
            src,
            dst,
        };
        let mut out = Vec::new();
        h.emit(&mut out);
        out.resize(20 + payload_len as usize, 0xAB);
        let (parsed, _) = Ipv4Header::parse(&out).expect("round trip");
        prop_assert_eq!(parsed, h);
    }

    /// Flipping any single bit of an IPv4 header breaks parsing (checksum
    /// or structural rejection) — never silently misparses into a
    /// *different valid* header.
    #[test]
    fn ipv4_single_bit_corruption_never_silent(
        src in arb_ip(),
        dst in arb_ip(),
        byte in 0usize..20,
        bit in 0u8..8,
    ) {
        let h = Ipv4Header {
            dscp: 0,
            ecn: Ecn::NotEct,
            total_len: 20,
            ident: 7,
            ttl: 64,
            proto: IpProto::Udp,
            src,
            dst,
        };
        let mut out = Vec::new();
        h.emit(&mut out);
        out[byte] ^= 1 << bit;
        match Ipv4Header::parse(&out) {
            Err(_) => {} // rejected: good
            Ok((reparsed, _)) => {
                // Only acceptable if the flip cancelled out (impossible
                // for a single bit with a one's-complement sum) — so the
                // reparsed header must NOT differ from the original in a
                // silent way. A single-bit flip always breaks the sum.
                prop_assert_eq!(reparsed, h, "single-bit flip went unnoticed");
            }
        }
    }

    /// Full frames built by PacketBuilder always parse back, and the
    /// payload is recoverable at the reported offset.
    #[test]
    fn udp_frame_round_trip(
        src in arb_ip(),
        dst in arb_ip(),
        sp: u16,
        dp: u16,
        payload in prop::collection::vec(any::<u8>(), 0..600),
        pad in 0usize..1600,
    ) {
        // Avoid app-header ports: those demand a valid app payload.
        prop_assume!(!(17066..=17069).contains(&sp) && !(17066..=17069).contains(&dp));
        let frame = PacketBuilder::udp(src, dst, sp, dp, &payload).pad_to(pad).build();
        let parsed = parse_packet(&frame).expect("parse");
        let ip = parsed.ipv4.expect("ip");
        prop_assert_eq!(ip.src, src);
        prop_assert_eq!(ip.dst, dst);
        match parsed.l4 {
            Some(L4::Udp(u)) => {
                prop_assert_eq!(u.src_port, sp);
                prop_assert_eq!(u.dst_port, dp);
            }
            other => prop_assert!(false, "wrong l4 {:?}", other),
        }
        prop_assert_eq!(
            &frame[parsed.payload_offset..parsed.payload_offset + payload.len()],
            &payload[..]
        );
        prop_assert!(frame.len() >= pad.min(1600));
    }

    /// TCP frames round-trip with sequence numbers intact.
    #[test]
    fn tcp_frame_round_trip(
        src in arb_ip(),
        dst in arb_ip(),
        seq: u32,
        ack: u32,
        payload in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let frame = PacketBuilder::tcp(src, dst, 80, 443, seq, ack, &payload).build();
        let parsed = parse_packet(&frame).expect("parse");
        match parsed.l4 {
            Some(L4::Tcp(t)) => {
                prop_assert_eq!(t.seq, seq);
                prop_assert_eq!(t.ack, ack);
            }
            other => prop_assert!(false, "wrong l4 {:?}", other),
        }
    }

    /// ICMP echo frames round-trip.
    #[test]
    fn icmp_round_trip(ident: u16, seq: u16, req: bool, payload in prop::collection::vec(any::<u8>(), 0..100)) {
        let mut out = Vec::new();
        let h = IcmpEcho {
            kind: if req { IcmpEchoKind::Request } else { IcmpEchoKind::Reply },
            ident,
            seq,
        };
        h.emit(&mut out, &payload);
        let (parsed, used) = IcmpEcho::parse(&out).expect("parse");
        prop_assert_eq!(parsed, h);
        prop_assert_eq!(used, 8);
    }

    /// UDP checksum catches any single corrupted payload byte.
    #[test]
    fn udp_checksum_catches_payload_corruption(
        payload in prop::collection::vec(any::<u8>(), 1..300),
        victim_byte in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let ip = Ipv4Header {
            dscp: 0,
            ecn: Ecn::NotEct,
            total_len: 0, // unused by UDP checksum helper
            ident: 0,
            ttl: 64,
            proto: IpProto::Udp,
            src,
            dst,
        };
        let h = UdpHeader { src_port: 1, dst_port: 2, len: (8 + payload.len()) as u16 };
        let mut out = Vec::new();
        h.emit(&mut out, Some(&ip), &payload);
        let idx = 8 + victim_byte.index(payload.len());
        out[idx] ^= flip;
        // One's-complement sums can alias only if the flip produces the
        // same 16-bit word sum — a xor with a nonzero value in one byte
        // never does.
        prop_assert!(UdpHeader::parse(&out, Some(&ip)).is_err());
    }

    /// All four application headers round-trip.
    #[test]
    fn app_headers_round_trip(
        tor: u16, util: u8, seq: u32,
        q: u32, d: u32, hops: u8,
        key: u64, value: u64,
        origin: u16, lseq: u32, ts: u64,
    ) {
        let mut out = Vec::new();
        let h = HulaProbe { tor_id: tor, max_util: util, seq };
        h.emit(&mut out);
        prop_assert_eq!(HulaProbe::parse(&out).expect("hula").0, h);

        let mut out = Vec::new();
        let t = TelemetryHeader { max_queue_bytes: q, path_delay_ns: d, hop_count: hops };
        t.emit(&mut out);
        prop_assert_eq!(TelemetryHeader::parse(&out).expect("tel").0, t);

        for op in [KvOp::Get, KvOp::Put, KvOp::Reply] {
            let mut out = Vec::new();
            let k = KvHeader { op, key, value };
            k.emit(&mut out);
            prop_assert_eq!(KvHeader::parse(&out).expect("kv").0, k);
        }

        for kind in [LivenessKind::Request, LivenessKind::Reply] {
            let mut out = Vec::new();
            let l = LivenessHeader { kind, origin, seq: lseq, ts_ns: ts };
            l.emit(&mut out);
            prop_assert_eq!(LivenessHeader::parse(&out).expect("live").0, l);
        }
    }

    /// Arbitrary garbage never panics the parser.
    #[test]
    fn parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = parse_packet(&bytes);
    }
}
