//! Frame assembly.
//!
//! [`PacketBuilder`] composes Ethernet/IPv4/L4/app layers into a wire-valid
//! frame (lengths and checksums computed for you). Constructors cover the
//! shapes the workloads need; setters tweak the defaults.

use crate::addr::MacAddr;
use crate::apphdr::{
    HulaProbe, KvHeader, LivenessHeader, RpcHeader, TelemetryHeader, PORT_HULA, PORT_KV,
    PORT_LIVENESS, PORT_RPC, PORT_TELEMETRY,
};
use crate::eth::{EthHeader, EtherType, ETH_HEADER_LEN};
use crate::ipv4::{Ecn, IpProto, Ipv4Header, IPV4_HEADER_LEN};
use crate::l4::{IcmpEcho, IcmpEchoKind, TcpFlags, TcpHeader, UdpHeader, UDP_HEADER_LEN};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
enum L4Spec {
    Udp {
        src_port: u16,
        dst_port: u16,
    },
    Tcp {
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        window: u16,
    },
    Icmp {
        kind: IcmpEchoKind,
        ident: u16,
        seq: u16,
    },
    None,
}

/// A fluent builder for wire-valid frames.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    eth_src: MacAddr,
    eth_dst: MacAddr,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    ttl: u8,
    dscp: u8,
    ecn: Ecn,
    ident: u16,
    l4: L4Spec,
    payload: Vec<u8>,
    pad_to: usize,
}

impl PacketBuilder {
    fn base(src: Ipv4Addr, dst: Ipv4Addr) -> Self {
        PacketBuilder {
            // Default MACs derive from the IP host byte so traces read well.
            eth_src: MacAddr::from_id(u32::from(src)),
            eth_dst: MacAddr::from_id(u32::from(dst)),
            src,
            dst,
            ttl: 64,
            dscp: 0,
            ecn: Ecn::NotEct,
            ident: 0,
            l4: L4Spec::None,
            payload: Vec::new(),
            pad_to: 0,
        }
    }

    /// A UDP datagram.
    pub fn udp(src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16, payload: &[u8]) -> Self {
        let mut b = Self::base(src, dst);
        b.l4 = L4Spec::Udp { src_port, dst_port };
        b.payload = payload.to_vec();
        b
    }

    /// A TCP segment with the ACK flag (data-path traffic shape).
    pub fn tcp(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        payload: &[u8],
    ) -> Self {
        let mut b = Self::base(src, dst);
        b.l4 = L4Spec::Tcp {
            src_port,
            dst_port,
            seq,
            ack,
            flags: TcpFlags::ACK,
            window: 0xffff,
        };
        b.payload = payload.to_vec();
        b
    }

    /// An ICMP echo request (`request = true`) or reply.
    pub fn icmp_echo(src: Ipv4Addr, dst: Ipv4Addr, request: bool, ident: u16, seq: u16) -> Self {
        let mut b = Self::base(src, dst);
        b.l4 = L4Spec::Icmp {
            kind: if request {
                IcmpEchoKind::Request
            } else {
                IcmpEchoKind::Reply
            },
            ident,
            seq,
        };
        b
    }

    /// A HULA probe on [`PORT_HULA`].
    pub fn hula_probe(src: Ipv4Addr, dst: Ipv4Addr, probe: &HulaProbe) -> Self {
        let mut payload = Vec::new();
        probe.emit(&mut payload);
        Self::udp(src, dst, PORT_HULA, PORT_HULA, &payload)
    }

    /// A telemetry-bearing datagram on [`PORT_TELEMETRY`]: the record is
    /// placed first in the payload so hops can stamp it at a fixed offset,
    /// followed by `extra` application bytes.
    pub fn telemetry(src: Ipv4Addr, dst: Ipv4Addr, rec: &TelemetryHeader, extra: &[u8]) -> Self {
        let mut payload = Vec::new();
        rec.emit(&mut payload);
        payload.extend_from_slice(extra);
        Self::udp(src, dst, PORT_TELEMETRY, PORT_TELEMETRY, &payload)
    }

    /// A key-value message on [`PORT_KV`].
    pub fn kv(src: Ipv4Addr, dst: Ipv4Addr, msg: &KvHeader) -> Self {
        let mut payload = Vec::new();
        msg.emit(&mut payload);
        Self::udp(src, dst, PORT_KV, PORT_KV, &payload)
    }

    /// A liveness probe on [`PORT_LIVENESS`].
    pub fn liveness(src: Ipv4Addr, dst: Ipv4Addr, probe: &LivenessHeader) -> Self {
        let mut payload = Vec::new();
        probe.emit(&mut payload);
        Self::udp(src, dst, PORT_LIVENESS, PORT_LIVENESS, &payload)
    }

    /// An endpoint-model RPC message on [`PORT_RPC`].
    pub fn rpc(src: Ipv4Addr, dst: Ipv4Addr, msg: &RpcHeader) -> Self {
        let mut payload = Vec::new();
        msg.emit(&mut payload);
        Self::udp(src, dst, PORT_RPC, PORT_RPC, &payload)
    }

    /// Overrides the Ethernet addresses.
    pub fn eth(mut self, src: MacAddr, dst: MacAddr) -> Self {
        self.eth_src = src;
        self.eth_dst = dst;
        self
    }

    /// Sets the ECN codepoint.
    pub fn ecn(mut self, ecn: Ecn) -> Self {
        self.ecn = ecn;
        self
    }

    /// Sets the DSCP codepoint (6 bits).
    pub fn dscp(mut self, dscp: u8) -> Self {
        assert!(dscp < 64, "dscp is 6 bits");
        self.dscp = dscp;
        self
    }

    /// Sets the TTL.
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the IP identification field.
    pub fn ident(mut self, ident: u16) -> Self {
        self.ident = ident;
        self
    }

    /// Pads the payload with zeros so the final frame is at least `len`
    /// bytes (workloads use this to control packet size exactly).
    pub fn pad_to(mut self, len: usize) -> Self {
        self.pad_to = len;
        self
    }

    /// Assembles the frame.
    pub fn build(self) -> Vec<u8> {
        let l4_hdr_len = match self.l4 {
            L4Spec::Udp { .. } => UDP_HEADER_LEN,
            L4Spec::Tcp { .. } => crate::l4::TCP_HEADER_LEN,
            L4Spec::Icmp { .. } => crate::l4::ICMP_ECHO_LEN,
            L4Spec::None => 0,
        };
        // Zero padding that brings the finished frame up to `pad_to`. It
        // is written straight into `out`, under the L4 checksum, so a
        // built frame costs one buffer.
        let base_len = ETH_HEADER_LEN + IPV4_HEADER_LEN + l4_hdr_len + self.payload.len();
        let pad = self.pad_to.saturating_sub(base_len);

        let l4_len = l4_hdr_len + self.payload.len() + pad;
        let proto = match self.l4 {
            L4Spec::Udp { .. } => IpProto::Udp,
            L4Spec::Tcp { .. } => IpProto::Tcp,
            L4Spec::Icmp { .. } => IpProto::Icmp,
            L4Spec::None => IpProto::Other(253),
        };
        let ip = Ipv4Header {
            dscp: self.dscp,
            ecn: self.ecn,
            total_len: (IPV4_HEADER_LEN + l4_len) as u16,
            ident: self.ident,
            ttl: self.ttl,
            proto,
            src: self.src,
            dst: self.dst,
        };

        let mut out = Vec::with_capacity(ETH_HEADER_LEN + ip.total_len as usize);
        EthHeader {
            dst: self.eth_dst,
            src: self.eth_src,
            ethertype: EtherType::Ipv4,
        }
        .emit(&mut out);
        ip.emit(&mut out);
        match self.l4 {
            L4Spec::Udp { src_port, dst_port } => {
                UdpHeader {
                    src_port,
                    dst_port,
                    len: l4_len as u16,
                }
                .emit_padded(&mut out, Some(&ip), &self.payload, pad);
            }
            L4Spec::Tcp {
                src_port,
                dst_port,
                seq,
                ack,
                flags,
                window,
            } => {
                TcpHeader {
                    src_port,
                    dst_port,
                    seq,
                    ack,
                    flags,
                    window,
                }
                .emit_padded(&mut out, Some(&ip), &self.payload, pad);
            }
            L4Spec::Icmp { kind, ident, seq } => {
                IcmpEcho { kind, ident, seq }.emit_padded(&mut out, &self.payload, pad);
            }
            L4Spec::None => {
                out.extend_from_slice(&self.payload);
                out.resize(out.len() + pad, 0);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_packet;

    fn a(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 168, 0, n)
    }

    #[test]
    fn built_frames_parse_back() {
        for frame in [
            PacketBuilder::udp(a(1), a(2), 10, 20, b"xyz").build(),
            PacketBuilder::tcp(a(1), a(2), 10, 20, 5, 6, b"abc").build(),
            PacketBuilder::icmp_echo(a(1), a(2), true, 1, 2).build(),
            PacketBuilder::hula_probe(
                a(1),
                a(2),
                &HulaProbe {
                    tor_id: 1,
                    max_util: 2,
                    seq: 3,
                },
            )
            .build(),
            PacketBuilder::kv(
                a(1),
                a(2),
                &KvHeader {
                    op: crate::apphdr::KvOp::Get,
                    key: 1,
                    value: 0,
                },
            )
            .build(),
        ] {
            parse_packet(&frame).expect("round trip");
        }
    }

    #[test]
    fn pad_to_controls_frame_size() {
        let frame = PacketBuilder::udp(a(1), a(2), 1, 2, &[])
            .pad_to(500)
            .build();
        assert_eq!(frame.len(), 500);
        parse_packet(&frame).expect("padded frame parses");
        // Smaller than natural size: no-op.
        let frame = PacketBuilder::udp(a(1), a(2), 1, 2, b"1234")
            .pad_to(10)
            .build();
        assert_eq!(frame.len(), 14 + 20 + 8 + 4);
    }

    #[test]
    fn padding_is_under_the_l4_checksum() {
        // The pad is written into the frame's own buffer before the
        // checksum is taken, so `pad_to` builds the very bytes that
        // handing the builder an already zero-extended payload does.
        let padded = [b"odd".as_slice(), &[0; 52]].concat();
        let udp = PacketBuilder::udp(a(1), a(2), 1, 2, b"odd").pad_to(97);
        assert_eq!(
            udp.clone().build(),
            PacketBuilder::udp(a(1), a(2), 1, 2, &padded).build()
        );
        assert_eq!(
            PacketBuilder::tcp(a(1), a(2), 1, 2, 3, 4, b"odd")
                .pad_to(109)
                .build(),
            PacketBuilder::tcp(a(1), a(2), 1, 2, 3, 4, &padded).build()
        );
        // And the checksum covers the pad: a flipped pad byte is caught.
        let mut frame = udp.build();
        assert_eq!(frame.len(), 97);
        parse_packet(&frame).expect("padded frame verifies");
        frame[96] ^= 0x5A;
        assert_eq!(
            parse_packet(&frame),
            Err(crate::ParseError::BadChecksum { layer: "udp" })
        );
    }

    #[test]
    fn setters_apply() {
        let frame = PacketBuilder::udp(a(1), a(2), 1, 2, &[])
            .ttl(9)
            .dscp(46)
            .ident(0x4242)
            .eth(MacAddr::from_id(100), MacAddr([0xff; 6]))
            .build();
        let pp = parse_packet(&frame).expect("parse");
        let ip = pp.ipv4.expect("ip");
        assert_eq!(ip.ttl, 9);
        assert_eq!(ip.dscp, 46);
        assert_eq!(ip.ident, 0x4242);
        assert_eq!(pp.eth.dst, MacAddr([0xff; 6]));
    }

    #[test]
    fn telemetry_record_is_at_fixed_offset() {
        let rec = TelemetryHeader {
            max_queue_bytes: 1,
            path_delay_ns: 2,
            hop_count: 0,
        };
        let frame = PacketBuilder::telemetry(a(1), a(2), &rec, b"app").build();
        let pp = parse_packet(&frame).expect("parse");
        // The record sits right after the UDP header.
        let rec_off = pp.payload_offset - TelemetryHeader::WIRE_LEN;
        assert_eq!(rec_off, ETH_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN);
        assert_eq!(&frame[pp.payload_offset..], b"app");
    }
}
