//! Full-stack packet parsing: the software analogue of a PISA parser.
//!
//! [`parse_packet`] walks Ethernet → IPv4 → L4 → app header and returns a
//! [`ParsedPacket`] carrying each layer plus byte offsets, so pipelines can
//! rewrite headers in place afterwards. Unknown app payloads are not an
//! error — `app` is simply `None`, exactly like a P4 parser accepting a
//! packet whose deeper headers it has no states for.

use crate::apphdr::{
    HulaProbe, KvHeader, LivenessHeader, RpcHeader, TelemetryHeader, PORT_HULA, PORT_KV,
    PORT_LIVENESS, PORT_RPC, PORT_TELEMETRY,
};
use crate::error::ParseResult;
use crate::eth::{EthHeader, EtherType};
use crate::flow::FlowKey;
use crate::ipv4::{IpProto, Ipv4Header};
use crate::l4::{IcmpEcho, TcpHeader, UdpHeader};

/// Parsed transport layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum L4 {
    /// UDP header.
    Udp(UdpHeader),
    /// TCP header.
    Tcp(TcpHeader),
    /// ICMP echo request/reply.
    IcmpEcho(IcmpEcho),
}

/// Parsed application header (rides over UDP on a well-known port).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AppHeader {
    /// HULA utilization probe.
    Hula(HulaProbe),
    /// In-band telemetry record.
    Telemetry(TelemetryHeader),
    /// NetCache-style key-value message.
    Kv(KvHeader),
    /// Liveness echo probe.
    Liveness(LivenessHeader),
    /// Endpoint-model RPC message.
    Rpc(RpcHeader),
}

/// A fully parsed packet with layer offsets into the original buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParsedPacket {
    /// Ethernet header (always present).
    pub eth: EthHeader,
    /// IPv4 header, when the ethertype is IPv4.
    pub ipv4: Option<Ipv4Header>,
    /// Transport header, when IPv4 carried a supported protocol.
    pub l4: Option<L4>,
    /// Application header, when a known UDP port matched.
    pub app: Option<AppHeader>,
    /// Byte offset of the IPv4 header.
    pub ip_offset: usize,
    /// Byte offset of the transport header.
    pub l4_offset: usize,
    /// Byte offset of the first payload byte past all parsed headers.
    pub payload_offset: usize,
}

impl ParsedPacket {
    /// The flow 5-tuple, when the packet is IPv4 (ports 0 for non-TCP/UDP).
    pub fn flow_key(&self) -> Option<FlowKey> {
        let ip = self.ipv4?;
        let (sp, dp) = match self.l4 {
            Some(L4::Udp(u)) => (u.src_port, u.dst_port),
            Some(L4::Tcp(t)) => (t.src_port, t.dst_port),
            _ => (0, 0),
        };
        Some(FlowKey {
            src: ip.src,
            dst: ip.dst,
            proto: ip.proto.to_u8(),
            src_port: sp,
            dst_port: dp,
        })
    }

    /// True when this frame is an event-carrier injected by the event
    /// merger rather than a real network packet.
    pub fn is_event_carrier(&self) -> bool {
        self.eth.ethertype == EtherType::EventCarrier
    }
}

/// Parses a frame as far as the known layers allow.
///
/// Fails only on malformed *parsed* layers (bad checksum, truncation);
/// unknown ethertypes/protocols/ports leave the deeper fields `None`.
pub fn parse_packet(buf: &[u8]) -> ParseResult<ParsedPacket> {
    let (eth, eth_len) = EthHeader::parse(buf)?;
    let mut pp = ParsedPacket {
        eth,
        ipv4: None,
        l4: None,
        app: None,
        ip_offset: eth_len,
        l4_offset: eth_len,
        payload_offset: eth_len,
    };
    if eth.ethertype != EtherType::Ipv4 {
        return Ok(pp);
    }
    let (ip, ip_len) = Ipv4Header::parse(&buf[eth_len..])?;
    pp.ipv4 = Some(ip);
    pp.l4_offset = eth_len + ip_len;
    pp.payload_offset = pp.l4_offset;
    let l4_buf = &buf[pp.l4_offset..];
    match ip.proto {
        IpProto::Udp => {
            let (udp, udp_len) = UdpHeader::parse(l4_buf, Some(&ip))?;
            pp.l4 = Some(L4::Udp(udp));
            pp.payload_offset = pp.l4_offset + udp_len;
            let app_buf = &buf[pp.payload_offset..];
            // Match on destination port first (requests), then source port
            // (replies flowing back).
            let port = if is_app_port(udp.dst_port) {
                Some(udp.dst_port)
            } else if is_app_port(udp.src_port) {
                Some(udp.src_port)
            } else {
                None
            };
            if let Some(port) = port {
                let (app, used) = parse_app(port, app_buf)?;
                pp.app = Some(app);
                pp.payload_offset += used;
            }
        }
        IpProto::Tcp => {
            let (tcp, tcp_len) = TcpHeader::parse(l4_buf)?;
            pp.l4 = Some(L4::Tcp(tcp));
            pp.payload_offset = pp.l4_offset + tcp_len;
        }
        IpProto::Icmp => {
            let (icmp, icmp_len) = IcmpEcho::parse(l4_buf)?;
            pp.l4 = Some(L4::IcmpEcho(icmp));
            pp.payload_offset = pp.l4_offset + icmp_len;
        }
        IpProto::Other(_) => {}
    }
    Ok(pp)
}

/// One-line human-readable packet summary for traces, tcpdump-style.
///
/// Never fails: malformed frames summarize as `malformed(<error>)`.
pub fn summarize(buf: &[u8]) -> String {
    let pp = match parse_packet(buf) {
        Ok(pp) => pp,
        Err(e) => return format!("malformed({e}) {}B", buf.len()),
    };
    if pp.is_event_carrier() {
        return format!("event-carrier {}B", buf.len());
    }
    let Some(ip) = pp.ipv4 else {
        return format!(
            "eth {} > {} type {:#06x} {}B",
            pp.eth.src,
            pp.eth.dst,
            pp.eth.ethertype.to_u16(),
            buf.len()
        );
    };
    let app = match pp.app {
        Some(AppHeader::Hula(h)) => {
            format!(" hula[tor={} util={} seq={}]", h.tor_id, h.max_util, h.seq)
        }
        Some(AppHeader::Telemetry(t)) => {
            format!(
                " int[maxq={} delay={} hops={}]",
                t.max_queue_bytes, t.path_delay_ns, t.hop_count
            )
        }
        Some(AppHeader::Kv(k)) => format!(" kv[{:?} key={}]", k.op, k.key),
        Some(AppHeader::Liveness(l)) => format!(" live[{:?} seq={}]", l.kind, l.seq),
        Some(AppHeader::Rpc(r)) => format!(
            " rpc[{:?} ep={} seq={} key={}]",
            r.kind, r.endpoint, r.seq, r.key
        ),
        None => String::new(),
    };
    match pp.l4 {
        Some(L4::Udp(u)) => format!(
            "IPv4 {}:{} > {}:{} UDP {}B{}",
            ip.src,
            u.src_port,
            ip.dst,
            u.dst_port,
            buf.len(),
            app
        ),
        Some(L4::Tcp(t)) => format!(
            "IPv4 {}:{} > {}:{} TCP seq={} {}B",
            ip.src,
            t.src_port,
            ip.dst,
            t.dst_port,
            t.seq,
            buf.len()
        ),
        Some(L4::IcmpEcho(i)) => format!(
            "IPv4 {} > {} ICMP {:?} seq={} {}B",
            ip.src,
            ip.dst,
            i.kind,
            i.seq,
            buf.len()
        ),
        None => format!(
            "IPv4 {} > {} proto={} {}B",
            ip.src,
            ip.dst,
            ip.proto.to_u8(),
            buf.len()
        ),
    }
}

fn is_app_port(p: u16) -> bool {
    matches!(
        p,
        PORT_HULA | PORT_TELEMETRY | PORT_KV | PORT_LIVENESS | PORT_RPC
    )
}

fn parse_app(port: u16, buf: &[u8]) -> ParseResult<(AppHeader, usize)> {
    match port {
        PORT_HULA => HulaProbe::parse(buf).map(|(h, n)| (AppHeader::Hula(h), n)),
        PORT_TELEMETRY => TelemetryHeader::parse(buf).map(|(h, n)| (AppHeader::Telemetry(h), n)),
        PORT_KV => KvHeader::parse(buf).map(|(h, n)| (AppHeader::Kv(h), n)),
        PORT_LIVENESS => LivenessHeader::parse(buf).map(|(h, n)| (AppHeader::Liveness(h), n)),
        PORT_RPC => RpcHeader::parse(buf).map(|(h, n)| (AppHeader::Rpc(h), n)),
        _ => unreachable!("caller checked is_app_port"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use crate::ipv4::Ecn;
    use std::net::Ipv4Addr;

    fn a(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    #[test]
    fn udp_packet_full_parse() {
        let frame = PacketBuilder::udp(a(1), a(2), 5555, 8080, b"payload").build();
        let pp = parse_packet(&frame).expect("parse");
        assert!(pp.ipv4.is_some());
        match pp.l4 {
            Some(L4::Udp(u)) => {
                assert_eq!(u.src_port, 5555);
                assert_eq!(u.dst_port, 8080);
            }
            other => panic!("wrong l4: {other:?}"),
        }
        assert!(pp.app.is_none());
        assert_eq!(&frame[pp.payload_offset..], b"payload");
        let fk = pp.flow_key().expect("flow");
        assert_eq!(fk.src_port, 5555);
    }

    #[test]
    fn hula_probe_parses_as_app() {
        let probe = HulaProbe {
            tor_id: 2,
            max_util: 9,
            seq: 77,
        };
        let frame = PacketBuilder::hula_probe(a(1), a(2), &probe).build();
        let pp = parse_packet(&frame).expect("parse");
        assert_eq!(pp.app, Some(AppHeader::Hula(probe)));
    }

    #[test]
    fn reply_matches_on_src_port() {
        // A liveness reply has the well-known port as *source*.
        let l = LivenessHeader {
            kind: crate::apphdr::LivenessKind::Reply,
            origin: 1,
            seq: 2,
            ts_ns: 3,
        };
        let mut payload = Vec::new();
        l.emit(&mut payload);
        let frame = PacketBuilder::udp(a(2), a(1), PORT_LIVENESS, 9999, &payload).build();
        let pp = parse_packet(&frame).expect("parse");
        assert!(matches!(pp.app, Some(AppHeader::Liveness(_))));
    }

    #[test]
    fn non_ip_stops_after_eth() {
        let mut frame = vec![0u8; 64];
        frame[12..14].copy_from_slice(&EtherType::EventCarrier.to_u16().to_be_bytes());
        let pp = parse_packet(&frame).expect("parse");
        assert!(pp.is_event_carrier());
        assert!(pp.ipv4.is_none());
        assert!(pp.l4.is_none());
    }

    #[test]
    fn tcp_and_icmp_parse() {
        let frame = PacketBuilder::tcp(a(1), a(2), 80, 443, 1, 2, &[]).build();
        let pp = parse_packet(&frame).expect("parse");
        assert!(matches!(pp.l4, Some(L4::Tcp(_))));

        let frame = PacketBuilder::icmp_echo(a(1), a(2), true, 7, 9).build();
        let pp = parse_packet(&frame).expect("parse");
        assert!(matches!(pp.l4, Some(L4::IcmpEcho(_))));
    }

    #[test]
    fn corrupted_ip_propagates_error() {
        let mut frame = PacketBuilder::udp(a(1), a(2), 1, 2, &[]).build();
        frame[14 + 8] ^= 0xff; // TTL inside IP header
        assert!(parse_packet(&frame).is_err());
    }

    #[test]
    fn ecn_survives_parse() {
        let frame = PacketBuilder::udp(a(1), a(2), 1, 2, &[])
            .ecn(Ecn::Ce)
            .build();
        let pp = parse_packet(&frame).expect("parse");
        assert_eq!(pp.ipv4.expect("ip").ecn, Ecn::Ce);
    }
}
