//! End hosts: traffic sinks with per-flow accounting plus small
//! programmable responders (echo, key-value server, RPC server, and the
//! endpoint-fleet client).

use crate::endpoint::EndpointFleet;
use crate::flow_table::FlowTable;
use edp_evsim::{SimTime, Welford};
use edp_packet::{
    AppHeader, EtherType, IpProto, KvHeader, KvOp, Packet, PacketBuilder, ParsedPacket, RpcHeader,
    RpcKind, MAX_FRAME_LEN,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Index of a host within the network.
pub type HostId = usize;

/// Per-flow receive statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlowStats {
    /// Packets received.
    pub pkts: u64,
    /// Bytes received.
    pub bytes: u64,
    /// One-way latency samples (ns), when send times were recorded.
    pub latency_ns: Welford,
}

/// Human-readable labels for [`ProtoStats::eth`] buckets.
pub const ETH_CLASSES: [&str; 4] = ["ipv4", "arp", "event", "other"];
/// Human-readable labels for [`ProtoStats::ip`] buckets.
pub const IP_CLASSES: [&str; 4] = ["udp", "tcp", "icmp", "other"];
/// Human-readable labels for [`ProtoStats::port`] buckets.
pub const PORT_CLASSES: [&str; 6] = ["hula", "int", "kv", "live", "rpc", "other"];

/// Per-protocol receive accounting: packets and bytes bucketed by
/// ethertype, IP protocol, and well-known-port class. Fixed-size arrays
/// (indices match the `*_CLASSES` label tables) so counting is two adds
/// per layer and publishing is deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtoStats {
    /// Packets by ethertype class (see [`ETH_CLASSES`]).
    pub eth: [u64; 4],
    /// Bytes by ethertype class.
    pub eth_bytes: [u64; 4],
    /// IPv4 packets by protocol class (see [`IP_CLASSES`]).
    pub ip: [u64; 4],
    /// IPv4 bytes by protocol class.
    pub ip_bytes: [u64; 4],
    /// UDP packets by well-known-port class (see [`PORT_CLASSES`]).
    pub port: [u64; 6],
    /// UDP bytes by well-known-port class.
    pub port_bytes: [u64; 6],
}

impl ProtoStats {
    /// Folds one parsed frame of `len` bytes into the buckets.
    pub fn record(&mut self, pp: &ParsedPacket, len: u64) {
        let e = match pp.eth.ethertype {
            EtherType::Ipv4 => 0,
            EtherType::Arp => 1,
            EtherType::EventCarrier => 2,
            EtherType::Other(_) => 3,
        };
        self.eth[e] += 1;
        self.eth_bytes[e] += len;
        let Some(ip) = pp.ipv4 else { return };
        let i = match ip.proto {
            IpProto::Udp => 0,
            IpProto::Tcp => 1,
            IpProto::Icmp => 2,
            IpProto::Other(_) => 3,
        };
        self.ip[i] += 1;
        self.ip_bytes[i] += len;
        if i != 0 {
            return;
        }
        let p = match pp.app {
            Some(AppHeader::Hula(_)) => 0,
            Some(AppHeader::Telemetry(_)) => 1,
            Some(AppHeader::Kv(_)) => 2,
            Some(AppHeader::Liveness(_)) => 3,
            Some(AppHeader::Rpc(_)) => 4,
            None => 5,
        };
        self.port[p] += 1;
        self.port_bytes[p] += len;
    }

    /// Sums `other` into `self` (shard-merge / multi-host aggregation).
    pub fn absorb(&mut self, other: &ProtoStats) {
        for (a, b) in self.eth.iter_mut().zip(other.eth) {
            *a += b;
        }
        for (a, b) in self.eth_bytes.iter_mut().zip(other.eth_bytes) {
            *a += b;
        }
        for (a, b) in self.ip.iter_mut().zip(other.ip) {
            *a += b;
        }
        for (a, b) in self.ip_bytes.iter_mut().zip(other.ip_bytes) {
            *a += b;
        }
        for (a, b) in self.port.iter_mut().zip(other.port) {
            *a += b;
        }
        for (a, b) in self.port_bytes.iter_mut().zip(other.port_bytes) {
            *a += b;
        }
    }
}

/// Aggregate host receive statistics.
#[derive(Debug, Clone, Default)]
pub struct HostStats {
    /// Total frames received.
    pub rx_pkts: u64,
    /// Total bytes received.
    pub rx_bytes: u64,
    /// Frames that failed to parse.
    pub rx_errors: u64,
    /// Per-protocol breakdown of parsed frames.
    pub proto: ProtoStats,
    /// Per-flow breakdown, one lookup per received frame. Iterates in
    /// first-arrival order, which is deterministic.
    pub flows: FlowTable,
}

/// What a host does with arriving packets beyond counting them.
#[derive(Debug, Clone)]
pub enum HostApp {
    /// Count only.
    Sink,
    /// Reflect every UDP datagram back to its sender (ports swapped).
    UdpEcho,
    /// A NetCache-style key-value server: answers `Get` with `Reply`,
    /// applies `Put`s to its store.
    KvServer {
        /// The backing store.
        store: HashMap<u64, u64>,
        /// Served request count.
        served: u64,
    },
    /// An HTTP/gRPC-shaped RPC server: acks `Connect`s and answers
    /// `Request`s with a `Response` padded to the client-requested size,
    /// at most [`MAX_FRAME_LEN`] bytes.
    RpcServer {
        /// Served message count (connects + requests).
        served: u64,
    },
    /// A fleet of logical clients (see [`crate::endpoint::EndpointFleet`]):
    /// consumes `ConnectAck`/`Response` frames; its requests are injected
    /// by the [`crate::endpoint::start_endpoints`] pacer.
    ClientFleet(Box<EndpointFleet>),
}

/// An end host attached to the network by one link.
#[derive(Debug, Clone)]
pub struct Host {
    /// This host's IPv4 address.
    pub addr: Ipv4Addr,
    /// Behaviour on receive.
    pub app: HostApp,
    /// Receive statistics.
    pub stats: HostStats,
}

impl Host {
    /// Creates a host.
    pub fn new(addr: Ipv4Addr, app: HostApp) -> Self {
        Host {
            addr,
            app,
            stats: HostStats::default(),
        }
    }

    /// Processes an arriving frame; returns the reply to send, if any (no
    /// app answers one frame with more than one).
    ///
    /// `latency_ns` is the precomputed one-way latency when the network
    /// tracked the packet's send time.
    pub fn on_receive(
        &mut self,
        now: SimTime,
        pkt: &Packet,
        latency_ns: Option<u64>,
    ) -> Option<Vec<u8>> {
        self.stats.rx_pkts += 1;
        self.stats.rx_bytes += pkt.len() as u64;
        // The last switch's parse, unless the access link corrupted the
        // frame in flight.
        let parsed = match pkt.parsed() {
            Ok(p) => p,
            Err(_) => {
                self.stats.rx_errors += 1;
                return None;
            }
        };
        self.stats.proto.record(parsed, pkt.len() as u64);
        if let Some(key) = parsed.flow_key() {
            self.stats.flows.record(key, pkt.len() as u64, latency_ns);
        }
        match &mut self.app {
            HostApp::Sink => None,
            HostApp::UdpEcho => {
                let (Some(ip), Some(edp_packet::L4::Udp(udp))) = (parsed.ipv4, parsed.l4) else {
                    return None;
                };
                let payload = &pkt.bytes()[parsed.payload_offset..];
                Some(
                    PacketBuilder::udp(ip.dst, ip.src, udp.dst_port, udp.src_port, payload).build(),
                )
            }
            HostApp::KvServer { store, served } => {
                let (Some(ip), Some(AppHeader::Kv(kv))) = (parsed.ipv4, parsed.app) else {
                    return None;
                };
                match kv.op {
                    KvOp::Get => {
                        *served += 1;
                        let value = store.get(&kv.key).copied().unwrap_or(0);
                        let reply = KvHeader {
                            op: KvOp::Reply,
                            key: kv.key,
                            value,
                        };
                        Some(PacketBuilder::kv(ip.dst, ip.src, &reply).build())
                    }
                    KvOp::Put => {
                        *served += 1;
                        store.insert(kv.key, kv.value);
                        None
                    }
                    KvOp::Reply => None,
                }
            }
            HostApp::RpcServer { served } => {
                let (Some(ip), Some(AppHeader::Rpc(rpc))) = (parsed.ipv4, parsed.app) else {
                    return None;
                };
                match rpc.kind {
                    RpcKind::Connect => {
                        *served += 1;
                        let ack = RpcHeader {
                            kind: RpcKind::ConnectAck,
                            ..rpc
                        };
                        Some(PacketBuilder::rpc(ip.dst, ip.src, &ack).build())
                    }
                    RpcKind::Request => {
                        *served += 1;
                        let resp = RpcHeader {
                            kind: RpcKind::Response,
                            ..rpc
                        };
                        Some(
                            PacketBuilder::rpc(ip.dst, ip.src, &resp)
                                .pad_to(rpc.resp_bytes.min(MAX_FRAME_LEN) as usize)
                                .build(),
                        )
                    }
                    RpcKind::ConnectAck | RpcKind::Response => None,
                }
            }
            HostApp::ClientFleet(fleet) => {
                if let Some(AppHeader::Rpc(rpc)) = parsed.app {
                    fleet.on_rpc(now, &rpc);
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edp_packet::parse_packet;

    fn a(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    #[test]
    fn sink_counts_flows_and_latency() {
        let mut h = Host::new(a(2), HostApp::Sink);
        let f = PacketBuilder::udp(a(1), a(2), 7, 8, b"abc").build();
        let pkt = Packet::anonymous(f);
        h.on_receive(SimTime::ZERO, &pkt, Some(1500));
        h.on_receive(SimTime::ZERO, &pkt, Some(2500));
        assert_eq!(h.stats.rx_pkts, 2);
        let parsed = parse_packet(pkt.bytes()).expect("p");
        let key = parsed.flow_key().expect("k");
        let fs = &h.stats.flows[&key];
        assert_eq!(fs.pkts, 2);
        assert_eq!(fs.latency_ns.mean(), 2000.0);
    }

    #[test]
    fn sink_iterates_flows_in_first_arrival_order() {
        let mut h = Host::new(a(9), HostApp::Sink);
        let flow = |port| Packet::anonymous(PacketBuilder::udp(a(1), a(9), port, 80, b"x").build());
        let (fa, fb) = (flow(1000), flow(2000));
        for pkt in [&fa, &fb, &fa] {
            h.on_receive(SimTime::ZERO, pkt, None);
        }
        let order: Vec<(u16, u64)> = h
            .stats
            .flows
            .iter()
            .map(|(k, f)| (k.src_port, f.pkts))
            .collect();
        assert_eq!(order, [(1000, 2), (2000, 1)]);
    }

    #[test]
    fn rpc_response_is_capped_at_the_largest_frame() {
        let mut h = Host::new(a(2), HostApp::RpcServer { served: 0 });
        let req = RpcHeader {
            kind: RpcKind::Request,
            endpoint: 0,
            seq: 1,
            key: 7,
            resp_bytes: 100_000,
        };
        let frame = PacketBuilder::rpc(a(1), a(2), &req).build();
        let out = h.on_receive(SimTime::ZERO, &Packet::anonymous(frame), None);
        let out = out.expect("a request is answered");
        assert_eq!(out.len(), MAX_FRAME_LEN as usize);
        match parse_packet(&out).expect("the capped response parses").app {
            Some(AppHeader::Rpc(r)) => assert_eq!((r.kind, r.seq), (RpcKind::Response, 1)),
            other => panic!("not rpc: {other:?}"),
        }
    }

    #[test]
    fn echo_swaps_addresses_and_ports() {
        let mut h = Host::new(a(2), HostApp::UdpEcho);
        let f = PacketBuilder::udp(a(1), a(2), 1111, 2222, b"ping").build();
        let out = h.on_receive(SimTime::ZERO, &Packet::anonymous(f), None);
        let parsed = parse_packet(&out.expect("echo replies")).expect("parse");
        let ip = parsed.ipv4.expect("ip");
        assert_eq!(ip.src, a(2));
        assert_eq!(ip.dst, a(1));
        match parsed.l4 {
            Some(edp_packet::L4::Udp(u)) => {
                assert_eq!(u.src_port, 2222);
                assert_eq!(u.dst_port, 1111);
            }
            other => panic!("not udp: {other:?}"),
        }
    }

    #[test]
    fn kv_server_get_put() {
        let mut h = Host::new(
            a(5),
            HostApp::KvServer {
                store: HashMap::new(),
                served: 0,
            },
        );
        // Put 99 => 1234.
        let put = PacketBuilder::kv(
            a(1),
            a(5),
            &KvHeader {
                op: KvOp::Put,
                key: 99,
                value: 1234,
            },
        )
        .build();
        assert!(h
            .on_receive(SimTime::ZERO, &Packet::anonymous(put), None)
            .is_none());
        // Get 99 -> reply 1234.
        let get = PacketBuilder::kv(
            a(1),
            a(5),
            &KvHeader {
                op: KvOp::Get,
                key: 99,
                value: 0,
            },
        )
        .build();
        let out = h.on_receive(SimTime::ZERO, &Packet::anonymous(get), None);
        let parsed = parse_packet(&out.expect("get replies")).expect("parse");
        match parsed.app {
            Some(AppHeader::Kv(kv)) => {
                assert_eq!(kv.op, KvOp::Reply);
                assert_eq!(kv.value, 1234);
            }
            other => panic!("not kv: {other:?}"),
        }
        match &h.app {
            HostApp::KvServer { served, .. } => assert_eq!(*served, 2),
            _ => unreachable!(),
        }
    }

    #[test]
    fn garbage_counted_as_error() {
        let mut h = Host::new(a(2), HostApp::Sink);
        h.on_receive(SimTime::ZERO, &Packet::anonymous(vec![9, 9]), None);
        assert_eq!(h.stats.rx_errors, 1);
    }
}
