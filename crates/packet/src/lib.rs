//! # edp-packet — byte-accurate packet substrate
//!
//! Frames in this workspace are real bytes, not symbolic records: headers
//! are encoded/decoded with checksums, pipelines rewrite them in place, and
//! a corrupted byte is *detected* the way real hardware would detect it.
//! This keeps the dataplane models honest — a PISA parser model that works
//! here works because the wire format is right.
//!
//! Layers provided:
//!
//! * [`EthHeader`] — Ethernet II, including the event-carrier ethertype the
//!   event merger uses for injected metadata frames;
//! * [`Ipv4Header`] — IPv4 without options, with in-place ECN/TTL patching;
//! * [`UdpHeader`], [`TcpHeader`], [`IcmpEcho`] — transports;
//! * [`HulaProbe`], [`TelemetryHeader`], [`KvHeader`], [`LivenessHeader`] —
//!   application headers used by the paper's example applications;
//! * [`parse_packet`] — the full parser chain, PISA-parser-shaped;
//!   [`Packet::parsed`] memoises it on the shared frame, so a frame nobody
//!   rewrites is parsed once for its whole path;
//! * [`PacketBuilder`] — wire-valid frame assembly;
//! * [`FlowKey`] / [`Fnv1a`] — deterministic flow hashing.
//!
//! ```
//! use edp_packet::{PacketBuilder, parse_packet, L4};
//! use std::net::Ipv4Addr;
//!
//! let frame = PacketBuilder::udp(
//!     Ipv4Addr::new(10, 0, 0, 1),
//!     Ipv4Addr::new(10, 0, 0, 2),
//!     4242, 8080, b"hello",
//! ).pad_to(64).build();
//!
//! let parsed = parse_packet(&frame).unwrap();
//! assert!(matches!(parsed.l4, Some(L4::Udp(u)) if u.dst_port == 8080));
//! assert_eq!(&frame[parsed.payload_offset..parsed.payload_offset + 5], b"hello");
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod addr;
mod apphdr;
mod builder;
mod burst;
mod error;
mod eth;
mod flow;
mod ipv4;
mod l4;
mod packet;
mod parse;
mod pcap;
pub mod wire;

pub use addr::MacAddr;
pub use apphdr::{
    HulaProbe, KvHeader, KvOp, LivenessHeader, LivenessKind, RpcHeader, RpcKind, TelemetryHeader,
    PORT_HULA, PORT_KV, PORT_LIVENESS, PORT_RPC, PORT_TELEMETRY,
};
pub use builder::PacketBuilder;
pub use burst::Burst;
pub use error::{ParseError, ParseResult};
pub use eth::{EthHeader, EtherType, ETH_HEADER_LEN};
pub use flow::{FlowKey, Fnv1a, FnvBuildHasher};
pub use ipv4::{Ecn, IpProto, Ipv4Header, IPV4_HEADER_LEN, TRIMMED_DSCP};
pub use l4::{
    IcmpEcho, IcmpEchoKind, TcpFlags, TcpHeader, UdpHeader, ICMP_ECHO_LEN, TCP_HEADER_LEN,
    UDP_HEADER_LEN,
};
pub use packet::{Packet, PacketUid, SharedFrame};
pub use parse::{parse_packet, summarize, AppHeader, ParsedPacket, L4};
pub use pcap::{PcapError, PcapFile, PcapPacket, PcapResult, LINKTYPE_ETHERNET, MAX_FRAME_LEN};
