//! Transport-layer codecs: UDP, TCP, and ICMP echo.
//!
//! TCP options are not modelled (the dataplane apps only need ports,
//! sequence numbers, and flags); the data-offset field is honoured on parse
//! so real-world-shaped captures with options still parse.

use crate::error::{check_len, ParseError, ParseResult};
use crate::ipv4::Ipv4Header;
use crate::wire::{fold, get_u16, get_u32, internet_checksum, put_u16, sum_words};
use serde::{Deserialize, Serialize};

/// UDP header length.
pub const UDP_HEADER_LEN: usize = 8;
/// TCP header length without options.
pub const TCP_HEADER_LEN: usize = 20;
/// ICMP echo header length.
pub const ICMP_ECHO_LEN: usize = 8;

/// A UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Header + payload length.
    pub len: u16,
}

impl UdpHeader {
    /// Parses the header; verifies the checksum against the pseudo-header
    /// if `ip` is given and the checksum field is non-zero (zero means
    /// "no checksum" per RFC 768).
    pub fn parse(buf: &[u8], ip: Option<&Ipv4Header>) -> ParseResult<(Self, usize)> {
        check_len("udp", buf.len(), UDP_HEADER_LEN)?;
        let len = get_u16(buf, 4);
        if (len as usize) < UDP_HEADER_LEN || len as usize > buf.len() {
            return Err(ParseError::BadLength { layer: "udp" });
        }
        let cksum = get_u16(buf, 6);
        if let (Some(ip), true) = (ip, cksum != 0) {
            let sum = sum_words(&buf[..len as usize], ip.pseudo_header_sum(len));
            if fold(sum) != 0xffff {
                return Err(ParseError::BadChecksum { layer: "udp" });
            }
        }
        Ok((
            UdpHeader {
                src_port: get_u16(buf, 0),
                dst_port: get_u16(buf, 2),
                len,
            },
            UDP_HEADER_LEN,
        ))
    }

    /// Disables the UDP checksum of an encoded datagram in place (sets it
    /// to 0, which RFC 768 defines as "no checksum"). Dataplane programs
    /// that rewrite UDP payload bytes (e.g. in-band telemetry stamping)
    /// use this instead of recomputing over the full payload, exactly as
    /// hardware INT implementations commonly do.
    pub fn patch_zero_checksum(buf: &mut [u8], l4_off: usize) {
        put_u16(buf, l4_off + 6, 0);
    }

    /// Appends the header and `payload`, computing the checksum over the
    /// pseudo-header when `ip` is given (otherwise emits checksum 0).
    pub fn emit(&self, out: &mut Vec<u8>, ip: Option<&Ipv4Header>, payload: &[u8]) {
        self.emit_padded(out, ip, payload, 0);
    }

    /// [`UdpHeader::emit`] with `pad` zero bytes after `payload`, under
    /// the checksum: the builder pads in the frame's own buffer instead of
    /// growing a copy of the payload first. The sum skips the pad: zero
    /// words add nothing to a one's-complement sum, and an odd payload's
    /// last byte already pairs with an implied zero.
    pub(crate) fn emit_padded(
        &self,
        out: &mut Vec<u8>,
        ip: Option<&Ipv4Header>,
        payload: &[u8],
        pad: usize,
    ) {
        let start = out.len();
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.len.to_be_bytes());
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(payload);
        // The zero pad adds nothing to the sum, so it covers header and
        // payload only (see `UdpHeader::emit_padded`'s doc).
        let sum = ip.map(|ip| sum_words(&out[start..], ip.pseudo_header_sum(self.len)));
        out.resize(out.len() + pad, 0);
        if let Some(sum) = sum {
            let mut ck = !fold(sum);
            if ck == 0 {
                ck = 0xffff; // RFC 768: transmitted as all-ones
            }
            put_u16(&mut out[start..], 6, ck);
        }
    }
}

/// Minimal bitflags implementation so we avoid an extra dependency.
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $($(#[$fmeta:meta])* const $flag:ident = $val:expr;)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
        pub struct $name(pub $ty);

        impl $name {
            $($(#[$fmeta])* pub const $flag: $name = $name($val);)*

            /// The empty flag set.
            pub const fn empty() -> Self { $name(0) }
            /// True if all bits of `other` are set in `self`.
            pub const fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }
            /// Union of two flag sets.
            pub const fn union(self, other: $name) -> $name { $name(self.0 | other.0) }
        }

        impl core::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, rhs: $name) -> $name { self.union(rhs) }
        }
    };
}

bitflags_lite! {
    /// TCP flag bits (subset used by the apps and generators).
    pub struct TcpFlags: u8 {
        /// FIN — sender is finished.
        const FIN = 0x01;
        /// SYN — synchronize sequence numbers.
        const SYN = 0x02;
        /// RST — reset the connection.
        const RST = 0x04;
        /// PSH — push buffered data.
        const PSH = 0x08;
        /// ACK — acknowledgement field is valid.
        const ACK = 0x10;
        /// ECE — ECN echo (receiver saw CE).
        const ECE = 0x40;
        /// CWR — congestion window reduced.
        const CWR = 0x80;
    }
}

/// A TCP header (options ignored).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
}

impl TcpHeader {
    /// Parses the header, honouring the data-offset field; returns the
    /// header and total bytes consumed (header + options).
    pub fn parse(buf: &[u8]) -> ParseResult<(Self, usize)> {
        check_len("tcp", buf.len(), TCP_HEADER_LEN)?;
        let data_off = ((buf[12] >> 4) as usize) * 4;
        if data_off < TCP_HEADER_LEN {
            return Err(ParseError::BadLength { layer: "tcp" });
        }
        check_len("tcp", buf.len(), data_off)?;
        Ok((
            TcpHeader {
                src_port: get_u16(buf, 0),
                dst_port: get_u16(buf, 2),
                seq: get_u32(buf, 4),
                ack: get_u32(buf, 8),
                flags: TcpFlags(buf[13]),
                window: get_u16(buf, 14),
            },
            data_off,
        ))
    }

    /// Appends the 20-byte header and `payload`, computing the checksum
    /// over the pseudo-header when `ip` is given.
    pub fn emit(&self, out: &mut Vec<u8>, ip: Option<&Ipv4Header>, payload: &[u8]) {
        self.emit_padded(out, ip, payload, 0);
    }

    /// [`TcpHeader::emit`] with `pad` zero bytes after `payload` (see
    /// [`UdpHeader::emit_padded`]).
    pub(crate) fn emit_padded(
        &self,
        out: &mut Vec<u8>,
        ip: Option<&Ipv4Header>,
        payload: &[u8],
        pad: usize,
    ) {
        let start = out.len();
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push((TCP_HEADER_LEN as u8 / 4) << 4);
        out.push(self.flags.0);
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0, 0, 0]); // checksum + urgent
        out.extend_from_slice(payload);
        let l4_len = (out.len() - start + pad) as u16;
        let sum = ip.map(|ip| sum_words(&out[start..], ip.pseudo_header_sum(l4_len)));
        out.resize(out.len() + pad, 0);
        if let Some(sum) = sum {
            put_u16(&mut out[start..], 16, !fold(sum));
        }
    }
}

/// ICMP echo message kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IcmpEchoKind {
    /// Echo request (type 8).
    Request,
    /// Echo reply (type 0).
    Reply,
}

/// An ICMP echo request/reply header, used by the liveness-monitoring app.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IcmpEcho {
    /// Request or reply.
    pub kind: IcmpEchoKind,
    /// Identifier (distinguishes probe streams).
    pub ident: u16,
    /// Sequence number.
    pub seq: u16,
}

impl IcmpEcho {
    /// Parses and checksum-verifies the message (header + payload).
    pub fn parse(buf: &[u8]) -> ParseResult<(Self, usize)> {
        check_len("icmp", buf.len(), ICMP_ECHO_LEN)?;
        let kind = match buf[0] {
            8 => IcmpEchoKind::Request,
            0 => IcmpEchoKind::Reply,
            other => {
                return Err(ParseError::Unsupported {
                    layer: "icmp",
                    field: "type",
                    value: other as u64,
                })
            }
        };
        if fold(sum_words(buf, 0)) != 0xffff {
            return Err(ParseError::BadChecksum { layer: "icmp" });
        }
        Ok((
            IcmpEcho {
                kind,
                ident: get_u16(buf, 4),
                seq: get_u16(buf, 6),
            },
            ICMP_ECHO_LEN,
        ))
    }

    /// Appends the message with checksum computed over header + payload.
    pub fn emit(&self, out: &mut Vec<u8>, payload: &[u8]) {
        self.emit_padded(out, payload, 0);
    }

    /// [`IcmpEcho::emit`] with `pad` zero bytes after `payload` (see
    /// [`UdpHeader::emit_padded`]).
    pub(crate) fn emit_padded(&self, out: &mut Vec<u8>, payload: &[u8], pad: usize) {
        let start = out.len();
        out.push(match self.kind {
            IcmpEchoKind::Request => 8,
            IcmpEchoKind::Reply => 0,
        });
        out.push(0); // code
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.ident.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(payload);
        let ck = internet_checksum(&out[start..]);
        out.resize(out.len() + pad, 0);
        put_u16(&mut out[start..], 2, ck);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::{Ecn, IpProto};
    use std::net::Ipv4Addr;

    fn ip(proto: IpProto, l4_len: u16) -> Ipv4Header {
        Ipv4Header {
            dscp: 0,
            ecn: Ecn::NotEct,
            total_len: 20 + l4_len,
            ident: 1,
            ttl: 64,
            proto,
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
        }
    }

    #[test]
    fn udp_round_trip_with_checksum() {
        let payload = b"hello world";
        let h = UdpHeader {
            src_port: 1111,
            dst_port: 2222,
            len: (UDP_HEADER_LEN + payload.len()) as u16,
        };
        let iph = ip(IpProto::Udp, h.len);
        let mut out = Vec::new();
        h.emit(&mut out, Some(&iph), payload);
        let (parsed, used) = UdpHeader::parse(&out, Some(&iph)).expect("parse");
        assert_eq!(parsed, h);
        assert_eq!(used, UDP_HEADER_LEN);
        assert_eq!(&out[UDP_HEADER_LEN..], payload);
    }

    #[test]
    fn udp_corruption_detected() {
        let payload = b"data!";
        let h = UdpHeader {
            src_port: 5,
            dst_port: 6,
            len: (UDP_HEADER_LEN + payload.len()) as u16,
        };
        let iph = ip(IpProto::Udp, h.len);
        let mut out = Vec::new();
        h.emit(&mut out, Some(&iph), payload);
        out[9] ^= 0x40;
        assert!(matches!(
            UdpHeader::parse(&out, Some(&iph)),
            Err(ParseError::BadChecksum { .. })
        ));
    }

    #[test]
    fn udp_zero_checksum_skips_verify() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
            len: 8,
        };
        let mut out = Vec::new();
        h.emit(&mut out, None, &[]);
        let iph = ip(IpProto::Udp, 8);
        assert!(UdpHeader::parse(&out, Some(&iph)).is_ok());
    }

    #[test]
    fn udp_bad_len_rejected() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
            len: 200,
        };
        let mut out = Vec::new();
        h.emit(&mut out, None, &[]);
        assert!(matches!(
            UdpHeader::parse(&out, None),
            Err(ParseError::BadLength { .. })
        ));
    }

    #[test]
    fn tcp_round_trip() {
        let h = TcpHeader {
            src_port: 80,
            dst_port: 53211,
            seq: 0xAABBCCDD,
            ack: 0x11223344,
            flags: TcpFlags::SYN | TcpFlags::ACK,
            window: 4096,
        };
        let iph = ip(IpProto::Tcp, 20);
        let mut out = Vec::new();
        h.emit(&mut out, Some(&iph), &[]);
        let (parsed, used) = TcpHeader::parse(&out).expect("parse");
        assert_eq!(parsed, h);
        assert_eq!(used, TCP_HEADER_LEN);
        assert!(parsed.flags.contains(TcpFlags::SYN));
        assert!(!parsed.flags.contains(TcpFlags::FIN));
    }

    #[test]
    fn tcp_options_skipped() {
        let h = TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 100,
        };
        let mut out = Vec::new();
        h.emit(&mut out, None, &[]);
        // Fake 4 bytes of options: bump data offset to 6 words.
        out[12] = 6 << 4;
        out.extend_from_slice(&[1, 1, 1, 1]);
        let (_, used) = TcpHeader::parse(&out).expect("parse with options");
        assert_eq!(used, 24);
    }

    #[test]
    fn tcp_bad_offset_rejected() {
        let mut out = vec![0u8; 20];
        out[12] = 2 << 4; // 8 bytes: less than minimum
        assert!(matches!(
            TcpHeader::parse(&out),
            Err(ParseError::BadLength { .. })
        ));
    }

    #[test]
    fn icmp_round_trip_and_corruption() {
        let h = IcmpEcho {
            kind: IcmpEchoKind::Request,
            ident: 7,
            seq: 42,
        };
        let mut out = Vec::new();
        h.emit(&mut out, b"probe-payload");
        let (parsed, _) = IcmpEcho::parse(&out).expect("parse");
        assert_eq!(parsed, h);
        out[10] ^= 1;
        assert!(matches!(
            IcmpEcho::parse(&out),
            Err(ParseError::BadChecksum { .. })
        ));
    }

    #[test]
    fn icmp_unknown_type_rejected() {
        let mut out = Vec::new();
        IcmpEcho {
            kind: IcmpEchoKind::Reply,
            ident: 0,
            seq: 0,
        }
        .emit(&mut out, &[]);
        out[0] = 13; // timestamp request: unsupported
        assert!(matches!(
            IcmpEcho::parse(&out),
            Err(ParseError::Unsupported { .. })
        ));
    }

    #[test]
    fn flags_ops() {
        let f = TcpFlags::SYN | TcpFlags::ECE;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ECE));
        assert!(!f.contains(TcpFlags::ACK));
        assert_eq!(TcpFlags::empty().0, 0);
    }
}
