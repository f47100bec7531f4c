//! IPv4 header codec with checksum support.

use crate::error::{check_len, ParseError, ParseResult};
use crate::wire::{fold, get_u16, internet_checksum, put_u16, sum_words};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Minimum (and, in this workspace, only) IPv4 header length: options are
/// not emitted and are rejected on parse, as in baseline PISA parsers.
pub const IPV4_HEADER_LEN: usize = 20;

/// DSCP codepoint stamped on NDP-style trimmed packets (see
/// [`Ipv4Header::trim_to_network_header`]).
pub const TRIMMED_DSCP: u8 = 63;

/// IP protocol numbers used in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IpProto {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl IpProto {
    /// Wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Other(v) => v,
        }
    }

    /// From wire value.
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => IpProto::Icmp,
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            other => IpProto::Other(other),
        }
    }
}

/// Explicit Congestion Notification codepoint (2 bits of the TOS byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Ecn {
    /// Not ECN-capable transport.
    NotEct,
    /// ECN-capable transport, codepoint 1.
    Ect1,
    /// ECN-capable transport, codepoint 0.
    Ect0,
    /// Congestion experienced.
    Ce,
}

impl Ecn {
    /// Wire value (2 bits).
    pub fn to_bits(self) -> u8 {
        match self {
            Ecn::NotEct => 0b00,
            Ecn::Ect1 => 0b01,
            Ecn::Ect0 => 0b10,
            Ecn::Ce => 0b11,
        }
    }

    /// From the low 2 bits of the TOS byte.
    pub fn from_bits(v: u8) -> Self {
        match v & 0b11 {
            0b00 => Ecn::NotEct,
            0b01 => Ecn::Ect1,
            0b10 => Ecn::Ect0,
            _ => Ecn::Ce,
        }
    }
}

/// An IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ipv4Header {
    /// Differentiated services codepoint (6 bits).
    pub dscp: u8,
    /// ECN codepoint.
    pub ecn: Ecn,
    /// Total length of header + payload, in bytes.
    pub total_len: u16,
    /// Identification field (used by apps as a sequence hint).
    pub ident: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub proto: IpProto,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Parses and checksum-verifies the header from the front of `buf`.
    pub fn parse(buf: &[u8]) -> ParseResult<(Self, usize)> {
        check_len("ipv4", buf.len(), IPV4_HEADER_LEN)?;
        let ver_ihl = buf[0];
        if ver_ihl >> 4 != 4 {
            return Err(ParseError::Unsupported {
                layer: "ipv4",
                field: "version",
                value: (ver_ihl >> 4) as u64,
            });
        }
        let ihl = (ver_ihl & 0x0f) as usize * 4;
        if ihl != IPV4_HEADER_LEN {
            return Err(ParseError::Unsupported {
                layer: "ipv4",
                field: "ihl",
                value: ihl as u64,
            });
        }
        if fold(sum_words(&buf[..IPV4_HEADER_LEN], 0)) != 0xffff {
            return Err(ParseError::BadChecksum { layer: "ipv4" });
        }
        let total_len = get_u16(buf, 2);
        if (total_len as usize) < IPV4_HEADER_LEN || total_len as usize > buf.len() {
            return Err(ParseError::BadLength { layer: "ipv4" });
        }
        Ok((
            Ipv4Header {
                dscp: buf[1] >> 2,
                ecn: Ecn::from_bits(buf[1]),
                total_len,
                ident: get_u16(buf, 4),
                ttl: buf[8],
                proto: IpProto::from_u8(buf[9]),
                src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
                dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
            },
            IPV4_HEADER_LEN,
        ))
    }

    /// Appends the encoded header (with correct checksum) to `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.push(0x45);
        out.push((self.dscp << 2) | self.ecn.to_bits());
        out.extend_from_slice(&self.total_len.to_be_bytes());
        out.extend_from_slice(&self.ident.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // flags + fragment offset: unfragmented
        out.push(self.ttl);
        out.push(self.proto.to_u8());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
        let ck = internet_checksum(&out[start..start + IPV4_HEADER_LEN]);
        put_u16(&mut out[start..], 10, ck);
    }

    /// Trims an IPv4 frame to its headers (Ethernet + IPv4 + transport
    /// header, no payload), patching lengths and checksums so the result
    /// still parses, and stamping DSCP [`TRIMMED_DSCP`] as the trim
    /// marker. This is the NDP-style "cut payload" operation a switch
    /// applies to buffer-overflow victims so receivers learn *which*
    /// packet was lost — flow 5-tuple and sequence numbers included —
    /// instead of seeing silence.
    ///
    /// For UDP the length field is rewritten to the bare header and the
    /// checksum disabled; for TCP the 20-byte header is kept verbatim
    /// (its checksum is not verified by parsers); other protocols keep
    /// only the IPv4 header with the protocol rewritten to 253
    /// (experimental) so the frame stays parseable.
    ///
    /// Returns `false` (leaving `frame` untouched) when the frame is not
    /// a parseable IPv4 packet.
    pub fn trim_to_network_header(frame: &mut Vec<u8>) -> bool {
        use crate::eth::{EthHeader, EtherType, ETH_HEADER_LEN};
        use crate::l4::{TCP_HEADER_LEN, UDP_HEADER_LEN};
        let Ok((eth, _)) = EthHeader::parse(frame) else {
            return false;
        };
        if eth.ethertype != EtherType::Ipv4 || frame.len() < ETH_HEADER_LEN + IPV4_HEADER_LEN {
            return false;
        }
        let Ok((ip, _)) = Ipv4Header::parse(&frame[ETH_HEADER_LEN..]) else {
            return false;
        };
        let ip_off = ETH_HEADER_LEN;
        let l4_off = ip_off + IPV4_HEADER_LEN;
        let l4_avail = frame.len() - l4_off;
        let keep_l4 = match ip.proto {
            IpProto::Udp if l4_avail >= UDP_HEADER_LEN => UDP_HEADER_LEN,
            IpProto::Tcp if l4_avail >= TCP_HEADER_LEN => TCP_HEADER_LEN,
            _ => 0,
        };
        frame.truncate(l4_off + keep_l4);
        match (ip.proto, keep_l4) {
            (IpProto::Udp, UDP_HEADER_LEN) => {
                // Bare UDP header: len = 8, checksum disabled.
                put_u16(frame, l4_off + 4, UDP_HEADER_LEN as u16);
                put_u16(frame, l4_off + 6, 0);
            }
            (IpProto::Tcp, TCP_HEADER_LEN) => {
                // Force data offset to the bare 20-byte header (options
                // were cut with the payload).
                frame[l4_off + 12] = (TCP_HEADER_LEN as u8 / 4) << 4;
            }
            _ => {
                // No transport header retained: mark protocol experimental
                // so the parser does not look for one.
                frame[ip_off + 9] = 253;
            }
        }
        put_u16(frame, ip_off + 2, (IPV4_HEADER_LEN + keep_l4) as u16);
        // Mark as trimmed via DSCP, preserving the ECN bits.
        frame[ip_off + 1] = (TRIMMED_DSCP << 2) | (frame[ip_off + 1] & 0b11);
        put_u16(frame, ip_off + 10, 0);
        let ck = internet_checksum(&frame[ip_off..ip_off + IPV4_HEADER_LEN]);
        put_u16(frame, ip_off + 10, ck);
        true
    }

    /// Sum of the pseudo-header fields used by TCP/UDP checksums.
    pub fn pseudo_header_sum(&self, l4_len: u16) -> u32 {
        let mut sum = sum_words(&self.src.octets(), 0);
        sum = sum_words(&self.dst.octets(), sum);
        sum += self.proto.to_u8() as u32;
        sum += l4_len as u32;
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header {
            dscp: 0,
            ecn: Ecn::Ect0,
            total_len: 40,
            ident: 0x1234,
            ttl: 64,
            proto: IpProto::Udp,
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
        }
    }

    #[test]
    fn round_trip() {
        let h = sample();
        let mut out = Vec::new();
        h.emit(&mut out);
        out.extend_from_slice(&[0u8; 20]); // payload so total_len fits
        let (parsed, used) = Ipv4Header::parse(&out).expect("parse");
        assert_eq!(parsed, h);
        assert_eq!(used, IPV4_HEADER_LEN);
    }

    #[test]
    fn corrupt_byte_fails_checksum() {
        let mut out = Vec::new();
        sample().emit(&mut out);
        out.extend_from_slice(&[0u8; 20]);
        out[8] ^= 0xff; // flip TTL
        assert!(matches!(
            Ipv4Header::parse(&out),
            Err(ParseError::BadChecksum { .. })
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut out = Vec::new();
        sample().emit(&mut out);
        out[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Header::parse(&out),
            Err(ParseError::Unsupported {
                field: "version",
                ..
            })
        ));
    }

    #[test]
    fn total_len_beyond_buffer_rejected() {
        let mut out = Vec::new();
        let mut h = sample();
        h.total_len = 1000;
        h.emit(&mut out);
        assert!(matches!(
            Ipv4Header::parse(&out),
            Err(ParseError::BadLength { .. })
        ));
    }

    #[test]
    fn trim_to_network_header_parses_and_marks() {
        let mut frame = crate::builder::PacketBuilder::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            5,
            6,
            &[0u8; 500],
        )
        .ecn(Ecn::Ect0)
        .build();
        assert!(Ipv4Header::trim_to_network_header(&mut frame));
        assert_eq!(frame.len(), 14 + 20 + 8, "eth + ip + bare udp");
        let (h, _) = Ipv4Header::parse(&frame[14..]).expect("trimmed parses");
        assert_eq!(h.total_len, 28);
        assert_eq!(h.dscp, TRIMMED_DSCP);
        assert_eq!(h.ecn, Ecn::Ect0, "ECN preserved");
        assert_eq!(h.src, Ipv4Addr::new(10, 0, 0, 1));
    }

    #[test]
    fn trim_rejects_non_ip() {
        let mut junk = vec![0u8; 10];
        assert!(!Ipv4Header::trim_to_network_header(&mut junk));
        assert_eq!(junk.len(), 10, "untouched");
        let mut carrier = vec![0u8; 64];
        carrier[12..14]
            .copy_from_slice(&crate::eth::EtherType::EventCarrier.to_u16().to_be_bytes());
        assert!(!Ipv4Header::trim_to_network_header(&mut carrier));
    }

    #[test]
    fn ecn_bits_round_trip() {
        for e in [Ecn::NotEct, Ecn::Ect0, Ecn::Ect1, Ecn::Ce] {
            assert_eq!(Ecn::from_bits(e.to_bits()), e);
        }
    }
}
