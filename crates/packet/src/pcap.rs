//! Dependency-free pcap / pcapng capture codec.
//!
//! The ingestion plane's file format layer: [`PcapFile::parse`] decodes
//! both the classic libpcap format (all four magic variants: big/little
//! endian × microsecond/nanosecond timestamps) and the pcapng block
//! format (section header, interface description, enhanced and simple
//! packet blocks; other block types are skipped, per the spec), and
//! [`PcapFile::to_pcap_bytes`] writes the canonical form this workspace
//! emits — little-endian classic pcap with nanosecond timestamps. The
//! canonical form round-trips byte-identically (`parse(write(f))` and
//! `write(parse(b))` are identities), which is what the CI golden-fixture
//! gate checks.
//!
//! Every malformed input is a typed [`PcapError`] — truncated files,
//! bad magics, inconsistent block lengths, oversized records — never a
//! panic; the proptest suite feeds this parser arbitrary corruption.

use core::fmt;

/// LINKTYPE_ETHERNET: the only link layer this workspace captures —
/// frames decode through [`crate::parse_packet`].
pub const LINKTYPE_ETHERNET: u32 = 1;

/// Upper bound on a single captured frame (64 KiB covers any frame the
/// simulator can emit; a larger `incl_len` means a corrupt file, and
/// refusing it keeps a hostile length field from allocating gigabytes).
pub const MAX_FRAME_LEN: u32 = 65_536;

/// Classic pcap magic, microsecond timestamps, writer-native order.
const MAGIC_US: u32 = 0xA1B2_C3D4;
/// Classic pcap magic, nanosecond timestamps (the form we write).
const MAGIC_NS: u32 = 0xA1B2_3C4D;
/// pcapng Section Header Block type (palindromic, endian-agnostic).
const PCAPNG_SHB: u32 = 0x0A0D_0D0A;
/// pcapng byte-order magic inside the SHB body.
const PCAPNG_BOM: u32 = 0x1A2B_3C4D;

const PCAP_GLOBAL_LEN: usize = 24;
const PCAP_RECORD_LEN: usize = 16;

/// Why a capture file failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcapError {
    /// The buffer ended before a header, record, or block did.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Bytes that were needed.
        needed: usize,
        /// Bytes that were available.
        have: usize,
    },
    /// The leading magic is neither classic pcap nor a pcapng SHB.
    BadMagic {
        /// The 32-bit value seen (as read, unswapped).
        value: u32,
    },
    /// A classic header declared an unsupported major version.
    UnsupportedVersion {
        /// Major version seen (supported: 2).
        major: u16,
        /// Minor version seen.
        minor: u16,
    },
    /// The capture's link layer is not Ethernet.
    UnsupportedLinkType {
        /// The linktype value seen.
        value: u32,
    },
    /// A pcapng block's total length is inconsistent (too small, not
    /// 4-aligned, past the buffer, or trailer ≠ header).
    BadBlockLength {
        /// Block type the length belonged to.
        block: u32,
        /// The offending length.
        len: u32,
    },
    /// A packet record declared a captured length over [`MAX_FRAME_LEN`].
    OversizedRecord {
        /// The declared captured length.
        len: u32,
    },
    /// An enhanced packet block referenced an interface no interface
    /// description block declared.
    UnknownInterface {
        /// The interface id referenced.
        id: u32,
    },
    /// An `if_tsresol` option value this reader cannot convert to
    /// nanoseconds (supported: powers of ten up to 1e-9 and powers of
    /// two up to 2^-30).
    UnsupportedTsResol {
        /// The raw option byte.
        raw: u8,
    },
}

impl fmt::Display for PcapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcapError::Truncated { what, needed, have } => {
                write!(
                    f,
                    "pcap: {what} truncated, needed {needed} bytes, have {have}"
                )
            }
            PcapError::BadMagic { value } => {
                write!(f, "pcap: unrecognized magic {value:#010x}")
            }
            PcapError::UnsupportedVersion { major, minor } => {
                write!(f, "pcap: unsupported version {major}.{minor}")
            }
            PcapError::UnsupportedLinkType { value } => {
                write!(f, "pcap: unsupported link type {value} (need Ethernet = 1)")
            }
            PcapError::BadBlockLength { block, len } => {
                write!(f, "pcapng: block {block:#x} has inconsistent length {len}")
            }
            PcapError::OversizedRecord { len } => {
                write!(
                    f,
                    "pcap: record claims {len} captured bytes (max {MAX_FRAME_LEN})"
                )
            }
            PcapError::UnknownInterface { id } => {
                write!(f, "pcapng: packet references undeclared interface {id}")
            }
            PcapError::UnsupportedTsResol { raw } => {
                write!(f, "pcapng: unsupported if_tsresol {raw:#04x}")
            }
        }
    }
}

impl std::error::Error for PcapError {}

/// Result alias for the capture codec.
pub type PcapResult<T> = Result<T, PcapError>;

/// One captured frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapPacket {
    /// Capture timestamp in nanoseconds since the capture epoch.
    pub ts_ns: u64,
    /// Original frame length on the wire (≥ `data.len()` when the
    /// capture was truncated by a snap length).
    pub orig_len: u32,
    /// The captured bytes (an Ethernet frame, possibly snapped short).
    pub data: Vec<u8>,
}

impl PcapPacket {
    /// A full (unsnapped) capture of `data` at `ts_ns`.
    pub fn full(ts_ns: u64, data: Vec<u8>) -> Self {
        let orig_len = data.len() as u32;
        PcapPacket {
            ts_ns,
            orig_len,
            data,
        }
    }
}

/// A decoded capture: an ordered sequence of Ethernet frames with
/// nanosecond timestamps, normalized from whichever container format the
/// bytes used.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PcapFile {
    /// The captured frames, in file order.
    pub packets: Vec<PcapPacket>,
}

/// Cursor over an endian-tagged byte buffer.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    big_endian: bool,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            big_endian: false,
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn need(&self, what: &'static str, n: usize) -> PcapResult<()> {
        if self.remaining() < n {
            return Err(PcapError::Truncated {
                what,
                needed: n,
                have: self.remaining(),
            });
        }
        Ok(())
    }

    fn take(&mut self, what: &'static str, n: usize) -> PcapResult<&'a [u8]> {
        self.need(what, n)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self, what: &'static str) -> PcapResult<u16> {
        let b = self.take(what, 2)?;
        let v = [b[0], b[1]];
        Ok(if self.big_endian {
            u16::from_be_bytes(v)
        } else {
            u16::from_le_bytes(v)
        })
    }

    fn u32(&mut self, what: &'static str) -> PcapResult<u32> {
        let b = self.take(what, 4)?;
        let v = [b[0], b[1], b[2], b[3]];
        Ok(if self.big_endian {
            u32::from_be_bytes(v)
        } else {
            u32::from_le_bytes(v)
        })
    }
}

impl PcapFile {
    /// Decodes a capture from bytes, auto-detecting classic pcap vs
    /// pcapng and either endianness.
    pub fn parse(bytes: &[u8]) -> PcapResult<PcapFile> {
        if bytes.len() < 4 {
            return Err(PcapError::Truncated {
                what: "file magic",
                needed: 4,
                have: bytes.len(),
            });
        }
        let raw = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        match raw {
            PCAPNG_SHB => parse_pcapng(bytes),
            m if m == MAGIC_US
                || m == MAGIC_NS
                || m.swap_bytes() == MAGIC_US
                || m.swap_bytes() == MAGIC_NS =>
            {
                parse_classic(bytes)
            }
            other => Err(PcapError::BadMagic { value: other }),
        }
    }

    /// Encodes as canonical classic pcap: little-endian, nanosecond
    /// timestamps, Ethernet link type. `parse` of the result yields this
    /// file back exactly, and re-encoding a parsed canonical file
    /// reproduces the input bytes — the round-trip identity the CI
    /// fixture gate relies on.
    ///
    /// Classic pcap stores 32-bit seconds, so timestamps past
    /// `u32::MAX` seconds (~year 2106) wrap on encode; the round-trip
    /// identity holds for the format's representable range.
    pub fn to_pcap_bytes(&self) -> Vec<u8> {
        let body: usize = self
            .packets
            .iter()
            .map(|p| PCAP_RECORD_LEN + p.data.len())
            .sum();
        let mut out = Vec::with_capacity(PCAP_GLOBAL_LEN + body);
        out.extend_from_slice(&MAGIC_NS.to_le_bytes());
        out.extend_from_slice(&2u16.to_le_bytes()); // version major
        out.extend_from_slice(&4u16.to_le_bytes()); // version minor
        out.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        out.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        out.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes()); // snaplen
        out.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        for p in &self.packets {
            out.extend_from_slice(&((p.ts_ns / 1_000_000_000) as u32).to_le_bytes());
            out.extend_from_slice(&((p.ts_ns % 1_000_000_000) as u32).to_le_bytes());
            out.extend_from_slice(&(p.data.len() as u32).to_le_bytes());
            out.extend_from_slice(&p.orig_len.to_le_bytes());
            out.extend_from_slice(&p.data);
        }
        out
    }

    /// Capture duration: last timestamp minus first (0 for ≤1 packet).
    pub fn duration_ns(&self) -> u64 {
        match (self.packets.first(), self.packets.last()) {
            (Some(a), Some(b)) => b.ts_ns.saturating_sub(a.ts_ns),
            _ => 0,
        }
    }
}

fn parse_classic(bytes: &[u8]) -> PcapResult<PcapFile> {
    let mut r = Reader::new(bytes);
    r.need("global header", PCAP_GLOBAL_LEN)?;
    let raw = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let (big_endian, nanos) = match raw {
        MAGIC_US => (false, false),
        MAGIC_NS => (false, true),
        m if m.swap_bytes() == MAGIC_US => (true, false),
        m if m.swap_bytes() == MAGIC_NS => (true, true),
        other => return Err(PcapError::BadMagic { value: other }),
    };
    r.big_endian = big_endian;
    r.pos = 4;
    let major = r.u16("version")?;
    let minor = r.u16("version")?;
    if major != 2 {
        return Err(PcapError::UnsupportedVersion { major, minor });
    }
    let _thiszone = r.u32("thiszone")?;
    let _sigfigs = r.u32("sigfigs")?;
    let _snaplen = r.u32("snaplen")?;
    let linktype = r.u32("linktype")?;
    if linktype != LINKTYPE_ETHERNET {
        return Err(PcapError::UnsupportedLinkType { value: linktype });
    }
    let subsec_scale: u64 = if nanos { 1 } else { 1_000 };
    let mut packets = Vec::new();
    while r.remaining() > 0 {
        r.need("record header", PCAP_RECORD_LEN)?;
        let ts_sec = r.u32("ts_sec")? as u64;
        let ts_sub = r.u32("ts_subsec")? as u64;
        let incl_len = r.u32("incl_len")?;
        let orig_len = r.u32("orig_len")?;
        if incl_len > MAX_FRAME_LEN {
            return Err(PcapError::OversizedRecord { len: incl_len });
        }
        let data = r.take("record data", incl_len as usize)?.to_vec();
        packets.push(PcapPacket {
            ts_ns: ts_sec * 1_000_000_000 + ts_sub * subsec_scale,
            orig_len,
            data,
        });
    }
    Ok(PcapFile { packets })
}

/// Per-interface timestamp resolution: nanoseconds per tick for
/// power-of-ten resolutions, or the power-of-two divisor form.
#[derive(Clone, Copy)]
enum TsResol {
    /// One tick is `ns` nanoseconds (resolutions coarser than 1 ns).
    NsPerTick(u64),
    /// Ticks are `1 / 2^shift` seconds.
    Pow2(u32),
}

impl TsResol {
    fn to_ns(self, ticks: u64) -> u64 {
        match self {
            TsResol::NsPerTick(ns) => ticks.saturating_mul(ns),
            TsResol::Pow2(shift) => {
                ((ticks as u128 * 1_000_000_000u128) >> shift).min(u64::MAX as u128) as u64
            }
        }
    }
}

fn tsresol_from_raw(raw: u8) -> PcapResult<TsResol> {
    if raw & 0x80 != 0 {
        let shift = (raw & 0x7F) as u32;
        if shift > 30 {
            return Err(PcapError::UnsupportedTsResol { raw });
        }
        return Ok(TsResol::Pow2(shift));
    }
    if raw > 9 {
        return Err(PcapError::UnsupportedTsResol { raw });
    }
    Ok(TsResol::NsPerTick(10u64.pow(9 - raw as u32)))
}

fn parse_pcapng(bytes: &[u8]) -> PcapResult<PcapFile> {
    let mut r = Reader::new(bytes);
    let mut packets = Vec::new();
    // Interfaces of the current section: (linktype, tsresol, snaplen).
    let mut interfaces: Vec<(u32, TsResol, u32)> = Vec::new();
    while r.remaining() > 0 {
        let block_start = r.pos;
        let block_type = r.u32("block type")?;
        if block_type == PCAPNG_SHB {
            // The byte-order magic governs this whole section, including
            // the SHB's own length fields. It sits after the total length:
            // type (4) | total_len (4) | BOM (4) | version | ...
            r.need("section header", 8)?;
            let bom = read_u32_at(r.buf, block_start + 8, false);
            r.big_endian = match bom {
                PCAPNG_BOM => false,
                m if m.swap_bytes() == PCAPNG_BOM => true,
                other => return Err(PcapError::BadMagic { value: other }),
            };
            interfaces.clear();
            // Now the total length reads correctly in section endianness.
            let total_len = r.u32("block length")?;
            check_block(&r, block_type, block_start, total_len)?;
            let trailer = read_u32_at(r.buf, block_start + total_len as usize - 4, r.big_endian);
            if trailer != total_len {
                return Err(PcapError::BadBlockLength {
                    block: block_type,
                    len: trailer,
                });
            }
            r.pos = block_start + total_len as usize;
            continue;
        }
        let total_len = r.u32("block length")?;
        let body = check_block(&r, block_type, block_start, total_len)?;
        let body_end = block_start + 8 + body;
        match block_type {
            // Interface Description Block.
            0x0000_0001 => {
                let linktype = r.u16("idb linktype")? as u32;
                let _reserved = r.u16("idb reserved")?;
                let snaplen = r.u32("idb snaplen")?;
                if linktype != LINKTYPE_ETHERNET {
                    return Err(PcapError::UnsupportedLinkType { value: linktype });
                }
                let mut resol = TsResol::NsPerTick(1_000); // default 1e-6
                let mut pos = r.pos;
                // Walk options: (code u16, len u16, value padded to 4).
                while pos + 4 <= body_end {
                    let code = read_u16_at(r.buf, pos, r.big_endian);
                    let olen = read_u16_at(r.buf, pos + 2, r.big_endian) as usize;
                    if code == 0 {
                        break;
                    }
                    if pos + 4 + olen > body_end {
                        return Err(PcapError::BadBlockLength {
                            block: block_type,
                            len: total_len,
                        });
                    }
                    if code == 9 && olen == 1 {
                        resol = tsresol_from_raw(r.buf[pos + 4])?;
                    }
                    pos += 4 + olen.div_ceil(4) * 4;
                }
                interfaces.push((linktype, resol, snaplen));
            }
            // Enhanced Packet Block.
            0x0000_0006 => {
                let iface = r.u32("epb interface")?;
                let ts_high = r.u32("epb ts high")? as u64;
                let ts_low = r.u32("epb ts low")? as u64;
                let cap_len = r.u32("epb captured len")?;
                let orig_len = r.u32("epb original len")?;
                let Some(&(_, resol, _)) = interfaces.get(iface as usize) else {
                    return Err(PcapError::UnknownInterface { id: iface });
                };
                if cap_len > MAX_FRAME_LEN {
                    return Err(PcapError::OversizedRecord { len: cap_len });
                }
                if r.pos + cap_len as usize > body_end {
                    return Err(PcapError::BadBlockLength {
                        block: block_type,
                        len: total_len,
                    });
                }
                let data = r.take("epb data", cap_len as usize)?.to_vec();
                packets.push(PcapPacket {
                    ts_ns: resol.to_ns((ts_high << 32) | ts_low),
                    orig_len,
                    data,
                });
            }
            // Simple Packet Block: original length + frame snapped to the
            // first interface's snap length; no timestamp (0 ns).
            0x0000_0003 => {
                let orig_len = r.u32("spb original len")?;
                let Some(&(_, _, snaplen)) = interfaces.first() else {
                    return Err(PcapError::UnknownInterface { id: 0 });
                };
                let cap = if snaplen == 0 {
                    orig_len
                } else {
                    orig_len.min(snaplen)
                };
                if cap > MAX_FRAME_LEN {
                    return Err(PcapError::OversizedRecord { len: cap });
                }
                if r.pos + cap as usize > body_end {
                    return Err(PcapError::BadBlockLength {
                        block: block_type,
                        len: total_len,
                    });
                }
                let data = r.take("spb data", cap as usize)?.to_vec();
                packets.push(PcapPacket {
                    ts_ns: 0,
                    orig_len,
                    data,
                });
            }
            // Any other block type (name resolution, statistics, custom):
            // skipped, as the pcapng spec requires of unknown blocks.
            _ => {}
        }
        // Verify the trailing duplicate length, then jump past it.
        let trailer = read_u32_at(r.buf, block_start + total_len as usize - 4, r.big_endian);
        if trailer != total_len {
            return Err(PcapError::BadBlockLength {
                block: block_type,
                len: trailer,
            });
        }
        r.pos = block_start + total_len as usize;
    }
    Ok(PcapFile { packets })
}

/// Validates a pcapng block's total length against the buffer; returns
/// the body length (total minus the 12 bytes of type + two length words).
fn check_block(r: &Reader<'_>, block_type: u32, start: usize, total_len: u32) -> PcapResult<usize> {
    let bad = || PcapError::BadBlockLength {
        block: block_type,
        len: total_len,
    };
    if total_len < 12 || !total_len.is_multiple_of(4) {
        return Err(bad());
    }
    let total = total_len as usize;
    if start + total > r.buf.len() {
        return Err(PcapError::Truncated {
            what: "pcapng block",
            needed: total,
            have: r.buf.len() - start,
        });
    }
    Ok(total - 12)
}

fn read_u16_at(buf: &[u8], at: usize, big: bool) -> u16 {
    let v = [buf[at], buf[at + 1]];
    if big {
        u16::from_be_bytes(v)
    } else {
        u16::from_le_bytes(v)
    }
}

fn read_u32_at(buf: &[u8], at: usize, big: bool) -> u32 {
    let v = [buf[at], buf[at + 1], buf[at + 2], buf[at + 3]];
    if big {
        u32::from_be_bytes(v)
    } else {
        u32::from_le_bytes(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PcapFile {
        PcapFile {
            packets: vec![
                PcapPacket::full(0, vec![0xAA; 60]),
                PcapPacket::full(1_500, vec![0x55; 64]),
                PcapPacket {
                    ts_ns: 2_000_000_123,
                    orig_len: 1500,
                    data: vec![1, 2, 3, 4],
                },
            ],
        }
    }

    #[test]
    fn canonical_round_trip_is_identity_both_ways() {
        let f = sample();
        let bytes = f.to_pcap_bytes();
        let parsed = PcapFile::parse(&bytes).expect("parse");
        assert_eq!(parsed, f);
        assert_eq!(parsed.to_pcap_bytes(), bytes);
    }

    #[test]
    fn classic_big_endian_microseconds_parse() {
        // Hand-built big-endian µs-resolution file with one 6-byte frame.
        let mut b = Vec::new();
        b.extend_from_slice(&MAGIC_US.to_be_bytes());
        b.extend_from_slice(&2u16.to_be_bytes());
        b.extend_from_slice(&4u16.to_be_bytes());
        b.extend_from_slice(&0u32.to_be_bytes());
        b.extend_from_slice(&0u32.to_be_bytes());
        b.extend_from_slice(&65535u32.to_be_bytes());
        b.extend_from_slice(&1u32.to_be_bytes());
        b.extend_from_slice(&3u32.to_be_bytes()); // ts_sec
        b.extend_from_slice(&7u32.to_be_bytes()); // ts_usec
        b.extend_from_slice(&6u32.to_be_bytes()); // incl
        b.extend_from_slice(&6u32.to_be_bytes()); // orig
        b.extend_from_slice(&[9u8; 6]);
        let f = PcapFile::parse(&b).expect("parse");
        assert_eq!(f.packets.len(), 1);
        assert_eq!(f.packets[0].ts_ns, 3_000_007_000);
        assert_eq!(f.packets[0].data, vec![9u8; 6]);
    }

    #[test]
    fn truncated_and_corrupt_are_typed_errors() {
        let bytes = sample().to_pcap_bytes();
        assert!(matches!(
            PcapFile::parse(&bytes[..3]),
            Err(PcapError::Truncated { .. })
        ));
        assert!(matches!(
            PcapFile::parse(&bytes[..PCAP_GLOBAL_LEN + 7]),
            Err(PcapError::Truncated { .. })
        ));
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            PcapFile::parse(&bad),
            Err(PcapError::BadMagic { .. })
        ));
        let mut bad = bytes.clone();
        bad[20] = 42; // linktype -> not Ethernet
        assert!(matches!(
            PcapFile::parse(&bad),
            Err(PcapError::UnsupportedLinkType { value: 42 })
        ));
        let mut bad = bytes;
        bad[4] = 9; // version major
        assert!(matches!(
            PcapFile::parse(&bad),
            Err(PcapError::UnsupportedVersion { major: 9, .. })
        ));
    }

    #[test]
    fn oversized_record_is_rejected_not_allocated() {
        let mut b = sample().to_pcap_bytes();
        // First record's incl_len field sits at global header + 8.
        b[PCAP_GLOBAL_LEN + 8..PCAP_GLOBAL_LEN + 12]
            .copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(
            PcapFile::parse(&b),
            Err(PcapError::OversizedRecord { .. })
        ));
    }

    fn png_block(big: bool, ty: u32, body: &[u8]) -> Vec<u8> {
        let total = (12 + body.len().div_ceil(4) * 4) as u32;
        let w32 = |v: u32| {
            if big {
                v.to_be_bytes()
            } else {
                v.to_le_bytes()
            }
        };
        let mut b = Vec::new();
        b.extend_from_slice(&w32(ty));
        b.extend_from_slice(&w32(total));
        b.extend_from_slice(body);
        b.resize(8 + body.len().div_ceil(4) * 4, 0);
        b.extend_from_slice(&w32(total));
        b
    }

    fn pcapng_sample(big: bool) -> Vec<u8> {
        let w16 = |v: u16| {
            if big {
                v.to_be_bytes()
            } else {
                v.to_le_bytes()
            }
        };
        let w32 = |v: u32| {
            if big {
                v.to_be_bytes()
            } else {
                v.to_le_bytes()
            }
        };
        let mut out = Vec::new();
        // SHB body: BOM, version 1.0, section length -1.
        let mut shb = Vec::new();
        shb.extend_from_slice(&w32(PCAPNG_BOM));
        shb.extend_from_slice(&w16(1));
        shb.extend_from_slice(&w16(0));
        shb.extend_from_slice(&w32(0xFFFF_FFFF));
        shb.extend_from_slice(&w32(0xFFFF_FFFF));
        out.extend_from_slice(&png_block(big, PCAPNG_SHB, &shb));
        // IDB: Ethernet, snaplen 0, if_tsresol = 9 (nanoseconds).
        let mut idb = Vec::new();
        idb.extend_from_slice(&w16(1));
        idb.extend_from_slice(&w16(0));
        idb.extend_from_slice(&w32(0));
        idb.extend_from_slice(&w16(9)); // option code if_tsresol
        idb.extend_from_slice(&w16(1)); // option len
        idb.push(9); // 1e-9
        idb.extend_from_slice(&[0u8; 3]); // pad
        idb.extend_from_slice(&w16(0)); // opt_endofopt
        idb.extend_from_slice(&w16(0));
        out.extend_from_slice(&png_block(big, 1, &idb));
        // EPB: iface 0, ts = 5_000_000_001 ns, 5-byte frame.
        let ts: u64 = 5_000_000_001;
        let mut epb = Vec::new();
        epb.extend_from_slice(&w32(0));
        epb.extend_from_slice(&w32((ts >> 32) as u32));
        epb.extend_from_slice(&w32(ts as u32));
        epb.extend_from_slice(&w32(5));
        epb.extend_from_slice(&w32(5));
        epb.extend_from_slice(&[7, 8, 9, 10, 11]);
        out.extend_from_slice(&png_block(big, 6, &epb));
        // An unknown block type that must be skipped.
        out.extend_from_slice(&png_block(big, 0x0BAD_F00D, &[1, 2, 3, 4]));
        // SPB: 3 bytes.
        let mut spb = Vec::new();
        spb.extend_from_slice(&w32(3));
        spb.extend_from_slice(&[21, 22, 23]);
        out.extend_from_slice(&png_block(big, 3, &spb));
        out
    }

    #[test]
    fn pcapng_both_endiannesses_parse() {
        for big in [false, true] {
            let f = PcapFile::parse(&pcapng_sample(big)).expect("parse");
            assert_eq!(f.packets.len(), 2, "big_endian={big}");
            assert_eq!(f.packets[0].ts_ns, 5_000_000_001);
            assert_eq!(f.packets[0].data, vec![7, 8, 9, 10, 11]);
            assert_eq!(f.packets[1].orig_len, 3);
            assert_eq!(f.packets[1].ts_ns, 0);
        }
    }

    #[test]
    fn pcapng_normalizes_to_canonical_classic() {
        let f = PcapFile::parse(&pcapng_sample(false)).expect("parse");
        let again = PcapFile::parse(&f.to_pcap_bytes()).expect("reparse");
        assert_eq!(f, again);
    }

    #[test]
    fn pcapng_bad_trailer_rejected() {
        let mut b = pcapng_sample(false);
        let n = b.len();
        b[n - 4..].copy_from_slice(&999u32.to_le_bytes());
        assert!(matches!(
            PcapFile::parse(&b),
            Err(PcapError::BadBlockLength { .. })
        ));
    }

    #[test]
    fn pcapng_packet_without_interface_rejected() {
        let mut out = Vec::new();
        let mut shb = Vec::new();
        shb.extend_from_slice(&PCAPNG_BOM.to_le_bytes());
        shb.extend_from_slice(&1u16.to_le_bytes());
        shb.extend_from_slice(&0u16.to_le_bytes());
        shb.extend_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        shb.extend_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        out.extend_from_slice(&png_block(false, PCAPNG_SHB, &shb));
        let mut epb = Vec::new();
        for _ in 0..5 {
            epb.extend_from_slice(&0u32.to_le_bytes());
        }
        out.extend_from_slice(&png_block(false, 6, &epb));
        assert!(matches!(
            PcapFile::parse(&out),
            Err(PcapError::UnknownInterface { id: 0 })
        ));
    }

    #[test]
    fn helpers_report_span_and_bytes() {
        let f = sample();
        assert_eq!(f.duration_ns(), 2_000_000_123);
        assert_eq!(
            f.packets.iter().map(|p| p.data.len()).sum::<usize>(),
            60 + 64 + 4
        );
        assert_eq!(PcapFile::default().duration_ns(), 0);
    }

    #[test]
    fn tsresol_variants() {
        assert!(matches!(tsresol_from_raw(6), Ok(TsResol::NsPerTick(1_000))));
        assert!(matches!(tsresol_from_raw(9), Ok(TsResol::NsPerTick(1))));
        // 2^-10 ticks: 1024 ticks = 1 s.
        match tsresol_from_raw(0x8A).expect("pow2") {
            TsResol::Pow2(10) => {}
            other => panic!("wrong resol {:?}", matches!(other, TsResol::Pow2(_))),
        }
        assert!(tsresol_from_raw(0x8A).expect("ok").to_ns(1024) == 1_000_000_000);
        assert!(matches!(
            tsresol_from_raw(10),
            Err(PcapError::UnsupportedTsResol { raw: 10 })
        ));
        assert!(matches!(
            tsresol_from_raw(0xFF),
            Err(PcapError::UnsupportedTsResol { .. })
        ));
    }
}
