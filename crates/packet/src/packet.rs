//! The owned packet buffer that flows through every model.
//!
//! A [`Packet`] is an identity, a send stamp and a handle to a shared
//! *frame record*: the frame bytes plus a lazily filled memo of
//! [`parse_packet`] over them, read through [`Packet::parsed`]. Parsing is
//! pure and every write to a frame funnels through four methods
//! ([`Packet::bytes_mut`], [`Packet::extend`], [`Packet::truncate`],
//! [`Packet::trim_to_network_header`]), each of which empties the memo, so
//! the parse is a property of the frame rather than of one switch pass:
//! PISA's "parse once, carry the parsed representation" extended across
//! hops. Ingress and egress of every switch on the path, and the receiving
//! host, share one parse of bytes nobody rewrote.
//!
//! The memo is boxed and filled on first use — `OnceLock<Box<…>>`, 16
//! bytes in the record — because the record's allocation is on the
//! sharded engine's cross-thread free path: with the 120-byte result
//! inline the record is a 176-byte chunk, past glibc's fastbin limit, and
//! freeing it on another thread takes the owning arena's lock
//! (DESIGN.md §7 has the numbers). Boxed, both allocations stay small,
//! and a frame nobody parses pays for no memo at all.

use crate::error::ParseResult;
use crate::parse::{parse_packet, ParsedPacket};
use core::fmt;
use std::sync::{Arc, OnceLock};

/// A unique per-simulation packet identifier.
///
/// Assigned by whoever injects the packet (traffic generators, the packet
/// generator block, the event merger); uniqueness is the injector's
/// responsibility. Uid 0 is reserved for "synthetic/anonymous".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PacketUid(pub u64);

impl fmt::Display for PacketUid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt#{}", self.0)
    }
}

/// What a [`SharedFrame`] points at: the bytes and the memo of their
/// parse. Invariant: a filled memo equals `parse_packet(&bytes)`.
struct FrameRecord {
    bytes: Vec<u8>,
    parse: OnceLock<Box<ParseResult<ParsedPacket>>>,
}

impl Clone for FrameRecord {
    /// The copy-on-write path ([`SharedFrame::make_mut`]): the copy is
    /// about to be written, so it starts with an empty memo rather than a
    /// boxed copy that the write would free at once.
    fn clone(&self) -> Self {
        FrameRecord {
            bytes: self.bytes.clone(),
            parse: OnceLock::new(),
        }
    }
}

/// A cheaply clonable handle to immutable frame bytes and the memo of
/// their parse: what a template hands to each of its injections
/// ([`Packet::from_shared`]) so the template is parsed once for all of
/// them.
#[derive(Clone)]
pub struct SharedFrame(Arc<FrameRecord>);

impl SharedFrame {
    /// Wraps frame bytes (one allocation; the parse memo starts empty).
    pub fn new(bytes: Vec<u8>) -> Self {
        SharedFrame(Arc::new(FrameRecord {
            bytes,
            parse: OnceLock::new(),
        }))
    }

    /// The frame bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.0.bytes
    }

    /// The record, uniquely owned (copied first if shared) and with its
    /// memo emptied: every write to a frame goes through here.
    fn make_mut(&mut self) -> &mut Vec<u8> {
        let rec = Arc::make_mut(&mut self.0);
        rec.parse.take();
        &mut rec.bytes
    }
}

impl From<Vec<u8>> for SharedFrame {
    fn from(bytes: Vec<u8>) -> Self {
        SharedFrame::new(bytes)
    }
}

impl fmt::Debug for SharedFrame {
    /// The bytes only: the memo is derived state.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.bytes().fmt(f)
    }
}

/// An owned, mutable packet: the frame bytes plus a simulation identity.
///
/// The frame is reference-counted with copy-on-write semantics: cloning a
/// packet shares the payload (an `Arc` bump, no byte copy), which makes
/// fan-out — flooding, mirroring, replaying a generator template — free.
/// The first mutation of a *shared* frame copies it; a uniquely-held
/// frame is rewritten in place, so the common pipeline pattern
/// (one owner, in-place `patch_*` header rewrites) never copies at all.
/// Observable semantics are value semantics throughout: no clone ever
/// sees another clone's writes, nor a parse of them.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Simulation-unique identity, for tracing.
    pub uid: PacketUid,
    data: SharedFrame,
    /// Simulated instant (ns) the injecting host sent this packet, or
    /// [`UNSTAMPED`] (see [`Packet::stamp_sent`]). A bare `u64` with a
    /// sentinel rather than an `Option` so the packet stays 24 bytes.
    sent_ns: u64,
}

/// `sent_ns` of a packet nobody stamped: `u64::MAX` ns is the simulator's
/// "never" instant, so no real send time collides with it.
const UNSTAMPED: u64 = u64::MAX;

impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        // Value semantics: identity + bytes. The parse memo is derived
        // from the bytes and the send stamp is measurement metadata;
        // neither is part of the packet's value.
        self.uid == other.uid && self.bytes() == other.bytes()
    }
}

impl Eq for Packet {}

impl Packet {
    /// Wraps raw frame bytes.
    pub fn new(uid: PacketUid, bytes: Vec<u8>) -> Self {
        Packet::from_shared(uid, SharedFrame::new(bytes))
    }

    /// An anonymous packet (uid 0) — convenient in unit tests.
    pub fn anonymous(bytes: Vec<u8>) -> Self {
        Packet::new(PacketUid(0), bytes)
    }

    /// Wraps an already-shared frame without copying (zero-copy
    /// injection of a template frame under a fresh identity); a parse
    /// any holder of the frame already paid for comes with it.
    pub fn from_shared(uid: PacketUid, frame: SharedFrame) -> Self {
        Packet {
            uid,
            data: frame,
            sent_ns: UNSTAMPED,
        }
    }

    /// Records the simulated instant (ns) at which a host put this packet
    /// on the network. The stamp rides with the packet — through clones
    /// (a fault-model duplicate keeps its original's stamp), rewrites and
    /// trims — so the receiving host can compute end-to-end latency
    /// without any side table keyed by uid.
    pub fn stamp_sent(&mut self, ns: u64) {
        debug_assert_ne!(ns, UNSTAMPED, "u64::MAX ns is the unstamped sentinel");
        self.sent_ns = ns;
    }

    /// The instant (ns) recorded by [`Packet::stamp_sent`]; `None` for a
    /// packet no host sent (built in a test, generated inside a switch).
    pub fn sent_at(&self) -> Option<u64> {
        (self.sent_ns != UNSTAMPED).then_some(self.sent_ns)
    }

    /// [`parse_packet`] of the current bytes — the one parse path of both
    /// switch models and the host. The first call on a frame parses it
    /// and leaves the result (success or error) with the frame, where
    /// every clone and every later hop finds it; any write to the bytes
    /// discards it.
    pub fn parsed(&self) -> ParseResult<&ParsedPacket> {
        let rec = &*self.data.0;
        let memo: &ParseResult<ParsedPacket> =
            rec.parse.get_or_init(|| Box::new(parse_packet(&rec.bytes)));
        memo.as_ref().map_err(|e| *e)
    }

    /// True while the frame carries a parse, i.e. [`Packet::parsed`]
    /// would not parse. Diagnostic/test hook.
    pub fn parse_is_memoised(&self) -> bool {
        self.data.0.parse.get().is_some()
    }

    /// True while this packet is the payload's only owner, i.e. mutation
    /// will happen in place rather than copy. Diagnostic/test hook.
    pub fn payload_is_unique(&self) -> bool {
        Arc::strong_count(&self.data.0) == 1
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// True for a zero-length buffer (never valid on a wire, but carrier
    /// frames in tests may start empty before headers are pushed).
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// Immutable view of the frame.
    pub fn bytes(&self) -> &[u8] {
        self.data.bytes()
    }

    /// Mutable view of the frame, for in-place header rewrites.
    /// Copy-on-write: copies the frame first if it is currently shared.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.data.make_mut()
    }

    /// Extends the frame with `more` bytes (e.g. appending a telemetry
    /// record at the end of the payload).
    pub fn extend(&mut self, more: &[u8]) {
        self.data.make_mut().extend_from_slice(more);
    }

    /// Truncates the frame to `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.data.make_mut().truncate(len);
    }

    /// Trims the frame to its network header in place (NDP-style "cut
    /// payload" on buffer overflow). Returns `false`, leaving the frame
    /// untouched, when it is not a parseable IPv4 packet. See
    /// [`crate::Ipv4Header::trim_to_network_header`].
    pub fn trim_to_network_header(&mut self) -> bool {
        crate::Ipv4Header::trim_to_network_header(self.data.make_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let mut p = Packet::new(PacketUid(7), vec![1, 2, 3]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.bytes(), &[1, 2, 3]);
        p.bytes_mut()[0] = 9;
        assert_eq!(p.bytes(), &[9, 2, 3]);
        assert_eq!(p.uid.to_string(), "pkt#7");
    }

    #[test]
    fn extend_truncate() {
        let mut p = Packet::anonymous(vec![1]);
        p.extend(&[2, 3]);
        assert_eq!(p.bytes(), &[1, 2, 3]);
        p.truncate(2);
        assert_eq!(p.bytes(), &[1, 2]);
    }

    #[test]
    fn clone_is_deep() {
        // Value semantics: a clone never observes the original's writes
        // (physically copy-on-write, observably a deep copy).
        let mut a = Packet::anonymous(vec![1, 2]);
        let b = a.clone();
        a.bytes_mut()[0] = 5;
        assert_eq!(b.bytes(), &[1, 2]);
        assert_eq!(a.bytes(), &[5, 2]);
    }

    #[test]
    fn clone_shares_payload_until_written() {
        let a = Packet::anonymous(vec![1, 2, 3]);
        let b = a.clone();
        assert!(!a.payload_is_unique());
        assert!(std::ptr::eq(a.bytes().as_ptr(), b.bytes().as_ptr()));
        drop(b);
        assert!(a.payload_is_unique());
    }

    #[test]
    fn from_shared_is_zero_copy() {
        let template = SharedFrame::new(vec![9u8; 64]);
        let p = Packet::from_shared(PacketUid(1), template.clone());
        let q = Packet::from_shared(PacketUid(2), template.clone());
        assert!(std::ptr::eq(p.bytes().as_ptr(), q.bytes().as_ptr()));
        assert_eq!(p.len(), 64);
    }

    #[test]
    fn constructors_leave_the_send_stamp_unset() {
        // Switch-generated packets are built through these, so they
        // record no host latency.
        assert_eq!(Packet::new(PacketUid(1), vec![1]).sent_at(), None);
        assert_eq!(Packet::anonymous(vec![1]).sent_at(), None);
        assert_eq!(
            Packet::from_shared(PacketUid(2), SharedFrame::new(vec![1])).sent_at(),
            None
        );
    }

    #[test]
    fn send_stamp_rides_through_clone_and_rewrites() {
        let frame = crate::PacketBuilder::udp(
            "10.0.0.1".parse().expect("addr"),
            "10.0.0.2".parse().expect("addr"),
            5,
            6,
            b"payload",
        )
        .pad_to(128)
        .build();
        let mut p = Packet::new(PacketUid(3), frame);
        p.stamp_sent(0);
        assert_eq!(p.sent_at(), Some(0), "t = 0 is a real stamp");
        p.stamp_sent(1_500);
        let copy = p.clone();
        assert_eq!(copy.sent_at(), Some(1_500), "a duplicate keeps the stamp");
        // Copy-on-write (the payload is shared with `copy`), then an
        // in-place write, an NDP trim and a truncate.
        p.bytes_mut()[0] ^= 0xFF;
        p.bytes_mut()[0] ^= 0xFF;
        assert_eq!(p.sent_at(), Some(1_500));
        assert!(p.trim_to_network_header());
        assert_eq!(p.sent_at(), Some(1_500));
        p.truncate(14);
        assert_eq!(p.sent_at(), Some(1_500));
        assert_eq!(copy.sent_at(), Some(1_500));
    }

    #[test]
    fn send_stamp_is_not_part_of_the_value() {
        let a = Packet::new(PacketUid(4), vec![1, 2]);
        let mut b = a.clone();
        b.stamp_sent(77);
        assert_eq!(a, b);
    }

    #[test]
    fn packet_stays_four_words() {
        // The TM's queue item and netsim's delivery event embed a Packet:
        // uid, frame handle, send stamp — the parse memo lives with the
        // frame, not here.
        assert!(std::mem::size_of::<Packet>() <= 24);
    }

    fn udp_frame() -> Vec<u8> {
        crate::PacketBuilder::udp(
            "10.0.0.1".parse().expect("addr"),
            "10.0.0.2".parse().expect("addr"),
            5,
            6,
            b"payload",
        )
        .build()
    }

    #[test]
    fn parse_is_lazy_shared_by_clones_and_dropped_by_writes() {
        let mut p = Packet::anonymous(udp_frame());
        assert!(!p.parse_is_memoised(), "nothing parsed until asked");
        let ttl = p.parsed().expect("parses").ipv4.expect("ip").ttl;
        assert!(p.parse_is_memoised());
        let q = p.clone();
        assert!(q.parse_is_memoised(), "a clone shares the memo");

        // Copy-on-write: the writer's new record starts empty, the
        // sibling keeps the parse of the bytes it still holds.
        p.bytes_mut()[14 + 8] = ttl - 1;
        assert!(!p.parse_is_memoised());
        assert!(q.parse_is_memoised());
        assert!(p.parsed().is_err(), "stale header checksum is detected");
        assert_eq!(q.parsed().expect("sibling").ipv4.expect("ip").ttl, ttl);

        // In-place writes (unique owner) drop the memo too.
        drop(q);
        for write in [
            (|p: &mut Packet| p.extend(&[0])) as fn(&mut Packet),
            |p| p.truncate(20),
            |p| {
                p.trim_to_network_header();
            },
        ] {
            let _ = p.parsed();
            assert!(p.parse_is_memoised());
            write(&mut p);
            assert!(!p.parse_is_memoised());
        }
    }

    #[test]
    fn template_is_parsed_once_for_all_its_injections() {
        let template = SharedFrame::new(udp_frame());
        let first = Packet::from_shared(PacketUid(1), template.clone());
        assert!(!first.parse_is_memoised());
        first.parsed().expect("parses");
        let later = Packet::from_shared(PacketUid(2), template);
        assert!(later.parse_is_memoised());
        assert!(std::ptr::eq(later.bytes().as_ptr(), first.bytes().as_ptr()));
    }
}
