//! The owned packet buffer that flows through every model.

use core::fmt;
use std::sync::Arc;

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

/// An owned, mutable packet: the frame bytes plus a simulation identity.
///
/// The frame is reference-counted with copy-on-write semantics: cloning a
/// packet shares the payload (an `Arc` bump, no byte copy), which makes
/// fan-out — flooding, mirroring, replaying a generator template — free.
/// The first mutation of a *shared* frame copies it; a uniquely-held
/// frame is rewritten in place, so the common pipeline pattern
/// (one owner, in-place `patch_*` header rewrites) never copies at all.
/// Observable semantics are value semantics throughout: no clone ever
/// sees another clone's writes.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Simulation-unique identity, for tracing.
    pub uid: PacketUid,
    data: Arc<Vec<u8>>,
    /// Simulated instant (ns) the injecting host sent this packet, or
    /// [`UNSTAMPED`] (see [`Packet::stamp_sent`]). A bare `u64` with a
    /// sentinel rather than an `Option` so the packet stays 32 bytes.
    sent_ns: u64,
    /// Count of mutable-buffer accesses (see [`Packet::mutation_count`]).
    muts: u32,
}

/// `sent_ns` of a packet nobody stamped: `u64::MAX` ns is the simulator's
/// "never" instant, so no real send time collides with it.
const UNSTAMPED: u64 = u64::MAX;

impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        // Value semantics: identity + bytes. The mutation counter is an
        // optimization aid and the send stamp is measurement metadata;
        // neither is part of the packet's value.
        self.uid == other.uid && self.data == other.data
    }
}

impl Eq for Packet {}

impl Packet {
    /// Wraps raw frame bytes.
    pub fn new(uid: PacketUid, bytes: Vec<u8>) -> Self {
        Packet {
            uid,
            data: Arc::new(bytes),
            sent_ns: UNSTAMPED,
            muts: 0,
        }
    }

    /// An anonymous packet (uid 0) — convenient in unit tests.
    pub fn anonymous(bytes: Vec<u8>) -> Self {
        Packet::new(PacketUid(0), bytes)
    }

    /// Wraps an already-shared payload without copying (zero-copy
    /// injection of a template frame under a fresh identity).
    pub fn from_shared(uid: PacketUid, bytes: Arc<Vec<u8>>) -> Self {
        Packet {
            uid,
            data: bytes,
            sent_ns: UNSTAMPED,
            muts: 0,
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

    /// Number of mutable-buffer accesses this packet has seen (writes
    /// through [`Packet::bytes_mut`], [`Packet::extend`],
    /// [`Packet::truncate`] or [`Packet::trim_to_network_header`]).
    ///
    /// An unchanged count across a region of code proves the frame bytes
    /// were not touched in it, which lets pipelines reuse an earlier parse
    /// of this packet instead of re-parsing (parsing is pure, so equal
    /// bytes parse equally). Monotonic; never reset.
    pub fn mutation_count(&self) -> u32 {
        self.muts
    }

    /// A handle to the shared payload (cheap; bumps the refcount).
    pub fn share_payload(&self) -> Arc<Vec<u8>> {
        Arc::clone(&self.data)
    }

    /// True while this packet is the payload's only owner, i.e. mutation
    /// will happen in place rather than copy. Diagnostic/test hook.
    pub fn payload_is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    /// Unwraps into the frame bytes, copying only if the payload is still
    /// shared with another packet.
    pub fn into_frame(self) -> Vec<u8> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a zero-length buffer (never valid on a wire, but carrier
    /// frames in tests may start empty before headers are pushed).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the frame.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable view of the frame, for in-place header rewrites.
    /// Copy-on-write: copies the frame first if it is currently shared.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.muts += 1;
        let vec: &mut Vec<u8> = Arc::make_mut(&mut self.data);
        vec
    }

    /// Extends the frame with `more` bytes (e.g. appending a telemetry
    /// record at the end of the payload).
    pub fn extend(&mut self, more: &[u8]) {
        self.muts += 1;
        Arc::make_mut(&mut self.data).extend_from_slice(more);
    }

    /// Truncates the frame to `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.muts += 1;
        Arc::make_mut(&mut self.data).truncate(len);
    }

    /// Trims the frame to its network header in place (NDP-style "cut
    /// payload" on buffer overflow). Returns `false`, leaving the frame
    /// untouched, when it is not a parseable IPv4 packet. See
    /// [`crate::Ipv4Header::trim_to_network_header`].
    pub fn trim_to_network_header(&mut self) -> bool {
        self.muts += 1;
        crate::Ipv4Header::trim_to_network_header(Arc::make_mut(&mut self.data))
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
        let template = Arc::new(vec![9u8; 64]);
        let p = Packet::from_shared(PacketUid(1), Arc::clone(&template));
        let q = Packet::from_shared(PacketUid(2), Arc::clone(&template));
        assert!(std::ptr::eq(p.bytes().as_ptr(), q.bytes().as_ptr()));
        assert_eq!(p.len(), 64);
    }

    #[test]
    fn into_frame_avoids_copy_when_unique() {
        let p = Packet::anonymous(vec![1, 2, 3]);
        let ptr = p.bytes().as_ptr();
        let frame = p.into_frame();
        assert!(std::ptr::eq(ptr, frame.as_ptr()));

        let p = Packet::anonymous(vec![4, 5]);
        let q = p.clone();
        assert_eq!(p.into_frame(), vec![4, 5]);
        assert_eq!(q.into_frame(), vec![4, 5]);
    }

    #[test]
    fn constructors_leave_the_send_stamp_unset() {
        // Switch-generated packets are built through these, so they
        // record no host latency.
        assert_eq!(Packet::new(PacketUid(1), vec![1]).sent_at(), None);
        assert_eq!(Packet::anonymous(vec![1]).sent_at(), None);
        assert_eq!(
            Packet::from_shared(PacketUid(2), Arc::new(vec![1])).sent_at(),
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
        // The TM's queue item and netsim's delivery event embed a Packet.
        assert!(std::mem::size_of::<Packet>() <= 32);
    }
}
