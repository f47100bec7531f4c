//! Flow identification and hashing.
//!
//! The microburst program in the paper computes a flow id by hashing the IP
//! source and destination addresses; other apps use the full 5-tuple. Both
//! hash through deterministic FNV-1a so register indices are reproducible
//! across runs and platforms.

use crate::ipv4::IpProto;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// A transport 5-tuple identifying a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst: Ipv4Addr,
    /// IP protocol.
    pub proto: u8,
    /// Source port (0 for port-less protocols).
    pub src_port: u16,
    /// Destination port (0 for port-less protocols).
    pub dst_port: u16,
}

/// One word — [`FlowKey::hash64`] — rather than the derive's seven
/// length-prefixed writes (29 bytes), so a map keyed by flows pays the
/// 13-byte FNV pass and whatever its hasher does with a `u64`.
impl std::hash::Hash for FlowKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash64());
    }
}

impl FlowKey {
    /// Builds a key from components.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, proto: IpProto, src_port: u16, dst_port: u16) -> Self {
        FlowKey {
            src,
            dst,
            proto: proto.to_u8(),
            src_port,
            dst_port,
        }
    }

    /// 64-bit FNV-1a over the full 5-tuple.
    pub fn hash64(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(&self.src.octets());
        h.write(&self.dst.octets());
        h.write(&[self.proto]);
        h.write(&self.src_port.to_be_bytes());
        h.write(&self.dst_port.to_be_bytes());
        h.finish()
    }

    /// The paper's microburst flow id: hash of (src ++ dst) only, reduced
    /// to a register index in `[0, buckets)`.
    pub fn ip_pair_index(&self, buckets: usize) -> usize {
        assert!(buckets > 0);
        let mut h = Fnv1a::new();
        h.write(&self.src.octets());
        h.write(&self.dst.octets());
        (h.finish() % buckets as u64) as usize
    }

    /// Full 5-tuple hash reduced to a register index in `[0, buckets)`.
    pub fn index(&self, buckets: usize) -> usize {
        assert!(buckets > 0);
        (self.hash64() % buckets as u64) as usize
    }

    /// ECMP-style path selection: an independent hash stream (different
    /// offset basis) so path choice does not correlate with register indices.
    pub fn ecmp_choice(&self, n_paths: usize) -> usize {
        assert!(n_paths > 0);
        let mut h = Fnv1a::with_basis(0x6c62_272e_07bb_0142);
        h.write(&self.hash64().to_be_bytes());
        (h.finish() % n_paths as u64) as usize
    }
}

/// Streaming 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    /// Starts from the standard offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::BASIS)
    }

    /// Starts from a custom offset basis (for independent hash streams,
    /// e.g. the rows of a count-min sketch).
    pub fn with_basis(basis: u64) -> Self {
        Fnv1a(basis)
    }

    /// Feeds bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Final hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// `Fnv1a` as a `HashMap` hasher: with [`FnvBuildHasher`] a map keyed by
/// simulated flows hashes deterministically and at half SipHash's
/// per-lookup cost (its keys are the simulation's own, not an
/// adversary's).
impl std::hash::Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        Fnv1a::write(self, bytes);
    }

    /// One FNV step over the whole word, not eight over its bytes: the
    /// word a [`FlowKey`] feeds is already an FNV hash.
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::PRIME);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The fixed [`std::hash::BuildHasher`] over [`Fnv1a`].
pub type FnvBuildHasher = std::hash::BuildHasherDefault<Fnv1a>;

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sp: u16, dp: u16) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProto::Tcp,
            sp,
            dp,
        )
    }

    #[test]
    fn fnv_known_vectors() {
        // Published FNV-1a test vectors.
        let fnv1a64 = |bytes: &[u8]| {
            let mut h = Fnv1a::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hash_is_stable_and_port_sensitive() {
        assert_eq!(key(1, 2).hash64(), key(1, 2).hash64());
        assert_ne!(key(1, 2).hash64(), key(1, 3).hash64());
    }

    #[test]
    fn ip_pair_index_ignores_ports() {
        assert_eq!(key(1, 2).ip_pair_index(64), key(9, 9).ip_pair_index(64));
    }

    #[test]
    fn indices_in_range() {
        for buckets in [1usize, 7, 64, 1024] {
            let i = key(5, 6).index(buckets);
            assert!(i < buckets);
            let i = key(5, 6).ip_pair_index(buckets);
            assert!(i < buckets);
            let i = key(5, 6).ecmp_choice(buckets);
            assert!(i < buckets);
        }
    }

    #[test]
    fn ecmp_differs_from_index_stream() {
        // Not a proof of independence, just a guard against accidentally
        // reusing the same stream for both.
        let spread: std::collections::HashSet<(usize, usize)> = (0..64u16)
            .map(|p| (key(p, 80).index(4), key(p, 80).ecmp_choice(4)))
            .collect();
        assert!(spread.len() > 8, "streams look identical: {spread:?}");
    }

    #[test]
    fn fnv_build_hasher_is_fixed_and_is_fnv() {
        use std::hash::{BuildHasher, Hasher};
        let mut h = FnvBuildHasher::default().build_hasher();
        Hasher::write(&mut h, b"foobar");
        assert_eq!(Hasher::finish(&h), 0x85944171f73967e8);
        let b = FnvBuildHasher::default();
        assert_eq!(b.hash_one(key(1, 2)), b.hash_one(key(1, 2)));
        assert_ne!(b.hash_one(key(1, 2)), b.hash_one(key(1, 3)));
        // A hash map indexes by the low bits and tags by the high ones:
        // 4096 flows that differ in one port spread over both as random
        // values would (about 2590 of 4096 slots, all 128 tags).
        let hashes: Vec<u64> = (0..4096).map(|p| b.hash_one(key(p, 80))).collect();
        let distinct = |f: fn(u64) -> u64| {
            let set: std::collections::HashSet<u64> = hashes.iter().map(|&h| f(h)).collect();
            set.len()
        };
        assert!(distinct(|h| h & 0xfff) > 2400);
        assert_eq!(distinct(|h| h >> 57), 128);
    }

    #[test]
    fn custom_basis_changes_hash() {
        let mut a = Fnv1a::new();
        let mut b = Fnv1a::with_basis(12345);
        a.write(b"x");
        b.write(b"x");
        assert_ne!(a.finish(), b.finish());
    }
}
