//! A per-flow action cache (OVS-megaflow style) for the switch fast path.
//!
//! Real software switches avoid running the full match-action pipeline on
//! every packet: the first packet of a flow executes the pipeline and the
//! resulting forwarding decision is memoized under the flow's 5-tuple
//! hash; subsequent packets of the same flow replay the decision without
//! touching a table. The cache is purely an acceleration structure — a
//! program must opt in by declaring its ingress decision a pure function
//! of the flow 5-tuple and its table state
//! ([`PisaProgram::flow_cacheable`](crate::PisaProgram::flow_cacheable)),
//! and the switch invalidates the whole cache on every control-plane
//! update, which is when table state may change.
//!
//! Eviction is wholesale: when the cache reaches capacity the next insert
//! clears it. That is deterministic (no LRU clock, no random victim) and
//! matches how megaflow caches behave under churn — correctness never
//! depends on what happens to be cached.

use crate::meta::{Destination, StdMeta};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Default maximum number of cached flows.
pub const DEFAULT_FLOW_CACHE_CAPACITY: usize = 8192;

/// Pass-through hasher for keys that are already uniformly distributed.
///
/// Cache keys are [`FlowKey::hash64`](edp_packet::FlowKey::hash64) values
/// — FNV-mixed over the full 5-tuple — so re-hashing them through SipHash
/// on every probe would only add latency to the hot path. Identity is
/// safe here because the distribution (and any adversarial collision
/// question) is fixed at key-derivation time, not lookup time.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are expected; fold anything else conservatively.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type IdentityBuild = BuildHasherDefault<IdentityHasher>;

/// The memoized effect of one ingress-pipeline execution.
///
/// Exactly the fields an ingress program writes into [`StdMeta`]: the
/// forwarding decision, the scheduling rank, and the event metadata it
/// stages for enqueue/dequeue handlers. Replaying these is equivalent to
/// re-running the pipeline *provided* the program kept its cacheability
/// promise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachedDecision {
    /// Forwarding decision (always `Destination::Port` — see
    /// [`FlowCache::admit`]).
    pub dest: Destination,
    /// Scheduling rank the program assigned.
    pub rank: u64,
    /// Event metadata the program staged.
    pub event_meta: [u64; 4],
}

impl CachedDecision {
    /// Captures the program-written fields from a completed ingress pass.
    pub fn capture(meta: &StdMeta) -> Self {
        CachedDecision {
            dest: meta.dest,
            rank: meta.rank,
            event_meta: meta.event_meta,
        }
    }

    /// Replays the decision onto a fresh packet's metadata.
    pub fn apply(&self, meta: &mut StdMeta) {
        meta.dest = self.dest;
        meta.rank = self.rank;
        meta.event_meta = self.event_meta;
    }
}

/// Hit/miss/churn counters for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowCacheStats {
    /// Lookups that replayed a cached decision.
    pub hits: u64,
    /// Lookups that fell through to the full pipeline.
    pub misses: u64,
    /// Decisions memoized.
    pub insertions: u64,
    /// Whole-cache invalidations (control-plane updates + capacity clears).
    pub invalidations: u64,
}

impl FlowCacheStats {
    /// Publishes the snapshot into the unified metrics registry under
    /// `scope` (conventionally the owning switch's `sw<N>`).
    pub fn publish(&self, reg: &mut edp_telemetry::Registry, scope: &str) {
        reg.set_counter("flow_cache_hits", scope, self.hits);
        reg.set_counter("flow_cache_misses", scope, self.misses);
        reg.set_counter("flow_cache_insertions", scope, self.insertions);
        reg.set_counter("flow_cache_invalidations", scope, self.invalidations);
    }
}

/// The cache proper: flow-hash → memoized decision.
#[derive(Debug, Clone)]
pub struct FlowCache {
    map: HashMap<u64, CachedDecision, IdentityBuild>,
    capacity: usize,
    stats: FlowCacheStats,
}

impl Default for FlowCache {
    fn default() -> Self {
        Self::new(DEFAULT_FLOW_CACHE_CAPACITY)
    }
}

impl FlowCache {
    /// Creates a cache bounded at `capacity` flows (min 1).
    pub fn new(capacity: usize) -> Self {
        FlowCache {
            map: HashMap::default(),
            capacity: capacity.max(1),
            stats: FlowCacheStats::default(),
        }
    }

    /// Looks up a flow hash, counting the hit or miss.
    pub fn lookup(&mut self, flow_hash: u64) -> Option<CachedDecision> {
        match self.map.get(&flow_hash) {
            Some(d) => {
                self.stats.hits += 1;
                Some(*d)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Memoizes a completed ingress pass, if the decision is cacheable.
    ///
    /// Only unicast `Destination::Port` decisions are admitted: floods and
    /// recirculations have per-copy / multi-pass behaviour that a single
    /// replay cannot reproduce, and drops are cheap enough to re-derive.
    pub fn admit(&mut self, flow_hash: u64, meta: &StdMeta) {
        if !matches!(meta.dest, Destination::Port(_)) {
            return;
        }
        if self.map.len() >= self.capacity && !self.map.contains_key(&flow_hash) {
            // Deterministic wholesale eviction.
            self.map.clear();
            self.stats.invalidations += 1;
        }
        self.map.insert(flow_hash, CachedDecision::capture(meta));
        self.stats.insertions += 1;
    }

    /// Drops every cached decision (control-plane update).
    pub fn invalidate_all(&mut self) {
        if !self.map.is_empty() {
            self.map.clear();
        }
        self.stats.invalidations += 1;
    }

    /// Number of currently cached flows.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FlowCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edp_evsim::SimTime;

    fn meta_to(port: u8) -> StdMeta {
        let mut m = StdMeta::ingress(0, SimTime::ZERO, 100);
        m.dest = Destination::Port(port);
        m.rank = 7;
        m.event_meta = [1, 2, 3, 4];
        m
    }

    #[test]
    fn memoizes_and_replays() {
        let mut c = FlowCache::new(16);
        assert!(c.lookup(42).is_none());
        c.admit(42, &meta_to(3));
        let d = c.lookup(42).expect("hit");
        let mut fresh = StdMeta::ingress(1, SimTime::from_nanos(5), 64);
        d.apply(&mut fresh);
        assert_eq!(fresh.dest, Destination::Port(3));
        assert_eq!(fresh.rank, 7);
        assert_eq!(fresh.event_meta, [1, 2, 3, 4]);
        // Input-side fields are untouched.
        assert_eq!(fresh.ingress_port, 1);
        assert_eq!(fresh.pkt_len, 64);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn non_unicast_decisions_not_admitted() {
        let mut c = FlowCache::new(16);
        for dest in [
            Destination::Flood,
            Destination::Recirculate,
            Destination::Drop,
            Destination::Unspecified,
        ] {
            let mut m = meta_to(0);
            m.dest = dest;
            c.admit(99, &m);
        }
        assert!(c.is_empty());
        assert_eq!(c.stats().insertions, 0);
    }

    #[test]
    fn invalidate_all_clears() {
        let mut c = FlowCache::new(16);
        c.admit(1, &meta_to(1));
        c.admit(2, &meta_to(2));
        assert_eq!(c.len(), 2);
        c.invalidate_all();
        assert!(c.is_empty());
        assert!(c.lookup(1).is_none());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn capacity_clear_is_wholesale_and_deterministic() {
        let mut c = FlowCache::new(2);
        c.admit(1, &meta_to(1));
        c.admit(2, &meta_to(2));
        c.admit(3, &meta_to(3)); // over capacity: clears, then inserts 3
        assert_eq!(c.len(), 1);
        assert!(c.lookup(3).is_some());
        assert!(c.lookup(1).is_none());
        // Re-admitting an already-cached flow at capacity must not clear.
        let mut c = FlowCache::new(1);
        c.admit(5, &meta_to(1));
        c.admit(5, &meta_to(2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(5).map(|d| d.dest), Some(Destination::Port(2)));
    }
}
