//! A host sink's per-flow statistics, kept densely in first-arrival order.

use crate::host::FlowStats;
use edp_packet::FlowKey;

/// Entries per chunk (64 KiB of 64-byte entries). Only the first chunk
/// grows; every later one is allocated at this size once and never moves.
const CHUNK: usize = 1024;

/// Per-flow statistics in first-arrival order.
///
/// Entries live in fixed-size chunks that are never reallocated, so
/// growing the table re-places only its index of 8-byte slots and never
/// moves the stats. The first chunk grows from small, so a sink that sees
/// a handful of flows allocates a handful of entries.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    /// Key → entry number, open-addressed with linear probing. A slot is
    /// the key's 32-bit tag above its entry number + 1, or 0 when empty.
    /// A slot's home is its tag's top bits, so growing re-places slots
    /// without rehashing a key, and a probe reads an entry's key only
    /// when the tags match. Entry numbers fit 32 bits: four billion
    /// 64-byte entries would not fit in memory.
    slots: Vec<u64>,
    /// Entry `i` is `chunks[i / CHUNK][i % CHUNK]`.
    chunks: Vec<Vec<(FlowKey, FlowStats)>>,
}

impl FlowTable {
    /// Distinct flows seen.
    pub fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    /// Whether no flow has been seen.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The statistics of `key`'s flow, if it has been seen.
    pub fn get(&self, key: &FlowKey) -> Option<&FlowStats> {
        let i = self.find(key).ok()?;
        Some(&self.chunks[i / CHUNK][i % CHUNK].1)
    }

    /// Every flow with its statistics, in first-arrival order.
    pub fn iter(&self) -> Iter<'_> {
        self.chunks.iter().flatten().map(|(k, f)| (k, f))
    }

    /// Every flow's statistics, in first-arrival order.
    pub fn values(&self) -> impl Iterator<Item = &FlowStats> {
        self.iter().map(|(_, f)| f)
    }

    /// Counts one frame of `bytes` on `key`'s flow, with its one-way
    /// latency when the network tracked the send time.
    pub(crate) fn record(&mut self, key: FlowKey, bytes: u64, latency_ns: Option<u64>) {
        let i = match self.find(&key) {
            Ok(i) => i,
            Err(tag) => self.push(key, tag),
        };
        let f = &mut self.chunks[i / CHUNK][i % CHUNK].1;
        f.pkts += 1;
        f.bytes += bytes;
        if let Some(l) = latency_ns {
            f.latency_ns.add(l as f64);
        }
    }

    /// `key`'s entry number, or its tag when it has none.
    fn find(&self, key: &FlowKey) -> Result<usize, u64> {
        // A Fibonacci multiply, so every bit of the hash reaches the top
        // bits that place the slot.
        let tag = key.hash64().wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        if self.slots.is_empty() {
            return Err(tag);
        }
        let mut pos = self.home(tag);
        loop {
            let slot = self.slots[pos];
            if slot == 0 {
                return Err(tag);
            }
            if slot >> 32 == tag {
                let i = (slot as u32 - 1) as usize;
                if self.chunks[i / CHUNK][i % CHUNK].0 == *key {
                    return Ok(i);
                }
            }
            pos = (pos + 1) & (self.slots.len() - 1);
        }
    }

    /// Appends a new flow's entry and indexes it; returns its number.
    fn push(&mut self, key: FlowKey, tag: u64) -> usize {
        let i = self.len();
        // At most three quarters full, so probes stay short.
        if (i + 1) * 4 > self.slots.len() * 3 {
            let size = (self.slots.len() * 2).max(16);
            let old = std::mem::replace(&mut self.slots, vec![0; size]);
            for slot in old.into_iter().filter(|&s| s != 0) {
                let pos = self.vacant(slot >> 32);
                self.slots[pos] = slot;
            }
        }
        let pos = self.vacant(tag);
        self.slots[pos] = tag << 32 | (i as u64 + 1);
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push((key, FlowStats::default())),
            last => {
                // The first chunk starts small and grows by doubling.
                let cap = if last.is_none() { 4 } else { CHUNK };
                let mut chunk = Vec::with_capacity(cap);
                chunk.push((key, FlowStats::default()));
                self.chunks.push(chunk);
            }
        }
        i
    }

    /// The slot a tag's probe starts from: its top bits.
    fn home(&self, tag: u64) -> usize {
        (tag >> (32 - self.slots.len().trailing_zeros())) as usize
    }

    /// The first empty slot on `tag`'s probe.
    fn vacant(&self, tag: u64) -> usize {
        let mut pos = self.home(tag);
        while self.slots[pos] != 0 {
            pos = (pos + 1) & (self.slots.len() - 1);
        }
        pos
    }
}

/// [`FlowTable::iter`]'s iterator.
pub type Iter<'a> = std::iter::Map<
    std::iter::Flatten<std::slice::Iter<'a, Vec<(FlowKey, FlowStats)>>>,
    fn(&'a (FlowKey, FlowStats)) -> (&'a FlowKey, &'a FlowStats),
>;

impl<'a> IntoIterator for &'a FlowTable {
    type Item = (&'a FlowKey, &'a FlowStats);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl std::ops::Index<&FlowKey> for FlowTable {
    type Output = FlowStats;

    fn index(&self, key: &FlowKey) -> &FlowStats {
        self.get(key).expect("no such flow")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edp_packet::IpProto;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::net::Ipv4Addr;

    /// The `k`-th of a stream's distinct flows.
    fn key(k: u32) -> FlowKey {
        let src = Ipv4Addr::from(0x0a00_0000 | k >> 4);
        FlowKey::new(
            src,
            Ipv4Addr::new(10, 9, 0, 1),
            IpProto::Udp,
            k as u16 & 15,
            9000,
        )
    }

    proptest! {
        #[test]
        fn matches_a_hash_map_and_keeps_first_arrival_order(
            distinct in 1200u32..3000,
            frames in prop::collection::vec((any::<u32>(), 64u64..1600, any::<u8>()), 4000..8000),
        ) {
            let mut table = FlowTable::default();
            // Reference: key -> (pkts, bytes, latency samples), and the
            // keys in the order they first arrived.
            let mut want: HashMap<FlowKey, (u64, u64, u64)> = HashMap::new();
            let mut arrival = Vec::new();
            for (pick, bytes, lat) in frames {
                let k = key(pick % distinct);
                // Every other frame carries a latency sample.
                let latency = (lat % 2 == 0).then_some(lat as u64);
                table.record(k, bytes, latency);
                let w = want.entry(k).or_insert_with(|| {
                    arrival.push(k);
                    (0, 0, 0)
                });
                *w = (w.0 + 1, w.1 + bytes, w.2 + latency.is_some() as u64);
            }
            // Past the first chunk, and so past several index doublings.
            prop_assert!(table.len() > CHUNK);
            prop_assert_eq!(table.len(), want.len());
            for (k, &(pkts, bytes, samples)) in &want {
                let f = table.get(k).expect("present");
                prop_assert_eq!((f.pkts, f.bytes, f.latency_ns.count()), (pkts, bytes, samples));
            }
            for absent in distinct..distinct + 64 {
                prop_assert!(table.get(&key(absent)).is_none());
            }
            let order: Vec<FlowKey> = table.iter().map(|(k, _)| *k).collect();
            prop_assert_eq!(order, arrival);
            let pkts: u64 = table.values().map(|f| f.pkts).sum();
            prop_assert_eq!(pkts, want.values().map(|w| w.0).sum::<u64>());
        }
    }
}
