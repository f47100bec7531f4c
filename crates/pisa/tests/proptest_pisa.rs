//! Property-based tests for tables, registers, and the traffic manager.

use edp_evsim::SimTime;
use edp_packet::Packet;
use edp_pisa::{
    FieldMatch, MatchKind, MatchTable, QueueConfig, QueueDisc, RegisterArray, StdMeta, TableEntry,
    TrafficManager,
};
use proptest::prelude::*;

/// Reference LPM: longest matching prefix wins, first-installed breaks ties.
fn ref_lpm(routes: &[(u32, u8, u32)], key: u32) -> Option<u32> {
    routes
        .iter()
        .enumerate()
        .filter(|(_, &(value, plen, _))| {
            if plen == 0 {
                true
            } else {
                let shift = 32 - plen as u32;
                key >> shift == value >> shift
            }
        })
        .max_by_key(|(i, &(_, plen, _))| (plen, std::cmp::Reverse(*i)))
        .map(|(_, &(_, _, action))| action)
}

proptest! {
    /// The table's LPM semantics match a naive reference model.
    #[test]
    fn lpm_matches_reference(
        routes in prop::collection::vec((any::<u32>(), 0u8..=32, any::<u32>()), 1..40),
        keys in prop::collection::vec(any::<u32>(), 1..50),
    ) {
        let mut table: MatchTable<u32> =
            MatchTable::new("t", vec![MatchKind::Lpm { width: 32 }]);
        for &(value, plen, action) in &routes {
            table.insert(TableEntry {
                fields: vec![FieldMatch::Lpm { value: value as u64, prefix_len: plen }],
                priority: 0,
                action,
            });
        }
        for &key in &keys {
            let got = table.lookup(&[key as u64]).copied();
            let want = ref_lpm(&routes, key);
            prop_assert_eq!(got, want, "key {:#x}", key);
        }
    }

    /// Exact tables behave like a HashMap with last-write-wins.
    #[test]
    fn exact_matches_hashmap(
        inserts in prop::collection::vec((0u64..100, any::<u32>()), 1..200),
        keys in prop::collection::vec(0u64..120, 1..50),
    ) {
        let mut table: MatchTable<u32> = MatchTable::new("t", vec![MatchKind::Exact]);
        let mut model = std::collections::HashMap::new();
        for &(k, v) in &inserts {
            table.insert(TableEntry {
                fields: vec![FieldMatch::Exact(k)],
                priority: 0,
                action: v,
            });
            model.insert(k, v);
        }
        for &k in &keys {
            prop_assert_eq!(table.lookup(&[k]).copied(), model.get(&k).copied());
        }
        prop_assert_eq!(table.len(), model.len());
    }

    /// Ternary: the highest-priority matching entry wins.
    #[test]
    fn ternary_priority_wins(
        entries in prop::collection::vec((any::<u8>(), any::<u8>(), -100i64..100, any::<u32>()), 1..30),
        key: u8,
    ) {
        let mut table: MatchTable<u32> = MatchTable::new("t", vec![MatchKind::Ternary]);
        for &(value, mask, prio, action) in &entries {
            table.insert(TableEntry {
                fields: vec![FieldMatch::Ternary { value: value as u64, mask: mask as u64 }],
                priority: prio,
                action,
            });
        }
        let want = entries
            .iter()
            .enumerate()
            .filter(|(_, &(v, m, _, _))| key & m == v & m)
            .max_by_key(|(i, &(_, _, p, _))| (p, std::cmp::Reverse(*i)))
            .map(|(_, &(_, _, _, a))| a);
        prop_assert_eq!(table.lookup(&[key as u64]).copied(), want);
    }

    /// Register arrays behave like a plain vector with wrapping indices.
    #[test]
    fn register_matches_vec(
        size in 1usize..64,
        ops in prop::collection::vec((any::<usize>(), 0u64..1_000_000, any::<bool>()), 1..200),
    ) {
        let mut reg = RegisterArray::new("r", size);
        let mut model = vec![0u64; size];
        for &(idx, val, is_add) in &ops {
            if is_add {
                reg.add(idx, val);
                let i = idx % size;
                model[i] = model[i].saturating_add(val);
            } else {
                reg.write(idx, val);
                model[idx % size] = val;
            }
        }
        for (i, &m) in model.iter().enumerate() {
            prop_assert_eq!(reg.peek(i), m);
        }
        prop_assert_eq!(reg.nonzero_entries(), model.iter().filter(|&&v| v != 0).count());
    }

    /// Traffic-manager conservation: every offered packet is either
    /// queued, dequeued, or counted as an overflow drop — and occupancy
    /// equals the byte sum of queued packets.
    #[test]
    fn tm_conserves_packets(
        capacity in 200u64..5_000,
        ops in prop::collection::vec((any::<bool>(), 1usize..1500), 1..300),
    ) {
        let cfg = QueueConfig { capacity_bytes: capacity, disc: QueueDisc::DropTailFifo, rank0_headroom: 0 };
        let mut tm = TrafficManager::new(1, cfg);
        let mut queued_bytes = 0u64;
        let mut queued_pkts = 0u32;
        let (mut offered, mut dequeued) = (0u64, 0u64);
        for &(is_enqueue, len) in &ops {
            if is_enqueue {
                offered += 1;
                let meta = StdMeta::ingress(0, SimTime::ZERO, len);
                if tm.offer(0, Packet::anonymous(vec![0; len]), meta, SimTime::ZERO).is_none() {
                    queued_bytes += len as u64;
                    queued_pkts += 1;
                }
            } else if let Some((p, _, _)) = tm.dequeue(0, SimTime::ZERO) {
                dequeued += 1;
                queued_bytes -= p.len() as u64;
                queued_pkts -= 1;
            }
        }
        prop_assert_eq!(tm.occupancy_bytes(0), queued_bytes);
        prop_assert_eq!(tm.depth_pkts(0), queued_pkts);
        prop_assert!(tm.occupancy_bytes(0) <= capacity);
        let s = tm.stats(0);
        prop_assert_eq!(s.enqueued + s.dropped, offered);
        prop_assert_eq!(s.dequeued, dequeued);
        prop_assert_eq!(s.enqueued - s.dequeued, queued_pkts as u64);
    }

    /// The PIFO traffic-manager discipline dequeues in (rank, seq) order.
    #[test]
    fn tm_pifo_order(ranks in prop::collection::vec(0u64..50, 1..60)) {
        let cfg = QueueConfig { capacity_bytes: 1_000_000, disc: QueueDisc::Pifo, rank0_headroom: 0 };
        let mut tm = TrafficManager::new(1, cfg);
        for (i, &r) in ranks.iter().enumerate() {
            let mut meta = StdMeta::ingress(0, SimTime::ZERO, 10);
            meta.rank = r;
            meta.event_meta = [i as u64, 0, 0, 0];
            tm.offer(0, Packet::anonymous(vec![0; 10]), meta, SimTime::ZERO);
        }
        let mut out = Vec::new();
        while let Some((_, m, _)) = tm.dequeue(0, SimTime::ZERO) {
            out.push((m.rank, m.event_meta[0]));
        }
        let mut expect: Vec<(u64, u64)> = ranks.iter().enumerate().map(|(i, &r)| (r, i as u64)).collect();
        expect.sort();
        prop_assert_eq!(out, expect);
    }
}
