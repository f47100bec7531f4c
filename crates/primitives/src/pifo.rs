//! Push-In-First-Out queue (Sivaraman et al., SIGCOMM 2016).
//!
//! The paper's traffic-management section proposes combining event-driven
//! programming with PIFO to build a complete programmable scheduler. A
//! PIFO admits packets with a program-computed rank and always dequeues
//! the minimum rank; ties dequeue in arrival order (FIFO within rank).

use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct PifoEntry<T> {
    rank: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for PifoEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank && self.seq == other.seq
    }
}
impl<T> Eq for PifoEntry<T> {}
impl<T> PartialOrd for PifoEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for PifoEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: invert for min-rank-first, then min-seq-first.
        other
            .rank
            .cmp(&self.rank)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// What happened on a bounded push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PifoPush {
    /// Admitted.
    Ok,
    /// Rejected: queue full and the new rank is no better than the worst.
    Rejected,
    /// Admitted by evicting the worst-ranked entry (returned separately).
    Evicted,
}

/// A bounded PIFO over items `T`.
#[derive(Debug, Clone)]
pub struct Pifo<T> {
    heap: BinaryHeap<PifoEntry<T>>,
    capacity: usize,
    next_seq: u64,
}

impl<T> Pifo<T> {
    /// Creates a PIFO holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity PIFO");
        Pifo {
            heap: BinaryHeap::with_capacity(capacity),
            capacity,
            next_seq: 0,
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pushes with `rank`; on overflow the *worst-ranked* entry loses
    /// (hardware PIFOs tail-drop against the lowest-priority occupant).
    /// Returns the verdict and, on eviction, the displaced item.
    pub fn push(&mut self, rank: u64, item: T) -> (PifoPush, Option<T>) {
        if self.heap.len() < self.capacity {
            self.push_raw(rank, item);
            return (PifoPush::Ok, None);
        }
        // Find the worst entry: BinaryHeap has no O(1) max-of-min view, so
        // scan — capacity is a queue depth, not a flow table.
        let worst = self
            .heap
            .iter()
            .max_by(|a, b| a.rank.cmp(&b.rank).then(a.seq.cmp(&b.seq)))
            .map(|e| (e.rank, e.seq));
        match worst {
            Some((wr, ws)) if rank < wr => {
                let mut entries: Vec<PifoEntry<T>> = std::mem::take(&mut self.heap).into_vec();
                let pos = entries
                    .iter()
                    .position(|e| e.rank == wr && e.seq == ws)
                    .expect("worst entry present");
                let evicted = entries.swap_remove(pos);
                self.heap = entries.into();
                self.push_raw(rank, item);
                (PifoPush::Evicted, Some(evicted.item))
            }
            _ => (PifoPush::Rejected, Some(item)),
        }
    }

    fn push_raw(&mut self, rank: u64, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(PifoEntry { rank, seq, item });
    }

    /// Removes and returns the minimum-rank item (FIFO within equal rank).
    pub fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|e| e.item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_by_rank() {
        let mut p = Pifo::new(10);
        p.push(30, "c");
        p.push(10, "a");
        p.push(20, "b");
        assert_eq!(p.pop(), Some("a"));
        assert_eq!(p.pop(), Some("b"));
        assert_eq!(p.pop(), Some("c"));
        assert_eq!(p.pop(), None);
    }

    #[test]
    fn fifo_within_rank() {
        let mut p = Pifo::new(10);
        for i in 0..5 {
            p.push(7, i);
        }
        for i in 0..5 {
            assert_eq!(p.pop(), Some(i));
        }
    }

    #[test]
    fn overflow_rejects_worse_rank() {
        let mut p = Pifo::new(2);
        p.push(1, "a");
        p.push(2, "b");
        let (verdict, returned) = p.push(5, "c");
        assert_eq!(verdict, PifoPush::Rejected);
        assert_eq!(returned, Some("c"));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn overflow_evicts_worst_for_better_rank() {
        let mut p = Pifo::new(2);
        p.push(10, "low-pri");
        p.push(1, "high-pri");
        let (verdict, evicted) = p.push(5, "mid-pri");
        assert_eq!(verdict, PifoPush::Evicted);
        assert_eq!(evicted, Some("low-pri"));
        assert_eq!(p.pop(), Some("high-pri"));
        assert_eq!(p.pop(), Some("mid-pri"));
    }

    #[test]
    fn equal_rank_overflow_rejects_newcomer() {
        // Ties favour the incumbent (no eviction for equal rank).
        let mut p = Pifo::new(1);
        p.push(5, "first");
        let (verdict, _) = p.push(5, "second");
        assert_eq!(verdict, PifoPush::Rejected);
        assert_eq!(p.pop(), Some("first"));
    }

    #[test]
    fn strict_priority_emulation() {
        // Rank = priority class: a PIFO implements strict priority.
        let mut p = Pifo::new(100);
        for i in 0..10u64 {
            p.push(i % 3, i);
        }
        let mut out = Vec::new();
        while let Some(v) = p.pop() {
            out.push(v % 3);
        }
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(out, sorted, "classes must come out in priority order");
    }
}
