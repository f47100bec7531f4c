//! The traffic manager: output queues between ingress and egress.
//!
//! Every state change in here — a packet enqueued, dequeued, or dropped on
//! overflow, or a dequeue from an empty queue — is one of the paper's
//! buffer events (Table 1). The TM is the fixed-function queue between two
//! pipelines, so it reports plain queue facts and nothing more:
//! [`TrafficManager::offer`] hands back the rejected frame on overflow,
//! [`TrafficManager::dequeue`] the frame, its metadata and its sojourn (or
//! `None` on underflow), and occupancy and depth are read through
//! [`TrafficManager::occupancy_bytes`] / [`TrafficManager::depth_pkts`].
//! The event switch in `edp-core` turns a fact into a handler payload only
//! for an event kind its program handles.
//!
//! What is queued is the frame and its metadata, nothing else: the parse
//! an egress pipeline needs rides with the frame itself
//! ([`Packet::parsed`]), so a queue item is a 24-byte packet handle plus
//! [`StdMeta`] and two words of queueing state. The per-packet entry
//! points are `#[inline]`: this crate is compiled without LTO, and an
//! out-of-line `offer` / `dequeue` pair moved each item through five or
//! six by-value copies across the crate boundary.

use crate::meta::{PortId, StdMeta};
use edp_evsim::SimTime;
use edp_packet::Packet;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Emits a queue-occupancy sample of `q` when a telemetry session is live
/// and asked for queue-depth detail; the session applies that gate on the
/// same pointer read as the record store. Disabled cost: one relaxed load
/// and a predictable branch.
#[inline]
fn depth_sample(now: SimTime, port: PortId, q: &OutQueue) {
    edp_telemetry::emit(
        now.as_nanos(),
        edp_telemetry::RecordKind::QueueDepth {
            port,
            q_bytes: q.bytes,
            q_pkts: q.depth_pkts(),
        },
    );
}

/// Queueing discipline for an output queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueDisc {
    /// Single FIFO, drop-tail on byte overflow.
    DropTailFifo,
    /// Strict priority across `classes` FIFOs; `StdMeta::rank` (clamped)
    /// selects the class, lower rank = higher priority.
    StrictPriority {
        /// Number of priority classes.
        classes: u8,
    },
    /// Push-in-first-out on `StdMeta::rank` (lower pops first, FIFO within
    /// a rank). Overflow rejects the arriving packet, whatever its rank:
    /// nothing queued is evicted.
    Pifo,
}

/// Configuration for each output queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueConfig {
    /// Byte capacity per output queue.
    pub capacity_bytes: u64,
    /// Discipline.
    pub disc: QueueDisc,
    /// Extra bytes admissible only to rank-0 packets: a reserved
    /// high-priority buffer, as NDP reserves for trimmed headers. 0
    /// disables the reserve.
    pub rank0_headroom: u64,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            // 100 KB per port: about 66 MTU packets, small enough that the
            // microburst workloads actually exercise overflow.
            capacity_bytes: 100_000,
            disc: QueueDisc::DropTailFifo,
            rank0_headroom: 0,
        }
    }
}

#[derive(Debug, Clone)]
struct Item {
    pkt: Packet,
    meta: StdMeta,
    enq_time: SimTime,
    seq: u64,
}

#[derive(Debug, Clone)]
struct OutQueue {
    cfg: QueueConfig,
    /// For FIFO: one deque. For StrictPriority: one per class. For PIFO:
    /// a single deque kept sorted by (rank, seq).
    lanes: Vec<VecDeque<Item>>,
    bytes: u64,
    /// Packets across all lanes: read for every port on every service
    /// pass, so it is kept rather than summed.
    pkts: u32,
    next_seq: u64,
    /// Cumulative statistics.
    enqueued: u64,
    dequeued: u64,
    dropped: u64,
    dropped_bytes: u64,
}

impl OutQueue {
    fn new(cfg: QueueConfig) -> Self {
        let lanes = match cfg.disc {
            QueueDisc::DropTailFifo | QueueDisc::Pifo => 1,
            QueueDisc::StrictPriority { classes } => classes.max(1) as usize,
        };
        OutQueue {
            cfg,
            lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
            bytes: 0,
            pkts: 0,
            next_seq: 0,
            enqueued: 0,
            dequeued: 0,
            dropped: 0,
            dropped_bytes: 0,
        }
    }

    #[inline]
    fn depth_pkts(&self) -> u32 {
        debug_assert_eq!(
            self.pkts,
            self.lanes.iter().map(|l| l.len() as u32).sum::<u32>()
        );
        self.pkts
    }

    /// True when a `len`-byte packet of `rank` fits: the one capacity
    /// check, made by [`TrafficManager::offer`] before [`OutQueue::push`].
    #[inline]
    fn admits(&self, len: u64, rank: u64) -> bool {
        let headroom = if rank == 0 {
            self.cfg.rank0_headroom
        } else {
            0
        };
        self.bytes + len <= self.cfg.capacity_bytes + headroom
    }

    /// Queues an admitted packet.
    #[inline]
    fn push(&mut self, pkt: Packet, meta: StdMeta, now: SimTime) {
        let rank = meta.rank;
        self.bytes += pkt.len() as u64;
        self.pkts += 1;
        self.enqueued += 1;
        let item = Item {
            pkt,
            meta,
            enq_time: now,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        match self.cfg.disc {
            QueueDisc::DropTailFifo => self.lanes[0].push_back(item),
            QueueDisc::StrictPriority { classes } => {
                let class = (rank.min(classes.saturating_sub(1) as u64)) as usize;
                self.lanes[class].push_back(item);
            }
            QueueDisc::Pifo => {
                // Insert sorted by (rank, seq): a software PIFO. Linear
                // from the back — bursts of equal rank append in O(1).
                let lane = &mut self.lanes[0];
                let pos = lane
                    .iter()
                    .rposition(|it| (it.meta.rank, it.seq) <= (rank, item.seq))
                    .map(|p| p + 1)
                    .unwrap_or(0);
                lane.insert(pos, item);
            }
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Item> {
        for lane in &mut self.lanes {
            if let Some(item) = lane.pop_front() {
                self.bytes -= item.pkt.len() as u64;
                self.pkts -= 1;
                self.dequeued += 1;
                return Some(item);
            }
        }
        None
    }
}

/// Per-port queue statistics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Packets accepted.
    pub enqueued: u64,
    /// Packets handed to egress.
    pub dequeued: u64,
    /// Packets dropped on overflow.
    pub dropped: u64,
    /// Bytes dropped on overflow.
    pub dropped_bytes: u64,
    /// Current occupancy in bytes.
    pub bytes: u64,
    /// Current depth in packets.
    pub pkts: u32,
}

impl QueueStats {
    /// Publishes the snapshot into the unified metrics registry under
    /// `scope` (conventionally `sw<N>:p<PORT>`).
    pub fn publish(&self, reg: &mut edp_telemetry::Registry, scope: &str) {
        reg.set_counter("queue_enqueued", scope, self.enqueued);
        reg.set_counter("queue_dequeued", scope, self.dequeued);
        reg.set_counter("queue_dropped", scope, self.dropped);
        reg.set_counter("queue_dropped_bytes", scope, self.dropped_bytes);
        reg.set_gauge("queue_bytes", scope, self.bytes as i64);
        reg.set_gauge("queue_pkts", scope, self.pkts as i64);
    }
}

/// The traffic manager: one output queue per port.
#[derive(Debug, Clone)]
pub struct TrafficManager {
    queues: Vec<OutQueue>,
}

impl TrafficManager {
    /// Creates a TM with `n_ports` queues sharing one configuration.
    pub fn new(n_ports: usize, cfg: QueueConfig) -> Self {
        assert!(n_ports > 0, "switch with no ports");
        TrafficManager {
            queues: (0..n_ports).map(|_| OutQueue::new(cfg)).collect(),
        }
    }

    /// Offers a packet. On overflow the queue is unchanged (only its drop
    /// counters advance) and the rejected packet comes back, so the caller
    /// may hand it to an overflow handler, trim it or mirror it.
    #[inline]
    pub fn offer(
        &mut self,
        port: PortId,
        pkt: Packet,
        meta: StdMeta,
        now: SimTime,
    ) -> Option<Packet> {
        let q = &mut self.queues[port as usize];
        let len = pkt.len() as u64;
        if !q.admits(len, meta.rank) {
            q.dropped += 1;
            q.dropped_bytes += len;
            return Some(pkt);
        }
        q.push(pkt, meta, now);
        depth_sample(now, port, q);
        None
    }

    /// Dequeues the next packet from `port` with its metadata and its
    /// sojourn in nanoseconds, or `None` when the queue is empty (buffer
    /// underflow).
    #[inline]
    pub fn dequeue(&mut self, port: PortId, now: SimTime) -> Option<(Packet, StdMeta, u64)> {
        let q = &mut self.queues[port as usize];
        let item = q.pop()?;
        depth_sample(now, port, q);
        let sojourn_ns = now.saturating_since(item.enq_time).as_nanos();
        Some((item.pkt, item.meta, sojourn_ns))
    }

    /// Occupancy of `port`'s queue in bytes.
    pub fn occupancy_bytes(&self, port: PortId) -> u64 {
        self.queues[port as usize].bytes
    }

    /// Depth of `port`'s queue in packets.
    #[inline]
    pub fn depth_pkts(&self, port: PortId) -> u32 {
        self.queues[port as usize].depth_pkts()
    }

    /// Statistics snapshot for `port`.
    pub fn stats(&self, port: PortId) -> QueueStats {
        let q = &self.queues[port as usize];
        QueueStats {
            enqueued: q.enqueued,
            dequeued: q.dequeued,
            dropped: q.dropped,
            dropped_bytes: q.dropped_bytes,
            bytes: q.bytes,
            pkts: q.depth_pkts(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(len: usize) -> Packet {
        Packet::anonymous(vec![0; len])
    }

    fn meta(rank: u64) -> StdMeta {
        let mut m = StdMeta::ingress(0, SimTime::ZERO, 0);
        m.rank = rank;
        m
    }

    #[test]
    fn queue_item_is_the_frame_and_its_metadata() {
        // No parse is stashed beside the packet (it rides with the frame):
        // an item is what `offer` and `dequeue` move by value.
        assert!(std::mem::size_of::<Item>() <= 112);
    }

    #[test]
    fn fifo_order_and_events() {
        let mut tm = TrafficManager::new(2, QueueConfig::default());
        let now = SimTime::from_nanos(10);
        assert!(tm.offer(1, pkt(100), meta(0), now).is_none());
        assert_eq!((tm.occupancy_bytes(1), tm.depth_pkts(1)), (100, 1));
        tm.offer(1, pkt(200), meta(0), now);
        assert_eq!(tm.occupancy_bytes(1), 300);

        let later = SimTime::from_nanos(50);
        let (p, _, sojourn_ns) = tm.dequeue(1, later).expect("packet");
        assert_eq!((p.len(), sojourn_ns), (100, 40));
        assert_eq!((tm.occupancy_bytes(1), tm.depth_pkts(1)), (200, 1));
    }

    #[test]
    fn overflow_emits_drop_event_and_returns_packet() {
        let cfg = QueueConfig {
            capacity_bytes: 250,
            ..QueueConfig::default()
        };
        let mut tm = TrafficManager::new(1, cfg);
        tm.offer(0, pkt(200), meta(0), SimTime::ZERO);
        let before = tm.stats(0);
        let returned = tm.offer(0, pkt(100), meta(0), SimTime::ZERO);
        assert_eq!(returned.map(|p| p.len()), Some(100));
        // A rejected offer leaves the queue as it was: only the drop
        // counters move.
        let after = tm.stats(0);
        assert_eq!(
            (after.bytes, after.pkts, after.enqueued),
            (before.bytes, before.pkts, before.enqueued)
        );
        assert_eq!((after.dropped, after.dropped_bytes), (1, 100));
    }

    #[test]
    fn underflow_event() {
        let mut tm = TrafficManager::new(1, QueueConfig::default());
        assert!(tm.dequeue(0, SimTime::ZERO).is_none());
    }

    #[test]
    fn strict_priority_dequeues_low_rank_first() {
        let cfg = QueueConfig {
            capacity_bytes: 10_000,
            disc: QueueDisc::StrictPriority { classes: 4 },
            ..QueueConfig::default()
        };
        let mut tm = TrafficManager::new(1, cfg);
        tm.offer(0, pkt(10), meta(3), SimTime::ZERO);
        tm.offer(0, pkt(20), meta(0), SimTime::ZERO);
        tm.offer(0, pkt(30), meta(9), SimTime::ZERO); // clamps to class 3
        let (p, _, _) = tm.dequeue(0, SimTime::ZERO).expect("p");
        assert_eq!(p.len(), 20, "class 0 first");
        let (p, _, _) = tm.dequeue(0, SimTime::ZERO).expect("p");
        assert_eq!(p.len(), 10, "then class 3 FIFO");
        let (p, _, _) = tm.dequeue(0, SimTime::ZERO).expect("p");
        assert_eq!(p.len(), 30);
    }

    #[test]
    fn pifo_orders_by_rank_stable() {
        let cfg = QueueConfig {
            capacity_bytes: 10_000,
            disc: QueueDisc::Pifo,
            rank0_headroom: 0,
        };
        let mut tm = TrafficManager::new(1, cfg);
        tm.offer(0, pkt(1), meta(50), SimTime::ZERO);
        tm.offer(0, pkt(2), meta(10), SimTime::ZERO);
        tm.offer(0, pkt(3), meta(50), SimTime::ZERO);
        tm.offer(0, pkt(4), meta(30), SimTime::ZERO);
        let lens: Vec<usize> = (0..4)
            .map(|_| tm.dequeue(0, SimTime::ZERO).expect("p").0.len())
            .collect();
        assert_eq!(lens, vec![2, 4, 1, 3]);
    }

    #[test]
    fn full_pifo_rejects_the_arrival_even_when_it_ranks_best() {
        let cfg = QueueConfig {
            capacity_bytes: 20,
            disc: QueueDisc::Pifo,
            rank0_headroom: 0,
        };
        let mut tm = TrafficManager::new(1, cfg);
        tm.offer(0, pkt(10), meta(50), SimTime::ZERO);
        tm.offer(0, pkt(10), meta(40), SimTime::ZERO);
        let returned = tm.offer(0, pkt(5), meta(1), SimTime::ZERO);
        assert_eq!(returned.map(|p| p.len()), Some(5));
        let ranks: Vec<u64> = (0..2)
            .map(|_| tm.dequeue(0, SimTime::ZERO).expect("p").1.rank)
            .collect();
        assert_eq!(ranks, vec![40, 50], "both queued frames stay");
        assert!(tm.dequeue(0, SimTime::ZERO).is_none());
    }

    #[test]
    fn event_meta_flows_through() {
        let mut tm = TrafficManager::new(1, QueueConfig::default());
        let mut m = meta(0);
        m.event_meta = [7, 1500, 0, 0];
        tm.offer(0, pkt(64), m, SimTime::ZERO);
        let (_, m, _) = tm.dequeue(0, SimTime::ZERO).expect("p");
        assert_eq!(m.event_meta, [7, 1500, 0, 0]);
    }

    #[test]
    fn stats_track_counts() {
        let mut tm = TrafficManager::new(1, QueueConfig::default());
        for _ in 0..5 {
            tm.offer(0, pkt(10), meta(0), SimTime::ZERO);
        }
        tm.dequeue(0, SimTime::ZERO);
        let s = tm.stats(0);
        assert_eq!(s.enqueued, 5);
        assert_eq!(s.dequeued, 1);
        assert_eq!(s.pkts, 4);
        assert_eq!(s.bytes, 40);
    }
}
