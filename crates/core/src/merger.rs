//! The Event Merger (Figure 4).
//!
//! "The Event Merger is responsible for gathering all new events and
//! placing them into metadata that flows through the pipeline. If there
//! are no ingress packets for the metadata to piggyback onto, the Event
//! Merger generates an empty packet, attaches the event metadata and
//! injects it into the P4 pipeline."
//!
//! This is a cycle-granular model of that block: each pipeline slot either
//! carries an ingress packet (events piggyback for free) or is idle (a
//! carrier frame is injected if events are waiting). The observable
//! trade-off — event delivery latency vs. carrier-frame overhead vs.
//! offered load — is what the Figure 4 bench sweeps.

use crate::event::Event;
use edp_evsim::Cycles;
use edp_telemetry::LogHistogram;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Event Merger configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MergerConfig {
    /// Maximum events that fit in one packet's event metadata.
    ///
    /// The SUME pipeline carries event metadata in a fixed-width bus
    /// alongside the packet; 4 matches one 32-byte metadata word holding
    /// four 8-byte event records.
    pub max_events_per_slot: usize,
    /// Length of an injected carrier frame in bytes (pipeline overhead).
    pub carrier_len_bytes: usize,
}

impl Default for MergerConfig {
    fn default() -> Self {
        MergerConfig {
            max_events_per_slot: 4,
            carrier_len_bytes: 64,
        }
    }
}

/// Counters and latency distribution for the merger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MergerStats {
    /// Events offered to the merger.
    pub events_in: u64,
    /// Events delivered by piggybacking on a real packet.
    pub piggybacked: u64,
    /// Events delivered on an injected carrier frame.
    pub carried_injected: u64,
    /// Carrier frames injected.
    pub carriers_injected: u64,
    /// Carrier bytes injected (pipeline bandwidth overhead).
    pub carrier_bytes: u64,
    /// Distribution of event wait times, in pipeline cycles.
    pub wait_cycles: LogHistogram,
}

impl MergerStats {
    fn new() -> Self {
        MergerStats {
            events_in: 0,
            piggybacked: 0,
            carried_injected: 0,
            carriers_injected: 0,
            carrier_bytes: 0,
            wait_cycles: LogHistogram::new(),
        }
    }
}

#[derive(Debug, Clone)]
struct Pending {
    ev: Event,
    arrived: Cycles,
}

/// The Event Merger block.
#[derive(Debug, Clone)]
pub struct EventMerger {
    cfg: MergerConfig,
    pending: VecDeque<Pending>,
    stats: MergerStats,
}

impl EventMerger {
    /// Creates a merger.
    pub fn new(cfg: MergerConfig) -> Self {
        assert!(cfg.max_events_per_slot > 0);
        EventMerger {
            cfg,
            pending: VecDeque::new(),
            stats: MergerStats::new(),
        }
    }

    /// Offers a new event at `cycle`.
    pub fn push_event(&mut self, cycle: Cycles, ev: Event) {
        self.stats.events_in += 1;
        edp_telemetry::emit(
            cycle,
            edp_telemetry::RecordKind::EventEnqueued {
                kind: ev.kind().code(),
            },
        );
        self.pending.push_back(Pending { ev, arrived: cycle });
    }

    /// Events currently waiting for a carrier.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &MergerStats {
        &self.stats
    }

    fn take_batch(&mut self, cycle: Cycles) -> Vec<Event> {
        let n = self.pending.len().min(self.cfg.max_events_per_slot);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let p = self.pending.pop_front().expect("counted");
            self.stats
                .wait_cycles
                .record(cycle.saturating_sub(p.arrived));
            out.push(p.ev);
        }
        out
    }

    /// A pipeline slot carrying a real ingress packet: piggyback up to
    /// `max_events_per_slot` pending events onto its metadata.
    pub fn packet_slot(&mut self, cycle: Cycles) -> Vec<Event> {
        let batch = self.take_batch(cycle);
        self.stats.piggybacked += batch.len() as u64;
        batch
    }

    /// An idle pipeline slot: if events are waiting, inject a carrier
    /// frame and attach a batch. Returns `None` when nothing is pending
    /// (no carrier injected — idle slots are free).
    pub fn idle_slot(&mut self, cycle: Cycles) -> Option<Vec<Event>> {
        if self.pending.is_empty() {
            return None;
        }
        let batch = self.take_batch(cycle);
        self.stats.carried_injected += batch.len() as u64;
        self.stats.carriers_injected += 1;
        self.stats.carrier_bytes += self.cfg.carrier_len_bytes as u64;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TimerEvent, UserEvent};

    fn ev(n: u32) -> Event {
        Event::User(UserEvent {
            code: n,
            args: [0; 4],
        })
    }

    #[test]
    fn piggybacks_on_packets() {
        let mut m = EventMerger::new(MergerConfig::default());
        m.push_event(0, ev(1));
        m.push_event(0, ev(2));
        let batch = m.packet_slot(3);
        assert_eq!(batch.len(), 2);
        assert_eq!(m.stats().piggybacked, 2);
        assert_eq!(m.stats().carriers_injected, 0);
        assert_eq!(m.stats().wait_cycles.max(), 3);
    }

    #[test]
    fn injects_carrier_when_idle() {
        let mut m = EventMerger::new(MergerConfig::default());
        m.push_event(
            5,
            Event::Timer(TimerEvent {
                timer_id: 0,
                firing: 1,
            }),
        );
        let batch = m.idle_slot(6).expect("carrier");
        assert_eq!(batch.len(), 1);
        assert_eq!(m.stats().carriers_injected, 1);
        assert_eq!(m.stats().carrier_bytes, 64);
    }

    #[test]
    fn idle_slot_free_when_empty() {
        let mut m = EventMerger::new(MergerConfig::default());
        assert!(m.idle_slot(0).is_none());
        assert_eq!(m.stats().carriers_injected, 0);
    }

    #[test]
    fn batches_respect_capacity_and_order() {
        let cfg = MergerConfig {
            max_events_per_slot: 2,
            carrier_len_bytes: 64,
        };
        let mut m = EventMerger::new(cfg);
        for i in 0..5 {
            m.push_event(0, ev(i));
        }
        let b1 = m.packet_slot(1);
        assert_eq!(b1.len(), 2);
        assert!(matches!(b1[0], Event::User(UserEvent { code: 0, .. })));
        let b2 = m.idle_slot(2).expect("carrier");
        assert!(matches!(b2[0], Event::User(UserEvent { code: 2, .. })));
        assert_eq!(m.pending(), 1);
    }

    #[test]
    fn wait_latency_accumulates_under_load() {
        // No idle slots and heavy event rate: waits grow.
        let cfg = MergerConfig {
            max_events_per_slot: 1,
            carrier_len_bytes: 64,
        };
        let mut m = EventMerger::new(cfg);
        for c in 0..10 {
            m.push_event(c, ev(c as u32));
            m.push_event(c, ev(c as u32 + 100));
            m.packet_slot(c); // only 1 carried per slot, backlog builds
        }
        assert!(m.pending() >= 9, "backlog should build: {}", m.pending());
        assert!(m.stats().wait_cycles.max() >= 4);
    }
}
