//! Standard metadata: the per-packet scratch state a PISA architecture
//! hands to the P4 program alongside the packet itself.

use edp_evsim::SimTime;
use serde::{Deserialize, Serialize};

/// A switch port index.
pub type PortId = u8;

/// Where the ingress pipeline decided the packet should go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Destination {
    /// No decision yet (treated as drop at the traffic manager).
    #[default]
    Unspecified,
    /// Send out one port.
    Port(PortId),
    /// Replicate to every port except the ingress port.
    Flood,
    /// Recirculate back to the ingress pipeline.
    Recirculate,
    /// Drop.
    Drop,
}

/// Standard metadata accompanying a packet through the pipelines.
///
/// This mirrors PSA's `psa_ingress_*`/`psa_egress_*` structs folded into
/// one: models fill in the input fields, programs write the output fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StdMeta {
    /// Port the packet arrived on.
    pub ingress_port: PortId,
    /// Arrival timestamp.
    pub ingress_ts: SimTime,
    /// Frame length in bytes at ingress.
    pub pkt_len: u32,
    /// Forwarding decision (program output).
    pub dest: Destination,
    /// Scheduling priority / PIFO rank (program output; lower is better).
    pub rank: u64,
    /// Number of times this packet has been recirculated so far.
    pub recirc_count: u8,
    /// Set by an egress program to request the packet be dropped at
    /// deparse time.
    pub egress_drop: bool,
    /// Event metadata staged by the ingress program for the enqueue /
    /// dequeue / drop event handlers (the paper's `enq_meta` / `deq_meta`:
    /// e.g. `[flow_id, pkt_len, 0, 0]` in microburst.p4). Travels with the
    /// packet through the traffic manager and is surfaced verbatim in the
    /// buffer-event payloads the event switch builds.
    pub event_meta: [u64; 4],
}

impl StdMeta {
    /// Metadata for a fresh ingress packet.
    pub fn ingress(port: PortId, now: SimTime, pkt_len: usize) -> Self {
        StdMeta {
            ingress_port: port,
            ingress_ts: now,
            pkt_len: pkt_len as u32,
            dest: Destination::Unspecified,
            rank: 0,
            recirc_count: 0,
            egress_drop: false,
            event_meta: [0; 4],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ingress_defaults() {
        let m = StdMeta::ingress(3, SimTime::from_nanos(99), 1500);
        assert_eq!(m.ingress_port, 3);
        assert_eq!(m.pkt_len, 1500);
        assert_eq!(m.dest, Destination::Unspecified);
        assert_eq!(m.recirc_count, 0);
        assert!(!m.egress_drop);
    }
}
