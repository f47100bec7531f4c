//! Programmable packet scheduling with PIFO + events (§3).
//!
//! "Taking this one step further, we can construct a complete,
//! programmable packet scheduler using our event-driven model in
//! combination with the recently proposed Push-In-First-Out (PIFO)
//! queue."
//!
//! [`StfqScheduler`] implements Start-Time Fair Queueing: the ingress
//! handler computes each packet's rank as
//! `start = max(virtual_time, finish[flow])` and sets
//! `finish[flow] = start + len`; the **dequeue event** advances the
//! virtual time to the start tag of the departing packet. Computing the
//! virtual time requires knowing what *leaves* the queue — exactly the
//! signal only an event-driven architecture provides. The TM runs a PIFO
//! discipline on the computed rank.
//!
//! The comparator is plain FIFO: a blast of back-to-back packets from
//! one flow delays every other flow by the whole burst; under STFQ the
//! flows interleave by virtual time.

use edp_core::event::DequeueEvent;
use edp_core::{EventActions, EventProgram};
use edp_evsim::SimTime;
use edp_packet::{Packet, ParsedPacket};
use edp_pisa::{Destination, PortId, RegisterArray, StdMeta};

/// Start-Time Fair Queueing over a PIFO traffic manager.
#[derive(Debug)]
pub struct StfqScheduler {
    /// Per-flow finish tags (virtual units = bytes).
    pub finish: RegisterArray,
    /// Current virtual time (advanced by dequeue events).
    pub virtual_time: u64,
    /// Output port for data traffic.
    pub out_port: PortId,
    /// Packets ranked.
    pub scheduled: u64,
}

impl StfqScheduler {
    /// Creates the scheduler with `n_flows` flow-state slots.
    pub fn new(n_flows: usize, out_port: PortId) -> Self {
        StfqScheduler {
            finish: RegisterArray::new("stfq_finish", n_flows),
            virtual_time: 0,
            out_port,
            scheduled: 0,
        }
    }
}

impl EventProgram for StfqScheduler {
    fn on_ingress(
        &mut self,
        _pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        _now: SimTime,
        _a: &mut EventActions,
    ) {
        meta.dest = Destination::Port(self.out_port);
        let Some(key) = parsed.flow_key() else {
            return;
        };
        let flow = key.index(self.finish.size());
        // STFQ: start = max(V, finish[f]); finish[f] = start + len.
        let start = self.virtual_time.max(self.finish.read(flow));
        self.finish.write(flow, start + meta.pkt_len as u64);
        meta.rank = start;
        // Stage the start tag so the dequeue event can advance V.
        meta.event_meta = [flow as u64, start, 0, 0];
        self.scheduled += 1;
    }

    fn on_dequeue(&mut self, ev: &DequeueEvent, _now: SimTime, _a: &mut EventActions) {
        // Virtual time = start tag of the packet now departing.
        self.virtual_time = self.virtual_time.max(ev.meta[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{addr, dumbbell, run_until, sink_addr};
    use edp_core::{EventSwitch, EventSwitchConfig};
    use edp_evsim::{jain_fairness, Sim, SimDuration};
    use edp_netsim::traffic::{start_burst, start_cbr};
    use edp_netsim::Network;
    use edp_packet::PacketBuilder;
    use edp_pisa::{QueueConfig, QueueDisc};

    const BOTTLENECK: u64 = 100_000_000;
    const HORIZON: SimTime = SimTime::from_millis(60);

    fn run(pifo: bool) -> Vec<f64> {
        let disc = if pifo {
            QueueDisc::Pifo
        } else {
            QueueDisc::DropTailFifo
        };
        let cfg = EventSwitchConfig {
            n_ports: 4,
            queue: QueueConfig {
                capacity_bytes: 1_000_000,
                disc,
                ..QueueConfig::default()
            },
            ..Default::default()
        };
        let sw = EventSwitch::new(StfqScheduler::new(64, 3), cfg);
        let (mut net, senders, sink, _) = dumbbell(Box::new(sw), 3, BOTTLENECK, 81);
        let mut sim: Sim<Network> = Sim::new();
        // Two steady flows plus one flow that blasts its whole demand at
        // t = 0 as a burst.
        for (i, &h) in senders.iter().take(2).enumerate() {
            let src = addr(i as u8 + 1);
            start_cbr(
                &mut sim,
                h,
                SimTime::ZERO,
                SimDuration::from_micros(400),
                120,
                move |s| {
                    PacketBuilder::udp(src, sink_addr(), 100 + i as u16, 9000, &[])
                        .ident(s as u16)
                        .pad_to(1500)
                        .build()
                },
            );
        }
        let src = addr(3);
        start_burst(&mut sim, senders[2], SimTime::ZERO, 120, move |s| {
            PacketBuilder::udp(src, sink_addr(), 300, 9000, &[])
                .ident(s as u16)
                .pad_to(1500)
                .build()
        });
        run_until(&mut net, &mut sim, HORIZON);
        // Mean delivery latency per flow is the schedule-quality signal.
        (0..3)
            .map(|i| {
                let key = edp_packet::FlowKey::new(
                    addr(i as u8 + 1),
                    sink_addr(),
                    edp_packet::IpProto::Udp,
                    if i == 2 { 300 } else { 100 + i as u16 },
                    9000,
                );
                net.hosts[sink]
                    .stats
                    .flows
                    .get(&key)
                    .map(|f| f.latency_ns.mean())
                    .unwrap_or(f64::INFINITY)
            })
            .collect()
    }

    #[test]
    fn stfq_protects_steady_flows_from_a_burst() {
        let fifo = run(false);
        let stfq = run(true);
        // Under FIFO the burst parks 180 KB in front of the steady flows;
        // under STFQ their packets jump the burst via rank.
        let steady_fifo = fifo[0].max(fifo[1]);
        let steady_stfq = stfq[0].max(stfq[1]);
        assert!(
            steady_stfq < steady_fifo / 2.0,
            "steady-flow latency: STFQ {steady_stfq} vs FIFO {steady_fifo}"
        );
        // The burst itself still completes (work conservation).
        assert!(stfq[2].is_finite());
    }

    #[test]
    fn virtual_time_is_monotone_and_advances() {
        let cfg = EventSwitchConfig {
            n_ports: 2,
            queue: QueueConfig {
                capacity_bytes: 1_000_000,
                disc: QueueDisc::Pifo,
                ..QueueConfig::default()
            },
            ..Default::default()
        };
        let mut sw = EventSwitch::new(StfqScheduler::new(16, 1), cfg);
        let frame = |sp: u16| {
            Packet::anonymous(
                PacketBuilder::udp(addr(1), addr(2), sp, 9, &[])
                    .pad_to(500)
                    .build(),
            )
        };
        for i in 0..20u16 {
            sw.receive(SimTime::from_nanos(i as u64 * 10), 0, frame(i % 4));
        }
        let mut last_v = 0;
        for i in 0..20u64 {
            assert!(sw.transmit(SimTime::from_micros(10 + i), 1).is_some());
            let v = sw.program.virtual_time;
            assert!(v >= last_v, "virtual time went backwards");
            last_v = v;
        }
        assert!(last_v > 0, "virtual time advanced");
        assert_eq!(sw.program.scheduled, 20);
    }

    #[test]
    fn equal_flows_share_equally_under_stfq() {
        // Three equal CBR flows through a PIFO/STFQ bottleneck: goodput
        // is even (Jain ≈ 1).
        let cfg = EventSwitchConfig {
            n_ports: 4,
            queue: QueueConfig {
                capacity_bytes: 40_000,
                disc: QueueDisc::Pifo,
                ..QueueConfig::default()
            },
            ..Default::default()
        };
        let sw = EventSwitch::new(StfqScheduler::new(64, 3), cfg);
        let (mut net, senders, sink, _) = dumbbell(Box::new(sw), 3, BOTTLENECK, 82);
        let mut sim: Sim<Network> = Sim::new();
        // Co-prime intervals and staggered starts so the flows don't
        // phase-lock on the deterministic event order (synchronized CBR
        // would let one flow always claim the freed queue slot).
        for (i, &h) in senders.iter().enumerate() {
            let src = addr(i as u8 + 1);
            let interval = SimDuration::from_micros([97u64, 101, 103][i]);
            let start = SimTime::from_micros(13 * i as u64);
            start_cbr(&mut sim, h, start, interval, u64::MAX, move |s| {
                PacketBuilder::udp(src, sink_addr(), 500 + i as u16, 9000, &[])
                    .ident(s as u16)
                    .pad_to(1500)
                    .build()
            });
        }
        run_until(&mut net, &mut sim, HORIZON);
        let goodputs: Vec<f64> = (0..3)
            .map(|i| {
                let key = edp_packet::FlowKey::new(
                    addr(i as u8 + 1),
                    sink_addr(),
                    edp_packet::IpProto::Udp,
                    500 + i as u16,
                    9000,
                );
                net.hosts[sink]
                    .stats
                    .flows
                    .get(&key)
                    .map(|f| f.bytes as f64)
                    .unwrap_or(0.0)
            })
            .collect();
        let j = jain_fairness(&goodputs);
        assert!(j > 0.95, "jain {j}: {goodputs:?}");
    }
}
