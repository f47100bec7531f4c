//! Flow-fair AQM from enqueue/dequeue congestion signals (§5 student
//! project "Computing Congestion Signals"; §3 "Traffic Management").
//!
//! The event-driven program maintains, purely from enqueue/dequeue
//! events, the three congestion signals the paper names: **total buffer
//! occupancy**, **per-active-flow buffer occupancy**, and **active flow
//! count**. At ingress it enforces FRED-style fairness (Lin & Morris):
//! a packet is dropped when its flow already holds more than its fair
//! share of the buffer. A timer event periodically reports the occupancy
//! to a monitor — also straight from the data plane.
//!
//! The baseline comparator is plain drop-tail: without enqueue/dequeue
//! events a baseline program cannot know per-flow occupancy, so the hog
//! flow that fills the queue keeps most of the bottleneck.

use edp_core::event::{DequeueEvent, EnqueueEvent, TimerEvent};
use edp_core::{Accessor, EventActions, EventProgram, SharedRegister};
use edp_evsim::{SimTime, TimeSeries};
use edp_packet::{Packet, ParsedPacket};
use edp_pisa::{Destination, PortId, StdMeta};

/// Timer id for occupancy reporting.
pub const TIMER_REPORT: u16 = 0;
/// Control-plane notification: periodic occupancy report.
pub const NOTIFY_OCCUPANCY: u32 = 20;

/// FRED-like fair AQM driven by data-plane events.
#[derive(Debug)]
pub struct FredAqm {
    /// Per-flow buffer occupancy in bytes.
    pub flow_occ: SharedRegister,
    /// Signals computed from events.
    pub total_occ: u64,
    /// Number of flows with at least one buffered packet.
    pub active_flows: u64,
    /// Queue capacity the fair share is computed against, in bytes.
    pub capacity: u64,
    /// Minimum per-flow allowance in bytes (small flows are never hit).
    pub min_quantum: u64,
    /// Output port for data traffic.
    pub out_port: PortId,
    /// Drops per flow slot (diagnostic).
    pub drops: Vec<u64>,
    /// Occupancy samples from the report timer.
    pub occupancy_series: TimeSeries,
}

impl FredAqm {
    /// Creates the AQM for a queue of `capacity` bytes.
    pub fn new(n_flows: usize, capacity: u64, min_quantum: u64, out_port: PortId) -> Self {
        FredAqm {
            flow_occ: SharedRegister::new("flow_occ", n_flows),
            total_occ: 0,
            active_flows: 0,
            capacity,
            min_quantum,
            out_port,
            drops: vec![0; n_flows],
            occupancy_series: TimeSeries::new(),
        }
    }

    /// The current fair share per active flow, in bytes.
    pub fn fair_share(&self) -> u64 {
        (self.capacity / self.active_flows.max(1)).max(self.min_quantum)
    }
}

impl EventProgram for FredAqm {
    fn on_ingress(
        &mut self,
        _pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        _now: SimTime,
        _a: &mut EventActions,
    ) {
        let Some(key) = parsed.flow_key() else {
            meta.dest = Destination::Port(self.out_port);
            return;
        };
        let flow = key.index(self.flow_occ.size());
        meta.event_meta = [flow as u64, meta.pkt_len as u64, 0, 0];
        let occ = self.flow_occ.read(Accessor::Packet, flow);
        if occ + meta.pkt_len as u64 > self.fair_share() {
            self.drops[flow] += 1;
            meta.dest = Destination::Drop;
        } else {
            meta.dest = Destination::Port(self.out_port);
        }
    }

    fn on_enqueue(&mut self, ev: &EnqueueEvent, _now: SimTime, _a: &mut EventActions) {
        let flow = ev.meta[0] as usize;
        let before = self.flow_occ.add(Accessor::Enqueue, flow, ev.meta[1]) - ev.meta[1];
        if before == 0 {
            self.active_flows += 1;
        }
        self.total_occ += ev.meta[1];
    }

    fn on_dequeue(&mut self, ev: &DequeueEvent, _now: SimTime, _a: &mut EventActions) {
        let flow = ev.meta[0] as usize;
        let after = self.flow_occ.sub(Accessor::Dequeue, flow, ev.meta[1]);
        if after == 0 && self.active_flows > 0 {
            self.active_flows -= 1;
        }
        self.total_occ = self.total_occ.saturating_sub(ev.meta[1]);
    }

    fn on_timer(&mut self, ev: &TimerEvent, now: SimTime, a: &mut EventActions) {
        if ev.timer_id == TIMER_REPORT {
            self.occupancy_series.push(now, self.total_occ as f64);
            a.notify_control_plane(NOTIFY_OCCUPANCY, [self.total_occ, self.active_flows, 0, 0]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{addr, dumbbell, run_until, sink_addr};
    use edp_core::{EventSwitch, EventSwitchConfig, TimerSpec};
    use edp_evsim::{jain_fairness, Sim, SimDuration};
    use edp_netsim::traffic::start_cbr;
    use edp_netsim::Network;
    use edp_packet::PacketBuilder;
    use edp_pisa::{ForwardTo, QueueConfig};

    const CAPACITY: u64 = 30_000;
    const BOTTLENECK: u64 = 100_000_000; // 100 Mb/s

    fn queue_cfg() -> QueueConfig {
        QueueConfig {
            capacity_bytes: CAPACITY,
            ..QueueConfig::default()
        }
    }

    /// 3 polite senders at 40 Mb/s each + 1 hog at 400 Mb/s into a
    /// 100 Mb/s bottleneck. Returns per-sender goodput (bps).
    fn run(fair: bool) -> (Vec<f64>, Option<Vec<(u64, f64)>>) {
        let n = 4;
        let (mut net, senders, sink, _) = if fair {
            let cfg = EventSwitchConfig {
                n_ports: 5,
                queue: queue_cfg(),
                timers: vec![TimerSpec {
                    id: TIMER_REPORT,
                    period: SimDuration::from_millis(1),
                    start: SimDuration::from_millis(1),
                }],
                ..Default::default()
            };
            let sw = EventSwitch::new(FredAqm::new(64, CAPACITY, 2000, 4), cfg);
            dumbbell(Box::new(sw), n, BOTTLENECK, 55)
        } else {
            let sw = EventSwitch::baseline(ForwardTo(4), 5, queue_cfg());
            dumbbell(Box::new(sw), n, BOTTLENECK, 55)
        };
        let mut sim: Sim<Network> = Sim::new();
        let horizon = SimTime::from_millis(100);
        for (i, &h) in senders.iter().enumerate() {
            let src = addr(i as u8 + 1);
            let port = 1000 + i as u16;
            // Polite: 1500 B / 300 us = 40 Mb/s. Hog: 1500 B / 30 us = 400 Mb/s.
            let interval = if i == n - 1 {
                SimDuration::from_micros(30)
            } else {
                SimDuration::from_micros(300)
            };
            start_cbr(&mut sim, h, SimTime::ZERO, interval, u64::MAX, move |s| {
                PacketBuilder::udp(src, sink_addr(), port, 9000, &[])
                    .ident(s as u16)
                    .pad_to(1500)
                    .build()
            });
        }
        run_until(&mut net, &mut sim, horizon);
        let goodputs: Vec<f64> = (0..n)
            .map(|i| {
                let key = edp_packet::FlowKey::new(
                    addr(i as u8 + 1),
                    sink_addr(),
                    edp_packet::IpProto::Udp,
                    1000 + i as u16,
                    9000,
                );
                net.hosts[sink]
                    .stats
                    .flows
                    .get(&key)
                    .map(|f| f.bytes as f64 * 8.0 / 0.1)
                    .unwrap_or(0.0)
            })
            .collect();
        let series = fair.then(|| {
            net.switch_as::<EventSwitch<FredAqm>>(0)
                .program
                .occupancy_series
                .points()
                .to_vec()
        });
        (goodputs, series)
    }

    #[test]
    fn fred_improves_fairness_over_droptail() {
        let (droptail, _) = run(false);
        let (fred, _) = run(true);
        let j_drop = jain_fairness(&droptail);
        let j_fred = jain_fairness(&fred);
        assert!(
            j_fred > j_drop + 0.1,
            "FRED {j_fred:.3} should beat droptail {j_drop:.3} (goodputs {fred:?} vs {droptail:?})"
        );
        // The hog must not starve polite flows under FRED.
        let polite_min = fred[..3].iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            polite_min > 0.5 * 40e6 * 0.5,
            "polite flows starved: {fred:?}"
        );
    }

    #[test]
    fn occupancy_reports_flow_from_data_plane() {
        let (_, series) = run(true);
        let series = series.expect("event run records occupancy");
        assert!(series.len() >= 90, "one report per ms");
        let max = series.iter().map(|&(_, v)| v).fold(0.0, f64::max);
        assert!(max > 0.0, "congestion visible in reports");
        assert!(max <= CAPACITY as f64);
    }

    #[test]
    fn active_flow_count_returns_to_zero() {
        let cfg = EventSwitchConfig {
            n_ports: 3,
            queue: queue_cfg(),
            ..Default::default()
        };
        let sw = EventSwitch::new(FredAqm::new(64, CAPACITY, 2000, 2), cfg);
        let (mut net, senders, _, _) = dumbbell(Box::new(sw), 2, 10_000_000_000, 77);
        let mut sim: Sim<Network> = Sim::new();
        let src = addr(1);
        start_cbr(
            &mut sim,
            senders[0],
            SimTime::ZERO,
            SimDuration::from_micros(50),
            100,
            move |i| {
                PacketBuilder::udp(src, sink_addr(), 1, 2, &[])
                    .ident(i as u16)
                    .pad_to(1000)
                    .build()
            },
        );
        run_until(&mut net, &mut sim, SimTime::from_millis(50));
        let p = &net.switch_as::<EventSwitch<FredAqm>>(0).program;
        assert_eq!(p.active_flows, 0);
        assert_eq!(p.total_occ, 0);
        assert_eq!(p.flow_occ.nonzero_entries(), 0);
    }
}
