//! In-network INT report reduction (§3 "Network Monitoring").
//!
//! "One challenge with INT is the potentially huge volume of measurement
//! data, which might overwhelm a software-based logging and analysis
//! system. But if we can expose event-driven programming to the
//! programmer, data-plane applications can analyze, pre-process and
//! reduce the amount of data reports, using filters and watchlists. For
//! example, data planes can use timer events to aggregate congestion
//! information (e.g. queue size, packet loss, or active flow count) and
//! only report anomalous events to the monitoring system periodically."
//!
//! * [`IntPerPacket`] — the baseline INT collector: one report per
//!   packet (the firehose).
//! * [`IntReduced`] — the event-driven reducer: enqueue/dequeue/overflow
//!   events aggregate queue size, loss, and active flows; a timer event
//!   emits ONE summary report per window, plus immediate reports only
//!   for anomalies (queue above a threshold) gated by a per-window
//!   watchlist so each anomalous source reports once per window.

use edp_core::event::{DequeueEvent, EnqueueEvent, OverflowEvent, TimerEvent};
use edp_core::{Accessor, EventActions, EventProgram, SharedRegister};
use edp_evsim::SimTime;
use edp_packet::{Packet, ParsedPacket};
use edp_pisa::{Destination, PortId, StdMeta};
use serde::{Deserialize, Serialize};

/// Timer id for the report window.
pub const TIMER_WINDOW: u16 = 0;
/// Notification code: periodic window summary.
pub const NOTIFY_SUMMARY: u32 = 30;
/// Notification code: anomaly (queue above threshold).
pub const NOTIFY_ANOMALY: u32 = 31;

/// One aggregated window summary, as delivered to the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowSummary {
    /// When the window closed.
    pub at: SimTime,
    /// Peak queue occupancy in the window, bytes.
    pub peak_q_bytes: u64,
    /// Packets lost to overflow in the window.
    pub losses: u64,
    /// Active flows at window close.
    pub active_flows: u64,
}

/// Baseline: report every packet (what raw INT does).
#[derive(Debug)]
pub struct IntPerPacket {
    /// Output port for data traffic.
    pub out_port: PortId,
    /// Reports emitted toward the monitoring system.
    pub reports: u64,
}

impl IntPerPacket {
    /// Creates the per-packet reporter.
    pub fn new(out_port: PortId) -> Self {
        IntPerPacket {
            out_port,
            reports: 0,
        }
    }
}

impl EventProgram for IntPerPacket {
    fn on_ingress(
        &mut self,
        _pkt: &mut Packet,
        _parsed: &ParsedPacket,
        meta: &mut StdMeta,
        _now: SimTime,
        a: &mut EventActions,
    ) {
        meta.dest = Destination::Port(self.out_port);
        // One telemetry report per packet — the firehose the paper warns
        // about. Modelled as a control-plane notification (the monitor
        // channel); a hardware design would emit report packets instead,
        // with identical volume.
        self.reports += 1;
        a.notify_control_plane(NOTIFY_SUMMARY, [meta.pkt_len as u64, 0, 0, 0]);
    }
}

/// Event-driven reducer: aggregate in the data plane, report per window.
#[derive(Debug)]
pub struct IntReduced {
    /// Output port for data traffic.
    pub out_port: PortId,
    /// Anomaly threshold on queue occupancy, bytes.
    pub anomaly_thresh: u64,
    /// Per-flow occupancy (for the active-flow count).
    pub flow_occ: SharedRegister,
    /// Active flows (computed from enqueue/dequeue events).
    pub active_flows: u64,
    /// Peak queue occupancy this window.
    pub window_peak: u64,
    /// Overflow losses this window.
    pub window_losses: u64,
    /// Watchlist latch: whether an anomaly was already reported this
    /// window (per port).
    pub anomaly_latched: Vec<bool>,
    /// Reports emitted (summaries + anomalies).
    pub reports: u64,
    /// Anomaly reports within `reports`.
    pub anomaly_reports: u64,
    /// Summaries captured locally for test inspection.
    pub summaries: Vec<WindowSummary>,
}

impl IntReduced {
    /// Creates the reducer.
    pub fn new(out_port: PortId, n_ports: usize, n_flows: usize, anomaly_thresh: u64) -> Self {
        IntReduced {
            out_port,
            anomaly_thresh,
            flow_occ: SharedRegister::new("int_flow_occ", n_flows),
            active_flows: 0,
            window_peak: 0,
            window_losses: 0,
            anomaly_latched: vec![false; n_ports],
            reports: 0,
            anomaly_reports: 0,
            summaries: Vec::new(),
        }
    }
}

impl EventProgram for IntReduced {
    fn on_ingress(
        &mut self,
        _pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        _now: SimTime,
        _a: &mut EventActions,
    ) {
        meta.dest = Destination::Port(self.out_port);
        if let Some(key) = parsed.flow_key() {
            let flow = key.index(self.flow_occ.size());
            meta.event_meta = [flow as u64, meta.pkt_len as u64, 0, 0];
        }
    }

    fn on_enqueue(&mut self, ev: &EnqueueEvent, _now: SimTime, a: &mut EventActions) {
        let before = self
            .flow_occ
            .add(Accessor::Enqueue, ev.meta[0] as usize, ev.meta[1])
            - ev.meta[1];
        if before == 0 {
            self.active_flows += 1;
        }
        self.window_peak = self.window_peak.max(ev.q_bytes);
        // Anomaly filter: immediate report, once per window per port.
        let p = ev.port as usize;
        if ev.q_bytes > self.anomaly_thresh && !self.anomaly_latched[p] {
            self.anomaly_latched[p] = true;
            self.reports += 1;
            self.anomaly_reports += 1;
            a.notify_control_plane(NOTIFY_ANOMALY, [ev.port as u64, ev.q_bytes, 0, 0]);
        }
    }

    fn on_dequeue(&mut self, ev: &DequeueEvent, _now: SimTime, _a: &mut EventActions) {
        let after = self
            .flow_occ
            .sub(Accessor::Dequeue, ev.meta[0] as usize, ev.meta[1]);
        if after == 0 && self.active_flows > 0 {
            self.active_flows -= 1;
        }
    }

    fn on_overflow(&mut self, _ev: &OverflowEvent, _now: SimTime, _a: &mut EventActions) {
        self.window_losses += 1;
    }

    fn on_timer(&mut self, ev: &TimerEvent, now: SimTime, a: &mut EventActions) {
        if ev.timer_id != TIMER_WINDOW {
            return;
        }
        let s = WindowSummary {
            at: now,
            peak_q_bytes: self.window_peak,
            losses: self.window_losses,
            active_flows: self.active_flows,
        };
        self.summaries.push(s);
        self.reports += 1;
        a.notify_control_plane(
            NOTIFY_SUMMARY,
            [s.peak_q_bytes, s.losses, s.active_flows, 0],
        );
        self.window_peak = 0;
        self.window_losses = 0;
        for l in &mut self.anomaly_latched {
            *l = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{addr, dumbbell, run_until, sink_addr};
    use edp_core::{EventSwitch, EventSwitchConfig, TimerSpec};
    use edp_evsim::{Sim, SimDuration};
    use edp_netsim::traffic::{start_burst, start_cbr};
    use edp_netsim::Network;
    use edp_packet::PacketBuilder;
    use edp_pisa::QueueConfig;

    const WINDOW: SimDuration = SimDuration::from_millis(2);
    const HORIZON: SimTime = SimTime::from_millis(40);
    const THRESH: u64 = 30_000;

    fn drive(net: &mut Network, sim: &mut Sim<Network>, senders: &[usize]) {
        // Two steady flows + one mid-run burst to trip the anomaly filter.
        for (i, &h) in senders.iter().take(2).enumerate() {
            let src = addr(i as u8 + 1);
            start_cbr(
                sim,
                h,
                SimTime::ZERO,
                SimDuration::from_micros(120),
                300,
                move |s| {
                    PacketBuilder::udp(src, sink_addr(), 10 + i as u16, 20, &[])
                        .ident(s as u16)
                        .pad_to(1000)
                        .build()
                },
            );
        }
        let src = addr(3);
        start_burst(sim, senders[2], SimTime::from_millis(20), 60, move |s| {
            PacketBuilder::udp(src, sink_addr(), 30, 40, &[])
                .ident(s as u16)
                .pad_to(1500)
                .build()
        });
        run_until(net, sim, HORIZON);
    }

    fn qc() -> QueueConfig {
        QueueConfig {
            capacity_bytes: 150_000,
            ..QueueConfig::default()
        }
    }

    #[test]
    fn reduction_factor_is_large_and_anomaly_is_caught() {
        // Per-packet baseline.
        let cfg = EventSwitchConfig {
            n_ports: 4,
            queue: qc(),
            ..Default::default()
        };
        let sw = EventSwitch::new(IntPerPacket::new(3), cfg);
        let (mut net, senders, _, _) = dumbbell(Box::new(sw), 3, 200_000_000, 111);
        let mut sim: Sim<Network> = Sim::new();
        drive(&mut net, &mut sim, &senders);
        let raw_reports = net
            .switch_as::<EventSwitch<IntPerPacket>>(0)
            .program
            .reports;

        // Event-driven reducer, identical workload.
        let cfg = EventSwitchConfig {
            n_ports: 4,
            queue: qc(),
            timers: vec![TimerSpec {
                id: TIMER_WINDOW,
                period: WINDOW,
                start: WINDOW,
            }],
            ..Default::default()
        };
        let sw = EventSwitch::new(IntReduced::new(3, 4, 64, THRESH), cfg);
        let (mut net, senders, _, _) = dumbbell(Box::new(sw), 3, 200_000_000, 111);
        let mut sim: Sim<Network> = Sim::new();
        drive(&mut net, &mut sim, &senders);
        let prog = &net.switch_as::<EventSwitch<IntReduced>>(0).program;

        assert!(raw_reports >= 650, "firehose: {raw_reports}");
        assert!(
            prog.reports < raw_reports / 20,
            "reduction: {} vs {raw_reports}",
            prog.reports
        );
        // The burst still surfaced, immediately, via the anomaly filter.
        assert!(prog.anomaly_reports >= 1);
        // And the monitor channel saw it.
        assert!(net.cp_log.iter().any(|(_, n)| n.code == NOTIFY_ANOMALY));
    }

    #[test]
    fn summaries_capture_congestion_signals() {
        let cfg = EventSwitchConfig {
            n_ports: 4,
            queue: qc(),
            timers: vec![TimerSpec {
                id: TIMER_WINDOW,
                period: WINDOW,
                start: WINDOW,
            }],
            ..Default::default()
        };
        let sw = EventSwitch::new(IntReduced::new(3, 4, 64, THRESH), cfg);
        let (mut net, senders, _, _) = dumbbell(Box::new(sw), 3, 200_000_000, 112);
        let mut sim: Sim<Network> = Sim::new();
        drive(&mut net, &mut sim, &senders);
        let prog = &net.switch_as::<EventSwitch<IntReduced>>(0).program;
        assert!(prog.summaries.len() >= 19, "one per window");
        // The burst window has a visibly larger peak than quiet windows.
        let peak_max = prog.summaries.iter().map(|s| s.peak_q_bytes).max().unwrap();
        let burst_windows = prog
            .summaries
            .iter()
            .filter(|s| s.peak_q_bytes > THRESH)
            .count();
        assert!(peak_max > THRESH, "peak {peak_max}");
        assert!((1..=4).contains(&burst_windows), "{burst_windows}");
        // Flow accounting returns to zero after traffic ends.
        assert_eq!(prog.summaries.last().unwrap().active_flows, 0);
    }

    #[test]
    fn anomaly_watchlist_reports_once_per_window() {
        let cfg = EventSwitchConfig {
            n_ports: 2,
            queue: qc(),
            timers: vec![TimerSpec {
                id: TIMER_WINDOW,
                period: WINDOW,
                start: WINDOW,
            }],
            ..Default::default()
        };
        let mut sw = EventSwitch::new(IntReduced::new(1, 2, 16, 1_000), cfg);
        let frame = PacketBuilder::udp(addr(1), addr(9), 1, 2, &[])
            .pad_to(1500)
            .build();
        // Many enqueues above threshold within one window: one report.
        for i in 0..20u64 {
            sw.receive(
                SimTime::from_micros(i),
                0,
                edp_packet::Packet::anonymous(frame.clone()),
            );
        }
        assert_eq!(sw.program.anomaly_reports, 1);
        // Next window: latch clears, a new anomaly reports again.
        sw.fire_due_timers(SimTime::from_millis(2));
        for i in 0..5u64 {
            sw.receive(
                SimTime::from_millis(3) + SimDuration::from_micros(i),
                0,
                edp_packet::Packet::anonymous(frame.clone()),
            );
        }
        assert_eq!(sw.program.anomaly_reports, 2);
    }
}
