//! Periodic count-min-sketch reset (§1, §3 "Network Monitoring").
//!
//! A CMS counting per-flow bytes must be cleared every measurement window.
//! On a baseline PISA device "the control plane must be responsible for
//! performing the reset operation", paying a controller round trip per
//! window and burning controller cycles; an event-driven device resets
//! from a timer event entirely in the data plane.
//!
//! Both variants run the same sketch and the same traffic; the experiment
//! compares control-plane message load and *reset lateness* — how long
//! after the nominal window boundary the counters actually clear, which
//! directly inflates over-counting at window edges.

use edp_core::event::{ControlPlaneEvent, TimerEvent};
use edp_core::{EventActions, EventProgram};
use edp_evsim::SimTime;
use edp_packet::{Packet, ParsedPacket};
use edp_pisa::{Destination, PortId, StdMeta};
use edp_primitives::CountMinSketch;
use serde::{Deserialize, Serialize};

/// Control-plane opcode for "reset the sketch".
pub const CP_OP_RESET: u32 = 1;

/// A recorded sketch reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResetRecord {
    /// When the reset executed in the data plane.
    pub at: SimTime,
    /// Items that had accumulated since the previous reset.
    pub items_cleared: u64,
}

/// Flow-byte accounting with periodic reset; the reset path is selected
/// by which stimulus arrives (timer event vs. control-plane event).
#[derive(Debug)]
pub struct CmsMonitor {
    /// The sketch.
    pub cms: CountMinSketch,
    /// Output port for data traffic.
    pub out_port: PortId,
    /// Reset history.
    pub resets: Vec<ResetRecord>,
    /// Peak estimate observed for any queried flow (sanity metric).
    pub peak_estimate: u64,
}

impl CmsMonitor {
    /// Creates the monitor.
    pub fn new(width: usize, depth: usize, out_port: PortId) -> Self {
        CmsMonitor {
            cms: CountMinSketch::new(width, depth),
            out_port,
            resets: Vec::new(),
            peak_estimate: 0,
        }
    }

    fn do_reset(&mut self, now: SimTime) {
        self.resets.push(ResetRecord {
            at: now,
            items_cleared: self.cms.items(),
        });
        self.cms.reset();
    }

    /// Mean lateness of resets against a nominal period, in ns: the i-th
    /// reset should happen at `(i+1) * period`.
    pub fn mean_reset_lateness_ns(&self, period_ns: u64) -> f64 {
        if self.resets.is_empty() {
            return f64::INFINITY;
        }
        let total: u64 = self
            .resets
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let nominal = (i as u64 + 1) * period_ns;
                r.at.as_nanos().saturating_sub(nominal)
            })
            .sum();
        total as f64 / self.resets.len() as f64
    }
}

impl EventProgram for CmsMonitor {
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
            self.cms.update(key.hash64(), meta.pkt_len as u64);
            let est = self.cms.query(key.hash64());
            self.peak_estimate = self.peak_estimate.max(est);
        }
    }

    /// The event-driven reset path.
    fn on_timer(&mut self, _ev: &TimerEvent, now: SimTime, _a: &mut EventActions) {
        self.do_reset(now);
    }

    /// The baseline reset path (controller command arriving over the
    /// control channel).
    fn on_control_plane(&mut self, ev: &ControlPlaneEvent, now: SimTime, _a: &mut EventActions) {
        if ev.opcode == CP_OP_RESET {
            self.do_reset(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{run_until, Dumbbell, Flow, Scenario};
    use edp_core::{EventSwitch, EventSwitchConfig, TimerSpec};
    use edp_evsim::{Sim, SimDuration};
    use edp_netsim::Network;

    const PERIOD: SimDuration = SimDuration::from_millis(1);
    const HORIZON: SimTime = SimTime::from_millis(10);

    /// One flow of 450 × 500 B, one every 20 us; the built world.
    fn build(timers: Vec<TimerSpec>) -> (Network, Sim<Network>) {
        let cfg = EventSwitchConfig {
            n_ports: 2,
            timers,
            ..Default::default()
        };
        let sw = EventSwitch::new(CmsMonitor::new(512, 4, 1), cfg);
        let interval = SimDuration::from_micros(20);
        let flow = Flow::cbr(0, SimTime::ZERO, interval, 450, 1, 2, 500);
        let sc = Scenario {
            dumbbell: Dumbbell {
                senders: 1,
                bottleneck_bps: 10_000_000_000,
                seed: 11,
            },
            flows: vec![flow],
            until: HORIZON,
        };
        sc.build(Box::new(sw))
    }

    #[test]
    fn timer_reset_is_punctual_and_free() {
        let (mut net, mut sim) = build(vec![TimerSpec {
            id: 0,
            period: PERIOD,
            start: PERIOD,
        }]);
        run_until(&mut net, &mut sim, HORIZON);
        let prog = &net.switch_as::<EventSwitch<CmsMonitor>>(0).program;
        assert_eq!(prog.resets.len(), 10, "one reset per ms");
        assert_eq!(prog.mean_reset_lateness_ns(PERIOD.as_nanos()), 0.0);
        assert_eq!(net.cp_messages, 0, "no control-plane involvement");
        // The sketch really was cleared: items per window ≈ 450/10 packets.
        for r in &prog.resets[1..9] {
            assert!(r.items_cleared > 0, "traffic flowed in each window");
        }
    }

    #[test]
    fn control_plane_reset_pays_rtt_and_messages() {
        let (mut net, mut sim) = build(vec![]);
        // Controller issues a reset each period, arriving rtt/2 later.
        fn controller(w: &mut Network, s: &mut Sim<Network>) {
            let rtt_half = SimDuration::from_micros(250); // controller→switch latency
            w.control_plane_send(s, rtt_half, 0, CP_OP_RESET, [0; 4]);
            s.rearm_at(s.now() + PERIOD, controller);
        }
        sim.schedule_at(SimTime::ZERO + PERIOD, controller);
        run_until(&mut net, &mut sim, HORIZON);
        let prog = &net.switch_as::<EventSwitch<CmsMonitor>>(0).program;
        assert!(prog.resets.len() >= 9);
        let lateness = prog.mean_reset_lateness_ns(PERIOD.as_nanos());
        assert!(
            (lateness - 250_000.0).abs() < 1_000.0,
            "reset lateness should equal the CP channel latency, got {lateness}"
        );
        assert_eq!(net.cp_messages, prog.resets.len() as u64 + 1);
    }

    #[test]
    fn sketch_counts_between_resets() {
        let (mut net, mut sim) = build(vec![TimerSpec {
            id: 0,
            period: PERIOD,
            start: PERIOD,
        }]);
        run_until(&mut net, &mut sim, HORIZON);
        let prog = &net.switch_as::<EventSwitch<CmsMonitor>>(0).program;
        // 450 pkts × 500 B over 10 windows: peak per-window estimate for
        // the single flow is ≈ 45 × 500 = 22.5 KB (within CMS error).
        assert!(prog.peak_estimate >= 20_000, "peak {}", prog.peak_estimate);
        assert!(prog.peak_estimate <= 30_000, "peak {}", prog.peak_estimate);
    }
}
