//! Fast re-route (§3 "Network Management", §5 student project).
//!
//! A switch has a primary and a backup path to the same destination.
//! When the primary link fails:
//!
//! * [`FrrEvent`] (event-driven) — the `on_link_status` handler flips the
//!   active route **in the data plane, immediately**: packets lost are
//!   only those already in flight / queued on the dead port.
//! * [`FrrBaseline`] (baseline) — the switch silently keeps forwarding
//!   into the dead link until the control plane learns of the failure
//!   and installs a new route via the management channel. Every packet
//!   sent in that window is lost.
//!
//! The metric, as in the paper's Blink/FRR motivation: packets lost
//! during failover as a function of control-plane latency.

use edp_core::event::LinkStatusEvent;
use edp_core::{EventActions, EventProgram};
use edp_evsim::SimTime;
use edp_packet::{Packet, ParsedPacket};
use edp_pisa::{Destination, PisaProgram, PortId, StdMeta};
use serde::{Deserialize, Serialize};

/// Control-plane opcode for "set active output port" (`args[0]` = port).
pub const CP_OP_SET_ROUTE: u32 = 2;

/// Failover bookkeeping shared by both variants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrrStats {
    /// When the program switched to the backup route (if it did).
    pub failover_at: Option<SimTime>,
    /// Packets forwarded while the active port's link was actually dead
    /// (blackholed) — counted by the experiment, not the program.
    pub reroutes: u64,
}

/// Event-driven fast re-route.
#[derive(Debug)]
pub struct FrrEvent {
    /// Active output port.
    pub active: PortId,
    /// Primary port.
    pub primary: PortId,
    /// Backup port.
    pub backup: PortId,
    /// Bookkeeping.
    pub stats: FrrStats,
}

impl FrrEvent {
    /// Creates the program forwarding on `primary` with `backup` standby.
    pub fn new(primary: PortId, backup: PortId) -> Self {
        FrrEvent {
            active: primary,
            primary,
            backup,
            stats: FrrStats::default(),
        }
    }
}

impl EventProgram for FrrEvent {
    fn on_ingress(
        &mut self,
        _pkt: &mut Packet,
        _parsed: &ParsedPacket,
        meta: &mut StdMeta,
        _now: SimTime,
        _a: &mut EventActions,
    ) {
        meta.dest = Destination::Port(self.active);
    }

    fn on_link_status(&mut self, ev: &LinkStatusEvent, now: SimTime, a: &mut EventActions) {
        if ev.port == self.active && !ev.up {
            // Immediate data-plane failover; tell the monitor it happened.
            self.active = if self.active == self.primary {
                self.backup
            } else {
                self.primary
            };
            self.stats.failover_at = Some(now);
            self.stats.reroutes += 1;
            a.notify_control_plane(CP_OP_SET_ROUTE, [self.active as u64, 0, 0, 0]);
        } else if ev.port == self.primary && ev.up && self.active != self.primary {
            // Revert to primary on recovery.
            self.active = self.primary;
            self.stats.reroutes += 1;
        }
    }
}

/// Baseline re-route: the route changes only when the controller says so.
#[derive(Debug)]
pub struct FrrBaseline {
    /// Active output port (a one-entry "table").
    pub active: PortId,
    /// Bookkeeping.
    pub stats: FrrStats,
}

impl FrrBaseline {
    /// Creates the program forwarding on `primary`.
    pub fn new(primary: PortId) -> Self {
        FrrBaseline {
            active: primary,
            stats: FrrStats::default(),
        }
    }
}

impl PisaProgram for FrrBaseline {
    fn ingress(
        &mut self,
        _pkt: &mut Packet,
        _parsed: &ParsedPacket,
        meta: &mut StdMeta,
        _now: SimTime,
    ) {
        meta.dest = Destination::Port(self.active);
    }

    fn control_update(&mut self, opcode: u32, args: [u64; 4], now: SimTime) {
        if opcode == CP_OP_SET_ROUTE {
            self.active = args[0] as PortId;
            self.stats.failover_at = Some(now);
            self.stats.reroutes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{addr, run_until};
    use edp_core::{BaselineAdapter, EventSwitch, EventSwitchConfig};
    use edp_evsim::{Sim, SimDuration};
    use edp_netsim::traffic::start_cbr;
    use edp_netsim::{FaultPlan, Host, HostApp, LinkSpec, Network, NodeRef, SwitchHarness};
    use edp_packet::PacketBuilder;
    use edp_pisa::{ForwardTo, QueueConfig};

    /// h0 — swA —(primary link L1)— swR — sink
    ///          \(backup  link L2)/
    /// Returns (net, sender, sink, primary link id).
    fn diamond(sw_a: Box<dyn SwitchHarness>) -> (Network, usize, usize, usize) {
        let mut net = Network::new(21);
        let a = net.add_switch(sw_a);
        // swR: 3 ports; forwards everything to port 2 (the sink).
        let r = net.add_switch(Box::new(EventSwitch::baseline(
            ForwardTo(2),
            3,
            QueueConfig::default(),
        )));
        let h0 = net.add_host(Host::new(addr(1), HostApp::Sink));
        let sink = net.add_host(Host::new(addr(9), HostApp::Sink));
        let spec = LinkSpec::ten_gig(SimDuration::from_micros(1));
        net.connect((NodeRef::Host(h0), 0), (NodeRef::Switch(a), 0), spec);
        let primary = net.connect((NodeRef::Switch(a), 1), (NodeRef::Switch(r), 0), spec);
        let _backup = net.connect((NodeRef::Switch(a), 2), (NodeRef::Switch(r), 1), spec);
        net.connect((NodeRef::Switch(r), 2), (NodeRef::Host(sink), 0), spec);
        (net, h0, sink, primary)
    }

    const FAIL_AT: SimTime = SimTime::from_millis(5);
    const PKTS: u64 = 1000;
    const INTERVAL: SimDuration = SimDuration::from_micros(10);

    fn drive(net: &mut Network, sim: &mut Sim<Network>, sender: usize, primary: usize) {
        net.schedule_link_failure(sim, primary, FAIL_AT, None);
        let src = addr(1);
        start_cbr(sim, sender, SimTime::ZERO, INTERVAL, PKTS, move |i| {
            PacketBuilder::udp(src, addr(9), 1, 2, &[])
                .ident(i as u16)
                .pad_to(500)
                .build()
        });
        run_until(net, sim, SimTime::from_millis(30));
    }

    #[test]
    fn event_frr_loses_almost_nothing() {
        let cfg = EventSwitchConfig {
            n_ports: 3,
            ..Default::default()
        };
        let sw = EventSwitch::new(FrrEvent::new(1, 2), cfg);
        let (mut net, sender, sink, primary) = diamond(Box::new(sw));
        let mut sim: Sim<Network> = Sim::new();
        drive(&mut net, &mut sim, sender, primary);
        let lost = PKTS - net.hosts[sink].stats.rx_pkts;
        assert!(lost <= 2, "event-driven FRR lost {lost} packets");
        let prog = &net.switch_as::<EventSwitch<FrrEvent>>(0).program;
        assert_eq!(prog.stats.failover_at, Some(FAIL_AT));
        assert_eq!(prog.active, 2);
        // The data plane also notified the controller asynchronously.
        assert!(net.cp_log.iter().any(|(_, n)| n.code == CP_OP_SET_ROUTE));
    }

    #[test]
    fn baseline_frr_blackholes_for_the_control_loop() {
        let sw = EventSwitch::baseline(FrrBaseline::new(1), 3, QueueConfig::default());
        let (mut net, sender, sink, primary) = diamond(Box::new(sw));
        let mut sim: Sim<Network> = Sim::new();
        // Control loop: failure detected + route computed + installed
        // 2 ms after the failure.
        let cp_delay = SimDuration::from_millis(2);
        sim.schedule_at(FAIL_AT, move |w: &mut Network, s: &mut Sim<Network>| {
            w.control_plane_send(s, cp_delay, 0, CP_OP_SET_ROUTE, [2, 0, 0, 0]);
        });
        drive(&mut net, &mut sim, sender, primary);
        let lost = PKTS - net.hosts[sink].stats.rx_pkts;
        // 2 ms blackhole at one packet per 10 us ≈ 200 packets.
        assert!(
            (150..=260).contains(&lost),
            "baseline lost {lost}, expected ≈200"
        );
        let prog = &net
            .switch_as::<EventSwitch<BaselineAdapter<FrrBaseline>>>(0)
            .program
            .0;
        assert_eq!(prog.stats.failover_at, Some(FAIL_AT + cp_delay));
    }

    #[test]
    fn event_frr_rides_out_a_flapping_primary() {
        let cfg = EventSwitchConfig {
            n_ports: 3,
            ..Default::default()
        };
        let sw = EventSwitch::new(FrrEvent::new(1, 2), cfg);
        let (mut net, sender, sink, primary) = diamond(Box::new(sw));
        let mut sim: Sim<Network> = Sim::new();
        // Three down/up cycles: down at 5/8/11 ms, 1 ms down each.
        let period = SimDuration::from_millis(3);
        let plan =
            FaultPlan::new(5).link_flap(primary, FAIL_AT, SimDuration::from_millis(1), period, 3);
        plan.apply(&mut net, &mut sim);
        let src = addr(1);
        start_cbr(&mut sim, sender, SimTime::ZERO, INTERVAL, PKTS, move |i| {
            PacketBuilder::udp(src, addr(9), 1, 2, &[])
                .ident(i as u16)
                .pad_to(500)
                .build()
        });
        run_until(&mut net, &mut sim, SimTime::from_millis(30));
        let sw = net.switch_as::<EventSwitch<FrrEvent>>(0);
        assert_eq!(
            sw.counters().link_transitions,
            6,
            "a down and an up per cycle"
        );
        assert_eq!(sw.program.stats.reroutes, 6, "failover + revert per cycle");
        assert_eq!(sw.program.active, 1, "back on primary after the last flap");
        // The last failover happened at the third down, instantly.
        let last_down = FAIL_AT + period * 2;
        assert_eq!(
            sw.program
                .stats
                .failover_at
                .map(|t| t.saturating_since(last_down)),
            Some(SimDuration::ZERO)
        );
        let lost = PKTS - net.hosts[sink].stats.rx_pkts;
        assert!(lost <= 6, "lost {lost} across three flaps");
    }

    #[test]
    fn event_frr_reverts_on_recovery() {
        let cfg = EventSwitchConfig {
            n_ports: 3,
            ..Default::default()
        };
        let sw = EventSwitch::new(FrrEvent::new(1, 2), cfg);
        let (mut net, sender, sink, primary) = diamond(Box::new(sw));
        let mut sim: Sim<Network> = Sim::new();
        net.schedule_link_failure(&mut sim, primary, FAIL_AT, Some(SimTime::from_millis(8)));
        let src = addr(1);
        start_cbr(&mut sim, sender, SimTime::ZERO, INTERVAL, PKTS, move |i| {
            PacketBuilder::udp(src, addr(9), 1, 2, &[])
                .ident(i as u16)
                .pad_to(500)
                .build()
        });
        run_until(&mut net, &mut sim, SimTime::from_millis(30));
        let prog = &net.switch_as::<EventSwitch<FrrEvent>>(0).program;
        assert_eq!(prog.active, 1, "back on primary after recovery");
        assert_eq!(prog.stats.reroutes, 2);
        let lost = PKTS - net.hosts[sink].stats.rx_pkts;
        assert!(lost <= 4, "lost {lost}");
    }
}
