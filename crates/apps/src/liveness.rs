//! Liveness monitoring in the data plane (§5 student project).
//!
//! A monitoring switch "periodically checks the liveness of neighboring
//! network devices by transmitting echo request packets and waiting for
//! replies. Upon detecting failure of a neighbor, the data plane
//! transmits notifications to a central monitor, with no intervention by
//! the control plane."
//!
//! * [`LivenessMonitor`] — timer event 0 generates a probe per neighbor
//!   (packet generation from the data plane!); timer event 1 sweeps
//!   `last_heard` and declares neighbors dead after `timeout`.
//! * [`LivenessReflector`] — the neighbor's data plane turns requests
//!   into replies without touching its control plane. A `dead` flag
//!   (settable via a control-plane event) simulates a soft failure that
//!   produces **no** link-status signal — exactly the case where probing
//!   is needed at all.

use edp_core::event::{ControlPlaneEvent, TimerEvent};
use edp_core::{EventActions, EventProgram};
use edp_evsim::SimTime;
use edp_packet::{AppHeader, LivenessHeader, LivenessKind, Packet, PacketBuilder, ParsedPacket};
use edp_pisa::{Destination, PortId, StdMeta};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Timer id for probe generation.
pub const TIMER_PROBE: u16 = 0;
/// Timer id for the timeout sweep.
pub const TIMER_CHECK: u16 = 1;
/// Control-plane notification code: neighbor declared dead.
pub const NOTIFY_NEIGHBOR_DEAD: u32 = 10;
/// Control-plane opcode: simulate a soft failure of a reflector.
pub const CP_OP_KILL: u32 = 11;

/// A monitored neighbor.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Neighbor {
    /// The port this neighbor hangs off.
    pub port: PortId,
    /// Its IPv4 address (probe destination).
    pub addr: Ipv4Addr,
}

#[derive(Debug, Clone, Copy)]
struct NeighborState {
    last_heard: SimTime,
    declared_dead: Option<SimTime>,
    rtt_last_ns: u64,
}

/// The monitoring switch's program.
#[derive(Debug)]
pub struct LivenessMonitor {
    /// This monitor's address (probe source).
    pub addr: Ipv4Addr,
    /// Monitored neighbors.
    pub neighbors: Vec<Neighbor>,
    states: Vec<NeighborState>,
    /// Declare dead after this long without a reply.
    pub timeout_ns: u64,
    seq: u32,
    /// Probes sent.
    pub probes_sent: u64,
    /// Replies received.
    pub replies_received: u64,
}

impl LivenessMonitor {
    /// Creates the monitor.
    pub fn new(addr: Ipv4Addr, neighbors: Vec<Neighbor>, timeout_ns: u64) -> Self {
        let states = neighbors
            .iter()
            .map(|_| NeighborState {
                last_heard: SimTime::ZERO,
                declared_dead: None,
                rtt_last_ns: 0,
            })
            .collect();
        LivenessMonitor {
            addr,
            neighbors,
            states,
            timeout_ns,
            seq: 0,
            probes_sent: 0,
            replies_received: 0,
        }
    }

    /// When neighbor `i` was declared dead, if it was.
    pub fn declared_dead_at(&self, i: usize) -> Option<SimTime> {
        self.states[i].declared_dead
    }
}

impl EventProgram for LivenessMonitor {
    fn on_ingress(
        &mut self,
        _pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        _a: &mut EventActions,
    ) {
        if let Some(AppHeader::Liveness(l)) = parsed.app {
            if l.kind == LivenessKind::Reply {
                self.replies_received += 1;
                // Which neighbor? Match by ingress port.
                if let Some(i) = self
                    .neighbors
                    .iter()
                    .position(|n| n.port == meta.ingress_port)
                {
                    self.states[i].last_heard = now;
                    self.states[i].rtt_last_ns = now.as_nanos().saturating_sub(l.ts_ns);
                    // A previously-dead neighbor that answers is live again.
                    self.states[i].declared_dead = None;
                }
                meta.dest = Destination::Drop; // consumed by the monitor
                return;
            }
        }
        meta.dest = Destination::Drop;
    }

    /// Generated probes are routed to their neighbor's port.
    fn on_generated(
        &mut self,
        _pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        _now: SimTime,
        _a: &mut EventActions,
    ) {
        let dst = parsed.ipv4.map(|ip| ip.dst);
        meta.dest = match dst.and_then(|d| self.neighbors.iter().find(|n| n.addr == d)) {
            Some(n) => Destination::Port(n.port),
            None => Destination::Drop,
        };
    }

    fn on_timer(&mut self, ev: &TimerEvent, now: SimTime, a: &mut EventActions) {
        match ev.timer_id {
            TIMER_PROBE => {
                for n in &self.neighbors {
                    self.seq += 1;
                    self.probes_sent += 1;
                    let probe = LivenessHeader {
                        kind: LivenessKind::Request,
                        origin: 0,
                        seq: self.seq,
                        ts_ns: now.as_nanos(),
                    };
                    a.generate_packet(PacketBuilder::liveness(self.addr, n.addr, &probe).build());
                }
            }
            TIMER_CHECK => {
                for i in 0..self.neighbors.len() {
                    let st = &mut self.states[i];
                    let silent = now.as_nanos().saturating_sub(st.last_heard.as_nanos());
                    if st.declared_dead.is_none() && silent > self.timeout_ns {
                        st.declared_dead = Some(now);
                        a.notify_control_plane(NOTIFY_NEIGHBOR_DEAD, [i as u64, silent, 0, 0]);
                    }
                }
            }
            _ => {}
        }
    }
}

/// The neighbor's data plane: reflects liveness requests.
#[derive(Debug)]
pub struct LivenessReflector {
    /// Soft-failure flag: when true, requests are silently dropped.
    pub dead: bool,
    /// Requests reflected.
    pub reflected: u64,
}

impl LivenessReflector {
    /// Creates a live reflector.
    pub fn new() -> Self {
        LivenessReflector {
            dead: false,
            reflected: 0,
        }
    }
}

impl Default for LivenessReflector {
    fn default() -> Self {
        Self::new()
    }
}

impl EventProgram for LivenessReflector {
    fn on_ingress(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        _now: SimTime,
        _a: &mut EventActions,
    ) {
        if self.dead {
            meta.dest = Destination::Drop;
            return;
        }
        if let Some(AppHeader::Liveness(l)) = parsed.app {
            if l.kind == LivenessKind::Request {
                // Rewrite in place: swap IPs, flip kind, echo timestamp.
                let ip = parsed.ipv4.expect("liveness rides IPv4");
                let reply = LivenessHeader {
                    kind: LivenessKind::Reply,
                    origin: l.origin,
                    seq: l.seq,
                    ts_ns: l.ts_ns,
                };
                *pkt = Packet::new(
                    pkt.uid,
                    PacketBuilder::liveness(ip.dst, ip.src, &reply).build(),
                );
                self.reflected += 1;
                meta.dest = Destination::Port(meta.ingress_port);
                return;
            }
        }
        meta.dest = Destination::Drop;
    }

    fn on_control_plane(&mut self, ev: &ControlPlaneEvent, _now: SimTime, _a: &mut EventActions) {
        if ev.opcode == CP_OP_KILL {
            self.dead = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{addr, run_until};
    use edp_core::{EventSwitch, EventSwitchConfig, TimerSpec};
    use edp_evsim::{Sim, SimDuration};
    use edp_netsim::{Host, HostApp, LinkSpec, Network, NodeRef};

    /// monitor switch (port1) — (port0) reflector switch.
    fn build(timeout_ms: u64) -> Network {
        let mut net = Network::new(31);
        let probe_period = SimDuration::from_millis(1);
        let check_period = SimDuration::from_millis(1);
        let mon_cfg = EventSwitchConfig {
            n_ports: 2,
            timers: vec![
                TimerSpec {
                    id: TIMER_PROBE,
                    period: probe_period,
                    start: probe_period,
                },
                TimerSpec {
                    id: TIMER_CHECK,
                    period: check_period,
                    start: check_period,
                },
            ],
            switch_id: 1,
            ..Default::default()
        };
        let monitor = LivenessMonitor::new(
            addr(1),
            vec![Neighbor {
                port: 1,
                addr: addr(2),
            }],
            timeout_ms * 1_000_000,
        );
        let m = net.add_switch(Box::new(EventSwitch::new(monitor, mon_cfg)));
        let refl_cfg = EventSwitchConfig {
            n_ports: 2,
            switch_id: 2,
            ..Default::default()
        };
        let r = net.add_switch(Box::new(EventSwitch::new(
            LivenessReflector::new(),
            refl_cfg,
        )));
        net.connect(
            (NodeRef::Switch(m), 1),
            (NodeRef::Switch(r), 0),
            LinkSpec::ten_gig(SimDuration::from_micros(5)),
        );
        // Unused port 0 of the monitor hangs to a host to keep it wired.
        let h = net.add_host(Host::new(addr(100), HostApp::Sink));
        net.connect(
            (NodeRef::Host(h), 0),
            (NodeRef::Switch(m), 0),
            LinkSpec::ten_gig(SimDuration::from_micros(1)),
        );
        net
    }

    #[test]
    fn live_neighbor_is_never_declared_dead() {
        let mut net = build(3);
        let mut sim: Sim<Network> = Sim::new();
        run_until(&mut net, &mut sim, SimTime::from_millis(50));
        let mon = &net.switch_as::<EventSwitch<LivenessMonitor>>(0).program;
        assert!(mon.probes_sent >= 45, "probes {}", mon.probes_sent);
        assert!(mon.replies_received >= mon.probes_sent - 2);
        assert_eq!(mon.declared_dead_at(0), None);
        // RTT ≈ 2 × 5 us propagation (+ serialization).
        let rtt = mon.states[0].rtt_last_ns;
        assert!((10_000..20_000).contains(&rtt), "rtt {rtt}");
        let refl = &net.switch_as::<EventSwitch<LivenessReflector>>(1).program;
        assert_eq!(refl.reflected, mon.replies_received);
    }

    #[test]
    fn soft_failure_detected_within_timeout_plus_sweep() {
        let timeout_ms = 3u64;
        let mut net = build(timeout_ms);
        let mut sim: Sim<Network> = Sim::new();
        // Kill the reflector's software at 20 ms — no link event fires.
        let kill_at = SimTime::from_millis(20);
        sim.schedule_at(kill_at, |w: &mut Network, s: &mut Sim<Network>| {
            w.control_plane_send(s, SimDuration::ZERO, 1, CP_OP_KILL, [0; 4]);
        });
        run_until(&mut net, &mut sim, SimTime::from_millis(60));
        let mon = &net.switch_as::<EventSwitch<LivenessMonitor>>(0).program;
        let dead_at = mon.declared_dead_at(0).expect("failure detected");
        let latency = dead_at - kill_at;
        // Detection bound: timeout + one probe period + one sweep period.
        assert!(
            latency <= SimDuration::from_millis(timeout_ms + 2),
            "detected after {latency}"
        );
        // And the data plane told the central monitor by itself.
        assert!(net
            .cp_log
            .iter()
            .any(|(sw, n)| *sw == 0 && n.code == NOTIFY_NEIGHBOR_DEAD));
    }

    #[test]
    fn recovered_neighbor_is_rearmed() {
        // Kill, then resurrect by swapping the flag back via downcast.
        let mut net = build(2);
        let mut sim: Sim<Network> = Sim::new();
        sim.schedule_at(
            SimTime::from_millis(10),
            |w: &mut Network, s: &mut Sim<Network>| {
                w.control_plane_send(s, SimDuration::ZERO, 1, CP_OP_KILL, [0; 4]);
            },
        );
        sim.schedule_at(
            SimTime::from_millis(25),
            |w: &mut Network, _s: &mut Sim<Network>| {
                w.switch_as_mut::<EventSwitch<LivenessReflector>>(1)
                    .program
                    .dead = false;
            },
        );
        run_until(&mut net, &mut sim, SimTime::from_millis(50));
        let mon = &net.switch_as::<EventSwitch<LivenessMonitor>>(0).program;
        assert_eq!(
            mon.declared_dead_at(0),
            None,
            "reply after recovery clears the dead mark"
        );
    }
}
