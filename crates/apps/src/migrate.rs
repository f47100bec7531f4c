//! Data-plane state migration on link failure (§3 "Network Management",
//! citing swing-state \[17\]).
//!
//! "By introducing link status change events, the data plane can
//! immediately respond to link failures, autonomously re-route affected
//! flows **and migrate data-plane state**."
//!
//! Topology for the experiment (see tests):
//!
//! ```text
//!        ┌── B (stateful: per-flow counters) ──┐
//!   A ───┤                                     ├── D ── sink
//!        └── C (stateful: per-flow counters) ──┘
//! ```
//!
//! A forwards flows via B (primary). B counts per-flow packets. When the
//! A–B link dies, A's link-status handler re-routes via C **and** B's
//! link-status handler serializes its per-flow counters into generated
//! packets (KV `Put`s addressed to C) that travel over its surviving
//! link through D. C installs them, so the per-flow state continues
//! exactly where it left off — no controller, no state reset.

use edp_core::event::LinkStatusEvent;
use edp_core::{EventActions, EventProgram};
use edp_evsim::SimTime;
use edp_packet::{AppHeader, KvHeader, KvOp, Packet, PacketBuilder, ParsedPacket};
use edp_pisa::{Destination, PortId, RegisterArray, StdMeta};
use std::net::Ipv4Addr;

/// A stateful mid-path switch: counts per-flow packets, migrates its
/// counters to a peer when its upstream link dies, and installs
/// counters migrated *to* it.
#[derive(Debug)]
pub struct StatefulCounter {
    /// This switch's address (source of migration packets).
    pub addr: Ipv4Addr,
    /// The migration peer's address (destination of migration packets).
    pub peer: Ipv4Addr,
    /// Port toward the upstream ingress (A).
    pub upstream_port: PortId,
    /// Port toward the downstream (D).
    pub downstream_port: PortId,
    /// Per-flow packet counters.
    pub counters: RegisterArray,
    /// Migration packets generated.
    pub migrated_out: u64,
    /// Migration entries installed.
    pub migrated_in: u64,
    /// Whether this switch already migrated (one-shot per failure).
    migrated: bool,
}

impl StatefulCounter {
    /// Creates the program with `n_flows` counter slots.
    pub fn new(
        addr: Ipv4Addr,
        peer: Ipv4Addr,
        upstream_port: PortId,
        downstream_port: PortId,
        n_flows: usize,
    ) -> Self {
        StatefulCounter {
            addr,
            peer,
            upstream_port,
            downstream_port,
            counters: RegisterArray::new("flow_counters", n_flows),
            migrated_out: 0,
            migrated_in: 0,
            migrated: false,
        }
    }
}

impl EventProgram for StatefulCounter {
    fn on_ingress(
        &mut self,
        _pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        _now: SimTime,
        _a: &mut EventActions,
    ) {
        // Migration install path: a KV Put addressed to us.
        if let (Some(ip), Some(AppHeader::Kv(kv))) = (parsed.ipv4, parsed.app) {
            if ip.dst == self.addr && kv.op == KvOp::Put {
                let slot = kv.key as usize % self.counters.size();
                let merged = self.counters.read(slot) + kv.value;
                self.counters.write(slot, merged);
                self.migrated_in += 1;
                meta.dest = Destination::Drop; // consumed
                return;
            }
        }
        // Data path: count and forward downstream.
        if let Some(key) = parsed.flow_key() {
            let slot = key.index(self.counters.size());
            self.counters.add(slot, 1);
        }
        meta.dest = Destination::Port(if meta.ingress_port == self.upstream_port {
            self.downstream_port
        } else {
            self.upstream_port
        });
    }

    fn on_generated(
        &mut self,
        _pkt: &mut Packet,
        _parsed: &ParsedPacket,
        meta: &mut StdMeta,
        _now: SimTime,
        _a: &mut EventActions,
    ) {
        // Migration packets leave via the surviving downstream link.
        meta.dest = Destination::Port(self.downstream_port);
    }

    fn on_link_status(&mut self, ev: &LinkStatusEvent, _now: SimTime, a: &mut EventActions) {
        if ev.port != self.upstream_port || ev.up || self.migrated {
            return;
        }
        self.migrated = true;
        // Serialize every live counter into a migration packet. (A real
        // design would batch several per packet; one-per-entry keeps the
        // wire format trivial and the count observable.)
        for slot in 0..self.counters.size() {
            let v = self.counters.peek(slot);
            if v == 0 {
                continue;
            }
            let put = KvHeader {
                op: KvOp::Put,
                key: slot as u64,
                value: v,
            };
            a.generate_packet(PacketBuilder::kv(self.addr, self.peer, &put).build());
            self.migrated_out += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{addr, run_until};
    use crate::frr::FrrEvent;
    use edp_core::{EventSwitch, EventSwitchConfig};
    use edp_evsim::{Sim, SimDuration, SimTime};
    use edp_netsim::traffic::start_cbr;
    use edp_netsim::{Host, HostApp, LinkSpec, Network, NodeRef};
    use edp_packet::{FlowKey, IpProto, PacketBuilder};

    /// The branching switch D: routes by destination address.
    #[derive(Debug)]
    struct AddrRouter {
        /// `(address, port)` routing entries; unmatched → `default_port`.
        routes: Vec<(Ipv4Addr, PortId)>,
        /// Fallback port.
        default_port: PortId,
    }

    impl EventProgram for AddrRouter {
        fn on_ingress(
            &mut self,
            _pkt: &mut Packet,
            parsed: &ParsedPacket,
            meta: &mut StdMeta,
            _now: SimTime,
            _a: &mut EventActions,
        ) {
            let Some(ip) = parsed.ipv4 else {
                meta.dest = Destination::Drop;
                return;
            };
            let port = self
                .routes
                .iter()
                .find(|(a, _)| *a == ip.dst)
                .map(|&(_, p)| p)
                .unwrap_or(self.default_port);
            meta.dest = Destination::Port(port);
        }
    }

    const N_FLOWS: usize = 32;

    fn b_addr() -> Ipv4Addr {
        addr(101)
    }
    fn c_addr() -> Ipv4Addr {
        addr(102)
    }

    /// Builds the diamond with stateful B and C. Returns
    /// (net, sender_host, a_b_link, indices of [a, b, c, d], sink host).
    fn build() -> (Network, usize, usize, [usize; 4], usize) {
        let mut net = Network::new(91);
        let cfg = |n: usize, id: u16| EventSwitchConfig {
            n_ports: n,
            switch_id: id,
            ..Default::default()
        };
        // A: port0 = host, port1 = B (primary), port2 = C (backup).
        let a_sw = net.add_switch(Box::new(EventSwitch::new(FrrEvent::new(1, 2), cfg(3, 1))));
        // B/C: port0 = upstream (A), port1 = downstream (D).
        let b_sw = net.add_switch(Box::new(EventSwitch::new(
            StatefulCounter::new(b_addr(), c_addr(), 0, 1, N_FLOWS),
            cfg(2, 2),
        )));
        let c_sw = net.add_switch(Box::new(EventSwitch::new(
            StatefulCounter::new(c_addr(), b_addr(), 0, 1, N_FLOWS),
            cfg(2, 3),
        )));
        // D: port0 = B, port1 = C, port2 = sink.
        let d_sw = net.add_switch(Box::new(EventSwitch::new(
            AddrRouter {
                routes: vec![(b_addr(), 0), (c_addr(), 1)],
                default_port: 2,
            },
            cfg(3, 4),
        )));
        let h = net.add_host(Host::new(addr(1), HostApp::Sink));
        let sink = net.add_host(Host::new(addr(9), HostApp::Sink));
        let spec = LinkSpec::ten_gig(SimDuration::from_micros(1));
        net.connect((NodeRef::Host(h), 0), (NodeRef::Switch(a_sw), 0), spec);
        let ab = net.connect((NodeRef::Switch(a_sw), 1), (NodeRef::Switch(b_sw), 0), spec);
        net.connect((NodeRef::Switch(a_sw), 2), (NodeRef::Switch(c_sw), 0), spec);
        net.connect((NodeRef::Switch(b_sw), 1), (NodeRef::Switch(d_sw), 0), spec);
        net.connect((NodeRef::Switch(c_sw), 1), (NodeRef::Switch(d_sw), 1), spec);
        net.connect((NodeRef::Switch(d_sw), 2), (NodeRef::Host(sink), 0), spec);
        (net, h, ab, [a_sw, b_sw, c_sw, d_sw], sink)
    }

    #[test]
    fn counters_survive_failover_exactly() {
        let (mut net, h, ab_link, [_a, b_sw, c_sw, _d], sink) = build();
        let mut sim: Sim<Network> = Sim::new();
        // 1000 packets, one per 20 us; failure at 10 ms (≈ packet 500).
        let fail_at = SimTime::from_millis(10);
        net.schedule_link_failure(&mut sim, ab_link, fail_at, None);
        let src = addr(1);
        start_cbr(
            &mut sim,
            h,
            SimTime::ZERO,
            SimDuration::from_micros(20),
            1000,
            move |i| {
                PacketBuilder::udp(src, addr(9), 40, 50, &[])
                    .ident(i as u16)
                    .pad_to(500)
                    .build()
            },
        );
        run_until(&mut net, &mut sim, SimTime::from_millis(60));

        let slot = FlowKey::new(addr(1), addr(9), IpProto::Udp, 40, 50).index(N_FLOWS);
        let b = &net.switch_as::<EventSwitch<StatefulCounter>>(b_sw).program;
        let c = &net.switch_as::<EventSwitch<StatefulCounter>>(c_sw).program;
        // B migrated its (single-flow) state; C merged it with its own
        // post-failover counting.
        assert_eq!(b.migrated_out, 1, "one live flow to migrate");
        assert_eq!(c.migrated_in, 1);
        let delivered = net.hosts[sink].stats.rx_pkts;
        assert_eq!(
            c.counters.peek(slot),
            delivered,
            "C's counter continues exactly from B's (delivered={delivered})"
        );
        // Nearly lossless failover (only in-flight on the dead link).
        assert!(delivered >= 998, "delivered {delivered}");
        assert_eq!(net.cp_messages, 0, "no controller involved");
    }

    #[test]
    fn no_migration_without_failure() {
        let (mut net, h, _ab, [_a, b_sw, c_sw, _d], _sink) = build();
        let mut sim: Sim<Network> = Sim::new();
        let src = addr(1);
        start_cbr(
            &mut sim,
            h,
            SimTime::ZERO,
            SimDuration::from_micros(20),
            200,
            move |i| {
                PacketBuilder::udp(src, addr(9), 40, 50, &[])
                    .ident(i as u16)
                    .pad_to(500)
                    .build()
            },
        );
        run_until(&mut net, &mut sim, SimTime::from_millis(30));
        let b = &net.switch_as::<EventSwitch<StatefulCounter>>(b_sw).program;
        let c = &net.switch_as::<EventSwitch<StatefulCounter>>(c_sw).program;
        assert_eq!(b.migrated_out, 0);
        assert_eq!(c.migrated_in, 0);
        assert_eq!(c.counters.nonzero_entries(), 0, "C untouched");
    }

    #[test]
    fn migration_is_one_shot() {
        let (mut net, _h, ab_link, [_a, b_sw, _c, _d], _sink) = build();
        let mut sim: Sim<Network> = Sim::new();
        // Flap the link twice with no state in between.
        net.schedule_link_failure(
            &mut sim,
            ab_link,
            SimTime::from_millis(1),
            Some(SimTime::from_millis(2)),
        );
        net.schedule_link_failure(&mut sim, ab_link, SimTime::from_millis(3), None);
        run_until(&mut net, &mut sim, SimTime::from_millis(10));
        let b = &net.switch_as::<EventSwitch<StatefulCounter>>(b_sw).program;
        assert_eq!(b.migrated_out, 0, "no counters => nothing to migrate");
    }
}
