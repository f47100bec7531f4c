//! The baseline (synchronous packet-by-packet) programming model.
//!
//! A [`PisaProgram`] is the Rust embedding of a baseline P4 program: one
//! control invoked per ingress packet event and one per egress packet
//! event — and *nothing else*. There is deliberately no way for a baseline
//! program to see enqueue/dequeue/overflow records, timers, or link
//! changes; that is the restriction the event-driven model in `edp-core`
//! lifts.

use crate::meta::StdMeta;
use edp_evsim::SimTime;
use edp_packet::{Packet, ParsedPacket};

/// A baseline PISA program: ingress + egress packet-event handlers.
///
/// Programs are `Send` so a sharded simulation can build its switches on
/// worker threads and hand finished shard state back for inspection.
pub trait PisaProgram: Send {
    /// Handles an ingress packet event. Set `meta.dest` to forward; the
    /// parsed view reflects the packet *before* any rewrites this call
    /// makes.
    fn ingress(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
    );

    /// Handles an egress packet event (after the traffic manager). The
    /// packet was re-parsed, PSA-style. Default: pass through.
    fn egress(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
    ) {
        let _ = (pkt, parsed, meta, now);
    }

    /// Applies a control-plane update (P4Runtime-style table/register
    /// write). This is *not* a data-plane event: it is the ordinary
    /// management channel every PISA target has, and the only way a
    /// baseline program's behaviour can change at run time. Default:
    /// ignore.
    fn control_update(&mut self, opcode: u32, args: [u64; 4], now: SimTime) {
        let _ = (opcode, args, now);
    }
}

/// A trivial program forwarding everything to a fixed port (useful as a
/// building block and in tests).
#[derive(Debug, Clone, Copy)]
pub struct ForwardTo(
    /// The output port.
    pub crate::meta::PortId,
);

impl PisaProgram for ForwardTo {
    fn ingress(
        &mut self,
        _pkt: &mut Packet,
        _parsed: &ParsedPacket,
        meta: &mut StdMeta,
        _now: SimTime,
    ) {
        meta.dest = crate::meta::Destination::Port(self.0);
    }
}

/// An L3 router over a single LPM table. Ingress looks the destination
/// address up in the route table; routes are installed exclusively
/// through [`control_update`] (P4Runtime-style).
#[derive(Debug, Clone)]
pub struct TableRouter {
    routes: crate::table::MatchTable<crate::meta::PortId>,
}

impl TableRouter {
    /// `control_update` opcode: install a route. Args:
    /// `[ipv4 as u32, prefix_len, out_port, _]`.
    pub const OP_INSERT_ROUTE: u32 = 1;
    /// `control_update` opcode: remove every route.
    pub const OP_CLEAR_ROUTES: u32 = 2;

    /// Creates a router with an empty route table.
    pub fn new() -> Self {
        TableRouter {
            routes: crate::table::MatchTable::new("routes", crate::table::ipv4_lpm_schema()),
        }
    }

    /// Read access to the route table (tests, inspection).
    pub fn routes(&self) -> &crate::table::MatchTable<crate::meta::PortId> {
        &self.routes
    }
}

impl Default for TableRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl PisaProgram for TableRouter {
    fn ingress(
        &mut self,
        _pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        _now: SimTime,
    ) {
        let Some(ip) = parsed.ipv4 else {
            meta.dest = crate::meta::Destination::Drop;
            return;
        };
        let key = u32::from(ip.dst) as u64;
        meta.dest = match self.routes.lookup(&[key]) {
            Some(&port) => crate::meta::Destination::Port(port),
            None => crate::meta::Destination::Drop,
        };
    }

    fn control_update(&mut self, opcode: u32, args: [u64; 4], _now: SimTime) {
        match opcode {
            Self::OP_INSERT_ROUTE => {
                crate::table::insert_ipv4_route(
                    &mut self.routes,
                    std::net::Ipv4Addr::from(args[0] as u32),
                    args[1] as u8,
                    args[2] as crate::meta::PortId,
                );
            }
            Self::OP_CLEAR_ROUTES => self.routes.clear(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::Destination;
    use edp_packet::PacketBuilder;
    use std::net::Ipv4Addr;

    #[test]
    fn forward_to_sets_dest() {
        let frame = PacketBuilder::udp(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            1,
            2,
            &[],
        )
        .build();
        let mut pkt = Packet::anonymous(frame);
        let parsed = edp_packet::parse_packet(pkt.bytes()).expect("parse");
        let mut meta = StdMeta::ingress(0, SimTime::ZERO, pkt.len());
        ForwardTo(3).ingress(&mut pkt, &parsed, &mut meta, SimTime::ZERO);
        assert_eq!(meta.dest, Destination::Port(3));
    }
}
