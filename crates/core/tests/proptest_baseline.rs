//! The baseline model is the event-driven architecture restricted to the
//! ingress and egress packet events (PAPER.md §1). A generated
//! [`PisaProgram`] behind `BaselineAdapter` is called for ingress, egress
//! and `control_update` and for nothing else, whatever else is fired at
//! its switch: timers, link flaps, user events, buffer overflow and
//! underflow all still happen, and the program sees none of them.

use edp_core::{BaselineAdapter, EventSwitch, EventSwitchConfig, TimerSpec};
use edp_evsim::{SimDuration, SimTime};
use edp_packet::{Packet, PacketBuilder, ParsedPacket};
use edp_pisa::{Destination, PisaProgram, PortId, QueueConfig, StdMeta, TableRouter};
use edp_telemetry::{RecordKind, TelemetryConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

const PORTS: usize = 4;

/// What the generated program does with one packet.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// Forward to a port; `PORTS` itself is an invalid-port drop.
    Forward(PortId),
    Flood,
    Drop,
    /// Recirculate `n` times, then forward to port 1 (past the
    /// recirculation bound: a limit drop).
    Recirculate(u8),
    /// Forward to a port whose egress drops the frame.
    EgressDrop(PortId),
    /// Look the destination up in the route table `control_update` fills.
    Route,
}

/// One program call, with the instant it was made at.
#[derive(Debug, PartialEq, Eq)]
enum Call {
    /// And the pass's recirculation count.
    Ingress(u64, u8),
    Egress(u64),
    /// And the opcode.
    ControlUpdate(u64, u32),
}

/// Applies `rules[udp source port % len]` to each packet and logs every
/// call it receives.
struct Generated {
    rules: Vec<Rule>,
    router: TableRouter,
    calls: Vec<Call>,
}

impl Generated {
    fn rule(&self, parsed: &ParsedPacket) -> Rule {
        let sel = parsed.flow_key().map_or(0, |k| k.src_port) as usize;
        self.rules[sel % self.rules.len()]
    }
}

impl PisaProgram for Generated {
    fn ingress(&mut self, pkt: &mut Packet, parsed: &ParsedPacket, m: &mut StdMeta, now: SimTime) {
        self.calls
            .push(Call::Ingress(now.as_nanos(), m.recirc_count));
        m.dest = match self.rule(parsed) {
            Rule::Forward(p) | Rule::EgressDrop(p) => Destination::Port(p),
            Rule::Flood => Destination::Flood,
            Rule::Drop => Destination::Drop,
            Rule::Recirculate(n) if m.recirc_count < n => Destination::Recirculate,
            Rule::Recirculate(_) => Destination::Port(1),
            Rule::Route => {
                self.router.ingress(pkt, parsed, m, now);
                m.dest
            }
        };
    }

    fn egress(&mut self, _p: &mut Packet, parsed: &ParsedPacket, m: &mut StdMeta, now: SimTime) {
        self.calls.push(Call::Egress(now.as_nanos()));
        m.egress_drop = matches!(self.rule(parsed), Rule::EgressDrop(_));
    }

    fn control_update(&mut self, opcode: u32, args: [u64; 4], now: SimTime) {
        self.calls.push(Call::ControlUpdate(now.as_nanos(), opcode));
        self.router.control_update(opcode, args, now);
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `(port, kind, sel, dst, len)`: see [`frame`].
    Receive(PortId, u8, u16, u8, u16),
    Transmit(PortId),
    /// A `/32` route to `10.0.0.dst` via a port (`PORTS`: invalid).
    InsertRoute(u8, PortId),
    ClearRoutes,
    Advance(u16),
    FireTimers,
    Link(PortId, bool),
    UserEvent(u32),
}

/// A UDP frame from source port `sel` (the rule selector) to
/// `10.0.0.dst`, padded to `len`: valid for `kind >= 2`, a runt for 0,
/// and with its IPv4 header checksum flipped for 1.
fn frame(kind: u8, sel: u16, dst: u8, len: u16) -> Packet {
    let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, dst));
    let mut bytes = PacketBuilder::udp(src, dst, sel, 9, b"p")
        .pad_to(len as usize)
        .build();
    match kind {
        0 => bytes.truncate(3 + sel as usize % 28),
        1 => bytes[24] ^= 0xff,
        _ => {}
    }
    Packet::anonymous(bytes)
}

fn arb_rule() -> impl Strategy<Value = Rule> {
    prop_oneof![
        (0..=PORTS as PortId).prop_map(Rule::Forward),
        Just(Rule::Flood),
        Just(Rule::Drop),
        (0u8..11).prop_map(Rule::Recirculate),
        (0..PORTS as PortId).prop_map(Rule::EgressDrop),
        Just(Rule::Route),
    ]
}

fn arb_receive() -> impl Strategy<Value = Op> {
    let port = 0..PORTS as PortId;
    (port, 0u8..5, any::<u16>(), 1u8..5, 42u16..300)
        .prop_map(|(port, kind, sel, dst, len)| Op::Receive(port, kind, sel, dst, len))
}

/// Arrivals and transmits twice as likely as any other stimulus.
fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_receive(),
        arb_receive(),
        (0..PORTS as PortId).prop_map(Op::Transmit),
        (0..PORTS as PortId).prop_map(Op::Transmit),
        (1u8..5, 0..=PORTS as PortId).prop_map(|(dst, port)| Op::InsertRoute(dst, port)),
        Just(Op::ClearRoutes),
        (0u16..2_000).prop_map(Op::Advance),
        Just(Op::FireTimers),
        (0..PORTS as PortId, any::<bool>()).prop_map(|(port, up)| Op::Link(port, up)),
        any::<u32>().prop_map(Op::UserEvent),
    ]
}

proptest! {
    /// Each stimulus reaches the program only through the calls it
    /// implies: an arrival one ingress per pipeline pass (none for a frame
    /// that fails to parse), a transmit one egress iff a frame left the
    /// buffer onto a live link, a control-plane write one
    /// `control_update`, and everything else nothing. The drops on the
    /// trace are the switch's counters, bucket by bucket.
    #[test]
    fn baseline_program_sees_only_its_three_calls(
        rules in prop::collection::vec(arb_rule(), 1..5),
        capacity in 60u64..800,
        ops in prop::collection::vec(arb_op(), 1..200),
    ) {
        let cfg = EventSwitchConfig {
            n_ports: PORTS,
            queue: QueueConfig { capacity_bytes: capacity, ..QueueConfig::default() },
            timers: vec![TimerSpec {
                id: 0,
                period: SimDuration::from_nanos(300),
                start: SimDuration::from_nanos(300),
            }],
            ..EventSwitchConfig::default()
        };
        let program = Generated { rules, router: TableRouter::new(), calls: Vec::new() };
        let mut sw = EventSwitch::new(BaselineAdapter(program), cfg);
        edp_telemetry::enable(TelemetryConfig::default());
        let mut now = SimTime::ZERO;
        let mut link_up = [true; PORTS];
        for &op in &ops {
            let before = sw.counters();
            let at = now.as_nanos();
            let expected = match op {
                Op::Receive(port, kind, sel, dst, len) => {
                    sw.receive(now, port, frame(kind, sel, dst, len));
                    let c = sw.counters();
                    let passes = if c.parse_errors > before.parse_errors {
                        0
                    } else {
                        1 + c.recirculated - before.recirculated
                    };
                    (0..passes).map(|recirc| Call::Ingress(at, recirc as u8)).collect()
                }
                Op::Transmit(port) => {
                    let (dequeued, up) = (sw.queue_stats(port).dequeued, link_up[port as usize]);
                    sw.transmit(now, port);
                    let left = sw.queue_stats(port).dequeued > dequeued;
                    if left && up { vec![Call::Egress(at)] } else { vec![] }
                }
                Op::InsertRoute(dst, port) => {
                    let ip = u32::from(Ipv4Addr::new(10, 0, 0, dst)) as u64;
                    let opcode = TableRouter::OP_INSERT_ROUTE;
                    sw.control_plane(now, opcode, [ip, 32, port as u64, 0]);
                    vec![Call::ControlUpdate(at, opcode)]
                }
                Op::ClearRoutes => {
                    sw.control_plane(now, TableRouter::OP_CLEAR_ROUTES, [0; 4]);
                    vec![Call::ControlUpdate(at, TableRouter::OP_CLEAR_ROUTES)]
                }
                Op::Advance(ns) => {
                    now = SimTime::from_nanos(at + ns as u64);
                    vec![]
                }
                Op::FireTimers => {
                    sw.fire_due_timers(now);
                    vec![]
                }
                Op::Link(port, up) => {
                    sw.set_link_status(now, port, up);
                    link_up[port as usize] = up;
                    vec![]
                }
                Op::UserEvent(code) => {
                    sw.raise_user_event(now, code, [0; 4]);
                    vec![]
                }
            };
            prop_assert_eq!(std::mem::take(&mut sw.program.0.calls), expected, "{:?}", op);
        }
        let trace = edp_telemetry::disable().expect("session");
        prop_assert_eq!(trace.ring.dropped(), 0);
        let mut drops = BTreeMap::new();
        for rec in trace.ring.iter() {
            if let RecordKind::PacketDrop { reason, .. } = rec.kind {
                *drops.entry(reason.label()).or_insert(0) += 1;
            }
        }
        let bucket = |label| drops.get(label).copied().unwrap_or(0);
        let c = sw.counters();
        prop_assert_eq!(bucket("program") + bucket("recirc_limit"), c.dropped_by_program);
        prop_assert_eq!(bucket("overflow"), c.dropped_overflow);
        prop_assert_eq!(bucket("parse_error"), c.parse_errors);
        prop_assert_eq!(bucket("link_down"), c.dropped_link_down);
        prop_assert_eq!(bucket("cascade_limit"), 0);
    }
}
