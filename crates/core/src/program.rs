//! The event-driven programming model.
//!
//! An [`EventProgram`] is the Rust embedding of an event-driven P4
//! program: one handler ("logical pipeline" in Figure 2) per data-plane
//! event the architecture supports. All handlers are methods on one
//! program value, so shared state is ordinary struct fields — the moral
//! equivalent of the paper's `shared_register` extern instantiated at
//! program top level.
//!
//! Handlers that need to *act* on the architecture — generate a packet,
//! raise a user event, request a control-plane notification — do so
//! through [`EventActions`], which the architecture drains after each
//! handler invocation.

use crate::event::{
    ControlPlaneEvent, DequeueEvent, EnqueueEvent, EventKind, LinkStatusEvent, OverflowEvent,
    TimerEvent, TransmitEvent, UnderflowEvent, UserEvent,
};
use edp_evsim::SimTime;
use edp_packet::{Packet, ParsedPacket};
use edp_pisa::StdMeta;

/// Deferred actions a handler may request from the architecture.
#[derive(Debug, Default)]
pub struct EventActions {
    pub(crate) generated: Vec<Vec<u8>>,
    pub(crate) user_events: Vec<UserEvent>,
    pub(crate) notify_cp: Vec<(u32, [u64; 4])>,
    pub(crate) trim_requeue: Option<u64>,
}

impl EventActions {
    /// Creates an empty action set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generates a packet: the frame is injected as a *generated packet
    /// event* and then traverses the pipeline like any other packet (the
    /// program's `on_generated` decides where it goes).
    pub fn generate_packet(&mut self, frame: Vec<u8>) {
        self.generated.push(frame);
    }

    /// Raises a program-defined user event, dispatched after the current
    /// handler returns.
    pub fn raise_user_event(&mut self, code: u32, args: [u64; 4]) {
        self.user_events.push(UserEvent { code, args });
    }

    /// Sends an asynchronous notification to the control plane (e.g.
    /// "microburst culprit detected", "neighbor 3 failed").
    pub fn notify_control_plane(&mut self, code: u32, args: [u64; 4]) {
        self.notify_cp.push((code, args));
    }

    /// From an `on_overflow` handler only: instead of losing the victim
    /// packet, trim it to its network header (NDP-style "cut payload")
    /// and requeue it with scheduling rank `rank` (use rank 0 with a
    /// strict-priority or PIFO queue so the trim header jumps ahead).
    /// Ignored from any other handler. The requeue is attempted once; if
    /// even the 34-byte header does not fit, the packet is dropped for
    /// real.
    pub fn trim_and_requeue(&mut self, rank: u64) {
        self.trim_requeue = Some(rank);
    }

    /// Frames queued by [`generate_packet`](Self::generate_packet), in
    /// request order (read-only view; the architecture drains them).
    pub fn generated_frames(&self) -> &[Vec<u8>] {
        &self.generated
    }

    /// User events raised so far, in request order.
    pub fn raised_user_events(&self) -> &[UserEvent] {
        &self.user_events
    }

    /// Control-plane notifications requested so far, as `(code, args)`.
    pub fn cp_notifications(&self) -> &[(u32, [u64; 4])] {
        &self.notify_cp
    }

    /// The pending trim-and-requeue rank, if any.
    pub fn trim_rank(&self) -> Option<u64> {
        self.trim_requeue
    }

    /// True when no actions were requested.
    pub fn is_empty(&self) -> bool {
        self.generated.is_empty()
            && self.user_events.is_empty()
            && self.notify_cp.is_empty()
            && self.trim_requeue.is_none()
    }
}

/// An event-driven data-plane program.
///
/// Every method has a pass-through default so programs implement only the
/// handlers they care about — exactly like a P4 architecture description
/// with optional controls. Packet-event handlers mirror
/// [`edp_pisa::PisaProgram`]; the remaining ten are the paper's new
/// events.
/// Programs are `Send` so a sharded simulation can build its switches on
/// worker threads and hand finished shard state back for inspection.
#[allow(unused_variables)]
pub trait EventProgram: Send {
    /// Ingress packet event. Set `meta.dest` to forward, and stage
    /// `meta.event_meta` for the enqueue/dequeue handlers.
    fn on_ingress(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        actions: &mut EventActions,
    ) {
    }

    /// Egress packet event (after the traffic manager).
    fn on_egress(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        actions: &mut EventActions,
    ) {
    }

    /// Recirculated packet event: a packet re-entering ingress. Default
    /// delegates to `on_ingress`.
    fn on_recirculated(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        actions: &mut EventActions,
    ) {
        self.on_ingress(pkt, parsed, meta, now, actions)
    }

    /// Generated packet event: a packet created by `generate_packet` or
    /// the packet-generator block, entering the pipeline. Default
    /// delegates to `on_ingress`.
    fn on_generated(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        actions: &mut EventActions,
    ) {
        self.on_ingress(pkt, parsed, meta, now, actions)
    }

    /// Buffer enqueue event.
    fn on_enqueue(&mut self, ev: &EnqueueEvent, now: SimTime, actions: &mut EventActions) {}

    /// Buffer dequeue event.
    fn on_dequeue(&mut self, ev: &DequeueEvent, now: SimTime, actions: &mut EventActions) {}

    /// Buffer overflow (drop) event.
    fn on_overflow(&mut self, ev: &OverflowEvent, now: SimTime, actions: &mut EventActions) {}

    /// Buffer underflow event.
    fn on_underflow(&mut self, ev: &UnderflowEvent, now: SimTime, actions: &mut EventActions) {}

    /// Timer expiration event.
    fn on_timer(&mut self, ev: &TimerEvent, now: SimTime, actions: &mut EventActions) {}

    /// Control-plane-triggered event.
    fn on_control_plane(
        &mut self,
        ev: &ControlPlaneEvent,
        now: SimTime,
        actions: &mut EventActions,
    ) {
    }

    /// Link status change event.
    fn on_link_status(&mut self, ev: &LinkStatusEvent, now: SimTime, actions: &mut EventActions) {}

    /// User event raised by another handler.
    fn on_user(&mut self, ev: &UserEvent, now: SimTime, actions: &mut EventActions) {}

    /// Packet transmitted event.
    fn on_transmit(&mut self, ev: &TransmitEvent, now: SimTime, actions: &mut EventActions) {}

    /// Bitmask (of [`EventKind::bit`](crate::EventKind::bit)) of *control*
    /// events — enqueue, dequeue, transmit, underflow, overflow, timer,
    /// control-plane, link-status, user — whose handlers this program
    /// leaves as the trait's empty defaults.
    ///
    /// A passive handler observably does nothing: it touches no program
    /// state and requests no [`EventActions`]. The switch therefore never
    /// calls it and builds no payload for it: the event *counter* still
    /// advances, and with a telemetry session live the firing still leaves
    /// its (empty) `EventFired`/`HandlerDone` pair on the trace.
    /// Declaring a bit while overriding that handler disables it, with or
    /// without telemetry — only list handlers you have not implemented.
    /// Must be constant for the program's lifetime (queried once at switch
    /// construction). Bits for packet events
    /// (ingress/egress/recirculated/generated) are ignored. Default: `0`
    /// (every handler may be active).
    fn passive_events(&self) -> u16 {
        0
    }
}

/// Boxed programs forward every handler, so an [`EventSwitch`] can run a
/// `Box<dyn EventProgram>` picked at runtime (the app registry, `edp_top`).
/// Each method forwards explicitly — relying on the trait defaults here
/// would re-route overridden `on_recirculated`/`on_generated` through the
/// box's own `on_ingress` default instead of the inner program's override.
///
/// [`EventSwitch`]: crate::EventSwitch
impl<P: EventProgram + ?Sized> EventProgram for Box<P> {
    fn on_ingress(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        actions: &mut EventActions,
    ) {
        (**self).on_ingress(pkt, parsed, meta, now, actions)
    }
    fn on_egress(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        actions: &mut EventActions,
    ) {
        (**self).on_egress(pkt, parsed, meta, now, actions)
    }
    fn on_recirculated(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        actions: &mut EventActions,
    ) {
        (**self).on_recirculated(pkt, parsed, meta, now, actions)
    }
    fn on_generated(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        actions: &mut EventActions,
    ) {
        (**self).on_generated(pkt, parsed, meta, now, actions)
    }
    fn on_enqueue(&mut self, ev: &EnqueueEvent, now: SimTime, actions: &mut EventActions) {
        (**self).on_enqueue(ev, now, actions)
    }
    fn on_dequeue(&mut self, ev: &DequeueEvent, now: SimTime, actions: &mut EventActions) {
        (**self).on_dequeue(ev, now, actions)
    }
    fn on_overflow(&mut self, ev: &OverflowEvent, now: SimTime, actions: &mut EventActions) {
        (**self).on_overflow(ev, now, actions)
    }
    fn on_underflow(&mut self, ev: &UnderflowEvent, now: SimTime, actions: &mut EventActions) {
        (**self).on_underflow(ev, now, actions)
    }
    fn on_timer(&mut self, ev: &TimerEvent, now: SimTime, actions: &mut EventActions) {
        (**self).on_timer(ev, now, actions)
    }
    fn on_control_plane(
        &mut self,
        ev: &ControlPlaneEvent,
        now: SimTime,
        actions: &mut EventActions,
    ) {
        (**self).on_control_plane(ev, now, actions)
    }
    fn on_link_status(&mut self, ev: &LinkStatusEvent, now: SimTime, actions: &mut EventActions) {
        (**self).on_link_status(ev, now, actions)
    }
    fn on_user(&mut self, ev: &UserEvent, now: SimTime, actions: &mut EventActions) {
        (**self).on_user(ev, now, actions)
    }
    fn on_transmit(&mut self, ev: &TransmitEvent, now: SimTime, actions: &mut EventActions) {
        (**self).on_transmit(ev, now, actions)
    }
    fn passive_events(&self) -> u16 {
        (**self).passive_events()
    }
}

/// Adapts a baseline [`edp_pisa::PisaProgram`] into an [`EventProgram`]
/// that ignores every non-packet event — the formal statement of "the
/// baseline model is a strict subset of the event-driven model" (§8).
#[derive(Debug, Clone)]
pub struct BaselineAdapter<P>(
    /// The wrapped baseline program.
    pub P,
);

impl<P: edp_pisa::PisaProgram> EventProgram for BaselineAdapter<P> {
    fn on_ingress(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        _actions: &mut EventActions,
    ) {
        self.0.ingress(pkt, parsed, meta, now)
    }

    fn on_egress(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        _actions: &mut EventActions,
    ) {
        self.0.egress(pkt, parsed, meta, now)
    }

    /// Bridges the event switch's control-plane trigger to the baseline
    /// program's ordinary management channel. This is not an event the
    /// baseline model lacks — `control_update` is the management path
    /// every PISA target has — so forwarding it preserves the
    /// strict-subset argument.
    fn on_control_plane(
        &mut self,
        ev: &ControlPlaneEvent,
        now: SimTime,
        _actions: &mut EventActions,
    ) {
        self.0.control_update(ev.opcode, ev.args, now)
    }

    /// A baseline program *cannot* react to control events — that is the
    /// subset claim — so every control-event handler except the bridged
    /// control-plane trigger is passive by construction.
    fn passive_events(&self) -> u16 {
        EventKind::PacketTransmitted.bit()
            | EventKind::BufferEnqueue.bit()
            | EventKind::BufferDequeue.bit()
            | EventKind::BufferOverflow.bit()
            | EventKind::BufferUnderflow.bit()
            | EventKind::TimerExpiration.bit()
            | EventKind::LinkStatusChange.bit()
            | EventKind::UserEvent.bit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edp_pisa::{Destination, ForwardTo};
    use std::net::Ipv4Addr;

    #[test]
    fn actions_collect() {
        let mut a = EventActions::new();
        assert!(a.is_empty());
        a.generate_packet(vec![1, 2, 3]);
        a.raise_user_event(7, [1, 2, 3, 4]);
        a.notify_control_plane(9, [0; 4]);
        assert!(!a.is_empty());
        assert_eq!(a.generated.len(), 1);
        assert_eq!(a.user_events[0].code, 7);
        assert_eq!(a.notify_cp[0].0, 9);
    }

    #[test]
    fn baseline_adapter_forwards() {
        let frame = edp_packet::PacketBuilder::udp(
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
        let mut adapter = BaselineAdapter(ForwardTo(1));
        let mut actions = EventActions::new();
        adapter.on_ingress(&mut pkt, &parsed, &mut meta, SimTime::ZERO, &mut actions);
        assert_eq!(meta.dest, Destination::Port(1));
        // Non-packet events are no-ops by default.
        adapter.on_enqueue(
            &crate::event::EnqueueEvent {
                port: 0,
                pkt_len: 0,
                q_bytes: 0,
                q_pkts: 0,
                meta: [0; 4],
            },
            SimTime::ZERO,
            &mut actions,
        );
    }

    #[test]
    fn default_handlers_are_noops() {
        struct Nop;
        impl EventProgram for Nop {}
        let mut n = Nop;
        let mut a = EventActions::new();
        n.on_timer(
            &TimerEvent {
                timer_id: 0,
                firing: 1,
            },
            SimTime::ZERO,
            &mut a,
        );
        n.on_user(
            &UserEvent {
                code: 0,
                args: [0; 4],
            },
            SimTime::ZERO,
            &mut a,
        );
        assert!(a.is_empty());
    }
}
