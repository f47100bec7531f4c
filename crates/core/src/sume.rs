//! The SUME Event Switch (Figures 2 and 4).
//!
//! [`EventSwitch`] is the event-driven PISA architecture and the only
//! switch model: the `edp-pisa` parser, pipeline-program and
//! traffic-manager substrate, with every architectural event — enqueue,
//! dequeue, overflow, underflow, timers, link status changes,
//! control-plane triggers, generated packets, transmissions, user events —
//! delivered to the program's handlers. The baseline PSA switch (Figure 1)
//! is this switch running a [`PisaProgram`] through [`BaselineAdapter`]
//! ([`EventSwitch::baseline`]): every event still fires and is counted,
//! but the adapter leaves its handler passive, so the program sees only
//! ingress, egress and `control_update`. Both sides of a baseline-vs-event
//! comparison therefore run the same switch pass.
//!
//! Dispatch semantics follow the *logical architecture model* (Figure 2):
//! handlers run immediately when their event occurs and share state
//! directly (Rust struct fields = multiported `shared_register`s). The
//! cycle-level costs of realizing this on hardware — carrier injection in
//! the event merger, staleness under single-ported aggregation — are
//! modelled separately in [`crate::merger`] and [`crate::aggreg`], which
//! is exactly the split the paper makes between §2/§5 and §4.

use crate::event::{
    ControlPlaneEvent, DequeueEvent, EnqueueEvent, Event, EventCounters, EventKind,
    LinkStatusEvent, OverflowEvent, TimerEvent, TransmitEvent, UnderflowEvent, UserEvent,
};
use crate::program::{BaselineAdapter, EventActions, EventProgram};
use edp_evsim::{SimDuration, SimTime};
use edp_packet::{Burst, Packet, PacketUid, SharedFrame};
use edp_pisa::{
    Destination, PisaProgram, PortId, QueueConfig, QueueStats, StdMeta, TrafficManager,
};
use edp_telemetry::{emit, DropReason, RecordKind};
use serde::{Deserialize, Serialize};

/// Upper bound on recirculations per packet.
pub const MAX_RECIRCULATIONS: u8 = 8;
/// Upper bound on nested handler-triggered work (a generated packet whose
/// handlers generate packets, etc.) per externally-triggered event.
pub const MAX_CASCADE_DEPTH: u8 = 8;

/// A configured periodic timer (the "Timer period" register in Figure 4).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TimerSpec {
    /// Program-visible timer id.
    pub id: u16,
    /// Firing period.
    pub period: SimDuration,
    /// First firing time.
    pub start: SimDuration,
}

/// Configuration of the on-switch packet generator block (Figure 4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PacketGenConfig {
    /// Generation period.
    pub period: SimDuration,
    /// Frame template injected each period (the program's `on_generated`
    /// handler typically rewrites and routes it).
    pub template: Vec<u8>,
}

/// Event switch configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EventSwitchConfig {
    /// Number of ports (SUME: 4 Ethernet + 1 DMA = 5).
    pub n_ports: usize,
    /// Output queue configuration.
    pub queue: QueueConfig,
    /// Periodic timers available to the program.
    pub timers: Vec<TimerSpec>,
    /// Optional template-based packet generator.
    pub generator: Option<PacketGenConfig>,
    /// Identifier mixed into generated-packet uids (keep unique per
    /// switch in multi-switch topologies).
    pub switch_id: u16,
}

impl Default for EventSwitchConfig {
    fn default() -> Self {
        EventSwitchConfig {
            n_ports: 5,
            queue: QueueConfig::default(),
            timers: Vec::new(),
            generator: None,
            switch_id: 0,
        }
    }
}

/// Aggregate switch counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventSwitchCounters {
    /// Frames offered to ingress.
    pub rx: u64,
    /// Frames handed out of egress.
    pub tx: u64,
    /// Frames dropped by program decision.
    pub dropped_by_program: u64,
    /// Frames dropped on queue overflow.
    pub dropped_overflow: u64,
    /// Frames dropped because the egress link was down.
    pub dropped_link_down: u64,
    /// Parse failures.
    pub parse_errors: u64,
    /// Recirculation passes.
    pub recirculated: u64,
    /// Packets created by the generator block or `generate_packet`.
    pub generated: u64,
    /// Overflow victims rescued by trim-and-requeue.
    pub trimmed: u64,
    /// Cascade-depth guard trips (generated work discarded).
    pub cascade_limit_drops: u64,
    /// Link status transitions observed (each dispatches a
    /// [`LinkStatusEvent`]; repeats of the same status are deduplicated
    /// and not counted).
    pub link_transitions: u64,
}

impl EventSwitchCounters {
    /// Publishes the snapshot into the unified metrics registry under
    /// `scope` (conventionally `sw<N>`).
    pub fn publish(&self, reg: &mut edp_telemetry::Registry, scope: &str) {
        reg.set_counter("rx", scope, self.rx);
        reg.set_counter("tx", scope, self.tx);
        reg.set_counter("dropped_by_program", scope, self.dropped_by_program);
        reg.set_counter("dropped_overflow", scope, self.dropped_overflow);
        reg.set_counter("dropped_link_down", scope, self.dropped_link_down);
        reg.set_counter("parse_errors", scope, self.parse_errors);
        reg.set_counter("recirculated", scope, self.recirculated);
        reg.set_counter("generated", scope, self.generated);
        reg.set_counter("trimmed", scope, self.trimmed);
        reg.set_counter("cascade_limit_drops", scope, self.cascade_limit_drops);
        reg.set_counter("link_transitions", scope, self.link_transitions);
    }
}

/// A control-plane notification emitted by a handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpNotification {
    /// When it was raised.
    pub at: SimTime,
    /// Program-defined code.
    pub code: u32,
    /// Program-defined arguments.
    pub args: [u64; 4],
}

#[derive(Debug, Clone, Copy)]
struct TimerState {
    spec: TimerSpec,
    next_due: SimTime,
    firings: u64,
}

/// The event-driven switch around an [`EventProgram`].
#[derive(Debug)]
pub struct EventSwitch<P> {
    /// The event-driven program.
    pub program: P,
    cfg: EventSwitchConfig,
    tm: TrafficManager,
    timers: Vec<TimerState>,
    gen_next_due: Option<SimTime>,
    /// The generator template, shared once: every injected packet clones
    /// the handle, not the bytes (handlers that rewrite it copy-on-write),
    /// and finds the template's parse already made.
    gen_template: Option<SharedFrame>,
    gen_seq: u64,
    link_up: Vec<bool>,
    counters: EventSwitchCounters,
    events: EventCounters,
    cp_out: Vec<CpNotification>,
    /// The program's [`EventProgram::passive_events`] mask, sampled once
    /// at construction (the contract requires it constant).
    passive: u16,
}

impl<P: PisaProgram> EventSwitch<BaselineAdapter<P>> {
    /// The baseline PSA switch (Figure 1): `program` sees only the ingress
    /// and egress packet events and `control_update`; every other event
    /// still fires and is counted, but is passive for the adapter.
    pub fn baseline(program: P, n_ports: usize, queue: QueueConfig) -> Self {
        EventSwitch::new(
            BaselineAdapter(program),
            EventSwitchConfig {
                n_ports,
                queue,
                ..EventSwitchConfig::default()
            },
        )
    }
}

impl<P: EventProgram> EventSwitch<P> {
    /// Creates an event switch.
    pub fn new(program: P, cfg: EventSwitchConfig) -> Self {
        assert!(cfg.n_ports > 0);
        let timers = cfg
            .timers
            .iter()
            .map(|&spec| TimerState {
                spec,
                next_due: SimTime::ZERO + spec.start,
                firings: 0,
            })
            .collect();
        let gen_next_due = cfg.generator.as_ref().map(|g| SimTime::ZERO + g.period);
        let gen_template = cfg
            .generator
            .as_ref()
            .map(|g| SharedFrame::new(g.template.clone()));
        let passive = program.passive_events();
        EventSwitch {
            program,
            tm: TrafficManager::new(cfg.n_ports, cfg.queue),
            timers,
            gen_next_due,
            gen_template,
            gen_seq: 0,
            link_up: vec![true; cfg.n_ports],
            counters: EventSwitchCounters::default(),
            events: EventCounters::new(),
            cp_out: Vec::new(),
            passive,
            cfg,
        }
    }

    /// Number of ports.
    pub fn n_ports(&self) -> usize {
        self.cfg.n_ports
    }

    /// Counter snapshot.
    pub fn counters(&self) -> EventSwitchCounters {
        self.counters
    }

    /// Per-kind event counts (the Table 1 coverage matrix).
    pub fn event_counters(&self) -> &EventCounters {
        &self.events
    }

    /// Per-port queue statistics.
    pub fn queue_stats(&self, port: PortId) -> QueueStats {
        self.tm.stats(port)
    }

    /// Occupancy of `port`'s output queue in bytes.
    pub fn occupancy_bytes(&self, port: PortId) -> u64 {
        self.tm.occupancy_bytes(port)
    }

    /// Total buffered bytes.
    pub fn total_buffered_bytes(&self) -> u64 {
        self.tm.total_bytes()
    }

    /// True if `port` has frames waiting to transmit.
    pub fn has_pending(&self, port: PortId) -> bool {
        self.tm.depth_pkts(port) > 0
    }

    /// Current link status of `port`.
    pub fn link_is_up(&self, port: PortId) -> bool {
        self.link_up[port as usize]
    }

    /// Drains control-plane notifications raised since the last call.
    pub fn drain_cp_notifications(&mut self) -> Vec<CpNotification> {
        std::mem::take(&mut self.cp_out)
    }

    // ------------------------------------------------------------------
    // External stimuli
    // ------------------------------------------------------------------

    /// A frame arrives on `port`.
    pub fn receive(&mut self, now: SimTime, port: PortId, pkt: Packet) {
        self.counters.rx += 1;
        self.events.record(EventKind::IngressPacket);
        emit(
            now.as_nanos(),
            RecordKind::PacketRx {
                switch: self.cfg.switch_id,
                port,
                len: pkt.len() as u32,
            },
        );
        let meta = StdMeta::ingress(port, now, pkt.len());
        self.pipeline_pass(now, pkt, meta, EventKind::IngressPacket, 0);
    }

    /// A burst of same-instant frames arrives on `port`: exactly
    /// [`EventSwitch::receive`] once per frame, in arrival order.
    pub fn receive_burst(&mut self, now: SimTime, port: PortId, burst: Burst) {
        for pkt in burst {
            self.receive(now, port, pkt);
        }
    }

    /// Pulls the next frame queued for `port` through egress. Returns
    /// `None` when the queue is empty (firing a buffer-underflow event) or
    /// the program/link dropped the frame.
    pub fn transmit(&mut self, now: SimTime, port: PortId) -> Option<Packet> {
        let (mut pkt, mut meta, ev) = match self.tm.dequeue(port, now) {
            Ok(x) => x,
            Err(_) => {
                self.dispatch_event(now, Event::Underflow(UnderflowEvent { port }), 0);
                return None;
            }
        };
        // Dequeue event fires as the packet leaves the buffer.
        if let edp_pisa::TmEvent::Dequeue {
            port,
            pkt_len,
            q_bytes,
            q_pkts,
            sojourn_ns,
            meta: m,
        } = ev
        {
            self.dispatch_event(
                now,
                Event::Dequeue(DequeueEvent {
                    port,
                    pkt_len,
                    q_bytes,
                    q_pkts,
                    sojourn_ns,
                    meta: m,
                }),
                0,
            );
        }
        if !self.link_up[port as usize] {
            self.counters.dropped_link_down += 1;
            self.drop_record(now, DropReason::LinkDown);
            return None;
        }
        self.events.record(EventKind::EgressPacket);
        // The ingress parse is still on the frame unless a handler wrote
        // to it since (`Packet::parsed`).
        let parsed = match pkt.parsed() {
            Ok(p) => *p,
            Err(_) => {
                self.counters.parse_errors += 1;
                self.drop_record(now, DropReason::ParseError);
                return None;
            }
        };
        {
            let _probe = ProbeScope::enter(EventKind::EgressPacket.probe_context());
            let mut actions = EventActions::new();
            self.program
                .on_egress(&mut pkt, &parsed, &mut meta, now, &mut actions);
            self.drain_actions(now, actions, 0);
        }
        if meta.egress_drop {
            self.counters.dropped_by_program += 1;
            self.drop_record(now, DropReason::Program);
            return None;
        }
        self.counters.tx += 1;
        let len = pkt.len() as u32;
        emit(
            now.as_nanos(),
            RecordKind::PacketTx {
                switch: self.cfg.switch_id,
                port,
                len,
            },
        );
        self.dispatch_event(
            now,
            Event::Transmit(TransmitEvent { port, pkt_len: len }),
            0,
        );
        Some(pkt)
    }

    /// Pulls up to `max` queued frames through egress on `port` in one
    /// call (`usize::MAX` drains the queue).
    ///
    /// Equivalent to a caller looping `has_pending` + [`transmit`]: the
    /// queue-empty check is hoisted here, so draining stops at the first
    /// empty poll without firing the buffer-underflow event an unguarded
    /// sequential loop would raise. Frames dropped at egress (program or
    /// link-down) are skipped from the return just as `transmit` returns
    /// `None` for them.
    ///
    /// [`transmit`]: EventSwitch::transmit
    pub fn transmit_burst(&mut self, now: SimTime, port: PortId, max: usize) -> Vec<Packet> {
        let mut out = Vec::with_capacity(max.min(self.tm.depth_pkts(port) as usize));
        for _ in 0..max {
            if !self.has_pending(port) {
                break;
            }
            if let Some(pkt) = self.transmit(now, port) {
                out.push(pkt);
            }
        }
        out
    }

    /// Fires every timer (and the packet generator) due at or before
    /// `now`. Returns the number of timer firings.
    pub fn fire_due_timers(&mut self, now: SimTime) -> u32 {
        let mut fired = 0;
        for i in 0..self.timers.len() {
            while self.timers[i].next_due <= now {
                self.timers[i].firings += 1;
                self.timers[i].next_due = self.timers[i].next_due + self.timers[i].spec.period;
                let ev = TimerEvent {
                    timer_id: self.timers[i].spec.id,
                    firing: self.timers[i].firings,
                };
                let at = now;
                self.dispatch_event(at, Event::Timer(ev), 0);
                fired += 1;
            }
        }
        while let Some(due) = self.gen_next_due {
            if due > now {
                break;
            }
            let period = self.cfg.generator.as_ref().expect("gen configured").period;
            self.gen_next_due = Some(due + period);
            let template = self.gen_template.clone().expect("gen");
            self.inject_generated(now, template, 0);
        }
        fired
    }

    /// The earliest pending timer/generator deadline, for schedulers.
    pub fn next_timer_due(&self) -> Option<SimTime> {
        let t = self.timers.iter().map(|t| t.next_due).min();
        match (t, self.gen_next_due) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The control plane triggers an event (Table 1 "Control-Plane
    /// Triggered").
    pub fn control_plane(&mut self, now: SimTime, opcode: u32, args: [u64; 4]) {
        self.dispatch_event(
            now,
            Event::ControlPlane(ControlPlaneEvent { opcode, args }),
            0,
        );
    }

    /// A port's link status changed.
    pub fn set_link_status(&mut self, now: SimTime, port: PortId, up: bool) {
        if self.link_up[port as usize] == up {
            return;
        }
        self.link_up[port as usize] = up;
        self.counters.link_transitions += 1;
        self.dispatch_event(now, Event::LinkStatus(LinkStatusEvent { port, up }), 0);
    }

    /// Raises a user event from outside (tests; handlers use
    /// [`EventActions::raise_user_event`]).
    pub fn raise_user_event(&mut self, now: SimTime, code: u32, args: [u64; 4]) {
        self.dispatch_event(now, Event::User(UserEvent { code, args }), 0);
    }

    /// Publishes counters, event coverage and per-port queue stats into
    /// the unified metrics registry under `scope`.
    pub fn publish_metrics(&self, reg: &mut edp_telemetry::Registry, scope: &str) {
        self.counters.publish(reg, scope);
        self.events.publish(reg, scope);
        for port in 0..self.cfg.n_ports as PortId {
            self.tm
                .stats(port)
                .publish(reg, &format!("{scope}:p{port}"));
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn drop_record(&self, now: SimTime, reason: DropReason) {
        emit(
            now.as_nanos(),
            RecordKind::PacketDrop {
                switch: self.cfg.switch_id,
                reason,
            },
        );
    }

    fn pipeline_pass(
        &mut self,
        now: SimTime,
        mut pkt: Packet,
        mut meta: StdMeta,
        kind: EventKind,
        depth: u8,
    ) {
        // A copy, because the handler gets the packet mutably beside it.
        let parsed = match pkt.parsed() {
            Ok(p) => *p,
            Err(_) => {
                self.counters.parse_errors += 1;
                self.drop_record(now, DropReason::ParseError);
                return;
            }
        };
        let _probe = ProbeScope::enter(kind.probe_context());
        let mut actions = EventActions::new();
        match kind {
            EventKind::RecirculatedPacket => {
                self.program
                    .on_recirculated(&mut pkt, &parsed, &mut meta, now, &mut actions)
            }
            EventKind::GeneratedPacket => {
                self.program
                    .on_generated(&mut pkt, &parsed, &mut meta, now, &mut actions)
            }
            _ => self
                .program
                .on_ingress(&mut pkt, &parsed, &mut meta, now, &mut actions),
        }
        self.drain_actions(now, actions, depth);
        match meta.dest {
            Destination::Port(out) => {
                if (out as usize) < self.cfg.n_ports {
                    self.enqueue(now, out, pkt, meta, depth);
                } else {
                    self.counters.dropped_by_program += 1;
                    self.drop_record(now, DropReason::Program);
                }
            }
            Destination::Flood => {
                let ingress = meta.ingress_port;
                for out in 0..self.cfg.n_ports as PortId {
                    if out != ingress {
                        self.enqueue(now, out, pkt.clone(), meta, depth);
                    }
                }
            }
            Destination::Recirculate => {
                if meta.recirc_count >= MAX_RECIRCULATIONS {
                    self.counters.dropped_by_program += 1;
                    self.drop_record(now, DropReason::RecircLimit);
                    return;
                }
                self.counters.recirculated += 1;
                self.events.record(EventKind::RecirculatedPacket);
                meta.recirc_count += 1;
                emit(
                    now.as_nanos(),
                    RecordKind::PacketRecirc {
                        switch: self.cfg.switch_id,
                        pass: meta.recirc_count,
                    },
                );
                meta.dest = Destination::Unspecified;
                self.pipeline_pass(now, pkt, meta, EventKind::RecirculatedPacket, depth);
            }
            Destination::Drop | Destination::Unspecified => {
                self.counters.dropped_by_program += 1;
                self.drop_record(now, DropReason::Program);
            }
        }
    }

    fn enqueue(&mut self, now: SimTime, out: PortId, pkt: Packet, meta: StdMeta, depth: u8) {
        // The emission probe point: every routing decision that commits a
        // frame toward an egress queue funnels through here (unicast,
        // per-port flood copies, and the overflow trim re-offer targets
        // the same port this first offer already recorded).
        edp_pisa::probe::record_emission(u16::from(out));
        let orig_meta = meta;
        let (returned, tm_event) = self.tm.offer(out, pkt, meta, now);
        match tm_event {
            edp_pisa::TmEvent::Enqueue {
                port,
                pkt_len,
                q_bytes,
                q_pkts,
                meta,
            } => {
                self.dispatch_event(
                    now,
                    Event::Enqueue(EnqueueEvent {
                        port,
                        pkt_len,
                        q_bytes,
                        q_pkts,
                        meta,
                    }),
                    depth,
                );
            }
            edp_pisa::TmEvent::Overflow {
                port,
                pkt_len,
                q_bytes,
                meta,
            } => {
                // The overflow handler may rescue the victim by trimming
                // it to its network header (NDP-style), so dispatch it
                // inline and inspect the requested actions.
                if depth >= MAX_CASCADE_DEPTH {
                    self.counters.cascade_limit_drops += 1;
                    self.counters.dropped_overflow += 1;
                    self.drop_record(now, DropReason::CascadeLimit);
                    return;
                }
                self.events.record(EventKind::BufferOverflow);
                let ev = OverflowEvent {
                    port,
                    pkt_len,
                    q_bytes,
                    meta,
                };
                let _probe = ProbeScope::enter(EventKind::BufferOverflow.probe_context());
                let mut actions = EventActions::new();
                self.program.on_overflow(&ev, now, &mut actions);
                let trim_rank = actions.trim_requeue.take();
                self.drain_actions(now, actions, depth);
                match (trim_rank, returned) {
                    (Some(rank), Some(mut victim)) => {
                        // In-place NDP-style cut payload: the victim just
                        // came back from the TM uniquely owned, so no
                        // full-frame copy is made.
                        if victim.trim_to_network_header() {
                            let mut m = orig_meta;
                            m.rank = rank;
                            m.pkt_len = victim.len() as u32;
                            let (ret2, ev2) = self.tm.offer(out, victim, m, now);
                            if ret2.is_none() {
                                self.counters.trimmed += 1;
                                if let edp_pisa::TmEvent::Enqueue {
                                    port,
                                    pkt_len,
                                    q_bytes,
                                    q_pkts,
                                    meta,
                                } = ev2
                                {
                                    self.dispatch_event(
                                        now,
                                        Event::Enqueue(EnqueueEvent {
                                            port,
                                            pkt_len,
                                            q_bytes,
                                            q_pkts,
                                            meta,
                                        }),
                                        depth + 1,
                                    );
                                }
                                return;
                            }
                        }
                        self.counters.dropped_overflow += 1;
                        self.drop_record(now, DropReason::Overflow);
                    }
                    _ => {
                        self.counters.dropped_overflow += 1;
                        self.drop_record(now, DropReason::Overflow);
                    }
                }
            }
            _ => unreachable!("offer emits Enqueue or Overflow"),
        }
    }

    fn inject_generated(&mut self, now: SimTime, frame: SharedFrame, depth: u8) {
        if depth >= MAX_CASCADE_DEPTH {
            self.counters.cascade_limit_drops += 1;
            self.drop_record(now, DropReason::CascadeLimit);
            return;
        }
        self.gen_seq += 1;
        self.counters.generated += 1;
        self.events.record(EventKind::GeneratedPacket);
        emit(
            now.as_nanos(),
            RecordKind::EventRaised {
                kind: EventKind::GeneratedPacket.code(),
            },
        );
        let uid = PacketUid(((self.cfg.switch_id as u64) << 48) | (1 << 47) | self.gen_seq);
        let pkt = Packet::from_shared(uid, frame);
        // Generated packets enter "from" the highest port index + 1 so
        // programs can distinguish them; Flood excludes no real port.
        let meta = StdMeta::ingress(self.cfg.n_ports as PortId, now, pkt.len());
        self.pipeline_pass(now, pkt, meta, EventKind::GeneratedPacket, depth + 1);
    }

    fn dispatch_event(&mut self, now: SimTime, ev: Event, depth: u8) {
        if depth >= MAX_CASCADE_DEPTH {
            self.counters.cascade_limit_drops += 1;
            return;
        }
        let kind = ev.kind();
        self.events.record(kind);
        // A passive handler (trait-default no-op, declared by the program)
        // observably does nothing, so with no telemetry session live the
        // dispatch scaffolding — span records, action staging, the handler
        // call itself — is skipped. With telemetry on, the full path runs
        // so every `EventFired`/`HandlerDone` record is still emitted.
        if self.passive & kind.bit() != 0 && !edp_telemetry::on() {
            return;
        }
        let code = kind.code();
        // Span covers the handler *and* its cascaded actions, so packets
        // enqueued and events raised inside carry this firing as cause.
        let span = edp_telemetry::span_begin(now.as_nanos(), RecordKind::EventFired { kind: code });
        if edp_telemetry::on() {
            if let Event::Dequeue(e) = &ev {
                edp_telemetry::observe(
                    "sojourn_ns",
                    &format!("sw{}:p{}", self.cfg.switch_id, e.port),
                    e.sojourn_ns,
                );
            }
        }
        let _probe = ProbeScope::enter(kind.probe_context());
        let mut actions = EventActions::new();
        match &ev {
            Event::Enqueue(e) => self.program.on_enqueue(e, now, &mut actions),
            Event::Dequeue(e) => self.program.on_dequeue(e, now, &mut actions),
            Event::Overflow(e) => self.program.on_overflow(e, now, &mut actions),
            Event::Underflow(e) => self.program.on_underflow(e, now, &mut actions),
            Event::Timer(e) => self.program.on_timer(e, now, &mut actions),
            Event::ControlPlane(e) => self.program.on_control_plane(e, now, &mut actions),
            Event::LinkStatus(e) => self.program.on_link_status(e, now, &mut actions),
            Event::User(e) => self.program.on_user(e, now, &mut actions),
            Event::Transmit(e) => self.program.on_transmit(e, now, &mut actions),
        }
        self.drain_actions(now, actions, depth);
        edp_telemetry::span_end(now.as_nanos(), span, RecordKind::HandlerDone { kind: code });
    }

    fn drain_actions(&mut self, now: SimTime, actions: EventActions, depth: u8) {
        for (code, args) in actions.notify_cp {
            self.cp_out.push(CpNotification {
                at: now,
                code,
                args,
            });
        }
        for ue in actions.user_events {
            emit(
                now.as_nanos(),
                RecordKind::EventRaised {
                    kind: EventKind::UserEvent.code(),
                },
            );
            self.dispatch_event(now, Event::User(ue), depth + 1);
        }
        for frame in actions.generated {
            self.inject_generated(now, SharedFrame::new(frame), depth + 1);
        }
    }
}

/// RAII probe-context frame: while `edp_pisa::probe` is armed (analysis
/// runs only), dispatch sites push the handler context they enter so
/// recorded accesses carry the innermost handler and recorded emissions
/// carry both it and the outermost entry event. Disarmed cost is one
/// thread-local flag check per dispatch; the `Drop` impl keeps the stack
/// balanced across early returns and handler panics.
struct ProbeScope(bool);

impl ProbeScope {
    #[inline]
    fn enter(context: &'static str) -> ProbeScope {
        let armed = edp_pisa::probe::armed();
        if armed {
            edp_pisa::probe::push_context(context);
        }
        ProbeScope(armed)
    }
}

impl Drop for ProbeScope {
    #[inline]
    fn drop(&mut self) {
        if self.0 {
            edp_pisa::probe::pop_context();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::EventProgram;
    use edp_packet::{PacketBuilder, ParsedPacket};
    use edp_pisa::ForwardTo;
    use std::net::Ipv4Addr;

    fn frame() -> Packet {
        Packet::anonymous(
            PacketBuilder::udp(
                Ipv4Addr::new(1, 0, 0, 1),
                Ipv4Addr::new(1, 0, 0, 2),
                1,
                2,
                b"x",
            )
            .pad_to(100)
            .build(),
        )
    }

    /// Counts every handler invocation.
    #[derive(Default)]
    struct Recorder {
        ing: u32,
        enq: u32,
        deq: u32,
        ovf: u32,
        und: u32,
        timer: u32,
        link: u32,
        cp: u32,
        user: u32,
        tx: u32,
    }

    impl EventProgram for Recorder {
        fn on_ingress(
            &mut self,
            _pkt: &mut Packet,
            _parsed: &ParsedPacket,
            meta: &mut StdMeta,
            _now: SimTime,
            _a: &mut EventActions,
        ) {
            self.ing += 1;
            meta.dest = Destination::Port(1);
        }
        fn on_enqueue(&mut self, _e: &EnqueueEvent, _n: SimTime, _a: &mut EventActions) {
            self.enq += 1;
        }
        fn on_dequeue(&mut self, _e: &DequeueEvent, _n: SimTime, _a: &mut EventActions) {
            self.deq += 1;
        }
        fn on_overflow(&mut self, _e: &OverflowEvent, _n: SimTime, _a: &mut EventActions) {
            self.ovf += 1;
        }
        fn on_underflow(&mut self, _e: &UnderflowEvent, _n: SimTime, _a: &mut EventActions) {
            self.und += 1;
        }
        fn on_timer(&mut self, _e: &TimerEvent, _n: SimTime, _a: &mut EventActions) {
            self.timer += 1;
        }
        fn on_link_status(&mut self, _e: &LinkStatusEvent, _n: SimTime, _a: &mut EventActions) {
            self.link += 1;
        }
        fn on_control_plane(&mut self, _e: &ControlPlaneEvent, _n: SimTime, _a: &mut EventActions) {
            self.cp += 1;
        }
        fn on_user(&mut self, _e: &UserEvent, _n: SimTime, _a: &mut EventActions) {
            self.user += 1;
        }
        fn on_transmit(&mut self, _e: &TransmitEvent, _n: SimTime, _a: &mut EventActions) {
            self.tx += 1;
        }
    }

    fn cfg() -> EventSwitchConfig {
        EventSwitchConfig {
            n_ports: 4,
            ..Default::default()
        }
    }

    #[test]
    fn packet_path_fires_enqueue_dequeue_transmit() {
        let mut sw = EventSwitch::new(Recorder::default(), cfg());
        sw.receive(SimTime::ZERO, 0, frame());
        assert_eq!(sw.program.enq, 1);
        let out = sw.transmit(SimTime::from_nanos(10), 1);
        assert!(out.is_some());
        assert_eq!(sw.program.deq, 1);
        assert_eq!(sw.program.tx, 1);
        let ec = sw.event_counters();
        assert_eq!(ec.get(EventKind::IngressPacket), 1);
        assert_eq!(ec.get(EventKind::BufferEnqueue), 1);
        assert_eq!(ec.get(EventKind::BufferDequeue), 1);
        assert_eq!(ec.get(EventKind::PacketTransmitted), 1);
        assert_eq!(ec.get(EventKind::EgressPacket), 1);
    }

    #[test]
    fn overflow_fires_event() {
        let mut c = cfg();
        c.queue = QueueConfig {
            capacity_bytes: 150,
            ..QueueConfig::default()
        };
        let mut sw = EventSwitch::new(Recorder::default(), c);
        sw.receive(SimTime::ZERO, 0, frame()); // 100 bytes, fits
        sw.receive(SimTime::ZERO, 0, frame()); // would exceed 150
        assert_eq!(sw.program.ovf, 1);
        assert_eq!(sw.counters().dropped_overflow, 1);
    }

    #[test]
    fn underflow_on_empty_transmit() {
        let mut sw = EventSwitch::new(Recorder::default(), cfg());
        assert!(sw.transmit(SimTime::ZERO, 0).is_none());
        assert_eq!(sw.program.und, 1);
    }

    #[test]
    fn timers_fire_on_schedule() {
        let mut c = cfg();
        c.timers = vec![TimerSpec {
            id: 3,
            period: SimDuration::from_micros(10),
            start: SimDuration::from_micros(10),
        }];
        let mut sw = EventSwitch::new(Recorder::default(), c);
        assert_eq!(sw.next_timer_due(), Some(SimTime::from_micros(10)));
        sw.fire_due_timers(SimTime::from_micros(35));
        assert_eq!(sw.program.timer, 3, "t=10,20,30");
        assert_eq!(sw.next_timer_due(), Some(SimTime::from_micros(40)));
    }

    #[test]
    fn generator_injects_packets() {
        let mut c = cfg();
        c.generator = Some(PacketGenConfig {
            period: SimDuration::from_micros(5),
            template: PacketBuilder::udp(
                Ipv4Addr::new(9, 9, 9, 9),
                Ipv4Addr::new(8, 8, 8, 8),
                1,
                2,
                &[],
            )
            .build(),
        });
        let mut sw = EventSwitch::new(Recorder::default(), c);
        sw.fire_due_timers(SimTime::from_micros(12));
        assert_eq!(sw.counters().generated, 2, "t=5,10");
        // Generated packets flowed to port 1 via on_ingress default path.
        assert_eq!(sw.program.enq, 2);
        assert_eq!(sw.event_counters().get(EventKind::GeneratedPacket), 2);
    }

    #[test]
    fn link_status_and_cp_events() {
        let mut sw = EventSwitch::new(Recorder::default(), cfg());
        sw.set_link_status(SimTime::ZERO, 2, false);
        sw.set_link_status(SimTime::ZERO, 2, false); // no change, no event
        sw.set_link_status(SimTime::ZERO, 2, true);
        assert_eq!(sw.program.link, 2);
        assert_eq!(sw.counters().link_transitions, 2, "dedup counts once");
        sw.control_plane(SimTime::ZERO, 7, [1, 2, 3, 4]);
        assert_eq!(sw.program.cp, 1);
    }

    #[test]
    fn link_down_drops_at_egress() {
        let mut sw = EventSwitch::new(Recorder::default(), cfg());
        sw.receive(SimTime::ZERO, 0, frame());
        sw.set_link_status(SimTime::ZERO, 1, false);
        assert!(sw.transmit(SimTime::ZERO, 1).is_none());
        assert_eq!(sw.counters().dropped_link_down, 1);
        // Dequeue event still fired (the buffer did release the packet).
        assert_eq!(sw.program.deq, 1);
    }

    #[test]
    fn user_events_cascade_bounded() {
        /// Raises a user event from every user event: must hit the guard.
        struct Bomb;
        impl EventProgram for Bomb {
            fn on_user(&mut self, _e: &UserEvent, _n: SimTime, a: &mut EventActions) {
                a.raise_user_event(0, [0; 4]);
            }
        }
        let mut sw = EventSwitch::new(Bomb, cfg());
        sw.raise_user_event(SimTime::ZERO, 0, [0; 4]);
        assert!(sw.counters().cascade_limit_drops > 0);
        assert!(sw.event_counters().get(EventKind::UserEvent) <= MAX_CASCADE_DEPTH as u64);
    }

    #[test]
    fn flood_replicates_and_fires_enqueue_per_copy() {
        struct Flooder;
        impl EventProgram for Flooder {
            fn on_ingress(
                &mut self,
                _p: &mut Packet,
                _h: &ParsedPacket,
                m: &mut StdMeta,
                _n: SimTime,
                _a: &mut EventActions,
            ) {
                m.dest = Destination::Flood;
            }
        }
        let mut sw = EventSwitch::new(Flooder, cfg());
        sw.receive(SimTime::ZERO, 1, frame());
        // 4 ports, ingress excluded: 3 copies, 3 enqueue events.
        assert_eq!(sw.event_counters().get(EventKind::BufferEnqueue), 3);
        for p in [0u8, 2, 3] {
            assert!(sw.has_pending(p), "port {p}");
        }
        assert!(!sw.has_pending(1));
        assert_eq!(sw.total_buffered_bytes(), 300);
    }

    #[test]
    fn egress_drop_and_queue_stats() {
        struct EgressDropper;
        impl EventProgram for EgressDropper {
            fn on_ingress(
                &mut self,
                _p: &mut Packet,
                _h: &ParsedPacket,
                m: &mut StdMeta,
                _n: SimTime,
                _a: &mut EventActions,
            ) {
                m.dest = Destination::Port(1);
            }
            fn on_egress(
                &mut self,
                _p: &mut Packet,
                _h: &ParsedPacket,
                m: &mut StdMeta,
                _n: SimTime,
                _a: &mut EventActions,
            ) {
                m.egress_drop = true;
            }
        }
        let mut sw = EventSwitch::new(EgressDropper, cfg());
        sw.receive(SimTime::ZERO, 0, frame());
        assert!(sw.transmit(SimTime::ZERO, 1).is_none());
        let c = sw.counters();
        assert_eq!(c.tx, 0);
        assert_eq!(c.dropped_by_program, 1);
        // The dequeue happened even though egress dropped the frame.
        assert_eq!(sw.queue_stats(1).dequeued, 1);
        // No transmit event for a dropped frame.
        assert_eq!(sw.event_counters().get(EventKind::PacketTransmitted), 0);
    }

    #[test]
    fn baseline_adapter_runs_unchanged_on_event_switch() {
        let mut sw = EventSwitch::baseline(ForwardTo(2), 4, QueueConfig::default());
        sw.receive(SimTime::ZERO, 0, frame());
        assert!(sw.has_pending(2) && !sw.has_pending(0));
        assert!(sw.transmit(SimTime::ZERO, 2).is_some());
        let c = sw.counters();
        assert_eq!((c.rx, c.tx), (1, 1));
        // The architecture still *fired* the events; the baseline program
        // simply could not observe them — the §8 strict-subset argument.
        assert_eq!(sw.event_counters().get(EventKind::BufferEnqueue), 1);
        assert_eq!(sw.event_counters().get(EventKind::BufferDequeue), 1);
    }

    #[test]
    fn invalid_port_and_unspecified_drop() {
        struct Bad;
        impl EventProgram for Bad {
            fn on_ingress(
                &mut self,
                _p: &mut Packet,
                _h: &ParsedPacket,
                m: &mut StdMeta,
                _n: SimTime,
                _a: &mut EventActions,
            ) {
                m.dest = Destination::Port(99);
            }
        }
        let mut sw = EventSwitch::new(Bad, cfg());
        sw.receive(SimTime::ZERO, 0, frame());
        assert_eq!(sw.counters().dropped_by_program, 1);

        struct Undecided;
        impl EventProgram for Undecided {}
        let mut sw = EventSwitch::new(Undecided, cfg());
        sw.receive(SimTime::ZERO, 0, frame());
        assert_eq!(sw.counters().dropped_by_program, 1);
    }

    #[test]
    fn recirculation_bounded_on_event_switch() {
        struct Recirc;
        impl EventProgram for Recirc {
            fn on_ingress(
                &mut self,
                _p: &mut Packet,
                _h: &ParsedPacket,
                m: &mut StdMeta,
                _n: SimTime,
                _a: &mut EventActions,
            ) {
                m.dest = Destination::Recirculate;
            }
            fn on_recirculated(
                &mut self,
                _p: &mut Packet,
                _h: &ParsedPacket,
                m: &mut StdMeta,
                _n: SimTime,
                _a: &mut EventActions,
            ) {
                m.dest = Destination::Recirculate;
            }
        }
        let mut sw = EventSwitch::new(Recirc, cfg());
        sw.receive(SimTime::ZERO, 0, frame());
        assert_eq!(sw.counters().recirculated, MAX_RECIRCULATIONS as u64);
        assert_eq!(
            sw.event_counters().get(EventKind::RecirculatedPacket),
            MAX_RECIRCULATIONS as u64
        );
    }

    #[test]
    fn every_packet_of_a_flow_runs_the_handler_and_the_architecture_events() {
        let mut sw = EventSwitch::new(Recorder::default(), cfg());
        for _ in 0..5 {
            sw.receive(SimTime::ZERO, 0, frame());
        }
        assert_eq!(sw.program.ing, 5, "no packet skips its handler");
        assert_eq!(sw.event_counters().get(EventKind::BufferEnqueue), 5);
        for _ in 0..5 {
            assert!(sw.transmit(SimTime::ZERO, 1).is_some());
        }
        assert_eq!(sw.program.deq, 5);
        assert_eq!(sw.program.tx, 5);
    }

    #[test]
    fn control_plane_update_takes_effect_on_the_next_packet() {
        use edp_pisa::TableRouter;
        let dst = Ipv4Addr::new(1, 0, 0, 2);
        let mut sw = EventSwitch::baseline(TableRouter::new(), 4, QueueConfig::default());
        sw.control_plane(
            SimTime::ZERO,
            TableRouter::OP_INSERT_ROUTE,
            [u32::from(dst) as u64, 24, 1, 0],
        );
        sw.receive(SimTime::ZERO, 0, frame());
        sw.receive(SimTime::ZERO, 0, frame());
        assert!(sw.transmit(SimTime::ZERO, 1).is_some());
        assert!(sw.transmit(SimTime::ZERO, 1).is_some());
        // Mid-run route change: a more specific prefix to a new port.
        sw.control_plane(
            SimTime::ZERO,
            TableRouter::OP_INSERT_ROUTE,
            [u32::from(dst) as u64, 32, 3, 0],
        );
        sw.receive(SimTime::ZERO, 0, frame());
        assert!(sw.has_pending(3));
        assert!(!sw.has_pending(1));
    }

    /// A baseline program whose ingress decision is `f(recirc_count, n)`,
    /// `n` numbering the arrivals (first passes) from 1.
    struct Decide(fn(u8, u64) -> Destination, u64);
    impl PisaProgram for Decide {
        fn ingress(&mut self, _p: &mut Packet, _h: &ParsedPacket, m: &mut StdMeta, _n: SimTime) {
            self.1 += u64::from(m.recirc_count == 0);
            m.dest = (self.0)(m.recirc_count, self.1);
        }
    }

    #[test]
    fn recirc_count_visible_to_program() {
        // Recirculate once, then forward: only the count tells them apart.
        let once = |r, _| match r {
            0 => Destination::Recirculate,
            _ => Destination::Port(1),
        };
        let mut sw = EventSwitch::baseline(Decide(once, 0), 2, QueueConfig::default());
        sw.receive(SimTime::ZERO, 0, frame());
        assert!(sw.transmit(SimTime::ZERO, 1).is_some());
        assert_eq!(sw.counters().recirculated, 1);
    }

    /// The drop-accounting identity for a program that does not flood:
    /// every received or generated frame left the switch, sits in a queue,
    /// or is counted in exactly one drop bucket.
    fn assert_accounting_consistent<P: EventProgram>(sw: &EventSwitch<P>) {
        let c = sw.counters();
        let queued: u64 = (0..sw.n_ports() as PortId)
            .map(|p| u64::from(sw.queue_stats(p).pkts))
            .sum();
        let dropped = c.dropped_by_program + c.dropped_overflow + c.dropped_link_down;
        assert_eq!(
            c.rx + c.generated,
            c.tx + dropped + c.parse_errors + queued,
            "{c:?}, {queued} queued"
        );
    }

    #[test]
    fn drop_buckets_sum_consistently_with_rx_tx() {
        // Three frames looped past the bound and an unparseable runt: a
        // limit drop is a program drop (`DropReason::RecircLimit` on the
        // trace), the runt a parse error.
        let forever = Decide(|_, _| Destination::Recirculate, 0);
        let mut sw = EventSwitch::baseline(forever, 2, QueueConfig::default());
        for _ in 0..3 {
            sw.receive(SimTime::ZERO, 0, frame());
        }
        sw.receive(SimTime::ZERO, 0, Packet::anonymous(vec![1, 2, 3]));
        let c = sw.counters();
        assert_eq!((c.rx, c.tx, c.parse_errors), (4, 0, 1));
        assert_eq!(c.recirculated, 3 * MAX_RECIRCULATIONS as u64);
        assert_eq!((c.dropped_by_program, c.dropped_overflow), (3, 0));
        assert_accounting_consistent(&sw);

        // Of every three arrivals one loops past the bound, one is
        // dropped and one goes to port 1, into a queue for one 100-byte
        // frame: the second forwarded one overflows, and the first still
        // waits when the link goes down.
        let mixed = |r, n: u64| match (r, n % 3) {
            (0, 2) => Destination::Drop,
            (0, 0) => Destination::Port(1),
            _ => Destination::Recirculate,
        };
        let queue = QueueConfig {
            capacity_bytes: 150,
            ..QueueConfig::default()
        };
        let mut sw = EventSwitch::baseline(Decide(mixed, 0), 2, queue);
        for _ in 0..6 {
            sw.receive(SimTime::ZERO, 0, frame());
        }
        let c = sw.counters();
        assert_eq!(
            (c.dropped_by_program, c.dropped_overflow),
            (4, 1),
            "2 limit + 2 drop"
        );
        assert_accounting_consistent(&sw);
        sw.set_link_status(SimTime::ZERO, 1, false);
        assert!(sw.transmit(SimTime::ZERO, 1).is_none());
        assert_eq!(sw.counters().dropped_link_down, 1);
        assert_accounting_consistent(&sw);
    }

    /// One run of the mixed-traffic workload; `burst` switches between
    /// per-packet [`EventSwitch::receive`] and [`EventSwitch::receive_burst`].
    /// Returns every observable: trace render, counters, and the
    /// transmitted frame bytes.
    fn burst_observables(burst: bool) -> (String, EventSwitchCounters, String) {
        use edp_packet::Burst;
        let flow_frame = |src_port: u16| {
            Packet::anonymous(
                PacketBuilder::udp(
                    Ipv4Addr::new(1, 0, 0, 1),
                    Ipv4Addr::new(1, 0, 0, 2),
                    src_port,
                    2,
                    b"x",
                )
                .pad_to(100)
                .build(),
            )
        };
        // Two interleaved flows + a runt (parse error) mid-burst: the
        // error drop must be accounted at its arrival position.
        let frames = || {
            vec![
                flow_frame(7),
                flow_frame(7),
                flow_frame(7),
                flow_frame(9),
                Packet::anonymous(vec![0xde, 0xad, 0xbe]),
                flow_frame(9),
                flow_frame(7),
            ]
        };
        edp_telemetry::enable(edp_telemetry::TelemetryConfig::default());
        let mut sw = EventSwitch::baseline(ForwardTo(2), 4, QueueConfig::default());
        if burst {
            sw.receive_burst(SimTime::from_nanos(50), 0, Burst::from_frames(frames()));
        } else {
            for f in frames() {
                sw.receive(SimTime::from_nanos(50), 0, f);
            }
        }
        let drained = sw.transmit_burst(SimTime::from_nanos(90), 2, 16);
        let t = edp_telemetry::disable().expect("session");
        let payloads = drained
            .iter()
            .map(|p| format!("{:02x?}", p.bytes()))
            .collect::<Vec<_>>()
            .join("|");
        (t.render_trace(), sw.counters(), payloads)
    }

    #[test]
    fn receive_burst_is_byte_identical_to_sequential() {
        let (trace_seq, ctr_seq, tx_seq) = burst_observables(false);
        let (trace_b, ctr_b, tx_b) = burst_observables(true);
        assert_eq!(trace_b, trace_seq, "telemetry record stream must match");
        assert_eq!(ctr_b, ctr_seq, "switch counters must match");
        assert_eq!(tx_b, tx_seq, "transmitted frames must match byte-for-byte");
    }

    #[test]
    fn transmit_burst_drains_without_spurious_underflow() {
        let mut sw = EventSwitch::new(Recorder::default(), cfg());
        for _ in 0..3 {
            sw.receive(SimTime::ZERO, 0, frame());
        }
        let out = sw.transmit_burst(SimTime::from_nanos(10), 1, 8);
        assert_eq!(out.len(), 3, "drains exactly the queued frames");
        assert_eq!(sw.program.und, 0, "no underflow fired for the empty tail");
        assert_eq!(sw.program.tx, 3);
        assert!(sw.transmit_burst(SimTime::from_nanos(20), 1, 8).is_empty());
        // `usize::MAX` means "drain everything", not "reserve everything".
        for _ in 0..3 {
            sw.receive(SimTime::from_nanos(30), 0, frame());
        }
        let out = sw.transmit_burst(SimTime::from_nanos(40), 1, usize::MAX);
        assert_eq!(out.len(), 3);
        assert_eq!(sw.program.und, 0);
    }

    #[test]
    fn telemetry_trace_covers_packet_lifecycle() {
        use edp_telemetry::RecordKind as RK;
        edp_telemetry::enable(edp_telemetry::TelemetryConfig::default());
        let mut sw = EventSwitch::new(Recorder::default(), cfg());
        sw.receive(SimTime::ZERO, 0, frame());
        assert!(sw.transmit(SimTime::from_nanos(10), 1).is_some());
        let t = edp_telemetry::disable().expect("session");
        let recs: Vec<_> = t.ring.iter().copied().collect();
        assert!(recs.iter().any(|r| r.kind
            == RK::PacketRx {
                switch: 0,
                port: 0,
                len: 100
            }));
        assert!(recs.iter().any(|r| r.kind
            == RK::PacketTx {
                switch: 0,
                port: 1,
                len: 100
            }));
        // The enqueue handler ran under a span that its HandlerDone closes,
        // and the records between them carry the span as cause.
        let enq = EventKind::BufferEnqueue.code();
        let fired = recs
            .iter()
            .find(|r| r.kind == RK::EventFired { kind: enq })
            .expect("enqueue fired");
        assert!(recs
            .iter()
            .any(|r| r.kind == RK::HandlerDone { kind: enq } && r.span == fired.span));
        // Dequeue sojourn observed into the per-port histogram.
        let h = t
            .registry
            .histogram("sojourn_ns", "sw0:p1")
            .expect("sojourn histogram");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 10);
    }

    #[test]
    fn telemetry_drop_records_carry_reasons() {
        use edp_telemetry::{DropReason as DR, RecordKind as RK};
        edp_telemetry::enable(edp_telemetry::TelemetryConfig::default());
        let mut sw = EventSwitch::new(Recorder::default(), cfg());
        // Link-down drop at egress.
        sw.receive(SimTime::ZERO, 0, frame());
        sw.set_link_status(SimTime::ZERO, 1, false);
        assert!(sw.transmit(SimTime::ZERO, 1).is_none());
        let t = edp_telemetry::disable().expect("session");
        assert!(t.ring.iter().any(|r| r.kind
            == RK::PacketDrop {
                switch: 0,
                reason: DR::LinkDown
            }));
    }

    #[test]
    fn publish_metrics_mirrors_counters() {
        let mut sw = EventSwitch::new(Recorder::default(), cfg());
        sw.receive(SimTime::ZERO, 0, frame());
        sw.receive(SimTime::ZERO, 0, frame());
        assert!(sw.transmit(SimTime::from_nanos(5), 1).is_some());
        let mut reg = edp_telemetry::Registry::new();
        sw.publish_metrics(&mut reg, "sw0");
        assert_eq!(reg.counter("rx", "sw0"), 2);
        assert_eq!(reg.counter("tx", "sw0"), 1);
        assert_eq!(reg.counter("events_enqueue", "sw0"), 2);
        assert_eq!(reg.counter("queue_enqueued", "sw0:p1"), 2);
        assert_eq!(reg.counter("queue_dequeued", "sw0:p1"), 1);
        assert_eq!(reg.gauge("queue_pkts", "sw0:p1"), Some(1));
    }

    #[test]
    fn cp_notifications_drain() {
        struct Notifier;
        impl EventProgram for Notifier {
            fn on_timer(&mut self, e: &TimerEvent, _n: SimTime, a: &mut EventActions) {
                a.notify_control_plane(42, [e.firing, 0, 0, 0]);
            }
        }
        let mut c = cfg();
        c.timers = vec![TimerSpec {
            id: 0,
            period: SimDuration::from_micros(1),
            start: SimDuration::from_micros(1),
        }];
        let mut sw = EventSwitch::new(Notifier, c);
        sw.fire_due_timers(SimTime::from_micros(3));
        let notes = sw.drain_cp_notifications();
        assert_eq!(notes.len(), 3);
        assert_eq!(notes[0].code, 42);
        assert_eq!(notes[2].args[0], 3);
        assert!(sw.drain_cp_notifications().is_empty());
    }
}
