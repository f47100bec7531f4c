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
//! Every handler — four packet kinds, nine control kinds — fires through
//! one private dispatch. It builds a payload from the traffic manager's
//! plain queue facts only for a kind the program handles: a passive kind
//! ([`EventProgram::passive_events`]) costs its counter and, under
//! telemetry, an empty span, and its handler never runs.
//!
//! Dispatch semantics follow the *logical architecture model* (Figure 2):
//! handlers run immediately when their event occurs and share state
//! directly (Rust struct fields = multiported `shared_register`s). The
//! cycle-level costs of realizing this on hardware — carrier injection in
//! the event merger, staleness under single-ported aggregation — are
//! modelled separately in [`crate::merger`] and [`crate::aggreg`], which
//! is exactly the split the paper makes between §2/§5 and §4.

use crate::event::{
    ControlPlaneEvent, DequeueEvent, EnqueueEvent, EventCounters, EventKind, LinkStatusEvent,
    OverflowEvent, TimerEvent, TransmitEvent, UnderflowEvent, UserEvent,
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

/// The four packet kinds. Their handlers run in a pipeline pass, so they
/// are never passive and open no span.
const PACKET_KINDS: u16 = EventKind::IngressPacket.bit()
    | EventKind::EgressPacket.bit()
    | EventKind::RecirculatedPacket.bit()
    | EventKind::GeneratedPacket.bit();

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
    /// Each port's telemetry scope, `sw{id}:p{port}`, built once.
    port_scopes: Box<[String]>,
    counters: EventSwitchCounters,
    events: EventCounters,
    cp_out: Vec<CpNotification>,
    /// The program's [`EventProgram::passive_events`] mask without the
    /// packet kinds, sampled once at construction (the contract requires
    /// it constant).
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
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= cfg.n_ports <= 256` (a [`PortId`] is a `u8`),
    /// or, with a packet generator configured, `cfg.n_ports <= 255`: its
    /// frames enter from port id `n_ports`, which must name no real port.
    pub fn new(program: P, cfg: EventSwitchConfig) -> Self {
        assert!(
            (1..=256).contains(&cfg.n_ports),
            "a switch has 1 to 256 ports, not {}",
            cfg.n_ports
        );
        assert!(
            cfg.generator.is_none() || cfg.n_ports <= 255,
            "a packet generator needs a port id past the last port"
        );
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
        let passive = program.passive_events() & !PACKET_KINDS;
        EventSwitch {
            program,
            tm: TrafficManager::new(cfg.n_ports, cfg.queue),
            timers,
            gen_next_due,
            gen_template,
            gen_seq: 0,
            link_up: vec![true; cfg.n_ports],
            port_scopes: (0..cfg.n_ports)
                .map(|port| format!("sw{}:p{port}", cfg.switch_id))
                .collect(),
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

    /// True if `port` has frames waiting to transmit.
    pub fn has_pending(&self, port: PortId) -> bool {
        self.tm.depth_pkts(port) > 0
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
        emit(
            now.as_nanos(),
            RecordKind::PacketRx {
                switch: self.cfg.switch_id,
                port,
                len: pkt.len() as u32,
            },
        );
        let meta = StdMeta::ingress(port, now, pkt.len());
        self.pipeline_pass(now, EventKind::IngressPacket, pkt, meta, 0);
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
        let Some((mut pkt, mut meta, sojourn_ns)) = self.tm.dequeue(port, now) else {
            self.fire(now, EventKind::BufferUnderflow, 0, |sw, a| {
                sw.program.on_underflow(&UnderflowEvent { port }, now, a)
            });
            return None;
        };
        edp_telemetry::observe("sojourn_ns", &self.port_scopes[port as usize], sojourn_ns);
        // Dequeue event fires as the packet leaves the buffer.
        self.fire(now, EventKind::BufferDequeue, 0, |sw, a| {
            let ev = DequeueEvent {
                port,
                pkt_len: pkt.len() as u32,
                q_bytes: sw.tm.occupancy_bytes(port),
                q_pkts: sw.tm.depth_pkts(port),
                sojourn_ns,
                meta: meta.event_meta,
            };
            sw.program.on_dequeue(&ev, now, a)
        });
        if !self.link_up[port as usize] {
            self.counters.dropped_link_down += 1;
            self.drop_record(now, DropReason::LinkDown);
            return None;
        }
        let kind = EventKind::EgressPacket;
        let parsed = self.fire(now, kind, 0, |sw, a| {
            sw.packet_handler(now, kind, &mut pkt, &mut meta, a)
        });
        if !parsed?.out {
            return None;
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
        self.fire(now, EventKind::PacketTransmitted, 0, |sw, a| {
            sw.program
                .on_transmit(&TransmitEvent { port, pkt_len: len }, now, a)
        });
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
                let t = &mut self.timers[i];
                t.firings += 1;
                t.next_due += t.spec.period;
                let (timer_id, firing) = (t.spec.id, t.firings);
                self.fire(now, EventKind::TimerExpiration, 0, |sw, a| {
                    sw.program
                        .on_timer(&TimerEvent { timer_id, firing }, now, a)
                });
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
        self.fire(now, EventKind::ControlPlaneTriggered, 0, |sw, a| {
            sw.program
                .on_control_plane(&ControlPlaneEvent { opcode, args }, now, a)
        });
    }

    /// A port's link status changed.
    pub fn set_link_status(&mut self, now: SimTime, port: PortId, up: bool) {
        if self.link_up[port as usize] == up {
            return;
        }
        self.link_up[port as usize] = up;
        self.counters.link_transitions += 1;
        self.fire(now, EventKind::LinkStatusChange, 0, |sw, a| {
            sw.program
                .on_link_status(&LinkStatusEvent { port, up }, now, a)
        });
    }

    /// Raises a user event from outside (tests; handlers use
    /// [`EventActions::raise_user_event`]).
    pub fn raise_user_event(&mut self, now: SimTime, code: u32, args: [u64; 4]) {
        self.fire(now, EventKind::UserEvent, 0, |sw, a| {
            sw.program.on_user(&UserEvent { code, args }, now, a)
        });
    }

    /// Publishes counters, event coverage and per-port queue stats into
    /// the unified metrics registry under `scope`.
    pub fn publish_metrics(&self, reg: &mut edp_telemetry::Registry, scope: &str) {
        self.counters.publish(reg, scope);
        self.events.publish(reg, scope);
        for port in 0..self.cfg.n_ports {
            self.tm
                .stats(port as PortId)
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

    /// Runs `kind`'s packet handler on the frame's parse (memoised on it:
    /// `Packet::parsed`). False, after counting a parse-error drop, when
    /// the frame does not parse. Always inlined, so the `match` folds at
    /// call sites that pass a constant `kind`: out of line it cost the
    /// receive path ≈ 10 ns per frame.
    #[inline(always)]
    fn packet_handler(
        &mut self,
        now: SimTime,
        kind: EventKind,
        pkt: &mut Packet,
        meta: &mut StdMeta,
        actions: &mut EventActions,
    ) -> bool {
        let parsed = match pkt.parsed() {
            Ok(p) => *p,
            Err(_) => {
                self.counters.parse_errors += 1;
                self.drop_record(now, DropReason::ParseError);
                return false;
            }
        };
        let p = &mut self.program;
        match kind {
            EventKind::EgressPacket => p.on_egress(pkt, &parsed, meta, now, actions),
            EventKind::RecirculatedPacket => p.on_recirculated(pkt, &parsed, meta, now, actions),
            EventKind::GeneratedPacket => p.on_generated(pkt, &parsed, meta, now, actions),
            _ => p.on_ingress(pkt, &parsed, meta, now, actions),
        }
        true
    }

    /// One ingress or recirculated pipeline pass: the handler, its
    /// actions, then the routing of the frame it decided on.
    fn pipeline_pass(
        &mut self,
        now: SimTime,
        kind: EventKind,
        mut pkt: Packet,
        mut meta: StdMeta,
        depth: u8,
    ) {
        let Some(fired) = self.fire(now, kind, depth, |sw, a| {
            sw.packet_handler(now, kind, &mut pkt, &mut meta, a)
        }) else {
            return;
        };
        if fired.out {
            self.route(now, pkt, meta, depth);
        }
    }

    /// Sends a frame where its pipeline pass decided.
    fn route(&mut self, now: SimTime, pkt: Packet, mut meta: StdMeta, depth: u8) {
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
                for out in (0..self.cfg.n_ports).map(|p| p as PortId) {
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
                meta.recirc_count += 1;
                emit(
                    now.as_nanos(),
                    RecordKind::PacketRecirc {
                        switch: self.cfg.switch_id,
                        pass: meta.recirc_count,
                    },
                );
                meta.dest = Destination::Unspecified;
                self.pipeline_pass(now, EventKind::RecirculatedPacket, pkt, meta, depth);
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
        let pkt_len = pkt.len() as u32;
        let Some(mut victim) = self.tm.offer(out, pkt, meta, now) else {
            self.fire_enqueue(now, out, pkt_len, meta.event_meta, depth);
            return;
        };
        // The overflow handler may rescue the victim by trimming it to its
        // network header (NDP-style), which happens under its probe context.
        let fired = self.fire(now, EventKind::BufferOverflow, depth, |sw, a| {
            let ev = OverflowEvent {
                port: out,
                pkt_len,
                q_bytes: sw.tm.occupancy_bytes(out),
                meta: meta.event_meta,
            };
            sw.program.on_overflow(&ev, now, a);
            a.trim_requeue.take()
        });
        // In-place cut payload: the victim came back from the TM uniquely
        // owned, so no full-frame copy is made. A trimmed frame the queue
        // still rejects is a plain overflow drop, with no second event.
        if let Some(rank) = fired.as_ref().and_then(|f| f.out) {
            if victim.trim_to_network_header() {
                let mut m = meta;
                m.rank = rank;
                m.pkt_len = victim.len() as u32;
                if self.tm.offer(out, victim, m, now).is_none() {
                    self.counters.trimmed += 1;
                    self.fire_enqueue(now, out, m.pkt_len, m.event_meta, depth + 1);
                    return;
                }
            }
        }
        self.counters.dropped_overflow += 1;
        self.drop_record(
            now,
            fired.map_or(DropReason::CascadeLimit, |_| DropReason::Overflow),
        );
    }

    /// Fires the buffer-enqueue event of a `len`-byte frame just queued
    /// on `port`.
    fn fire_enqueue(&mut self, now: SimTime, port: PortId, len: u32, meta: [u64; 4], depth: u8) {
        self.fire(now, EventKind::BufferEnqueue, depth, |sw, a| {
            let ev = EnqueueEvent {
                port,
                pkt_len: len,
                q_bytes: sw.tm.occupancy_bytes(port),
                q_pkts: sw.tm.depth_pkts(port),
                meta,
            };
            sw.program.on_enqueue(&ev, now, a)
        });
    }

    fn inject_generated(&mut self, now: SimTime, frame: SharedFrame, depth: u8) {
        let kind = EventKind::GeneratedPacket;
        let fired = self.fire(now, kind, depth, |sw, a| {
            sw.gen_seq += 1;
            sw.counters.generated += 1;
            emit(
                now.as_nanos(),
                RecordKind::EventRaised { kind: kind.code() },
            );
            let uid = PacketUid(((sw.cfg.switch_id as u64) << 48) | (1 << 47) | sw.gen_seq);
            let mut pkt = Packet::from_shared(uid, frame);
            // Generated packets enter "from" the highest port index + 1 so
            // programs can distinguish them; Flood excludes no real port.
            let mut meta = StdMeta::ingress(sw.cfg.n_ports as PortId, now, pkt.len());
            sw.packet_handler(now, kind, &mut pkt, &mut meta, a)
                .then_some((pkt, meta))
        });
        let Some(fired) = fired else {
            // The guard discarded the firing, and its frame with it.
            return self.drop_record(now, DropReason::CascadeLimit);
        };
        // One level below the injection, as its actions were.
        if let Some((pkt, meta)) = fired.out {
            self.route(now, pkt, meta, depth + 1);
        }
    }

    /// Fires one handler: the one path every event kind of Table 1 takes
    /// through the switch. In order:
    ///
    /// 1. the cascade-depth guard, which discards the firing (`None`);
    /// 2. the per-kind event counter;
    /// 3. the passive rule: a kind in the program's
    ///    [`EventProgram::passive_events`] never reaches `handler` — no
    ///    payload is built and no queue fact read — and yields
    ///    `R::default()`, whether or not a telemetry session is live;
    /// 4. for control kinds, the `EventFired`/`HandlerDone` span around
    ///    everything below (empty for a passive kind); a packet's handlers
    ///    are on the trace as `PacketRx` / `PacketTx` / `PacketRecirc`;
    /// 5. `handler` (it builds the payload and calls the program) under
    ///    the kind's probe context, then the actions it requested.
    fn fire<R: Default>(
        &mut self,
        now: SimTime,
        kind: EventKind,
        depth: u8,
        handler: impl FnOnce(&mut Self, &mut EventActions) -> R,
    ) -> Option<Fired<R>> {
        // A recirculated pass is bounded by `MAX_RECIRCULATIONS` instead.
        if depth >= MAX_CASCADE_DEPTH && kind != EventKind::RecirculatedPacket {
            self.counters.cascade_limit_drops += 1;
            return None;
        }
        self.events.record(kind);
        let code = kind.code();
        let span = (PACKET_KINDS & kind.bit() == 0).then(|| {
            edp_telemetry::span_begin(now.as_nanos(), RecordKind::EventFired { kind: code })
        });
        let fired = if self.passive & kind.bit() != 0 {
            Fired {
                out: R::default(),
                _probe: ProbeScope(false),
            }
        } else {
            let probe = ProbeScope::enter(kind.probe_context());
            let mut actions = EventActions::new();
            let out = handler(self, &mut actions);
            if !actions.is_empty() {
                // A generated packet is new work: its cascade runs one
                // level below the request the guard admitted.
                let depth = depth + u8::from(kind == EventKind::GeneratedPacket);
                self.drain_actions(now, actions, depth);
            }
            Fired { out, _probe: probe }
        };
        if let Some(span) = span {
            edp_telemetry::span_end(now.as_nanos(), span, RecordKind::HandlerDone { kind: code });
        }
        Some(fired)
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
            self.fire(now, EventKind::UserEvent, depth + 1, |sw, a| {
                sw.program.on_user(&ue, now, a)
            });
        }
        for frame in actions.generated {
            self.inject_generated(now, SharedFrame::new(frame), depth + 1);
        }
    }
}

/// A handler firing that ran: the handler's result, and its probe context,
/// which stays entered until the caller drops the firing. The work a
/// firing leaves to its caller — routing the frame a pipeline pass decided
/// on, requeueing a trimmed overflow victim — is therefore attributed to
/// it, as the handler's own actions are.
struct Fired<R> {
    out: R,
    _probe: ProbeScope,
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

    /// Counts every handler invocation; an overflow also raises a user
    /// event. `passive` is what it declares passive.
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
        passive: u16,
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
        fn on_overflow(&mut self, _e: &OverflowEvent, _n: SimTime, a: &mut EventActions) {
            self.ovf += 1;
            a.raise_user_event(0, [0; 4]);
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
        fn passive_events(&self) -> u16 {
            self.passive
        }
    }

    fn cfg() -> EventSwitchConfig {
        EventSwitchConfig {
            n_ports: 4,
            ..Default::default()
        }
    }

    #[test]
    #[should_panic(expected = "a switch has 1 to 256 ports, not 257")]
    fn more_ports_than_port_ids_panics() {
        EventSwitch::baseline(ForwardTo(0), 257, QueueConfig::default());
    }

    #[test]
    #[should_panic(expected = "a packet generator needs a port id past the last port")]
    fn a_generator_on_256_ports_panics() {
        let generator = PacketGenConfig {
            period: SimDuration::from_micros(1),
            template: frame().bytes().to_vec(),
        };
        let cfg = EventSwitchConfig {
            n_ports: 256,
            generator: Some(generator),
            ..Default::default()
        };
        EventSwitch::new(Recorder::default(), cfg);
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

        /// Every generated frame regenerates itself and heads for port 1,
        /// whose queue has room for none of them.
        struct Storm;
        impl EventProgram for Storm {
            fn on_generated(
                &mut self,
                p: &mut Packet,
                _h: &ParsedPacket,
                m: &mut StdMeta,
                _n: SimTime,
                a: &mut EventActions,
            ) {
                m.dest = Destination::Port(1);
                a.generate_packet(p.bytes().to_vec());
            }
            fn on_user(&mut self, _e: &UserEvent, _n: SimTime, a: &mut EventActions) {
                a.generate_packet(frame().bytes().to_vec());
            }
        }
        let mut c = cfg();
        c.queue.capacity_bytes = 50;
        edp_telemetry::enable(edp_telemetry::TelemetryConfig::default());
        let mut sw = EventSwitch::new(Storm, c);
        sw.raise_user_event(SimTime::ZERO, 0, [0; 4]);
        let t = edp_telemetry::disable().expect("session");
        // A generated pipeline runs one level below its injection, so four
        // frames fit under the limit and the guard discards the fifth. The
        // deepest frame is routed first and overflows at the limit: a
        // cascade-limit drop that fires no overflow event.
        let c = sw.counters();
        assert_eq!(
            (c.generated, c.cascade_limit_drops, c.dropped_overflow),
            (4, 2, 4)
        );
        assert_eq!(sw.event_counters().get(EventKind::BufferOverflow), 3);
        let drops = |reason| {
            let drop = edp_telemetry::RecordKind::PacketDrop { switch: 0, reason };
            t.ring.iter().filter(|r| r.kind == drop).count()
        };
        assert_eq!(
            (drops(DropReason::CascadeLimit), drops(DropReason::Overflow)),
            (2, 3)
        );
        assert_accounting_consistent(&sw);
    }

    #[test]
    fn overflow_handler_fires_under_its_span() {
        use edp_telemetry::RecordKind as RK;
        let mut c = cfg();
        c.queue.capacity_bytes = 150;
        edp_telemetry::enable(edp_telemetry::TelemetryConfig::default());
        let mut sw = EventSwitch::new(Recorder::default(), c);
        sw.receive(SimTime::ZERO, 0, frame());
        sw.receive(SimTime::ZERO, 0, frame()); // overflows
        let t = edp_telemetry::disable().expect("session");
        let recs: Vec<_> = t.ring.iter().copied().collect();
        let (ovf, user) = (
            EventKind::BufferOverflow.code(),
            EventKind::UserEvent.code(),
        );
        let fired = recs
            .iter()
            .find(|r| r.kind == RK::EventFired { kind: ovf })
            .expect("overflow fired");
        assert!(recs
            .iter()
            .any(|r| r.kind == RK::HandlerDone { kind: ovf } && r.span == fired.span));
        // The user event the handler raised points back at the overflow.
        for kind in [
            RK::EventRaised { kind: user },
            RK::EventFired { kind: user },
        ] {
            let r = recs.iter().find(|r| r.kind == kind).expect("user event");
            assert_eq!(r.cause, fired.span, "{kind:?}");
        }
    }

    #[test]
    fn telemetry_never_changes_which_handlers_run() {
        use edp_telemetry::RecordKind as RK;
        // Enqueue declared passive although `Recorder` overrides it.
        for traced in [false, true] {
            if traced {
                edp_telemetry::enable(edp_telemetry::TelemetryConfig::default());
            }
            let passive = EventKind::BufferEnqueue.bit();
            let mut sw = EventSwitch::new(
                Recorder {
                    passive,
                    ..Recorder::default()
                },
                cfg(),
            );
            for _ in 0..3 {
                sw.receive(SimTime::ZERO, 0, frame());
            }
            let enqueues = sw.event_counters().get(EventKind::BufferEnqueue);
            assert_eq!((sw.program.enq, enqueues), (0, 3), "traced: {traced}");
        }
        // Traced, each passive firing is its span pair and nothing else.
        let t = edp_telemetry::disable().expect("session");
        let recs: Vec<_> = t.ring.iter().copied().collect();
        let enq = EventKind::BufferEnqueue.code();
        let pairs = recs.windows(2).filter(|w| {
            w[0].kind == RK::EventFired { kind: enq }
                && w[1].kind == RK::HandlerDone { kind: enq }
                && w[0].span == w[1].span
        });
        assert_eq!(pairs.count(), 3);
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
        assert_eq!((0..4).map(|p| sw.occupancy_bytes(p)).sum::<u64>(), 300);
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
