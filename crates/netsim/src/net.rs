//! The network world: nodes, links, and the event-driven glue.
//!
//! [`Network`] is the world type `W` for [`Sim<Network>`]: every link
//! delivery, timer crank, traffic-source step, fault and control-plane
//! round trip is a scheduled event; a transmission runs inside the
//! cascade that created its backlog and is scheduled only when it must
//! wait for a future instant. Its event type is [`NetEvent`], plain data
//! inline in the scheduler's slab; only apps, experiments and tests
//! queue closures. All methods that advance the world take
//! `&mut Sim<Network>` so they can schedule follow-up events.

use crate::harness::SwitchHarness;
use crate::host::{Host, HostId};
use crate::link::{Dir, LinkDirState, LinkFaults, LinkId, LinkSpec, LinkState};
use crate::shard::{ShardCtx, ShardMsg, ShardPlan};
use crate::source::{Next, Source};
use crate::trace::Tracer;
use edp_core::CpNotification;
use edp_evsim::{Closure, Sim, SimDuration, SimRng, SimTime, World};
use edp_packet::{Packet, PacketUid, SharedFrame};
use edp_pisa::PortId;
use std::collections::VecDeque;

/// A node in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeRef {
    /// A switch, by index.
    Switch(usize),
    /// A host, by index.
    Host(HostId),
}

/// A (node, port) attachment point.
pub type Endpoint = (NodeRef, PortId);

struct NetLink {
    state: LinkState,
    ends: [Endpoint; 2],
}

/// One attachment point's glue state. Ports are a small dense index
/// space, so the per-hop lookups are array indexing, not hashing.
#[derive(Clone, Copy, Default)]
struct PortSlot {
    /// The link plugged in here and the direction that leaves this port.
    link: Option<(LinkId, Dir)>,
    /// A transmit attempt for this port is scheduled for a future instant
    /// (the wire frees, or the switch's stall lifts) and has not fired.
    armed: bool,
}

/// The network's closed event type. Every event the network schedules
/// itself is plain data inline in the scheduler's slab, so arming one
/// allocates nothing; apps, experiments and tests add their own as a
/// [`Closure`], and any `FnOnce(&mut Network, &mut Sim<Network>)`
/// converts into one.
pub enum NetEvent {
    /// A frame arriving at `dest`.
    Delivery {
        /// Where the frame arrives.
        dest: Endpoint,
        /// Its wire-order key (`Network::next_wire_key`), kept for
        /// a re-delivery when a stalled switch defers it.
        key: u64,
        /// The frame.
        pkt: Packet,
    },
    /// A port's deferred transmit attempt, scheduled only for the future
    /// instant its wire frees or its switch's stall lifts.
    Transmit(Endpoint),
    /// Switch `i`'s timer crank (see [`Network::arm_switch_timers`]).
    Crank(usize),
    /// A traffic source's next step. The source rides in its own event,
    /// boxed once per stream and moved from slot to slot as it re-arms.
    Source(Box<Source>),
    /// `(host, frame)`: a frame a source spaced into its own instant.
    Frame(HostId, Vec<u8>),
    /// `(link, up)`: a link going down or coming back up.
    LinkStatus(LinkId, bool),
    /// `(switch, until)`: the start of a stall ([`Network::stall_switch`]).
    Stall(usize, SimTime),
    /// The kick that restarts switch `i`'s egress when its stall lifts.
    StallEnd(usize),
    /// `(switch, opcode, args)`: a [`Network::control_plane_send`]
    /// command arriving.
    ControlPlane(usize, u32, [u64; 4]),
    /// Any other event.
    Custom(Closure<Network>),
}

impl<F: FnOnce(&mut Network, &mut Sim<Network>) + 'static> From<F> for NetEvent {
    fn from(f: F) -> Self {
        NetEvent::Custom(f.into())
    }
}

impl World for Network {
    type Event = NetEvent;

    fn fire(&mut self, sim: &mut Sim<Network>, ev: NetEvent) {
        match ev {
            NetEvent::Delivery { dest, key, pkt } => self.deliver(sim, dest, pkt, key),
            NetEvent::Transmit(ep) => {
                self.port_mut(ep).armed = false;
                self.service(sim, ep.0);
            }
            NetEvent::Crank(i) => self.crank_timers(sim, i),
            NetEvent::Source(mut src) => {
                // The re-arm comes after everything the step armed.
                match src.step(self, sim) {
                    Some(Next::Rearm(at)) => sim.rearm_at(at, NetEvent::Source(src)),
                    Some(Next::Arm(at)) => sim.schedule_at(at, NetEvent::Source(src)),
                    None => return,
                };
            }
            NetEvent::Frame(host, frame) => self.host_send(sim, host, frame),
            NetEvent::LinkStatus(link, up) => self.set_link_up(sim, link, up),
            NetEvent::Stall(i, until) => self.stall_switch(sim, i, until),
            NetEvent::StallEnd(i) => self.kick(sim, NodeRef::Switch(i)),
            NetEvent::ControlPlane(i, opcode, args) => self.cp_arrive(sim, i, opcode, args),
            NetEvent::Custom(c) => c.fire(self, sim),
        }
    }
}

/// The simulated network.
pub struct Network {
    /// Switches (event-driven or running a baseline program), boxed
    /// behind the harness.
    pub switches: Vec<Box<dyn SwitchHarness>>,
    /// End hosts.
    pub hosts: Vec<Host>,
    links: Vec<NetLink>,
    /// Per-switch stall deadline: a switch with `stalled_until > now`
    /// neither receives, transmits, nor cranks timers until the deadline.
    stalled_until: Vec<SimTime>,
    /// Per-switch port table, one slot per port (sized at `add_switch`).
    switch_ports: Vec<Vec<PortSlot>>,
    /// Per-host port table: hosts have the single port 0.
    host_ports: Vec<PortSlot>,
    host_txq: Vec<VecDeque<Packet>>,
    next_uid: u64,
    /// Per-link, per-direction wire sequence counters feeding the
    /// delivery ordering keys (see [`Network::next_wire_key`]).
    wire_seq: Vec<[u64; 2]>,
    /// Sharded-execution role; `None` for a classic single-world run.
    shard: Option<ShardCtx>,
    /// Workload randomness (fault injection, Poisson arrivals).
    pub rng: SimRng,
    /// Control-plane notifications collected from all switches:
    /// `(switch index, notification)`.
    pub cp_log: Vec<(usize, CpNotification)>,
    /// Control-plane messages sent *to* switches (overhead accounting).
    pub cp_messages: u64,
    /// Frames a switch emitted on a port with no link attached.
    pub dropped_unconnected: u64,
    /// Optional tcpdump-style packet trace (disabled by default).
    pub tracer: Tracer,
}

impl Network {
    /// Creates an empty network with the given workload seed.
    pub fn new(seed: u64) -> Self {
        Network {
            switches: Vec::new(),
            hosts: Vec::new(),
            links: Vec::new(),
            stalled_until: Vec::new(),
            switch_ports: Vec::new(),
            host_ports: Vec::new(),
            host_txq: Vec::new(),
            next_uid: 1,
            wire_seq: Vec::new(),
            shard: None,
            rng: SimRng::seed_from_u64(seed),
            cp_log: Vec::new(),
            cp_messages: 0,
            dropped_unconnected: 0,
            tracer: Tracer::new(4096),
        }
    }

    /// Adds a switch; returns its index.
    pub fn add_switch(&mut self, sw: Box<dyn SwitchHarness>) -> usize {
        self.switch_ports
            .push(vec![PortSlot::default(); sw.n_ports()]);
        self.switches.push(sw);
        self.stalled_until.push(SimTime::ZERO);
        self.switches.len() - 1
    }

    /// Adds a host; returns its id.
    pub fn add_host(&mut self, host: Host) -> HostId {
        self.hosts.push(host);
        self.host_ports.push(PortSlot::default());
        self.host_txq.push(VecDeque::new());
        self.hosts.len() - 1
    }

    /// Connects two endpoints with a link; returns the link id.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range or already connected, and
    /// with "cannot connect {a:?} to itself" if `a == b`. Every check runs
    /// before anything changes, so a panicking call leaves both ports free.
    pub fn connect(&mut self, a: Endpoint, b: Endpoint, spec: LinkSpec) -> LinkId {
        assert_ne!(a, b, "cannot connect {a:?} to itself");
        for ep in [a, b] {
            self.validate_endpoint(ep);
            assert!(
                self.port(ep).link.is_none(),
                "endpoint {ep:?} already connected"
            );
        }
        let id = self.links.len();
        self.port_mut(a).link = Some((id, Dir::AtoB));
        self.port_mut(b).link = Some((id, Dir::BtoA));
        self.links.push(NetLink {
            state: LinkState::new(spec),
            ends: [a, b],
        });
        self.wire_seq.push([0, 0]);
        id
    }

    /// Every link's endpoints and spec, for partitioning.
    pub(crate) fn topology_edges(&self) -> impl Iterator<Item = ([Endpoint; 2], LinkSpec)> + '_ {
        self.links.iter().map(|l| (l.ends, l.state.spec))
    }

    /// Installs this world's shard role. Engine-only: called by
    /// [`crate::shard::run_sharded`] after the build closure returns and
    /// before any event fires.
    pub(crate) fn install_shard(&mut self, id: usize, plan: ShardPlan) {
        assert!(id < plan.shards(), "shard id out of range");
        self.shard = Some(ShardCtx {
            id,
            plan,
            outbox: Vec::new(),
        });
    }

    /// True when this world executes `node`'s side effects — always true
    /// in a classic single-world run; under sharded execution, true only
    /// on the owning shard. Every externally visible action (packet
    /// injection, switch processing, timer cranks, telemetry) is gated on
    /// this at fire time, so the same schedule can run everywhere while
    /// each effect happens exactly once.
    pub fn owns_node(&self, node: NodeRef) -> bool {
        match &self.shard {
            None => true,
            Some(c) => c.plan.owner(node) == c.id,
        }
    }

    fn validate_endpoint(&self, (node, port): Endpoint) {
        match node {
            NodeRef::Switch(i) => {
                assert!(i < self.switches.len(), "no switch {i}");
                assert!(
                    (port as usize) < self.switch_ports[i].len(),
                    "switch {i} has no port {port}"
                );
            }
            NodeRef::Host(h) => {
                assert!(h < self.hosts.len(), "no host {h}");
                assert_eq!(port, 0, "hosts have a single port 0");
            }
        }
    }

    /// The port-table slot of a (validated) endpoint.
    fn port(&self, (node, port): Endpoint) -> &PortSlot {
        match node {
            NodeRef::Switch(i) => &self.switch_ports[i][port as usize],
            NodeRef::Host(h) => {
                debug_assert_eq!(port, 0, "hosts have a single port 0");
                &self.host_ports[h]
            }
        }
    }

    fn port_mut(&mut self, (node, port): Endpoint) -> &mut PortSlot {
        match node {
            NodeRef::Switch(i) => &mut self.switch_ports[i][port as usize],
            NodeRef::Host(h) => {
                debug_assert_eq!(port, 0, "hosts have a single port 0");
                &mut self.host_ports[h]
            }
        }
    }

    /// Access a switch's concrete type (e.g. to read program state).
    ///
    /// # Panics
    /// Panics if the switch at `i` is not a `T`.
    pub fn switch_as<T: 'static>(&self, i: usize) -> &T {
        self.switches[i]
            .as_any()
            .downcast_ref::<T>()
            .expect("switch type mismatch")
    }

    /// Mutable access to a switch's concrete type.
    pub fn switch_as_mut<T: 'static>(&mut self, i: usize) -> &mut T {
        self.switches[i]
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("switch type mismatch")
    }

    /// Per-direction drop counters of a link: (fault drops, down drops).
    pub fn link_drops(&self, link: LinkId) -> (u64, u64) {
        let l = &self.links[link].state;
        (
            l.dirs[0].fault_drops + l.dirs[1].fault_drops,
            l.dirs[0].down_drops + l.dirs[1].down_drops,
        )
    }

    /// Installs (or clears) a packet impairment model on a link. See
    /// [`LinkFaults::new`] and [`edp_evsim::SimRng::stream`] for where the
    /// per-direction RNG streams come from.
    pub fn set_link_faults(&mut self, link: LinkId, faults: Option<LinkFaults>) {
        self.links[link].state.faults = faults;
    }

    /// Read-only view of one direction's wire counters (frames, bytes,
    /// fault drops, corruptions, duplicates, reorders).
    pub fn link_dir_state(&self, link: LinkId, dir: Dir) -> &LinkDirState {
        &self.links[link].state.dirs[dir as usize]
    }

    /// Allocates a uid. Under sharded execution uids are strided by shard
    /// (`counter * shards + id`) so every shard draws from a disjoint set
    /// without coordination; uids appear in no observable output, so the
    /// mode-dependent numbering is invisible.
    fn alloc_uid(&mut self) -> PacketUid {
        let n = self.next_uid;
        self.next_uid += 1;
        match &self.shard {
            None => PacketUid(n),
            Some(c) => PacketUid(n * c.plan.shards() as u64 + c.id as u64),
        }
    }

    /// Allocates a fresh packet uid and stamps the send time into the
    /// packet, where the receiving host reads it back for latency.
    ///
    /// `frame` is fresh bytes (one buffer, as `Packet::new` takes them) or
    /// an already-shared frame, wrapped without copying: repeated sends of
    /// one template frame cost a refcount bump each, not a buffer each,
    /// and share the template's one parse.
    pub fn stamp_packet(&mut self, now: SimTime, frame: impl Into<SharedFrame>) -> Packet {
        let mut pkt = Packet::from_shared(self.alloc_uid(), frame.into());
        pkt.stamp_sent(now.as_nanos());
        pkt
    }

    // ------------------------------------------------------------------
    // Event-driven machinery
    // ------------------------------------------------------------------

    /// Sends `frame` from `host` (stamps uid and send time; see
    /// [`stamp_packet`](Self::stamp_packet) for shared frames). Under
    /// sharded execution this is the injection gate: the same workload
    /// closure fires on every shard, and only the host's owner stamps and
    /// queues the frame.
    pub fn host_send(
        &mut self,
        sim: &mut Sim<Network>,
        host: HostId,
        frame: impl Into<SharedFrame>,
    ) {
        if !self.owns_node(NodeRef::Host(host)) {
            return;
        }
        let pkt = self.stamp_packet(sim.now(), frame);
        self.host_txq[host].push_back(pkt);
        self.service(sim, NodeRef::Host(host));
    }

    /// Transmits what `node` can put on its wires at this instant: every
    /// port with backlog and a free wire sends now, inside the cascade
    /// that created the backlog; a port that must wait (busy wire, stalled
    /// switch) gets a transmit attempt scheduled for the instant the wait
    /// ends. Only the node owner's shard transmits.
    pub fn kick(&mut self, sim: &mut Sim<Network>, node: NodeRef) {
        if self.owns_node(node) {
            self.service(sim, node);
        }
    }

    /// Marks `ep` armed and schedules its transmit attempt at the future
    /// instant `at`. An attempt that could run now is never scheduled: it
    /// runs inline.
    fn arm_transmit(&mut self, sim: &mut Sim<Network>, at: SimTime, ep: Endpoint) {
        debug_assert!(at > sim.now(), "a zero-delay transmit attempt runs inline");
        self.port_mut(ep).armed = true;
        sim.schedule_at(at, NetEvent::Transmit(ep));
    }

    /// The future instant `ep` must wait for before it may transmit — the
    /// end of its switch's stall (a stalled switch's egress pipeline is
    /// frozen too), else the end of the frame on its wire — or `None`
    /// when it may transmit now.
    fn blocked_until(&self, ep: Endpoint, now: SimTime) -> Option<SimTime> {
        if let NodeRef::Switch(i) = ep.0 {
            let until = self.stalled_until[i];
            if until > now {
                return Some(until);
            }
        }
        let (lid, dir) = self.port(ep).link?;
        let busy = self.links[lid].state.dirs[dir as usize].busy_until;
        (busy > now).then_some(busy)
    }

    /// Services every port of `node` that has backlog and no attempt
    /// scheduled: frames leave while the wire is free and the switch is
    /// not stalled; a port that must wait is armed for the instant the
    /// wait ends. The glue calls this after *every* call into a switch,
    /// so at the end of every cascade a backlogged port is either armed
    /// for a future instant or was just serviced.
    ///
    /// A loop, never a recursion: frames the egress program drops and
    /// frames leaving an unconnected port occupy no wire, so one call may
    /// drain a backlog of any depth.
    fn service(&mut self, sim: &mut Sim<Network>, node: NodeRef) {
        let now = sim.now();
        let mut from = 0;
        while let Some(port) = self.next_backlogged(node, from) {
            let ep = (node, port);
            if let Some(at) = self.blocked_until(ep, now) {
                self.arm_transmit(sim, at, ep);
            } else {
                self.transmit_one(sim, ep);
            }
            from = port as usize;
        }
    }

    /// The port `service` serves next: the lowest port of `node` at or
    /// above `from` with backlog and no transmit attempt armed, else the
    /// lowest such port below `from`, else none.
    ///
    /// It reads the backlog afresh on every call, because a transmit's
    /// egress-side handlers may enqueue toward any port of the switch:
    /// ports are served in ascending order, an enqueue toward a later
    /// port is served in the same pass over the ports, and one toward an
    /// earlier port starts the next pass. A port below `from` can only
    /// have backlog and no armed attempt if a transmit of this pass gave
    /// it one, so the passes end exactly when one sends nothing.
    fn next_backlogged(&self, node: NodeRef, from: usize) -> Option<PortId> {
        let (mask, slots) = match node {
            NodeRef::Switch(i) => (self.switches[i].pending_ports(), &self.switch_ports[i][..]),
            NodeRef::Host(h) => {
                let backlog = !self.host_txq[h].is_empty();
                (
                    [backlog as u64, 0, 0, 0],
                    std::slice::from_ref(&self.host_ports[h]),
                )
            }
        };
        let mut first = None;
        for (word, &bits) in mask.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let port = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if slots[port].armed {
                    continue;
                }
                if port >= from {
                    return Some(port as PortId);
                }
                first.get_or_insert(port as PortId);
            }
        }
        first
    }

    /// Takes the next frame off `ep`'s backlog and puts it on the wire
    /// (`ep` has backlog and may transmit now).
    fn transmit_one(&mut self, sim: &mut Sim<Network>, ep: Endpoint) {
        let now = sim.now();
        let pkt = match ep.0 {
            NodeRef::Switch(i) => {
                let p = self.switches[i].transmit(now, ep.1);
                self.collect_cp(i);
                p
            }
            NodeRef::Host(h) => self.host_txq[h].pop_front(),
        };
        // `None`: the program dropped the frame at egress.
        let Some(pkt) = pkt else { return };
        let Some((lid, dir)) = self.port(ep).link else {
            self.dropped_unconnected += 1;
            return;
        };
        let out = self.links[lid]
            .state
            .offer_faulty(dir, now, pkt.len(), &mut self.rng);
        let dest = self.links[lid].ends[match dir {
            Dir::AtoB => 1,
            Dir::BtoA => 0,
        }];
        // The duplicate (if any) is cloned before the corruption flip:
        // the model corrupts the original in flight, not the copy.
        let dup = out.second.map(|d| (d, pkt.clone()));
        if let Some(d) = out.first {
            let mut pkt = pkt;
            if let Some(off) = d.corrupt_at {
                pkt.bytes_mut()[off] ^= 0xFF;
            }
            let key = self.next_wire_key(lid, dir);
            self.schedule_delivery(sim, d.at, dest, pkt, key);
        }
        if let Some((d, copy)) = dup {
            let key = self.next_wire_key(lid, dir);
            self.schedule_delivery(sim, d.at, dest, copy, key);
        }
    }

    /// Allocates the next wire-order key for `(link, dir)`.
    ///
    /// Deliveries are the only events that cross shards, so each carries
    /// a key encoding (link direction, position on that wire). The event
    /// heap orders same-instant events by key before insertion order
    /// (see [`edp_evsim::Sim::schedule_keyed_at`]), which makes the
    /// merged delivery schedule a pure function of wire order — and wire
    /// order is advanced only by the transmitting shard, identically in
    /// every execution mode. All other events stay
    /// [`edp_evsim::UNKEYED`] and keep insertion order.
    fn next_wire_key(&mut self, lid: LinkId, dir: Dir) -> u64 {
        let seq = &mut self.wire_seq[lid][dir as usize];
        let s = *seq;
        *seq += 1;
        let linkdir = (lid as u64) * 2 + dir as u64;
        debug_assert!(linkdir < (1 << 19) && s < (1 << 44), "wire key overflow");
        ((linkdir + 1) << 44) | s
    }

    /// Schedules (or, for a remote destination, exports) one delivery.
    fn schedule_delivery(
        &mut self,
        sim: &mut Sim<Network>,
        at: SimTime,
        dest: Endpoint,
        pkt: Packet,
        key: u64,
    ) {
        if self.owns_node(dest.0) {
            self.arm_delivery(sim, at, key, dest, pkt);
        } else {
            // Hand the frame to the destination shard at the window
            // close; its send stamp crosses inside the packet.
            self.shard
                .as_mut()
                .expect("unowned destination without a shard role")
                .outbox
                .push(ShardMsg { at, dest, pkt, key });
        }
    }

    /// Schedules a delivery handed over from another shard.
    pub(crate) fn accept_shard_msg(&mut self, sim: &mut Sim<Network>, m: ShardMsg) {
        let ShardMsg { at, dest, pkt, key } = m;
        self.arm_delivery(sim, at, key, dest, pkt);
    }

    /// Schedules `pkt`'s arrival at `dest`.
    fn arm_delivery(
        &mut self,
        sim: &mut Sim<Network>,
        at: SimTime,
        key: u64,
        dest: Endpoint,
        pkt: Packet,
    ) {
        sim.schedule_keyed_at(at, key, NetEvent::Delivery { dest, key, pkt });
    }

    /// Drains the outbound mailbox, tagging each message with its
    /// destination shard.
    pub(crate) fn take_outbox(&mut self) -> Vec<(usize, ShardMsg)> {
        match self.shard.as_mut() {
            None => Vec::new(),
            Some(c) => {
                let msgs = std::mem::take(&mut c.outbox);
                msgs.into_iter()
                    .map(|m| (c.plan.owner(m.dest.0), m))
                    .collect()
            }
        }
    }

    fn deliver(&mut self, sim: &mut Sim<Network>, ep: Endpoint, pkt: Packet, key: u64) {
        let now = sim.now();
        if let NodeRef::Switch(i) = ep.0 {
            let until = self.stalled_until[i];
            if until > now {
                // A stalled switch processes nothing: the frame waits at
                // the ingress and is re-delivered when the stall lifts,
                // keeping its original wire-order key so the re-delivery
                // order is the arrival order in every execution mode.
                self.arm_delivery(sim, until, key, ep, pkt);
                return;
            }
        }
        self.tracer.record(now, ep, pkt.bytes());
        edp_telemetry::emit(
            now.as_nanos(),
            edp_telemetry::RecordKind::LinkDeliver {
                node: match ep.0 {
                    NodeRef::Switch(i) => i as u32,
                    NodeRef::Host(h) => 0x8000_0000 | h as u32,
                },
                port: ep.1,
                len: pkt.len() as u32,
            },
        );
        let (node, port) = ep;
        match node {
            NodeRef::Switch(i) => {
                self.switches[i].receive(now, port, pkt);
                self.collect_cp(i);
                self.service(sim, node);
            }
            NodeRef::Host(h) => {
                let latency = pkt
                    .sent_at()
                    .map(|sent| now.as_nanos().saturating_sub(sent));
                if let Some(reply) = self.hosts[h].on_receive(now, &pkt, latency) {
                    self.host_send(sim, h, reply);
                }
            }
        }
    }

    fn collect_cp(&mut self, i: usize) {
        for n in self.switches[i].drain_cp() {
            self.cp_log.push((i, n));
        }
    }

    /// Schedules the timer crank for switch `i` (call once after build;
    /// re-arms itself). No-op if the switch has no timers.
    pub fn arm_switch_timers(&mut self, sim: &mut Sim<Network>, i: usize) {
        if !self.owns_node(NodeRef::Switch(i)) {
            return;
        }
        let Some(due) = self.switches[i].next_timer_due() else {
            return;
        };
        let due = due.max(sim.now()).max(self.stalled_until[i]);
        sim.schedule_at(due, NetEvent::Crank(i));
    }

    fn crank_timers(&mut self, sim: &mut Sim<Network>, i: usize) {
        let until = self.stalled_until[i];
        if until > sim.now() {
            // The switch is stalled mid-chain: wait out the stall, then
            // crank (there is exactly one crank chain per switch).
            sim.schedule_at(until, NetEvent::Crank(i));
            return;
        }
        self.switches[i].fire_due_timers(sim.now());
        self.collect_cp(i);
        self.service(sim, NodeRef::Switch(i));
        self.arm_switch_timers(sim, i);
    }

    /// Freezes switch `i` until `until`: a stalled switch neither
    /// receives, transmits, nor cranks timers — frames arriving meanwhile
    /// wait at the ingress in arrival order. Extends (never shortens) an
    /// active stall.
    pub fn stall_switch(&mut self, sim: &mut Sim<Network>, i: usize, until: SimTime) {
        let now = sim.now();
        if until <= now {
            return;
        }
        if until > self.stalled_until[i] {
            self.stalled_until[i] = until;
        }
        if self.owns_node(NodeRef::Switch(i)) {
            self.tracer
                .note(now, format!("sw{i} stalled until {until}"));
        }
        // Restart egress once the stall lifts (deliveries and timer
        // cranks re-schedule themselves; queued frames need a kick).
        sim.schedule_at(until, NetEvent::StallEnd(i));
    }

    /// Arms timers on every switch.
    pub fn arm_all_timers(&mut self, sim: &mut Sim<Network>) {
        for i in 0..self.switches.len() {
            self.arm_switch_timers(sim, i);
        }
    }

    /// Changes a link's status, delivering link-status-change events to
    /// attached switches (the hardware-level signal of Table 1).
    pub fn set_link_up(&mut self, sim: &mut Sim<Network>, link: LinkId, up: bool) {
        if self.links[link].state.up == up {
            return;
        }
        self.links[link].state.up = up;
        let now = sim.now();
        // Under sharding the status flip runs everywhere (every shard's
        // copy of the wire must agree), but exactly one shard — the owner
        // of the link's A end — records it, so merged traces and rings
        // carry one copy.
        if self.owns_node(self.links[link].ends[0].0) {
            self.tracer.note(
                now,
                format!("link{link} {}", if up { "up" } else { "down" }),
            );
            edp_telemetry::emit(
                now.as_nanos(),
                edp_telemetry::RecordKind::LinkStatus {
                    link: link as u32,
                    up,
                },
            );
        }
        for &(node, port) in &self.links[link].ends.clone() {
            if let NodeRef::Switch(i) = node {
                if !self.owns_node(node) {
                    continue;
                }
                self.switches[i].set_link_status(now, port, up);
                self.collect_cp(i);
                self.service(sim, node);
            }
        }
    }

    /// Schedules a link failure at `at` and optional recovery at `back_up`
    /// (`back_up == at` is a zero-length outage).
    ///
    /// # Panics
    /// If `link` does not exist, or `back_up` is before `at`: the recovery
    /// would fire first, as a no-op, and leave the link down for good.
    pub fn schedule_link_failure(
        &mut self,
        sim: &mut Sim<Network>,
        link: LinkId,
        at: SimTime,
        back_up: Option<SimTime>,
    ) {
        assert!(link < self.links.len(), "no link {link}");
        sim.schedule_at(at, NetEvent::LinkStatus(link, false));
        if let Some(t) = back_up {
            assert!(
                t >= at,
                "link {link} recovers at {t}, before it fails at {at}"
            );
            sim.schedule_at(t, NetEvent::LinkStatus(link, true));
        }
    }

    /// Publishes the whole network's metrics into the unified registry:
    /// each switch under `sw<i>` (via [`SwitchHarness::publish_metrics`]),
    /// link wire/fault counters per link under `net`, and control-plane /
    /// tracer accounting under `net`.
    ///
    /// Under sharded execution each shard publishes only the switches it
    /// owns plus its partial `net`-scope counts (wire counters advance
    /// only on the transmitting shard); summing the per-shard registries
    /// (e.g. [`edp_telemetry::Registry::merge`]) reconstructs exactly the
    /// single-world numbers.
    pub fn publish_metrics(&self, reg: &mut edp_telemetry::Registry) {
        for (i, sw) in self.switches.iter().enumerate() {
            if !self.owns_node(NodeRef::Switch(i)) {
                continue;
            }
            sw.publish_metrics(reg, &format!("sw{i}"));
        }
        let (mut fault_drops, mut down_drops) = (0u64, 0u64);
        let (mut frames, mut bytes) = (0u64, 0u64);
        for l in &self.links {
            for d in &l.state.dirs {
                fault_drops += d.fault_drops;
                down_drops += d.down_drops;
                frames += d.tx_frames;
                bytes += d.tx_bytes;
            }
        }
        reg.set_counter("link_frames", "net", frames);
        reg.set_counter("link_bytes", "net", bytes);
        reg.set_counter("link_fault_drops", "net", fault_drops);
        reg.set_counter("link_down_drops", "net", down_drops);
        reg.set_counter("cp_messages", "net", self.cp_messages);
        reg.set_counter("cp_notifications", "net", self.cp_log.len() as u64);
        reg.set_counter("dropped_unconnected", "net", self.dropped_unconnected);
        reg.set_counter("tracer_entries", "net", self.tracer.len() as u64);
        reg.set_counter("tracer_dropped", "net", self.tracer.dropped());
        self.publish_proto_metrics(reg);
    }

    /// Per-protocol receive breakdown and endpoint-fleet counters, summed
    /// over this world's *owned* hosts (non-owned hosts never receive, so
    /// classic and merged-shard registries agree). Zero buckets are
    /// skipped: presence of a key then depends only on whether that
    /// traffic class exists in the run, not on the engine mode.
    fn publish_proto_metrics(&self, reg: &mut edp_telemetry::Registry) {
        let mut proto = crate::host::ProtoStats::default();
        let mut fleet = crate::endpoint::FleetStats::default();
        let mut have_fleet = false;
        for (i, h) in self.hosts.iter().enumerate() {
            if !self.owns_node(NodeRef::Host(i)) {
                continue;
            }
            proto.absorb(&h.stats.proto);
            if let crate::host::HostApp::ClientFleet(f) = &h.app {
                have_fleet = true;
                let s = &f.stats;
                fleet.connects_sent += s.connects_sent;
                fleet.connected += s.connected;
                fleet.requests += s.requests;
                fleet.responses += s.responses;
                fleet.retransmits += s.retransmits;
                fleet.gave_up += s.gave_up;
                fleet.rtt_ns_sum += s.rtt_ns_sum;
                fleet.rtt_samples += s.rtt_samples;
            }
        }
        let mut put = |name: &str, scope: String, v: u64| {
            if v > 0 {
                reg.set_counter(name, &scope, v);
            }
        };
        for (c, label) in crate::host::ETH_CLASSES.iter().enumerate() {
            put("proto_pkts", format!("eth:{label}"), proto.eth[c]);
            put("proto_bytes", format!("eth:{label}"), proto.eth_bytes[c]);
        }
        for (c, label) in crate::host::IP_CLASSES.iter().enumerate() {
            put("proto_pkts", format!("ip:{label}"), proto.ip[c]);
            put("proto_bytes", format!("ip:{label}"), proto.ip_bytes[c]);
        }
        for (c, label) in crate::host::PORT_CLASSES.iter().enumerate() {
            put("proto_pkts", format!("port:{label}"), proto.port[c]);
            put("proto_bytes", format!("port:{label}"), proto.port_bytes[c]);
        }
        if have_fleet {
            put("endpoint_connects", "net".into(), fleet.connects_sent);
            put("endpoint_connected", "net".into(), fleet.connected);
            put("endpoint_requests", "net".into(), fleet.requests);
            put("endpoint_responses", "net".into(), fleet.responses);
            put("endpoint_retransmits", "net".into(), fleet.retransmits);
            put("endpoint_gave_up", "net".into(), fleet.gave_up);
            put("endpoint_rtt_ns", "net".into(), fleet.rtt_ns_sum);
            put("endpoint_rtt_samples", "net".into(), fleet.rtt_samples);
        }
    }

    /// Sends a control-plane command to switch `i` after `delay`
    /// (modelling the controller↔switch channel latency) and counts the
    /// message.
    pub fn control_plane_send(
        &mut self,
        sim: &mut Sim<Network>,
        delay: SimDuration,
        i: usize,
        opcode: u32,
        args: [u64; 4],
    ) {
        if self.shard.is_none() {
            self.cp_messages += 1;
        }
        sim.schedule_in(delay, NetEvent::ControlPlane(i, opcode, args));
    }

    /// A [`Network::control_plane_send`] command arriving at switch `i`.
    fn cp_arrive(&mut self, sim: &mut Sim<Network>, i: usize, opcode: u32, args: [u64; 4]) {
        if !self.owns_node(NodeRef::Switch(i)) {
            return;
        }
        if self.shard.is_some() {
            // Counted at delivery under sharding: the send site runs on
            // every shard, and only the owner may touch counters.
            self.cp_messages += 1;
        }
        self.switches[i].control_plane(sim.now(), opcode, args);
        self.collect_cp(i);
        self.service(sim, NodeRef::Switch(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostApp;
    use edp_core::{BaselineAdapter, EventSwitch};
    use edp_packet::PacketBuilder;
    use edp_pisa::{ForwardTo, QueueConfig};
    use std::net::Ipv4Addr;

    fn a(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    /// host0 — sw(port0) — (port1) — host1, ForwardTo(1).
    fn line_topology() -> (Network, HostId, HostId) {
        let mut net = Network::new(7);
        let sw = net.add_switch(Box::new(EventSwitch::baseline(
            ForwardTo(1),
            2,
            QueueConfig::default(),
        )));
        let h0 = net.add_host(Host::new(a(1), HostApp::Sink));
        let h1 = net.add_host(Host::new(a(2), HostApp::Sink));
        let spec = LinkSpec::ten_gig(SimDuration::from_micros(1));
        net.connect((NodeRef::Host(h0), 0), (NodeRef::Switch(sw), 0), spec);
        net.connect((NodeRef::Switch(sw), 1), (NodeRef::Host(h1), 0), spec);
        (net, h0, h1)
    }

    /// Every hop pays for the slab slot a `NetEvent` fills. Before the
    /// network's own events became data it was 56 bytes (the delivery's
    /// endpoint, wire key and packet); no data variant may widen it.
    #[test]
    fn data_variants_do_not_widen_the_event_slot() {
        assert!(std::mem::size_of::<NetEvent>() <= 56);
    }

    #[test]
    fn packet_crosses_switch() {
        let (mut net, h0, h1) = line_topology();
        let mut sim: Sim<Network> = Sim::new();
        let frame = PacketBuilder::udp(a(1), a(2), 5, 6, b"hello")
            .pad_to(125)
            .build();
        sim.schedule_at(
            SimTime::ZERO,
            move |w: &mut Network, s: &mut Sim<Network>| {
                w.host_send(s, h0, frame.clone());
            },
        );
        sim.run(&mut net);
        assert_eq!(net.hosts[h1].stats.rx_pkts, 1);
        assert_eq!(net.hosts[h0].stats.rx_pkts, 0);
        // Latency = 2 links × (ser 100ns + prop 1us) = 2.2 us.
        let fs = net.hosts[h1].stats.flows.values().next().expect("flow");
        assert_eq!(fs.latency_ns.mean(), 2_200.0);
    }

    #[test]
    fn serialization_paces_back_to_back_packets() {
        let (mut net, h0, h1) = line_topology();
        let mut sim: Sim<Network> = Sim::new();
        sim.schedule_at(
            SimTime::ZERO,
            move |w: &mut Network, s: &mut Sim<Network>| {
                for i in 0..10u16 {
                    let f = PacketBuilder::udp(a(1), a(2), 5, 6, &[])
                        .ident(i)
                        .pad_to(1250)
                        .build();
                    w.host_send(s, h0, f);
                }
            },
        );
        sim.run(&mut net);
        assert_eq!(net.hosts[h1].stats.rx_pkts, 10);
        // 10 × 1250 B at 10 Gb/s = 10 us of wire time + 2 us prop + 1 us
        // last-hop ser; the run can't finish faster than ~12 us.
        assert!(
            sim.now() >= SimTime::from_micros(12),
            "finished at {}",
            sim.now()
        );
    }

    #[test]
    fn a_256_port_switch_serves_port_255() {
        // Port ids span the whole u8: the last port transmits like any
        // other (a `0..n_ports as PortId` loop would visit none of them).
        let mut net = Network::new(7);
        let sw = net.add_switch(Box::new(EventSwitch::baseline(
            ForwardTo(255),
            256,
            QueueConfig::default(),
        )));
        let h0 = net.add_host(Host::new(a(1), HostApp::Sink));
        let h1 = net.add_host(Host::new(a(2), HostApp::Sink));
        let spec = LinkSpec::ten_gig(SimDuration::from_micros(1));
        net.connect((NodeRef::Host(h0), 0), (NodeRef::Switch(sw), 0), spec);
        net.connect((NodeRef::Switch(sw), 255), (NodeRef::Host(h1), 0), spec);
        let mut sim: Sim<Network> = Sim::new();
        sim.schedule_at(
            SimTime::ZERO,
            move |w: &mut Network, s: &mut Sim<Network>| {
                for i in 0..10u16 {
                    let f = PacketBuilder::udp(a(1), a(2), 5, 6, &[]).ident(i).build();
                    w.host_send(s, h0, f);
                }
            },
        );
        sim.run(&mut net);
        assert_eq!(net.hosts[h1].stats.rx_pkts, 10);
        assert!(!net.switches[sw].has_pending(255));
    }

    #[test]
    fn echo_host_replies() {
        /// Forwards port 0 → 1 and port 1 → 0 (a two-port wire).
        struct PortSwap;
        impl edp_pisa::PisaProgram for PortSwap {
            fn ingress(
                &mut self,
                _p: &mut Packet,
                _h: &edp_packet::ParsedPacket,
                m: &mut edp_pisa::StdMeta,
                _n: SimTime,
            ) {
                m.dest = edp_pisa::Destination::Port(1 - m.ingress_port);
            }
        }
        let mut net = Network::new(1);
        let sw = net.add_switch(Box::new(EventSwitch::baseline(
            PortSwap,
            2,
            QueueConfig::default(),
        )));
        let h0 = net.add_host(Host::new(a(1), HostApp::Sink));
        let h1 = net.add_host(Host::new(a(2), HostApp::UdpEcho));
        let spec = LinkSpec::ten_gig(SimDuration::from_nanos(100));
        net.connect((NodeRef::Host(h0), 0), (NodeRef::Switch(sw), 0), spec);
        net.connect((NodeRef::Switch(sw), 1), (NodeRef::Host(h1), 0), spec);
        let mut sim: Sim<Network> = Sim::new();
        let f = PacketBuilder::udp(a(1), a(2), 5, 6, b"ping").build();
        sim.schedule_at(
            SimTime::ZERO,
            move |w: &mut Network, s: &mut Sim<Network>| {
                w.host_send(s, h0, f.clone());
            },
        );
        sim.run(&mut net);
        assert_eq!(net.hosts[h1].stats.rx_pkts, 1, "echo host got the ping");
        assert_eq!(net.hosts[h0].stats.rx_pkts, 1, "sender got the echo");
    }

    #[test]
    fn link_failure_drops_traffic_and_recovery_restores() {
        let (mut net, h0, h1) = line_topology();
        let mut sim: Sim<Network> = Sim::new();
        net.schedule_link_failure(
            &mut sim,
            1, // switch->h1 link
            SimTime::from_micros(10),
            Some(SimTime::from_micros(50)),
        );
        // One packet while up, one while down, one after recovery.
        for (t, ident) in [(0u64, 0u16), (20, 1), (60, 2)] {
            sim.schedule_at(
                SimTime::from_micros(t),
                move |w: &mut Network, s: &mut Sim<Network>| {
                    let f = PacketBuilder::udp(a(1), a(2), 5, 6, &[])
                        .ident(ident)
                        .build();
                    w.host_send(s, h0, f);
                },
            );
        }
        sim.run(&mut net);
        assert_eq!(net.hosts[h1].stats.rx_pkts, 2, "middle packet lost");
        // The switch's egress gate drops it, so it never reaches the wire.
        let sw = net.switch_as::<EventSwitch<BaselineAdapter<ForwardTo>>>(0);
        assert_eq!(sw.counters().dropped_link_down, 1);
        assert_eq!(net.link_drops(1), (0, 0));
    }

    #[test]
    fn zero_length_outage_leaves_the_link_up() {
        let (mut net, h0, h1) = line_topology();
        let mut sim: Sim<Network> = Sim::new();
        let at = SimTime::from_micros(10);
        net.schedule_link_failure(&mut sim, 1, at, Some(at));
        sim.schedule_at(
            SimTime::from_micros(20),
            move |w: &mut Network, s: &mut Sim<Network>| {
                w.host_send(s, h0, PacketBuilder::udp(a(1), a(2), 5, 6, &[]).build());
            },
        );
        sim.run(&mut net);
        assert!(net.links[1].state.up);
        assert_eq!(net.hosts[h1].stats.rx_pkts, 1);
    }

    #[test]
    #[should_panic(expected = "link 1 recovers at 5.000us, before it fails at 10.000us")]
    fn recovery_before_failure_panics() {
        let (mut net, _, _) = line_topology();
        net.schedule_link_failure(
            &mut Sim::new(),
            1,
            SimTime::from_micros(10),
            Some(SimTime::from_micros(5)),
        );
    }

    #[test]
    #[should_panic(expected = "no link 2")]
    fn failure_of_a_missing_link_panics_when_scheduled() {
        let (mut net, _, _) = line_topology();
        net.schedule_link_failure(&mut Sim::new(), 2, SimTime::ZERO, None);
    }

    #[test]
    fn unconnected_port_counts_drops() {
        let mut net = Network::new(1);
        let sw = net.add_switch(Box::new(EventSwitch::baseline(
            ForwardTo(1), // port 1 not connected
            2,
            QueueConfig::default(),
        )));
        let h0 = net.add_host(Host::new(a(1), HostApp::Sink));
        net.connect(
            (NodeRef::Host(h0), 0),
            (NodeRef::Switch(sw), 0),
            LinkSpec::ten_gig(SimDuration::ZERO),
        );
        let mut sim: Sim<Network> = Sim::new();
        let f = PacketBuilder::udp(a(1), a(2), 5, 6, &[]).build();
        sim.schedule_at(
            SimTime::ZERO,
            move |w: &mut Network, s: &mut Sim<Network>| {
                w.host_send(s, h0, f.clone());
            },
        );
        sim.run(&mut net);
        assert_eq!(net.dropped_unconnected, 1);
    }

    #[test]
    fn publish_metrics_covers_switches_links_and_tracer() {
        let (mut net, h0, h1) = line_topology();
        net.tracer.enabled = true;
        let mut sim: Sim<Network> = Sim::new();
        edp_telemetry::enable(edp_telemetry::TelemetryConfig::default());
        let frame = PacketBuilder::udp(a(1), a(2), 5, 6, b"hello")
            .pad_to(125)
            .build();
        sim.schedule_at(
            SimTime::ZERO,
            move |w: &mut Network, s: &mut Sim<Network>| {
                w.host_send(s, h0, frame.clone());
            },
        );
        sim.run(&mut net);
        assert_eq!(net.hosts[h1].stats.rx_pkts, 1);
        let t = edp_telemetry::disable().expect("session");
        // Two deliveries traced structurally: the switch hop and the host.
        let delivers: Vec<_> = t
            .ring
            .iter()
            .filter(|r| matches!(r.kind, edp_telemetry::RecordKind::LinkDeliver { .. }))
            .collect();
        assert_eq!(delivers.len(), 2);
        assert!(delivers.iter().any(|r| matches!(
            r.kind,
            edp_telemetry::RecordKind::LinkDeliver {
                node: 0,
                port: 0,
                ..
            }
        )));
        assert!(delivers.iter().any(|r| matches!(
            r.kind,
            edp_telemetry::RecordKind::LinkDeliver {
                node: 0x8000_0001,
                ..
            }
        )));
        let mut reg = edp_telemetry::Registry::new();
        net.publish_metrics(&mut reg);
        assert_eq!(reg.counter("rx", "sw0"), 1);
        assert_eq!(reg.counter("tx", "sw0"), 1);
        assert_eq!(reg.counter("link_frames", "net"), 2);
        assert_eq!(reg.counter("tracer_entries", "net"), 2);
        assert_eq!(reg.counter("tracer_dropped", "net"), 0);
    }

    /// Forwards to port 1 and keeps a handle on every payload it sees.
    struct TapForward(Vec<Packet>);
    impl edp_pisa::PisaProgram for TapForward {
        fn ingress(
            &mut self,
            p: &mut Packet,
            _h: &edp_packet::ParsedPacket,
            m: &mut edp_pisa::StdMeta,
            _n: SimTime,
        ) {
            self.0.push(p.clone());
            m.dest = edp_pisa::Destination::Port(1);
        }
    }

    /// Every path that re-arms a hop event: fault duplicates, reorder
    /// hold-backs and corruption on both trunks of a 3-switch line, plus a
    /// stall of the middle switch (deliveries wait at its ingress,
    /// transmit attempts wait out the stall). Frames are conserved, and a
    /// fired or drained event keeps no frame alive in the scheduler.
    #[test]
    fn faults_and_a_stall_conserve_frames_and_the_queue_keeps_none() {
        use crate::faults::FaultPlan;
        use crate::link::LinkFaultModel;
        const N: u64 = 2_000;
        let mut net = Network::new(7);
        let tap = EventSwitch::baseline(TapForward(Vec::new()), 2, QueueConfig::default());
        net.add_switch(Box::new(tap));
        for _ in 0..2 {
            let sw = EventSwitch::baseline(ForwardTo(1), 2, QueueConfig::default());
            net.add_switch(Box::new(sw));
        }
        let h0 = net.add_host(Host::new(a(1), HostApp::Sink));
        let h1 = net.add_host(Host::new(a(2), HostApp::Sink));
        let spec = LinkSpec::ten_gig(SimDuration::from_micros(1));
        net.connect((NodeRef::Host(h0), 0), (NodeRef::Switch(0), 0), spec);
        let trunks = [
            net.connect((NodeRef::Switch(0), 1), (NodeRef::Switch(1), 0), spec),
            net.connect((NodeRef::Switch(1), 1), (NodeRef::Switch(2), 0), spec),
        ];
        net.connect((NodeRef::Switch(2), 1), (NodeRef::Host(h1), 0), spec);
        let model = LinkFaultModel {
            corrupt_prob: 0.3,
            duplicate_prob: 0.3,
            reorder_prob: 0.3,
            reorder_delay: SimDuration::from_micros(20),
            ..Default::default()
        };
        let mut sim: Sim<Network> = Sim::new();
        FaultPlan::new(9)
            .link_model(trunks[0], model)
            .link_model(trunks[1], model)
            .switch_stall(1, SimTime::from_micros(100), SimTime::from_micros(300))
            .apply(&mut net, &mut sim);
        let frame = PacketBuilder::udp(a(1), a(2), 5, 6, &[])
            .pad_to(128)
            .build();
        let interval = SimDuration::from_micros(1);
        crate::traffic::start_cbr(&mut sim, h0, SimTime::ZERO, interval, N, move |_| {
            frame.clone()
        });
        sim.run(&mut net);

        // Conservation along the line: every frame, fault copies included,
        // is forwarded, dropped with a reason, or received.
        let sw = |i| {
            net.switch_as::<EventSwitch<BaselineAdapter<ForwardTo>>>(i)
                .counters()
        };
        let first = net
            .switch_as::<EventSwitch<BaselineAdapter<TapForward>>>(0)
            .counters();
        let dup = |l| net.link_dir_state(l, Dir::AtoB).duplicated;
        assert_eq!(first.rx, N);
        assert_eq!(first.tx, N);
        assert_eq!(sw(1).rx, first.tx + dup(trunks[0]));
        assert_eq!(sw(2).rx, sw(1).tx + dup(trunks[1]));
        assert_eq!(net.hosts[h1].stats.rx_pkts, sw(2).tx);
        for c in [sw(1), sw(2)] {
            assert_eq!(c.rx, c.tx + c.parse_errors + c.dropped_overflow);
        }
        assert!(dup(trunks[0]) > 0 && dup(trunks[1]) > 0 && sw(2).parse_errors > 0);

        // Nothing left in the scheduler still owns a frame: the tap's
        // handle is the last reference to every payload it forwarded.
        assert_eq!(sim.pending(), 0);
        let tap = &mut net
            .switch_as_mut::<EventSwitch<BaselineAdapter<TapForward>>>(0)
            .program
            .0;
        let payloads = std::mem::take(&mut tap.0);
        assert_eq!(payloads.len() as u64, N);
        for payload in payloads {
            assert!(payload.payload_is_unique());
        }
    }

    /// Forwards arriving frames to port 1 and its own generated frames to
    /// port 2; every frame leaving port 1 generates a copy of `mirror`.
    struct MirrorOnTransmit {
        mirror: Vec<u8>,
    }
    impl edp_core::EventProgram for MirrorOnTransmit {
        fn on_ingress(
            &mut self,
            _p: &mut Packet,
            _h: &edp_packet::ParsedPacket,
            m: &mut edp_pisa::StdMeta,
            _n: SimTime,
            _a: &mut edp_core::EventActions,
        ) {
            // Generated frames enter "from" port `n_ports` and fall
            // through to this handler.
            m.dest = edp_pisa::Destination::Port(if m.ingress_port == 0 { 1 } else { 2 });
        }
        fn on_transmit(
            &mut self,
            ev: &edp_core::event::TransmitEvent,
            _n: SimTime,
            a: &mut edp_core::EventActions,
        ) {
            if ev.port == 1 {
                a.generate_packet(self.mirror.clone());
            }
        }
    }

    /// A frame that an egress-side handler enqueues toward another, idle
    /// port leaves in the cascade that enqueued it — not at the next
    /// unrelated delivery or timer crank (here there is none, so the
    /// frame would never leave).
    #[test]
    fn frame_generated_by_an_egress_handler_leaves_at_once() {
        let frame = PacketBuilder::udp(a(1), a(2), 5, 6, &[])
            .pad_to(125)
            .build();
        let mut net = Network::new(1);
        let cfg = edp_core::EventSwitchConfig {
            n_ports: 3,
            ..Default::default()
        };
        let program = MirrorOnTransmit {
            mirror: frame.clone(),
        };
        let sw = net.add_switch(Box::new(edp_core::EventSwitch::new(program, cfg)));
        let h0 = net.add_host(Host::new(a(1), HostApp::Sink));
        let h2 = net.add_host(Host::new(a(2), HostApp::Sink));
        let spec = LinkSpec::ten_gig(SimDuration::from_micros(1));
        net.connect((NodeRef::Host(h0), 0), (NodeRef::Switch(sw), 0), spec);
        net.connect((NodeRef::Host(h2), 0), (NodeRef::Switch(sw), 2), spec);
        let mut sim: Sim<Network> = Sim::new();
        net.host_send(&mut sim, h0, frame);
        sim.run(&mut net);
        // 125 B at 10 Gb/s = 100 ns on the wire, 1 us of flight: the frame
        // reaches the switch at 1.1 us and leaves (unconnected) port 1 at
        // once; its mirror is enqueued, and leaves port 2, in that same
        // instant, so the run's last event is its arrival at 2.2 us.
        assert_eq!(net.dropped_unconnected, 1);
        assert_eq!(net.hosts[h2].stats.rx_pkts, 1);
        assert_eq!(sim.now(), SimTime::from_nanos(2_200));
    }

    /// Sends everything to port 1 and drops it in the egress pipeline.
    struct DropAtEgress;
    impl edp_pisa::PisaProgram for DropAtEgress {
        fn ingress(
            &mut self,
            _p: &mut Packet,
            _h: &edp_packet::ParsedPacket,
            m: &mut edp_pisa::StdMeta,
            _n: SimTime,
        ) {
            m.dest = edp_pisa::Destination::Port(1);
        }
        fn egress(
            &mut self,
            _p: &mut Packet,
            _h: &edp_packet::ParsedPacket,
            m: &mut edp_pisa::StdMeta,
            _n: SimTime,
        ) {
            m.egress_drop = true;
        }
    }

    /// A backlog of frames that occupy no wire — toward an unconnected
    /// port, or dropped by the egress program — drains in one kick, on a
    /// stack far too small for a recursion as deep as the backlog.
    #[test]
    fn deep_backlog_drains_in_one_kick_on_a_small_stack() {
        const N: u64 = 20_000;
        fn drain<P: edp_pisa::PisaProgram + 'static>(program: P) -> (Network, Sim<Network>) {
            let cfg = QueueConfig {
                capacity_bytes: u64::MAX,
                ..QueueConfig::default()
            };
            let mut net = Network::new(1);
            let sw = net.add_switch(Box::new(EventSwitch::baseline(program, 2, cfg)));
            let frame = PacketBuilder::udp(a(1), a(2), 5, 6, &[]).build();
            for _ in 0..N {
                net.switches[sw].receive(SimTime::ZERO, 0, Packet::anonymous(frame.clone()));
            }
            let mut sim: Sim<Network> = Sim::new();
            net.kick(&mut sim, NodeRef::Switch(sw));
            (net, sim)
        }
        let small_stack = std::thread::Builder::new().stack_size(256 * 1024);
        let worker = small_stack.spawn(|| {
            let (net, sim) = drain(ForwardTo(1));
            let c = net
                .switch_as::<EventSwitch<BaselineAdapter<ForwardTo>>>(0)
                .counters();
            assert_eq!((c.rx, c.tx, net.dropped_unconnected), (N, N, N));
            assert!(!net.switches[0].has_pending(1) && sim.pending() == 0);

            let (net, sim) = drain(DropAtEgress);
            let c = net
                .switch_as::<EventSwitch<BaselineAdapter<DropAtEgress>>>(0)
                .counters();
            assert_eq!((c.rx, c.tx, c.dropped_by_program), (N, 0, N));
            assert_eq!(net.dropped_unconnected, 0);
            assert!(!net.switches[0].has_pending(1) && sim.pending() == 0);
        });
        worker
            .expect("spawn")
            .join()
            .expect("backlog drained within the small stack");
    }

    /// A switch under observation: logs, per frame, whether it arrived
    /// and whether it left carrying a parse ([`Packet::parse_is_memoised`]).
    struct MemoWatch {
        inner: Box<dyn SwitchHarness>,
        arrived: Vec<bool>,
        left: Vec<bool>,
    }
    impl SwitchHarness for MemoWatch {
        fn n_ports(&self) -> usize {
            self.inner.n_ports()
        }
        fn receive(&mut self, now: SimTime, port: PortId, pkt: Packet) {
            self.arrived.push(pkt.parse_is_memoised());
            self.inner.receive(now, port, pkt);
        }
        fn transmit(&mut self, now: SimTime, port: PortId) -> Option<Packet> {
            let pkt = self.inner.transmit(now, port)?;
            self.left.push(pkt.parse_is_memoised());
            Some(pkt)
        }
        fn has_pending(&self, port: PortId) -> bool {
            self.inner.has_pending(port)
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Decrements the TTL at ingress — a header rewrite between the
    /// switch's two parses — and logs what its egress is then handed.
    #[derive(Default)]
    struct TtlRewrite {
        memo_after_write: Vec<bool>,
        ttl_written: Vec<u8>,
        ttl_at_egress: Vec<u8>,
    }
    impl edp_pisa::PisaProgram for TtlRewrite {
        fn ingress(
            &mut self,
            p: &mut Packet,
            h: &edp_packet::ParsedPacket,
            m: &mut edp_pisa::StdMeta,
            _n: SimTime,
        ) {
            use edp_packet::wire::{internet_checksum, put_u16};
            let (b, ip) = (p.bytes_mut(), h.ip_offset);
            b[ip + 8] -= 1;
            put_u16(b, ip + 10, 0);
            let ck = internet_checksum(&b[ip..ip + 20]);
            put_u16(b, ip + 10, ck);
            self.ttl_written.push(b[ip + 8]);
            self.memo_after_write.push(p.parse_is_memoised());
            m.dest = edp_pisa::Destination::Port(1);
        }
        fn egress(
            &mut self,
            _p: &mut Packet,
            h: &edp_packet::ParsedPacket,
            _m: &mut edp_pisa::StdMeta,
            _n: SimTime,
        ) {
            self.ttl_at_egress.push(h.ipv4.expect("ip").ttl);
        }
    }

    /// The parse rides the frame down an 8-switch line: the first hop
    /// makes it, hops 2–8 and the sink find it made — except past a
    /// handler that rewrote the header, whose own egress is handed a parse
    /// of the new bytes, never the stale one.
    #[test]
    fn parse_memo_rides_the_line_and_a_rewrite_drops_it() {
        const N: u64 = 50;
        const REWRITER: usize = 4;
        let mut net = Network::new(3);
        for i in 0..8 {
            let inner: Box<dyn SwitchHarness> = if i == REWRITER {
                let program = TtlRewrite::default();
                Box::new(EventSwitch::baseline(program, 2, QueueConfig::default()))
            } else {
                Box::new(EventSwitch::baseline(
                    ForwardTo(1),
                    2,
                    QueueConfig::default(),
                ))
            };
            net.add_switch(Box::new(MemoWatch {
                inner,
                arrived: Vec::new(),
                left: Vec::new(),
            }));
        }
        let h0 = net.add_host(Host::new(a(1), HostApp::Sink));
        let h1 = net.add_host(Host::new(a(2), HostApp::Sink));
        let spec = LinkSpec::ten_gig(SimDuration::from_micros(1));
        net.connect((NodeRef::Host(h0), 0), (NodeRef::Switch(0), 0), spec);
        for i in 0..7 {
            net.connect((NodeRef::Switch(i), 1), (NodeRef::Switch(i + 1), 0), spec);
        }
        net.connect((NodeRef::Switch(7), 1), (NodeRef::Host(h1), 0), spec);
        let mut sim: Sim<Network> = Sim::new();
        let interval = SimDuration::from_micros(1);
        crate::traffic::start_cbr(&mut sim, h0, SimTime::ZERO, interval, N, |i| {
            PacketBuilder::udp(a(1), a(2), 5, 6, &[])
                .ident(i as u16)
                .ttl(9)
                .pad_to(64)
                .build()
        });
        sim.run(&mut net);

        let host = &net.hosts[h1].stats;
        assert_eq!((host.rx_pkts, host.rx_errors), (N, 0));
        for i in 0..8 {
            let w = net.switch_as::<MemoWatch>(i);
            assert_eq!((w.arrived.len(), w.left.len()), (N as usize, N as usize));
            // A host builds frames, it does not parse them: hop 1 parses.
            let arrives_parsed = i != 0;
            assert!(w.arrived.iter().all(|&m| m == arrives_parsed), "hop {i}");
            // Every hop forwards the frame with the parse its egress used
            // (hop 8's is what the sink finds).
            assert!(w.left.iter().all(|&m| m), "hop {i}");
        }
        let watch = net.switch_as::<MemoWatch>(REWRITER);
        let inner = watch.inner.as_any();
        let rewriter = &inner
            .downcast_ref::<EventSwitch<BaselineAdapter<TtlRewrite>>>()
            .expect("rewriter")
            .program
            .0;
        assert_eq!(rewriter.memo_after_write, vec![false; N as usize]);
        assert_eq!(rewriter.ttl_written, vec![8; N as usize]);
        assert_eq!(rewriter.ttl_at_egress, rewriter.ttl_written);
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut net = Network::new(1);
        let h0 = net.add_host(Host::new(a(1), HostApp::Sink));
        let h1 = net.add_host(Host::new(a(2), HostApp::Sink));
        let h2 = net.add_host(Host::new(a(3), HostApp::Sink));
        let spec = LinkSpec::ten_gig(SimDuration::ZERO);
        net.connect((NodeRef::Host(h0), 0), (NodeRef::Host(h1), 0), spec);
        net.connect((NodeRef::Host(h0), 0), (NodeRef::Host(h2), 0), spec);
    }

    #[test]
    #[should_panic(expected = "to itself")]
    fn self_loop_connect_panics() {
        let mut net = Network::new(1);
        let h0 = net.add_host(Host::new(a(1), HostApp::Sink));
        let ep = (NodeRef::Host(h0), 0);
        net.connect(ep, ep, LinkSpec::ten_gig(SimDuration::ZERO));
    }
}
