//! Sharded parallel execution of a [`Network`] simulation.
//!
//! The engine runs the *same* build closure on every worker thread (SPMD):
//! each shard holds a full copy of the topology and the full event
//! schedule, but only executes the side effects of the nodes it owns —
//! [`Network::owns_node`] gates packet injection, switch processing,
//! timer cranks, and telemetry at fire time. Packets that cross a shard
//! boundary travel through per-`(src, dst)` mailboxes at conservative
//! safe-horizon barriers (see [`edp_evsim::drive_windows`]), carrying a
//! wire-order key so the destination shard schedules them exactly where a
//! single-threaded run would have.
//!
//! # Partitioning rule
//!
//! [`ShardPlan::partition`] groups nodes with a union-find over the links
//! that cannot be cut:
//!
//! * **host links** — a host and its attached switch must co-shard, so
//!   end-to-end latency accounting and response frames never race a
//!   window boundary;
//! * **zero-latency links** — the safe-horizon argument needs every
//!   cross-shard hop to take at least the lookahead of simulated time; a
//!   zero-latency link would force a zero lookahead and serialize the
//!   run, so its endpoints are co-sharded instead.
//!
//! Groups are anchored at their smallest node index and dealt round-robin
//! to shards in anchor order — a pure function of the topology, so every
//! worker computes the identical plan. The lookahead is the minimum
//! latency over the links that ended up crossing shards (`None` when none
//! do: the whole run is then a single window).

use crate::net::{Endpoint, Network, NodeRef};
use crate::trace::Tracer;
use edp_evsim::{drive_windows, HorizonMode, Sim, SimDuration, SimTime, WindowSync};
use edp_packet::Packet;
use edp_telemetry::prof;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A packet crossing from one shard to another, carrying everything the
/// destination shard needs to schedule the delivery exactly as the
/// single-shard run would have: the arrival instant and the wire-order
/// key (the send stamp for latency accounting rides inside the packet).
pub(crate) struct ShardMsg {
    pub(crate) at: SimTime,
    pub(crate) dest: Endpoint,
    pub(crate) pkt: Packet,
    pub(crate) key: u64,
}

/// This shard's role in a sharded run: its id, the shared partition, and
/// the outbound frames awaiting the next window close.
pub(crate) struct ShardCtx {
    pub(crate) id: usize,
    pub(crate) plan: ShardPlan,
    pub(crate) outbox: Vec<ShardMsg>,
}

/// A static partition of a topology across shards. Pure function of the
/// topology: every worker thread computes the same plan independently.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    nshards: usize,
    switch_owner: Vec<usize>,
    host_owner: Vec<usize>,
    lookahead: Option<SimDuration>,
}

impl ShardPlan {
    /// Partitions `net`'s topology into `nshards` shards (see the module
    /// docs for the rule).
    ///
    /// # Panics
    /// Panics when `nshards > 1` and any link sets the legacy
    /// [`LinkSpec::drop_prob`]: that path draws the shared workload RNG on
    /// the transmitting shard only, desynchronizing every other shard's
    /// copy. Use [`crate::LinkFaultModel::loss`] (per-link streams)
    /// instead.
    pub fn partition(net: &Network, nshards: usize) -> ShardPlan {
        assert!(nshards >= 1, "a plan needs at least one shard");
        let ns = net.switches.len();
        let nh = net.hosts.len();
        let n = ns + nh;
        let flat = |node: NodeRef| match node {
            NodeRef::Switch(i) => i,
            NodeRef::Host(h) => ns + h,
        };
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (ends, spec) in net.topology_edges() {
            assert!(
                nshards == 1 || spec.drop_prob == 0.0,
                "LinkSpec::drop_prob is unsupported under sharded execution: it draws \
                 the shared workload RNG on one shard only; install a LinkFaultModel \
                 (per-link RNG streams) instead"
            );
            let host_edge = ends.iter().any(|e| matches!(e.0, NodeRef::Host(_)));
            if host_edge || spec.latency.is_zero() {
                let ra = find(&mut parent, flat(ends[0].0));
                let rb = find(&mut parent, flat(ends[1].0));
                // Anchor every group at its smallest member so group
                // identity is independent of union order.
                let (lo, hi) = (ra.min(rb), ra.max(rb));
                parent[hi] = lo;
            }
        }
        // Scanning nodes in index order visits each group first at its
        // anchor, so the round-robin deal is deterministic.
        let mut owner = vec![0usize; n];
        let mut group_shard: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        for (x, slot) in owner.iter_mut().enumerate() {
            let r = find(&mut parent, x);
            let next = group_shard.len() % nshards;
            *slot = *group_shard.entry(r).or_insert(next);
        }
        let mut lookahead: Option<SimDuration> = None;
        for (ends, spec) in net.topology_edges() {
            if owner[flat(ends[0].0)] != owner[flat(ends[1].0)] {
                debug_assert!(!spec.latency.is_zero(), "zero-latency links are co-sharded");
                lookahead = Some(match lookahead {
                    None => spec.latency,
                    Some(cur) if spec.latency.as_nanos() < cur.as_nanos() => spec.latency,
                    Some(cur) => cur,
                });
            }
        }
        let host_owner = owner.split_off(ns);
        ShardPlan {
            nshards,
            switch_owner: owner,
            host_owner,
            lookahead,
        }
    }

    /// Number of shards the plan was built for.
    pub fn shards(&self) -> usize {
        self.nshards
    }

    /// The shard that owns `node`'s side effects.
    pub fn owner(&self, node: NodeRef) -> usize {
        match node {
            NodeRef::Switch(i) => self.switch_owner[i],
            NodeRef::Host(h) => self.host_owner[h],
        }
    }

    /// Minimum simulated latency of any cross-shard link; `None` when the
    /// partition cut no links (one safe-horizon window covers the run).
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }
}

/// Aggregate statistics of one sharded run. Every field is deterministic
/// for a given (topology, workload, shard count) — they are *not* part of
/// the simulation's observable schedule, which is shard-count-invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Safe-horizon windows executed (identical on every shard).
    pub windows: u64,
    /// Barrier rendezvous joined per shard (identical on every shard) —
    /// the true synchronization cost; see [`edp_evsim::DriveStats`].
    pub barriers: u64,
    /// Packets that crossed a shard boundary through the mailboxes.
    pub cross_messages: u64,
}

/// Lookahead-sized sub-windows [`run_sharded`] executes per negotiated
/// window (see [`edp_evsim::drive_windows`]). A constant, not a knob: the
/// schedule is byte-identical for every value and 32 was the fastest
/// measured at 2 and 4 shards (within noise at 1) — DESIGN.md §12.
pub const SUBWINDOWS: usize = 32;

/// Runs a network simulation across `nshards` worker threads and returns
/// each shard's `finish` result (in shard order) plus run statistics.
///
/// `build` runs once per shard **on that shard's thread** and must
/// construct the identical topology and workload schedule regardless of
/// the shard id — the engine installs the shard role afterwards, then
/// arms switch timers (ownership-gated), so `build` must do neither.
/// `finish` runs after the deadline on the same thread and typically
/// extracts statistics, telemetry, or the whole [`Network`].
///
/// With `nshards == 1` this is the single-threaded reference schedule;
/// larger counts produce the byte-identical observable outcome.
///
/// Each negotiated window covers up to [`SUBWINDOWS`] sub-windows; the
/// tests' reference leg pins `1` through [`run_sharded_opts`].
pub fn run_sharded<T, B, F>(
    nshards: usize,
    deadline: SimTime,
    build: B,
    finish: F,
) -> (Vec<T>, ShardStats)
where
    T: Send,
    B: Fn(usize) -> (Network, Sim<Network>) + Sync,
    F: Fn(usize, Network, Sim<Network>) -> T + Sync,
{
    run_sharded_opts(
        nshards,
        SUBWINDOWS,
        HorizonMode::Classic,
        deadline,
        build,
        finish,
    )
}

/// [`run_sharded`] with an explicit sub-window batch size.
///
/// `subwindows` is the number of lookahead-sized sub-steps each negotiated
/// window may cover (see [`edp_evsim::drive_windows`]); `1` reproduces the
/// legacy one-negotiation-per-lookahead protocol exactly. The observable
/// simulation outcome is byte-identical for every value — only the window
/// and barrier counts ([`ShardStats`]) change. `_mode` has one value and
/// is ignored (see [`HorizonMode`]).
pub fn run_sharded_opts<T, B, F>(
    nshards: usize,
    subwindows: usize,
    _mode: HorizonMode,
    deadline: SimTime,
    build: B,
    finish: F,
) -> (Vec<T>, ShardStats)
where
    T: Send,
    B: Fn(usize) -> (Network, Sim<Network>) + Sync,
    F: Fn(usize, Network, Sim<Network>) -> T + Sync,
{
    assert!(nshards >= 1, "run_sharded needs at least one shard");
    let sync = WindowSync::new(nshards);
    let mailboxes: Vec<Vec<Mutex<Vec<ShardMsg>>>> = (0..nshards)
        .map(|_| (0..nshards).map(|_| Mutex::new(Vec::new())).collect())
        .collect();
    let crossed = AtomicU64::new(0);
    let mut results: Vec<Option<(T, edp_evsim::DriveStats)>> = (0..nshards).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nshards)
            .map(|me| {
                let sync = &sync;
                let mailboxes = &mailboxes;
                let crossed = &crossed;
                let build = &build;
                let finish = &finish;
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        run_shard(
                            me, nshards, subwindows, deadline, sync, mailboxes, crossed, build,
                            finish,
                        )
                    }))
                    .map_err(|p| {
                        // Wake peers blocked at a window barrier so the
                        // run fails loudly instead of deadlocking. A panic
                        // raised *by* the poison is an echo, not the cause.
                        let echo = sync.is_poisoned();
                        sync.poison();
                        (!echo).then_some(p)
                    })
                })
            })
            .collect();
        let mut cause = None;
        for (me, h) in handles.into_iter().enumerate() {
            match h.join().expect("shard workers catch their own panics") {
                Ok(v) => results[me] = Some(v),
                Err(p) => cause = cause.or(p),
            }
        }
        if let Some(p) = cause {
            resume_unwind(p);
        }
    });
    let mut drive = edp_evsim::DriveStats::default();
    let outs: Vec<T> = results
        .into_iter()
        .map(|r| {
            let (t, d) = r.expect("shard result");
            drive = d;
            t
        })
        .collect();
    (
        outs,
        ShardStats {
            windows: drive.windows,
            barriers: drive.barriers,
            cross_messages: crossed.load(Ordering::Relaxed),
        },
    )
}

#[allow(clippy::too_many_arguments)]
fn run_shard<T, B, F>(
    me: usize,
    nshards: usize,
    subwindows: usize,
    deadline: SimTime,
    sync: &WindowSync,
    mailboxes: &[Vec<Mutex<Vec<ShardMsg>>>],
    crossed: &AtomicU64,
    build: &B,
    finish: &F,
) -> (T, edp_evsim::DriveStats)
where
    B: Fn(usize) -> (Network, Sim<Network>) + Sync,
    F: Fn(usize, Network, Sim<Network>) -> T + Sync,
{
    let (mut net, mut sim) = build(me);
    let plan = ShardPlan::partition(&net, nshards);
    let lookahead = plan.lookahead();
    net.install_shard(me, plan);
    net.arm_all_timers(&mut sim);
    // Everything since prof::enable (world build, partition, timer
    // arming) is setup; the drive loop laps the rest.
    prof::lap(prof::Phase::Setup);
    // Reused per-destination staging rows so a window's whole batch for a
    // peer costs one mailbox lock instead of one per message.
    let mut staged: Vec<Vec<ShardMsg>> = (0..nshards).map(|_| Vec::new()).collect();
    // Inbox sequence watermark: peers bump `inbox_seq(me)` after landing
    // a batch in this shard's mailbox, so a drain that would find nothing
    // skips all `nshards` row locks. Reading the watermark *before* the
    // drain keeps it conservative — a batch landing mid-drain is counted
    // under the next watermark and picked up by the next accept.
    let mut seen_seq: u64 = 0;
    let stats = drive_windows(
        &mut net,
        &mut sim,
        me,
        sync,
        lookahead,
        deadline,
        subwindows,
        |net, sim| {
            let seq = sync.inbox_seq(me);
            if seq == seen_seq {
                return;
            }
            seen_seq = seq;
            for row in mailboxes {
                let msgs: Vec<ShardMsg> = row[me]
                    .lock()
                    .expect("shard mailbox poisoned")
                    .drain(..)
                    .collect();
                for m in msgs {
                    net.accept_shard_msg(sim, m);
                }
            }
        },
        |net, _sim, horizon| {
            let out = net.take_outbox();
            if out.is_empty() {
                return false;
            }
            crossed.fetch_add(out.len() as u64, Ordering::Relaxed);
            for (dst, msg) in out {
                // The conservative-window invariant, checked at runtime:
                // everything published from a window arrives at or past
                // its horizon. A failure here means a cross-shard link
                // delivered in less than the partition's lookahead.
                assert!(
                    msg.at >= horizon,
                    "cross-shard arrival at {} precedes the window horizon {horizon}: \
                     a cross-shard delivery undercut the lookahead",
                    msg.at
                );
                staged[dst].push(msg);
            }
            for (dst, batch) in staged.iter_mut().enumerate() {
                if !batch.is_empty() {
                    mailboxes[me][dst]
                        .lock()
                        .expect("shard mailbox poisoned")
                        .append(batch);
                    // After the batch lands: bump the destination's inbox
                    // watermark so its next accept knows a drain will find
                    // something.
                    sync.mark_traffic(dst);
                }
            }
            true
        },
    );
    (finish(me, net, sim), stats)
}

/// Deterministically merges per-shard packet traces into one canonical
/// rendering: entries sorted by `(time, rendered line)`, with summed
/// footer accounting. The result is a pure function of the entry multiset
/// — which ownership gating makes shard-count-invariant — so the merged
/// text is byte-identical across shard counts (compare merged output on
/// *both* sides; a raw single-shard [`Tracer::render`] keeps insertion
/// order instead). Entries must not have been evicted: an eviction on any
/// shard shows up in the footer and breaks equality loudly.
pub fn merge_tracers(tracers: &[&Tracer]) -> String {
    let mut lines: Vec<(SimTime, String)> = Vec::new();
    let (mut len, mut dropped, mut capacity) = (0usize, 0u64, 0usize);
    for t in tracers {
        len += t.len();
        dropped += t.dropped();
        capacity = capacity.max(t.capacity());
        for e in t.entries() {
            lines.push((e.at, e.render()));
        }
    }
    lines.sort();
    let mut out = String::new();
    for (_, l) in &lines {
        out.push_str(l);
        out.push('\n');
    }
    out.push_str(&format!(
        "-- {len} entries, {dropped} dropped (capacity {capacity})\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{Host, HostApp, HostId};
    use crate::link::LinkSpec;
    use edp_core::EventSwitch;
    use edp_packet::PacketBuilder;
    use edp_pisa::{ForwardTo, QueueConfig};
    use std::net::Ipv4Addr;

    fn a(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    /// h0 — sw0 — … — sw(n-1) — h1, switch-switch latency 2 us.
    fn switch_line(seed: u64, n: usize) -> (Network, HostId, HostId) {
        let mut net = Network::new(seed);
        for _ in 0..n {
            net.add_switch(Box::new(EventSwitch::baseline(
                ForwardTo(1),
                2,
                QueueConfig::default(),
            )));
        }
        let h0 = net.add_host(Host::new(a(1), HostApp::Sink));
        let h1 = net.add_host(Host::new(a(2), HostApp::Sink));
        let edge = LinkSpec::ten_gig(SimDuration::from_micros(1));
        let trunk = LinkSpec::ten_gig(SimDuration::from_micros(2));
        net.connect((NodeRef::Host(h0), 0), (NodeRef::Switch(0), 0), edge);
        for i in 1..n {
            net.connect((NodeRef::Switch(i - 1), 1), (NodeRef::Switch(i), 0), trunk);
        }
        net.connect((NodeRef::Switch(n - 1), 1), (NodeRef::Host(h1), 0), edge);
        (net, h0, h1)
    }

    fn two_switch_line(seed: u64) -> (Network, HostId, HostId) {
        switch_line(seed, 2)
    }

    /// [`ShardStats`] of a fixed workload: 10k CBR frames (256 B every
    /// 500 ns) down a `switches`-switch line on 2 shards at
    /// [`SUBWINDOWS`]. The window and barrier counts are pure functions
    /// of the workload, so callers pin them exactly.
    fn cbr_line_stats(switches: usize) -> ShardStats {
        const N: u64 = 10_000;
        let (delivered, stats) = run_sharded_opts(
            2,
            SUBWINDOWS,
            HorizonMode::Classic,
            SimTime::from_nanos(500 * N + 1_000_000),
            |_me| {
                let (net, h0, _h1) = switch_line(7, switches);
                let mut sim: Sim<Network> = Sim::new();
                let interval = SimDuration::from_nanos(500);
                crate::traffic::start_cbr(&mut sim, h0, SimTime::ZERO, interval, N, |i| {
                    PacketBuilder::udp(a(1), a(2), 4000, 8080, &[])
                        .ident(i as u16)
                        .pad_to(256)
                        .build()
                });
                (net, sim)
            },
            |_me, net, _sim| net.hosts[1].stats.rx_pkts,
        );
        assert_eq!(
            delivered.iter().sum::<u64>(),
            N,
            "line delivers every frame"
        );
        stats
    }

    #[test]
    fn partition_cosh_shards_hosts_and_cuts_the_trunk() {
        let (net, h0, h1) = two_switch_line(1);
        let plan = ShardPlan::partition(&net, 2);
        assert_eq!(
            plan.owner(NodeRef::Host(h0)),
            plan.owner(NodeRef::Switch(0))
        );
        assert_eq!(
            plan.owner(NodeRef::Host(h1)),
            plan.owner(NodeRef::Switch(1))
        );
        assert_ne!(
            plan.owner(NodeRef::Switch(0)),
            plan.owner(NodeRef::Switch(1))
        );
        assert_eq!(plan.lookahead(), Some(SimDuration::from_micros(2)));
    }

    #[test]
    fn zero_latency_links_force_co_sharding() {
        let mut net = Network::new(1);
        let s0 = net.add_switch(Box::new(EventSwitch::baseline(
            ForwardTo(1),
            2,
            QueueConfig::default(),
        )));
        let s1 = net.add_switch(Box::new(EventSwitch::baseline(
            ForwardTo(1),
            2,
            QueueConfig::default(),
        )));
        net.connect(
            (NodeRef::Switch(s0), 1),
            (NodeRef::Switch(s1), 0),
            LinkSpec::ten_gig(SimDuration::ZERO),
        );
        let plan = ShardPlan::partition(&net, 2);
        assert_eq!(
            plan.owner(NodeRef::Switch(s0)),
            plan.owner(NodeRef::Switch(s1))
        );
        assert_eq!(plan.lookahead(), None, "nothing left to cut");
    }

    #[test]
    #[should_panic(expected = "drop_prob is unsupported")]
    fn legacy_drop_prob_rejected_under_sharding() {
        let mut net = Network::new(1);
        let h0 = net.add_host(Host::new(a(1), HostApp::Sink));
        let h1 = net.add_host(Host::new(a(2), HostApp::Sink));
        let mut spec = LinkSpec::ten_gig(SimDuration::from_micros(1));
        spec.drop_prob = 0.5;
        net.connect((NodeRef::Host(h0), 0), (NodeRef::Host(h1), 0), spec);
        let _ = ShardPlan::partition(&net, 2);
    }

    /// Runs the two-switch line under `shards` workers and folds the
    /// observables: (delivered count, flow latency means, merged trace).
    fn run_line(shards: usize) -> (u64, String, String, ShardStats) {
        run_line_opts(shards, 1)
    }

    fn run_line_opts(shards: usize, subwindows: usize) -> (u64, String, String, ShardStats) {
        let (nets, stats) = run_sharded_opts(
            shards,
            subwindows,
            HorizonMode::Classic,
            SimTime::from_millis(1),
            |_me| {
                let (mut net, h0, _h1) = two_switch_line(11);
                net.tracer.enabled = true;
                let mut sim: Sim<Network> = Sim::new();
                for i in 0..20u16 {
                    sim.schedule_at(
                        SimTime::from_micros(i as u64 * 5),
                        move |w: &mut Network, s: &mut Sim<Network>| {
                            let f = PacketBuilder::udp(a(1), a(2), 5, 6, &[])
                                .ident(i)
                                .pad_to(500)
                                .build();
                            w.host_send(s, h0, f);
                        },
                    );
                }
                (net, sim)
            },
            |_me, net, _sim| net,
        );
        let rx: u64 = nets.iter().map(|n| n.hosts[1].stats.rx_pkts).sum();
        let means: String = nets
            .iter()
            .filter_map(|n| n.hosts[1].stats.flows.values().next())
            .map(|f| format!("{:.3}", f.latency_ns.mean()))
            .collect::<Vec<_>>()
            .join(",");
        let tracers: Vec<&Tracer> = nets.iter().map(|n| &n.tracer).collect();
        (rx, means, merge_tracers(&tracers), stats)
    }

    #[test]
    fn sharded_line_matches_single_shard_byte_for_byte() {
        let (rx1, means1, trace1, stats1) = run_line(1);
        let (rx2, means2, trace2, stats2) = run_line(2);
        assert_eq!(rx1, 20);
        assert_eq!(rx1, rx2);
        assert_eq!(means1, means2, "end-to-end latency survives the crossing");
        assert_eq!(trace1, trace2, "merged traces byte-identical");
        assert_eq!(stats1.cross_messages, 0, "one shard crosses nothing");
        assert!(stats2.cross_messages >= 20, "trunk frames cross the cut");
        assert!(stats2.windows >= 1);
    }

    #[test]
    fn subwindows_keep_byte_identity_and_shrink_the_window_count() {
        let (rx_base, means_base, trace_base, stats_base) = run_line_opts(2, 1);
        for sub in [8usize, 32] {
            let (rx, means, trace, stats) = run_line_opts(2, sub);
            assert_eq!(rx, rx_base);
            assert_eq!(
                means, means_base,
                "latency accounting under subwindows={sub}"
            );
            assert_eq!(trace, trace_base, "merged trace under subwindows={sub}");
            assert_eq!(
                stats.cross_messages, stats_base.cross_messages,
                "batched publish must move the same frames"
            );
            assert!(
                stats.windows < stats_base.windows,
                "subwindows={sub} should negotiate fewer windows ({} vs {})",
                stats.windows,
                stats_base.windows
            );
        }
        assert_eq!(cbr_line_stats(4).windows, 79, "window collapse regressed");
    }

    /// h0 — ev0 — ev1 — h1: two event switches with a silent 10 us
    /// periodic timer each, forwarding toward h1.
    fn timer_line() -> (Network, HostId) {
        use edp_core::{BaselineAdapter, EventSwitchConfig, TimerSpec};
        let mut net = Network::new(3);
        for _ in 0..2 {
            let cfg = EventSwitchConfig {
                n_ports: 2,
                timers: vec![TimerSpec {
                    id: 0,
                    period: SimDuration::from_micros(10),
                    start: SimDuration::from_micros(10),
                }],
                ..Default::default()
            };
            net.add_switch(Box::new(EventSwitch::new(
                BaselineAdapter(ForwardTo(1)),
                cfg,
            )));
        }
        let h0 = net.add_host(Host::new(a(1), HostApp::Sink));
        let h1 = net.add_host(Host::new(a(2), HostApp::Sink));
        let edge = LinkSpec::ten_gig(SimDuration::from_micros(1));
        let trunk = LinkSpec::ten_gig(SimDuration::from_micros(2));
        net.connect((NodeRef::Host(h0), 0), (NodeRef::Switch(0), 0), edge);
        net.connect((NodeRef::Switch(0), 1), (NodeRef::Switch(1), 0), trunk);
        net.connect((NodeRef::Switch(1), 1), (NodeRef::Host(h1), 0), edge);
        (net, h0)
    }

    fn run_timer_line(subwindows: usize) -> (u64, String) {
        let (nets, _) = run_sharded_opts(
            2,
            subwindows,
            HorizonMode::Classic,
            SimTime::from_millis(1),
            |_me| {
                let (mut net, h0) = timer_line();
                net.tracer.enabled = true;
                let mut sim: Sim<Network> = Sim::new();
                for i in 0..5u16 {
                    sim.schedule_at(
                        SimTime::from_micros(i as u64 * 7),
                        move |w: &mut Network, s: &mut Sim<Network>| {
                            let f = PacketBuilder::udp(a(1), a(2), 5, 6, &[])
                                .ident(i)
                                .pad_to(500)
                                .build();
                            w.host_send(s, h0, f);
                        },
                    );
                }
                (net, sim)
            },
            |_me, net, _sim| net,
        );
        let rx: u64 = nets.iter().map(|n| n.hosts[1].stats.rx_pkts).sum();
        let tracers: Vec<&Tracer> = nets.iter().map(|n| &n.tracer).collect();
        (rx, merge_tracers(&tracers))
    }

    /// A shard that dies mid-run fails the whole run with its own panic:
    /// the peer blocked at (or arriving at) the window barrier is woken by
    /// the poison instead of waiting for a rendezvous that never fills.
    #[test]
    fn a_dying_shard_fails_the_run_instead_of_hanging_it() {
        let (tx, rx) = std::sync::mpsc::channel();
        // On a helper thread, so a regression that deadlocks the barrier
        // fails this test at the timeout instead of wedging the suite.
        std::thread::spawn(move || {
            let out = catch_unwind(|| {
                run_sharded_opts(
                    2,
                    SUBWINDOWS,
                    HorizonMode::Classic,
                    SimTime::from_millis(1),
                    |_me| {
                        let (net, _h0, _h1) = two_switch_line(5);
                        let mut sim: Sim<Network> = Sim::new();
                        sim.schedule_at(
                            SimTime::from_micros(10),
                            |w: &mut Network, _: &mut Sim<Network>| {
                                if !w.owns_node(NodeRef::Switch(0)) {
                                    panic!("shard 1 died");
                                }
                            },
                        );
                        (net, sim)
                    },
                    |_me, _net, _sim| (),
                )
            });
            let _ = tx.send(out.map(|_| ()));
        });
        let payload = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("sharded run hung after a shard panicked")
            .expect_err("a dead shard must fail the run");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"shard 1 died"));
    }

    /// The timer line is traffic-free after its five packets drain (~35 us
    /// of a 1 ms run) while its timers keep firing on both shards: a
    /// 256-sub-window run must move no byte of the per-sub-step schedule.
    #[test]
    fn a_timer_line_keeps_its_schedule_at_any_subwindow_count() {
        let (rx_1, trace_1) = run_timer_line(1);
        let (rx_b, trace_b) = run_timer_line(256);
        assert_eq!(rx_1, 5);
        assert_eq!(rx_b, rx_1);
        assert_eq!(trace_b, trace_1, "sub-windows must not change the schedule");
        // A change that reintroduces per-sub-step rendezvous on the
        // traffic-free tail of the 8-switch line moves this count.
        assert_eq!(
            cbr_line_stats(8).barriers,
            2669,
            "sub-window vote collapse regressed"
        );
    }
}
