//! Shard invariance end-to-end: every fault-injection scenario family
//! from `integration_faults.rs` re-run through the sharded engine at
//! 1, 2, and 4 shards must produce the same observables, the same
//! merged packet trace, and the same merged metrics JSON — and the
//! numeric observables must match the classic single-threaded engine.
//!
//! Topologies here deliberately put an impaired or failed link *between*
//! switches where possible, so the faulty frames actually cross a shard
//! boundary through the mailbox exchange instead of staying local.

use edp_apps::common::{addr, run_until};
use edp_apps::frr::{FrrBaseline, FrrEvent, CP_OP_SET_ROUTE};
use edp_apps::liveness::{LivenessMonitor, LivenessReflector, Neighbor, TIMER_CHECK, TIMER_PROBE};
use edp_core::{BaselineAdapter, EventSwitch, EventSwitchConfig, TimerSpec};
use edp_evsim::{HorizonMode, Sim, SimDuration, SimTime};
use edp_netsim::{
    merge_tracers, run_sharded_opts, Dir, FaultPlan, Host, HostApp, LinkFaultModel, LinkSpec,
    Network, NodeRef, Tracer,
};
use edp_packet::PacketBuilder;
use edp_pisa::{ForwardTo, QueueConfig};
use edp_telemetry::Registry;

const SHARD_COUNTS: [usize; 2] = [2, 4];
const FAIL_AT: SimTime = SimTime::from_millis(5);
const PKTS: u64 = 1000;
const INTERVAL: SimDuration = SimDuration::from_micros(10);
const DEADLINE: SimTime = SimTime::from_millis(30);

/// Runs `build` on the sharded engine and returns every shard's final
/// network, the merged packet trace, and the merged metrics JSON.
fn run_shards<B>(shards: usize, deadline: SimTime, build: B) -> (Vec<Network>, String, String)
where
    B: Fn() -> (Network, Sim<Network>) + Sync,
{
    run_shards_at(shards, 1, deadline, build)
}

/// Same, at an explicit sub-window count per negotiated window.
fn run_shards_at<B>(
    shards: usize,
    subwindows: usize,
    deadline: SimTime,
    build: B,
) -> (Vec<Network>, String, String)
where
    B: Fn() -> (Network, Sim<Network>) + Sync,
{
    let (nets, _stats) = run_sharded_opts(
        shards,
        subwindows,
        HorizonMode::Classic,
        deadline,
        |_s| build(),
        |_s, net, _sim| net,
    );
    let tracers: Vec<&Tracer> = nets.iter().map(|n| &n.tracer).collect();
    let trace = merge_tracers(&tracers);
    // One registry per shard, merged: `publish_metrics` *sets* net-scope
    // counters, so partial per-shard counts must be summed by `merge`,
    // not overwritten by publishing into a shared registry.
    let mut reg = Registry::new();
    for net in &nets {
        let mut part = Registry::new();
        net.publish_metrics(&mut part);
        reg.merge(&part);
    }
    (nets, trace, edp_telemetry::to_json(&reg))
}

/// Runs `build` on the classic single-threaded engine for reference.
fn run_classic<B>(deadline: SimTime, build: B) -> Network
where
    B: Fn() -> (Network, Sim<Network>),
{
    let (mut net, mut sim) = build();
    run_until(&mut net, &mut sim, deadline);
    net
}

fn sum_u64(nets: &[Network], f: impl Fn(&Network) -> u64) -> u64 {
    nets.iter().map(f).sum()
}

/// Asserts the scenario's observables, merged trace, and merged metrics
/// are identical for 1/2/4 shards and that the observables match the
/// classic engine. Returns the 1-shard networks for scenario-specific
/// sanity checks.
fn assert_invariant<B, O, T>(build: B, observe: O, deadline: SimTime) -> Vec<Network>
where
    B: Fn() -> (Network, Sim<Network>) + Sync,
    O: Fn(&[Network]) -> T,
    T: PartialEq + std::fmt::Debug,
{
    let classic = run_classic(deadline, &build);
    let classic_obs = observe(std::slice::from_ref(&classic));
    let (one, one_trace, one_json) = run_shards(1, deadline, &build);
    assert_eq!(
        observe(&one),
        classic_obs,
        "1-shard run diverged from the classic engine"
    );
    assert!(
        !one_trace.contains(" dropped (capacity") || one_trace.contains(", 0 dropped (capacity"),
        "tracer ring evicted; scenario too big for invariance checks"
    );
    for shards in SHARD_COUNTS {
        // 1 sub-window is the one-negotiation-per-lookahead reference
        // protocol; 32 is what `run_sharded` runs. Every scenario family
        // must be invariant under both.
        for sub in [1usize, 32] {
            let (many, trace, json) = run_shards_at(shards, sub, deadline, &build);
            assert_eq!(
                observe(&many),
                classic_obs,
                "{shards}-shard sub-{sub} observables diverged"
            );
            assert_eq!(
                one_trace, trace,
                "{shards}-shard sub-{sub} merged trace diverged"
            );
            assert_eq!(
                one_json, json,
                "{shards}-shard sub-{sub} metrics JSON diverged"
            );
        }
    }
    one
}

// ---------------------------------------------------------------------
// Topology builders (mirroring integration_faults.rs, but with the
// interesting link between two switches so it crosses shards)
// ---------------------------------------------------------------------

/// h0 — swA —(primary L1)— swR — sink, with a backup L2 between the
/// switches. Returns (net, sender, sink, primary link, backup link).
fn diamond(sw_a: Box<dyn edp_netsim::SwitchHarness>) -> (Network, usize, usize, usize, usize) {
    let mut net = Network::new(21);
    let a = net.add_switch(sw_a);
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
    let backup = net.connect((NodeRef::Switch(a), 2), (NodeRef::Switch(r), 1), spec);
    net.connect((NodeRef::Switch(r), 2), (NodeRef::Host(sink), 0), spec);
    (net, h0, sink, primary, backup)
}

fn cbr(sim: &mut Sim<Network>, sender: usize, n: u64) {
    let src = addr(1);
    edp_netsim::traffic::start_cbr(sim, sender, SimTime::ZERO, INTERVAL, n, move |i| {
        PacketBuilder::udp(src, addr(9), 1, 2, &[])
            .ident(i as u16)
            .pad_to(500)
            .build()
    });
}

/// h0 — sw0 —(trunk, optionally impaired)— sw1 — h1. The trunk is the
/// only switch–switch link, so at 2+ shards every trunk frame goes
/// through the mailbox exchange. Returns (net, h0, h1, trunk link).
fn two_switch_line(
    model: Option<LinkFaultModel>,
    fault_seed: u64,
) -> (Network, usize, usize, usize) {
    let mut net = Network::new(7);
    let sw0 = net.add_switch(Box::new(EventSwitch::baseline(
        ForwardTo(1),
        2,
        QueueConfig::default(),
    )));
    let sw1 = net.add_switch(Box::new(EventSwitch::baseline(
        ForwardTo(1),
        2,
        QueueConfig::default(),
    )));
    let h0 = net.add_host(Host::new(addr(1), HostApp::Sink));
    let h1 = net.add_host(Host::new(addr(9), HostApp::Sink));
    let spec = LinkSpec::ten_gig(SimDuration::from_micros(1));
    net.connect((NodeRef::Host(h0), 0), (NodeRef::Switch(sw0), 0), spec);
    let trunk = net.connect((NodeRef::Switch(sw0), 1), (NodeRef::Switch(sw1), 0), spec);
    net.connect((NodeRef::Switch(sw1), 1), (NodeRef::Host(h1), 0), spec);
    if let Some(m) = model {
        let plan = FaultPlan::new(fault_seed).link_model(trunk, m);
        let mut sim: Sim<Network> = Sim::new();
        plan.apply(&mut net, &mut sim);
    }
    (net, h0, h1, trunk)
}

fn line_cbr(sim: &mut Sim<Network>, h0: usize, n: u64, pad: usize) {
    let src = addr(1);
    edp_netsim::traffic::start_cbr(sim, h0, SimTime::ZERO, INTERVAL, n, move |i| {
        PacketBuilder::udp(src, addr(9), 1, 2, &[])
            .ident(i as u16)
            .pad_to(pad)
            .build()
    });
}

// ---------------------------------------------------------------------
// 1+2. The fault-heavy diamond: flap + lossy backup + stalled switch
// ---------------------------------------------------------------------

fn build_fault_diamond(fault_seed: u64) -> (Network, Sim<Network>) {
    let cfg = EventSwitchConfig {
        n_ports: 3,
        ..Default::default()
    };
    let sw = EventSwitch::new(FrrEvent::new(1, 2), cfg);
    let (mut net, sender, _sink, primary, backup) = diamond(Box::new(sw));
    net.tracer.enabled = true;
    let mut sim: Sim<Network> = Sim::new();
    let plan = FaultPlan::new(fault_seed)
        .link_flap(
            primary,
            FAIL_AT,
            SimDuration::from_millis(1),
            SimDuration::from_millis(3),
            2,
        )
        .link_model(backup, LinkFaultModel::loss(0.05))
        .switch_stall(1, SimTime::from_millis(6), SimTime::from_micros(6_200));
    plan.apply(&mut net, &mut sim);
    cbr(&mut sim, sender, PKTS);
    (net, sim)
}

#[test]
fn fault_diamond_is_shard_invariant() {
    let nets = assert_invariant(
        || build_fault_diamond(11),
        |nets| {
            (
                sum_u64(nets, |n| n.hosts[1].stats.rx_pkts),
                sum_u64(nets, |n| n.hosts[1].stats.rx_bytes),
                sum_u64(nets, |n| {
                    n.switch_as::<EventSwitch<FrrEvent>>(0)
                        .program
                        .stats
                        .reroutes
                }),
                sum_u64(nets, |n| {
                    n.switch_as::<EventSwitch<FrrEvent>>(0)
                        .counters()
                        .link_transitions
                }),
                sum_u64(nets, |n| n.link_dir_state(2, Dir::AtoB).fault_drops),
                sum_u64(nets, |n| n.link_dir_state(2, Dir::AtoB).tx_frames),
            )
        },
        DEADLINE,
    );
    // Faults actually fired (same sanity bar as the classic suite).
    let rx = sum_u64(&nets, |n| n.hosts[1].stats.rx_pkts);
    assert!(
        rx > 0 && rx < PKTS,
        "flap+loss should cost packets, rx={rx}"
    );
    assert!(
        sum_u64(&nets, |n| n.link_dir_state(2, Dir::AtoB).fault_drops) > 0,
        "lossy backup dropped nothing"
    );
}

#[test]
fn fault_seed_changes_the_sharded_run_too() {
    let obs = |nets: &[Network]| {
        (
            sum_u64(nets, |n| n.hosts[1].stats.rx_pkts),
            sum_u64(nets, |n| n.link_dir_state(2, Dir::AtoB).fault_drops),
        )
    };
    let (a, _, _) = run_shards(2, DEADLINE, || build_fault_diamond(11));
    let (b, _, _) = run_shards(2, DEADLINE, || build_fault_diamond(12));
    assert_ne!(obs(&a), obs(&b), "fault seed must change sharded outcomes");
}

// ---------------------------------------------------------------------
// 3. Baseline FRR: control-plane reroute crossing shards
// ---------------------------------------------------------------------

#[test]
fn frr_baseline_reconvergence_is_shard_invariant() {
    let build = || {
        let sw = EventSwitch::baseline(FrrBaseline::new(1), 3, QueueConfig::default());
        let (mut net, sender, _sink, primary, _) = diamond(Box::new(sw));
        let mut sim: Sim<Network> = Sim::new();
        net.schedule_link_failure(&mut sim, primary, FAIL_AT, None);
        let cp_delay = SimDuration::from_micros(2000);
        sim.schedule_at(FAIL_AT, move |w: &mut Network, s: &mut Sim<Network>| {
            w.control_plane_send(s, cp_delay, 0, CP_OP_SET_ROUTE, [2, 0, 0, 0]);
        });
        cbr(&mut sim, sender, PKTS);
        (net, sim)
    };
    let nets = assert_invariant(
        build,
        |nets| {
            let rec = nets
                .iter()
                .find_map(|n| {
                    n.switch_as::<EventSwitch<BaselineAdapter<FrrBaseline>>>(0)
                        .program
                        .0
                        .stats
                        .reconvergence(FAIL_AT)
                })
                .expect("failed over");
            (rec, sum_u64(nets, |n| n.hosts[1].stats.rx_pkts))
        },
        DEADLINE,
    );
    let rec = nets
        .iter()
        .find_map(|n| {
            n.switch_as::<EventSwitch<BaselineAdapter<FrrBaseline>>>(0)
                .program
                .0
                .stats
                .reconvergence(FAIL_AT)
        })
        .expect("failed over");
    assert_eq!(rec, SimDuration::from_micros(2000));
}

// ---------------------------------------------------------------------
// 4. Event FRR: zero-reconvergence reroute
// ---------------------------------------------------------------------

#[test]
fn frr_event_zero_reconvergence_is_shard_invariant() {
    let build = || {
        let cfg = EventSwitchConfig {
            n_ports: 3,
            ..Default::default()
        };
        let sw = EventSwitch::new(FrrEvent::new(1, 2), cfg);
        let (mut net, sender, _sink, primary, _) = diamond(Box::new(sw));
        let mut sim: Sim<Network> = Sim::new();
        let plan = FaultPlan::new(9).link_down_at(primary, FAIL_AT, None);
        plan.apply(&mut net, &mut sim);
        cbr(&mut sim, sender, PKTS);
        (net, sim)
    };
    let nets = assert_invariant(
        build,
        |nets| {
            let rec = nets.iter().find_map(|n| {
                n.switch_as::<EventSwitch<FrrEvent>>(0)
                    .program
                    .stats
                    .reconvergence(FAIL_AT)
            });
            (rec, sum_u64(nets, |n| n.hosts[1].stats.rx_pkts))
        },
        DEADLINE,
    );
    let lost = PKTS - sum_u64(&nets, |n| n.hosts[1].stats.rx_pkts);
    assert!(lost <= 2, "event FRR lost {lost}");
}

// ---------------------------------------------------------------------
// 5. Liveness detection over a cross-shard probe link
// ---------------------------------------------------------------------

#[test]
fn liveness_detection_is_shard_invariant() {
    let timeout = SimDuration::from_millis(3);
    let period = SimDuration::from_millis(1);
    let kill_at = SimTime::from_millis(20);
    let build = move || {
        let mut net = Network::new(31);
        let mon_cfg = EventSwitchConfig {
            n_ports: 2,
            timers: vec![
                TimerSpec {
                    id: TIMER_PROBE,
                    period,
                    start: period,
                },
                TimerSpec {
                    id: TIMER_CHECK,
                    period,
                    start: period,
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
            timeout.as_nanos(),
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
        let probe_link = net.connect(
            (NodeRef::Switch(m), 1),
            (NodeRef::Switch(r), 0),
            LinkSpec::ten_gig(SimDuration::from_micros(5)),
        );
        let h = net.add_host(Host::new(addr(100), HostApp::Sink));
        net.connect(
            (NodeRef::Host(h), 0),
            (NodeRef::Switch(m), 0),
            LinkSpec::ten_gig(SimDuration::from_micros(1)),
        );
        let mut sim: Sim<Network> = Sim::new();
        let plan = FaultPlan::new(3).link_down_at(probe_link, kill_at, None);
        plan.apply(&mut net, &mut sim);
        (net, sim)
    };
    let nets = assert_invariant(
        build,
        |nets| {
            let dead_at = nets
                .iter()
                .find_map(|n| {
                    n.switch_as::<EventSwitch<LivenessMonitor>>(0)
                        .program
                        .declared_dead_at(0)
                })
                .expect("detected");
            (
                dead_at,
                sum_u64(nets, |n| {
                    n.switch_as::<EventSwitch<LivenessMonitor>>(0)
                        .counters()
                        .link_transitions
                }),
                sum_u64(nets, |n| {
                    n.switch_as::<EventSwitch<LivenessMonitor>>(0)
                        .counters()
                        .dropped_link_down
                }),
            )
        },
        SimTime::from_millis(40),
    );
    let dead_at = nets
        .iter()
        .find_map(|n| {
            n.switch_as::<EventSwitch<LivenessMonitor>>(0)
                .program
                .declared_dead_at(0)
        })
        .expect("detected");
    assert!(
        dead_at >= kill_at + timeout - period,
        "declared at {dead_at}"
    );
}

// ---------------------------------------------------------------------
// 6–9. Impairment models on a trunk that crosses shards
// ---------------------------------------------------------------------

#[test]
fn loss_model_is_shard_invariant() {
    let build = || {
        let (net, h0, _h1, _trunk) = two_switch_line(Some(LinkFaultModel::loss(0.3)), 5);
        let mut sim: Sim<Network> = Sim::new();
        line_cbr(&mut sim, h0, PKTS, 125);
        (net, sim)
    };
    let nets = assert_invariant(
        build,
        |nets| {
            (
                sum_u64(nets, |n| n.hosts[1].stats.rx_pkts),
                sum_u64(nets, |n| n.link_dir_state(1, Dir::AtoB).fault_drops),
            )
        },
        DEADLINE,
    );
    let rx = sum_u64(&nets, |n| n.hosts[1].stats.rx_pkts);
    let drops = sum_u64(&nets, |n| n.link_dir_state(1, Dir::AtoB).fault_drops);
    assert_eq!(rx + drops, PKTS, "every frame delivered or counted");
    assert!((200..=400).contains(&drops), "p=0.3 dropped {drops}");
}

#[test]
fn corrupt_model_is_shard_invariant() {
    let n = 200u64;
    let build = move || {
        let model = LinkFaultModel {
            corrupt_prob: 1.0,
            ..Default::default()
        };
        let (net, h0, _h1, _trunk) = two_switch_line(Some(model), 5);
        let mut sim: Sim<Network> = Sim::new();
        line_cbr(&mut sim, h0, n, 100);
        (net, sim)
    };
    let nets = assert_invariant(
        build,
        |nets| {
            (
                sum_u64(nets, |n| n.hosts[1].stats.rx_pkts),
                sum_u64(nets, |n| n.link_dir_state(1, Dir::AtoB).corrupted),
                sum_u64(nets, |n| {
                    n.switch_as::<EventSwitch<BaselineAdapter<ForwardTo>>>(1)
                        .counters()
                        .parse_errors
                }),
            )
        },
        DEADLINE,
    );
    let corrupted = sum_u64(&nets, |n| n.link_dir_state(1, Dir::AtoB).corrupted);
    assert_eq!(corrupted, n, "p=1 corrupts every trunk frame");
    let rx = sum_u64(&nets, |n| n.hosts[1].stats.rx_pkts);
    let parse_errors = sum_u64(&nets, |n| {
        n.switch_as::<EventSwitch<BaselineAdapter<ForwardTo>>>(1)
            .counters()
            .parse_errors
    });
    assert_eq!(
        rx + parse_errors,
        n,
        "every corrupt frame dropped or forwarded"
    );
}

#[test]
fn duplicate_model_is_shard_invariant() {
    let n = 50u64;
    let build = move || {
        let model = LinkFaultModel {
            duplicate_prob: 1.0,
            ..Default::default()
        };
        let (net, h0, _h1, _trunk) = two_switch_line(Some(model), 5);
        let mut sim: Sim<Network> = Sim::new();
        line_cbr(&mut sim, h0, n, 125);
        (net, sim)
    };
    let nets = assert_invariant(
        build,
        |nets| {
            (
                sum_u64(nets, |n| n.hosts[1].stats.rx_pkts),
                sum_u64(nets, |n| n.link_dir_state(1, Dir::AtoB).duplicated),
                latency_samples_per_flow(nets),
            )
        },
        DEADLINE,
    );
    assert_eq!(
        sum_u64(&nets, |n| n.hosts[1].stats.rx_pkts),
        2 * n,
        "original + copy each"
    );
    // The copy carries its original's send stamp across the cut, so both
    // record a latency sample whichever shard delivers them.
    assert_eq!(
        latency_samples_per_flow(&nets)
            .iter()
            .map(|(_, c)| c)
            .sum::<u64>(),
        2 * n
    );
}

/// Host 1's latency sample count per flow, over whichever worlds own it.
fn latency_samples_per_flow(nets: &[Network]) -> Vec<(edp_packet::FlowKey, u64)> {
    let mut counts: Vec<_> = nets
        .iter()
        .flat_map(|n| &n.hosts[1].stats.flows)
        .map(|(k, fs)| (*k, fs.latency_ns.count()))
        .collect();
    counts.sort();
    counts
}

#[test]
fn reorder_model_is_shard_invariant() {
    let build = || {
        let model = LinkFaultModel {
            reorder_prob: 1.0,
            reorder_delay: SimDuration::from_micros(50),
            ..Default::default()
        };
        let (net, h0, _h1, _trunk) = two_switch_line(Some(model), 5);
        let mut sim: Sim<Network> = Sim::new();
        let f = PacketBuilder::udp(addr(1), addr(9), 1, 2, &[])
            .pad_to(125)
            .build();
        sim.schedule_at(
            SimTime::ZERO,
            move |w: &mut Network, s: &mut Sim<Network>| {
                w.host_send(s, h0, f.clone());
            },
        );
        (net, sim)
    };
    let nets = assert_invariant(
        build,
        |nets| {
            let mean = nets
                .iter()
                .flat_map(|n| n.hosts[1].stats.flows.values())
                .map(|fs| fs.latency_ns.mean() as u64)
                .max()
                .unwrap_or(0);
            (
                sum_u64(nets, |n| n.link_dir_state(1, Dir::AtoB).reordered),
                sum_u64(nets, |n| n.hosts[1].stats.rx_pkts),
                mean,
            )
        },
        SimTime::from_millis(1),
    );
    assert_eq!(
        sum_u64(&nets, |n| n.link_dir_state(1, Dir::AtoB).reordered),
        1
    );
    // End-to-end latency survives the shard crossing: 3 hops of
    // 1.1 us (ser 0.1 + prop 1) plus the 50 us hold-back on the trunk.
    let mean = nets
        .iter()
        .flat_map(|n| n.hosts[1].stats.flows.values())
        .map(|fs| fs.latency_ns.mean())
        .fold(0.0f64, f64::max);
    assert_eq!(mean, 53_300.0);
}

// ---------------------------------------------------------------------
// 10. Switch stalls and tracer annotations across the boundary
// ---------------------------------------------------------------------

#[test]
fn stalled_switch_is_shard_invariant() {
    let build = || {
        let (mut net, h0, _h1, _trunk) = two_switch_line(None, 0);
        let mut sim: Sim<Network> = Sim::new();
        // Stall the *downstream* switch: frames arrive over the trunk
        // while it is stalled, so the hold-and-release logic runs on the
        // far side of the shard boundary.
        let plan =
            FaultPlan::new(1).switch_stall(1, SimTime::from_micros(10), SimTime::from_micros(100));
        plan.apply(&mut net, &mut sim);
        for t in [0u64, 20] {
            let f = PacketBuilder::udp(addr(1), addr(9), 1, 2, &[])
                .pad_to(125)
                .build();
            sim.schedule_at(
                SimTime::from_micros(t),
                move |w: &mut Network, s: &mut Sim<Network>| w.host_send(s, h0, f.clone()),
            );
        }
        (net, sim)
    };
    let nets = assert_invariant(
        build,
        |nets| {
            let (mut lo, mut hi) = (0u64, 0u64);
            for n in nets {
                for fs in n.hosts[1].stats.flows.values() {
                    lo = fs.latency_ns.min() as u64;
                    hi = fs.latency_ns.max() as u64;
                }
            }
            (sum_u64(nets, |n| n.hosts[1].stats.rx_pkts), lo, hi)
        },
        SimTime::from_millis(1),
    );
    assert_eq!(
        sum_u64(&nets, |n| n.hosts[1].stats.rx_pkts),
        2,
        "stall delays, never drops"
    );
}

#[test]
fn tracer_merge_annotates_link_down_up_in_order() {
    let build = || {
        let (mut net, h0, _h1, trunk) = two_switch_line(None, 0);
        net.tracer.enabled = true;
        let mut sim: Sim<Network> = Sim::new();
        let plan = FaultPlan::new(1).link_down_at(
            trunk,
            SimTime::from_micros(10),
            Some(SimTime::from_micros(50)),
        );
        plan.apply(&mut net, &mut sim);
        for t in [0u64, 20, 60] {
            let f = PacketBuilder::udp(addr(1), addr(9), 1, 2, &[])
                .pad_to(125)
                .build();
            sim.schedule_at(
                SimTime::from_micros(t),
                move |w: &mut Network, s: &mut Sim<Network>| w.host_send(s, h0, f.clone()),
            );
        }
        (net, sim)
    };
    let nets = assert_invariant(
        build,
        |nets| sum_u64(nets, |n| n.hosts[1].stats.rx_pkts),
        SimTime::from_millis(1),
    );
    assert_eq!(sum_u64(&nets, |n| n.hosts[1].stats.rx_pkts), 2);
    let (_, trace, _) = run_shards(4, SimTime::from_millis(1), build);
    let down = trace.find("link1 down").expect("down note");
    let up = trace.find("link1 up").expect("up note");
    assert!(down < up, "down precedes up:\n{trace}");
    // The dead trunk carried nothing: sw0 still receives from its live
    // host link, but nothing reaches sw1 (or h1 behind it) while down.
    let between = &trace[down..up];
    assert!(
        !between.contains("sw1:p0 rx") && !between.contains("host1 rx"),
        "delivery across the dead trunk:\n{trace}"
    );
}

// ---------------------------------------------------------------------
// 11. The same-instant rule: a free wire transmits in the cascade that
//     created the backlog (DESIGN.md §12)
// ---------------------------------------------------------------------

/// Forwards everything to port 2 and logs, per enqueue, the ingress port
/// of the frame and the queue depth the handler observed.
#[derive(Default)]
struct DepthLog {
    seen: Vec<(u64, u32)>,
}

impl edp_core::EventProgram for DepthLog {
    fn on_ingress(
        &mut self,
        _pkt: &mut edp_packet::Packet,
        _parsed: &edp_packet::ParsedPacket,
        meta: &mut edp_pisa::StdMeta,
        _now: SimTime,
        _actions: &mut edp_core::EventActions,
    ) {
        meta.event_meta[0] = u64::from(meta.ingress_port);
        meta.dest = edp_pisa::Destination::Port(2);
    }

    fn on_enqueue(
        &mut self,
        ev: &edp_core::event::EnqueueEvent,
        _now: SimTime,
        _actions: &mut edp_core::EventActions,
    ) {
        self.seen.push((ev.meta[0], ev.q_pkts));
    }
}

/// Two frames delivered to swC at the same nanosecond toward the same
/// idle egress port: the switch takes them in wire-key order (the lower
/// link first), and the first is on the egress wire before the second is
/// received — so both enqueue handlers observe a depth of 1 (receiving
/// both before transmitting either would show 1, 2).
#[test]
fn same_instant_deliveries_each_reach_the_wire_before_the_next_is_received() {
    let build = || {
        let mut net = Network::new(5);
        let edge = LinkSpec::ten_gig(SimDuration::from_micros(1));
        let trunk = LinkSpec::ten_gig(SimDuration::from_micros(2));
        let fwd = || {
            Box::new(EventSwitch::baseline(
                ForwardTo(1),
                2,
                QueueConfig::default(),
            ))
        };
        let (a, b) = (net.add_switch(fwd()), net.add_switch(fwd()));
        let cfg = EventSwitchConfig {
            n_ports: 3,
            timers: vec![TimerSpec {
                id: 0,
                period: SimDuration::from_micros(1),
                start: SimDuration::from_micros(1),
            }],
            ..Default::default()
        };
        let c = net.add_switch(Box::new(EventSwitch::new(DepthLog::default(), cfg)));
        let senders = [(a, addr(1)), (b, addr(2))].map(|(sw, ip)| {
            let h = net.add_host(Host::new(ip, HostApp::Sink));
            net.connect((NodeRef::Host(h), 0), (NodeRef::Switch(sw), 0), edge);
            (h, ip)
        });
        let sink = net.add_host(Host::new(addr(9), HostApp::Sink));
        // swA's trunk is the lower link id, hence the lower wire key.
        net.connect((NodeRef::Switch(a), 1), (NodeRef::Switch(c), 0), trunk);
        net.connect((NodeRef::Switch(b), 1), (NodeRef::Switch(c), 1), trunk);
        let slow = LinkSpec {
            bandwidth_bps: 1_000_000_000,
            ..edge
        };
        net.connect((NodeRef::Switch(c), 2), (NodeRef::Host(sink), 0), slow);
        net.tracer.enabled = true;
        let mut sim: Sim<Network> = Sim::new();
        for (h, ip) in senders {
            let f = PacketBuilder::udp(ip, addr(9), 1, 2, &[])
                .pad_to(1000)
                .build();
            sim.schedule_at(
                SimTime::ZERO,
                move |w: &mut Network, s: &mut Sim<Network>| w.host_send(s, h, f.clone()),
            );
        }
        (net, sim)
    };
    // (ingress port, observed depth) per enqueue at swC, and each sender's
    // one-way latency to the sink in sender order.
    let observe = |nets: &[Network]| {
        let seen: Vec<(u64, u32)> = nets
            .iter()
            .flat_map(|n| n.switch_as::<EventSwitch<DepthLog>>(2).program.seen.clone())
            .collect();
        let mut landed: Vec<(std::net::Ipv4Addr, u64)> = nets
            .iter()
            .flat_map(|n| n.hosts[2].stats.flows.iter())
            .map(|(k, fs)| (k.src, fs.latency_ns.mean() as u64))
            .collect();
        landed.sort();
        (seen, landed)
    };
    let nets = assert_invariant(build, observe, SimTime::from_millis(1));
    // 1000 B is 800 ns on a 10 Gb/s wire: both frames reach swC at
    // 2 × 800 + 1000 + 2000 = 4600 ns. swA's leaves at once and lands
    // 8000 + 1000 ns later; swB's leaves when the wire frees at 12600.
    let (seen, landed) = observe(&nets);
    assert_eq!(seen, [(0, 1), (1, 1)]);
    assert_eq!(landed, [(addr(1), 13_600), (addr(2), 21_600)]);
}

// ---------------------------------------------------------------------
// PR 9: the wall-clock profiler is outside the determinism boundary
// ---------------------------------------------------------------------

/// Like [`run_shards`], but with a profiling session on every shard
/// worker (shared epoch, enabled in the build closure on the shard's
/// own thread). Returns the canonical outputs plus each shard's
/// profile, in shard order.
fn run_shards_profiled<B>(
    shards: usize,
    deadline: SimTime,
    build: B,
) -> (String, String, Vec<edp_telemetry::prof::Profile>)
where
    B: Fn() -> (Network, Sim<Network>) + Sync,
{
    use edp_telemetry::prof;
    let epoch = std::time::Instant::now();
    let (pairs, _stats) = run_sharded_opts(
        shards,
        1,
        HorizonMode::Classic,
        deadline,
        |s| {
            prof::enable(epoch, s, shards);
            build()
        },
        |_s, net, _sim| (net, prof::disable().expect("profiling enabled in build")),
    );
    let (nets, profiles): (Vec<Network>, Vec<prof::Profile>) = pairs.into_iter().unzip();
    let tracers: Vec<&Tracer> = nets.iter().map(|n| &n.tracer).collect();
    let trace = merge_tracers(&tracers);
    let mut reg = Registry::new();
    for net in &nets {
        let mut part = Registry::new();
        net.publish_metrics(&mut part);
        reg.merge(&part);
    }
    (trace, edp_telemetry::to_json(&reg), profiles)
}

/// Profiling a sharded run must not move a byte of the canonical merged
/// trace or metrics JSON — and the profiles themselves must satisfy the
/// acceptance bar: >= 95% of each worker's wall-clock attributed to
/// named phases (the lap model actually guarantees 100%).
#[test]
fn profiling_is_outside_the_determinism_boundary() {
    use edp_telemetry::prof;
    let build = || {
        let (mut net, h0, _h1, _trunk) = two_switch_line(None, 0);
        net.tracer.enabled = true;
        let mut sim: Sim<Network> = Sim::new();
        line_cbr(&mut sim, h0, 200, 300);
        (net, sim)
    };
    let deadline = SimTime::from_millis(5);
    let (_, base_trace, base_json) = run_shards(2, deadline, build);
    let (trace, json, profiles) = run_shards_profiled(2, deadline, build);
    assert_eq!(base_trace, trace, "profiling changed the merged trace");
    assert_eq!(base_json, json, "profiling changed the metrics JSON");
    assert_eq!(profiles.len(), 2, "one profile per shard");
    for (shard, p) in profiles.iter().enumerate() {
        assert_eq!(p.shard, shard, "profiles arrive in shard order");
        // The acceptance bar, stated as the pin: >= 95% of
        // the worker's wall-clock span attributed to named phases.
        assert!(
            p.attributed_ns() * 100 >= p.total_ns * 95,
            "shard {shard}: only {}/{} ns attributed",
            p.attributed_ns(),
            p.total_ns
        );
        assert!(
            p.phase_ns[prof::Phase::Negotiate.index()] > 0,
            "shard {shard}: a windowed run must have negotiated"
        );
    }
}
