//! Fault injection end-to-end: seeded fault plans are deterministic
//! across thread counts, FRR reroutes around injected failures with
//! measurable reconvergence, liveness detects a dead link, and the
//! packet impairment models (loss / corrupt / duplicate / reorder) and
//! switch stalls behave as specified.

use edp_apps::common::{addr, run_until};
use edp_apps::frr::{FrrBaseline, FrrEvent, CP_OP_SET_ROUTE};
use edp_apps::liveness::{LivenessMonitor, LivenessReflector, Neighbor, TIMER_CHECK, TIMER_PROBE};
use edp_core::{BaselineAdapter, EventSwitch, EventSwitchConfig, TimerSpec};
use edp_evsim::{sweep, Sim, SimDuration, SimTime, Welford};
use edp_netsim::traffic::start_cbr;
use edp_netsim::{
    Dir, FaultPlan, Host, HostApp, LinkFaultModel, LinkSpec, Network, NodeRef, SwitchHarness,
};
use edp_packet::PacketBuilder;
use edp_pisa::{ForwardTo, QueueConfig};
use edp_telemetry::LogHistogram;

const FAIL_AT: SimTime = SimTime::from_millis(5);
const PKTS: u64 = 1000;
const INTERVAL: SimDuration = SimDuration::from_micros(10);

/// h0 — swA —(primary L1)— swR — sink, with a backup L2 between the
/// switches. Returns (net, sender, sink, primary link, backup link).
fn diamond(sw_a: Box<dyn SwitchHarness>) -> (Network, usize, usize, usize, usize) {
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

fn cbr(sim: &mut Sim<Network>, sender: usize) {
    let src = addr(1);
    start_cbr(sim, sender, SimTime::ZERO, INTERVAL, PKTS, move |i| {
        PacketBuilder::udp(src, addr(9), 1, 2, &[])
            .ident(i as u16)
            .pad_to(500)
            .build()
    });
}

/// h0 — sw — h1 line with an optional impairment model on the h0→sw
/// link. Returns (net, h0, h1, link id of the first hop).
fn line(model: Option<LinkFaultModel>, fault_seed: u64) -> (Network, usize, usize, usize) {
    let mut net = Network::new(7);
    let sw = net.add_switch(Box::new(EventSwitch::baseline(
        ForwardTo(1),
        2,
        QueueConfig::default(),
    )));
    let h0 = net.add_host(Host::new(addr(1), HostApp::Sink));
    let h1 = net.add_host(Host::new(addr(2), HostApp::Sink));
    let spec = LinkSpec::ten_gig(SimDuration::from_micros(1));
    let l0 = net.connect((NodeRef::Host(h0), 0), (NodeRef::Switch(sw), 0), spec);
    net.connect((NodeRef::Switch(sw), 1), (NodeRef::Host(h1), 0), spec);
    if let Some(m) = model {
        // FaultPlan::apply is exercised in the scenario tests; here we go
        // through the same plan machinery for a single-link model.
        let plan = FaultPlan::new(fault_seed).link_model(l0, m);
        let mut sim: Sim<Network> = Sim::new();
        plan.apply(&mut net, &mut sim);
    }
    (net, h0, h1, l0)
}

// ---------------------------------------------------------------------
// Determinism across thread counts
// ---------------------------------------------------------------------

/// A fault-heavy scenario: FRR under a flapping primary, a lossy backup,
/// and a stalled downstream switch. Returns every observable that could
/// plausibly diverge.
fn fault_scenario(fault_seed: u64) -> (u64, u64, u64, u64, u64, u64, u64) {
    let cfg = EventSwitchConfig {
        n_ports: 3,
        ..Default::default()
    };
    let sw = EventSwitch::new(FrrEvent::new(1, 2), cfg);
    let (mut net, sender, sink, primary, backup) = diamond(Box::new(sw));
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
    cbr(&mut sim, sender);
    run_until(&mut net, &mut sim, SimTime::from_millis(30));
    let swa = net.switch_as::<EventSwitch<FrrEvent>>(0);
    let bdir = net.link_dir_state(backup, Dir::AtoB);
    (
        net.hosts[sink].stats.rx_pkts,
        net.hosts[sink].stats.rx_bytes,
        sim.events_fired(),
        swa.program.stats.reroutes,
        swa.counters().link_transitions,
        bdir.fault_drops,
        bdir.tx_frames,
    )
}

#[test]
fn seeded_fault_runs_are_identical_across_thread_counts() {
    // The env var EDP_SWEEP_THREADS is process-wide, so exercise the
    // sweep machinery directly at several widths within one process.
    let seeds: Vec<u64> = vec![11, 22, 33, 44];
    let reference = sweep(seeds.clone(), 1, fault_scenario);
    for threads in [2, 8] {
        let got = sweep(seeds.clone(), threads, fault_scenario);
        assert_eq!(got, reference, "diverged at {threads} threads");
    }
    // Sanity: faults actually fired in the scenario.
    let (rx, _, _, reroutes, transitions, drops, carried) = reference[0];
    assert!(
        rx > 0 && rx < PKTS,
        "flap+loss should cost packets, rx={rx}"
    );
    assert!(reroutes >= 3, "two flaps = at least 3 route changes");
    assert_eq!(transitions, 4, "2 downs + 2 ups");
    assert!(drops > 0, "lossy backup dropped nothing");
    assert!(carried > 0, "backup carried nothing");
}

#[test]
fn fault_seed_changes_the_run_workload_seed_untouched() {
    let a = fault_scenario(11);
    let b = fault_scenario(12);
    assert_ne!(a, b, "different fault seeds must change loss outcomes");
}

// ---------------------------------------------------------------------
// FRR reconvergence, measured via stats.rs
// ---------------------------------------------------------------------

#[test]
fn frr_reconvergence_tracks_the_control_loop() {
    // Baseline FRR: reconvergence equals the control-plane delay.
    let delays_us: [u64; 4] = [500, 1000, 2000, 4000];
    let mut rec = Welford::new();
    let mut hist = LogHistogram::new();
    for &d in &delays_us {
        let sw = EventSwitch::baseline(FrrBaseline::new(1), 3, QueueConfig::default());
        let (mut net, sender, sink, primary, _) = diamond(Box::new(sw));
        let mut sim: Sim<Network> = Sim::new();
        net.schedule_link_failure(&mut sim, primary, FAIL_AT, None);
        let cp_delay = SimDuration::from_micros(d);
        sim.schedule_at(FAIL_AT, move |w: &mut Network, s: &mut Sim<Network>| {
            w.control_plane_send(s, cp_delay, 0, CP_OP_SET_ROUTE, [2, 0, 0, 0]);
        });
        cbr(&mut sim, sender);
        run_until(&mut net, &mut sim, SimTime::from_millis(30));
        let sw_a = net.switch_as::<EventSwitch<BaselineAdapter<FrrBaseline>>>(0);
        // The program stays blind and routes into the dead port until the
        // controller acts; the switch's egress gate, not the wire, drops
        // those frames.
        assert!(sw_a.counters().dropped_link_down > 0, "cp_delay {d}us");
        assert_eq!(net.link_drops(primary).1, 0, "nothing dies on the wire");
        let r = sw_a
            .program
            .0
            .stats
            .failover_at
            .map(|t| t.saturating_since(FAIL_AT))
            .expect("failed over");
        assert_eq!(r, cp_delay, "baseline reconvergence is the cp delay");
        rec.add(r.as_nanos() as f64);
        hist.record(r.as_nanos());
        // The blackhole cost scales with the delay (one packet / 10 us).
        let lost = PKTS - net.hosts[sink].stats.rx_pkts;
        let expect = d / 10;
        assert!(
            lost >= expect / 2 && lost <= expect * 2 + 10,
            "cp_delay {d}us lost {lost}, expected ≈{expect}"
        );
    }
    let want_mean = delays_us.iter().map(|&d| d as f64 * 1000.0).sum::<f64>() / 4.0;
    assert!((rec.mean() - want_mean).abs() < 1.0, "mean {}", rec.mean());
    assert_eq!(hist.max(), 4_000_000, "worst case is the 4 ms loop");
    assert!(hist.p50() <= 2_000_000, "p50 {}", hist.p50());

    // Event-driven FRR: reconvergence is zero by construction.
    let cfg = EventSwitchConfig {
        n_ports: 3,
        ..Default::default()
    };
    let sw = EventSwitch::new(FrrEvent::new(1, 2), cfg);
    let (mut net, sender, sink, primary, _) = diamond(Box::new(sw));
    let mut sim: Sim<Network> = Sim::new();
    let plan = FaultPlan::new(9).link_down_at(primary, FAIL_AT, None);
    plan.apply(&mut net, &mut sim);
    cbr(&mut sim, sender);
    run_until(&mut net, &mut sim, SimTime::from_millis(30));
    let prog = &net.switch_as::<EventSwitch<FrrEvent>>(0).program;
    assert_eq!(
        prog.stats.failover_at.map(|t| t.saturating_since(FAIL_AT)),
        Some(SimDuration::ZERO)
    );
    let lost = PKTS - net.hosts[sink].stats.rx_pkts;
    assert!(lost <= 2, "event FRR lost {lost}");
}

// ---------------------------------------------------------------------
// Liveness under an injected hard failure
// ---------------------------------------------------------------------

#[test]
fn liveness_declares_dead_after_injected_link_failure() {
    let timeout = SimDuration::from_millis(3);
    let period = SimDuration::from_millis(1);
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
    let kill_at = SimTime::from_millis(20);
    let mut sim: Sim<Network> = Sim::new();
    let plan = FaultPlan::new(3).link_down_at(probe_link, kill_at, None);
    plan.apply(&mut net, &mut sim);
    run_until(&mut net, &mut sim, SimTime::from_millis(40));
    let msw = net.switch_as::<EventSwitch<LivenessMonitor>>(0);
    let dead_at = msw.program.declared_dead_at(0).expect("detected");
    // Timer-driven expiry: the last reply landed shortly before the
    // failure, so detection fires on the first sweep after
    // last_heard + timeout — within one period either side of
    // kill + timeout.
    assert!(
        dead_at >= kill_at + timeout - period,
        "declared at {dead_at}"
    );
    assert!(
        dead_at <= kill_at + timeout + period * 2,
        "declared late at {dead_at}"
    );
    // The link-status event reached the monitor's harness, and probes
    // kept flowing into the dead port (dropped at egress).
    assert_eq!(msw.counters().link_transitions, 1);
    assert!(msw.counters().dropped_link_down > 0);
}

// ---------------------------------------------------------------------
// Impairment models on the wire
// ---------------------------------------------------------------------

#[test]
fn loss_model_drops_a_predictable_fraction() {
    let (mut net, h0, h1, l0) = line(Some(LinkFaultModel::loss(0.3)), 5);
    let mut sim: Sim<Network> = Sim::new();
    let src = addr(1);
    start_cbr(&mut sim, h0, SimTime::ZERO, INTERVAL, PKTS, move |i| {
        PacketBuilder::udp(src, addr(2), 1, 2, &[])
            .ident(i as u16)
            .pad_to(125)
            .build()
    });
    run_until(&mut net, &mut sim, SimTime::from_millis(30));
    let d = net.link_dir_state(l0, Dir::AtoB);
    let rx = net.hosts[h1].stats.rx_pkts;
    assert_eq!(rx + d.fault_drops, PKTS, "every frame delivered or counted");
    assert!(
        (200..=400).contains(&d.fault_drops),
        "p=0.3 dropped {}",
        d.fault_drops
    );
}

#[test]
fn corrupt_model_flips_bytes_and_checksums_catch_most() {
    let model = LinkFaultModel {
        corrupt_prob: 1.0,
        ..Default::default()
    };
    let (mut net, h0, h1, l0) = line(Some(model), 5);
    let mut sim: Sim<Network> = Sim::new();
    let n = 200u64;
    let src = addr(1);
    start_cbr(&mut sim, h0, SimTime::ZERO, INTERVAL, n, move |i| {
        PacketBuilder::udp(src, addr(2), 1, 2, &[])
            .ident(i as u16)
            .pad_to(100)
            .build()
    });
    run_until(&mut net, &mut sim, SimTime::from_millis(30));
    let d = net.link_dir_state(l0, Dir::AtoB);
    assert_eq!(d.corrupted, n, "p=1 corrupts every frame");
    // Flips inside the IP/UDP region fail checksum verification and the
    // switch drops them as parse errors; only flips in the unprotected
    // Ethernet fields slip through to the sink.
    let sw = net.switch_as::<EventSwitch<BaselineAdapter<ForwardTo>>>(0);
    let parse_errors = sw.counters().parse_errors;
    let rx = net.hosts[h1].stats.rx_pkts;
    assert_eq!(
        rx + parse_errors,
        n,
        "every corrupt frame dropped or forwarded"
    );
    assert!(
        parse_errors > n / 2,
        "checksums caught only {parse_errors}/{n}"
    );
    assert!(rx > 0, "no flip landed in the unprotected Ethernet bytes");
}

/// h0 — sw0 — sw1 — sw2 — h1 with the sw0→sw1 trunk corrupting and
/// duplicating frames in flight. Returns sw1's (rx, parse_errors, tx) and
/// h1's (rx_pkts, rx_errors), after checking sw0 parsed every frame
/// cleanly.
fn corrupting_trunk_run() -> ((u64, u64, u64), (u64, u64)) {
    const N: u64 = 400;
    let mut net = Network::new(7);
    for _ in 0..3 {
        let sw = EventSwitch::baseline(ForwardTo(1), 2, QueueConfig::default());
        net.add_switch(Box::new(sw));
    }
    let h0 = net.add_host(Host::new(addr(1), HostApp::Sink));
    let h1 = net.add_host(Host::new(addr(2), HostApp::Sink));
    let spec = LinkSpec::ten_gig(SimDuration::from_micros(1));
    net.connect((NodeRef::Host(h0), 0), (NodeRef::Switch(0), 0), spec);
    let trunk = net.connect((NodeRef::Switch(0), 1), (NodeRef::Switch(1), 0), spec);
    net.connect((NodeRef::Switch(1), 1), (NodeRef::Switch(2), 0), spec);
    net.connect((NodeRef::Switch(2), 1), (NodeRef::Host(h1), 0), spec);
    let model = LinkFaultModel {
        corrupt_prob: 0.5,
        duplicate_prob: 0.25,
        ..Default::default()
    };
    let mut sim: Sim<Network> = Sim::new();
    FaultPlan::new(11)
        .link_model(trunk, model)
        .apply(&mut net, &mut sim);
    let src = addr(1);
    start_cbr(&mut sim, h0, SimTime::ZERO, INTERVAL, N, move |i| {
        PacketBuilder::udp(src, addr(2), 1, 2, &[])
            .ident(i as u16)
            .pad_to(100)
            .build()
    });
    run_until(&mut net, &mut sim, SimTime::from_millis(30));

    // Every frame left sw0 carrying the good parse sw0 made of it.
    let counters = |i| {
        net.switch_as::<EventSwitch<BaselineAdapter<ForwardTo>>>(i)
            .counters()
    };
    let up = counters(0);
    assert_eq!((up.rx, up.parse_errors, up.tx), (N, 0, N));
    let d = net.link_dir_state(trunk, Dir::AtoB);
    assert_eq!((d.corrupted, d.duplicated), (CORRUPTED, DUPLICATED));
    let mid = counters(1);
    let sink = &net.hosts[h1].stats;
    (
        (mid.rx, mid.parse_errors, mid.tx),
        (sink.rx_pkts, sink.rx_errors),
    )
}

/// What the trunk's fault stream (seed 11) does to the 400 frames.
const CORRUPTED: u64 = 184;
const DUPLICATED: u64 = 103;
/// How many of the 184 flips landed under a checksum.
const CAUGHT: u64 = 157;

/// The parse rides the shared frame from hop to hop, so the one way it
/// can be wrong is a stale one: a frame sw0 parsed cleanly, corrupted in
/// flight on the trunk, must still fail sw1's parse — duplicates (which
/// share the original's frame until the flip copies it) included. The
/// counts are those of the commit before the parse was memoised, when
/// every hop parsed afresh.
#[test]
fn in_flight_corruption_is_caught_downstream_of_a_memoised_parse() {
    let ((rx, parse_errors, tx), sink) = corrupting_trunk_run();
    assert_eq!(rx, 400 + DUPLICATED);
    assert_eq!(parse_errors, CAUGHT);
    assert_eq!(tx, rx - parse_errors);
    // Flips in the unprotected Ethernet bytes pass sw1 and, memoised
    // there, sw2 and the sink: nothing downstream sees an error.
    assert_eq!(sink, (tx, 0));
}

/// `n` CBR frames over the line with every frame duplicated on the
/// first hop. Returns (net, h1, first-hop link id).
fn duplicated_line_run(n: u64) -> (Network, usize, usize) {
    let model = LinkFaultModel {
        duplicate_prob: 1.0,
        ..Default::default()
    };
    let (mut net, h0, h1, l0) = line(Some(model), 5);
    let mut sim: Sim<Network> = Sim::new();
    let src = addr(1);
    start_cbr(&mut sim, h0, SimTime::ZERO, INTERVAL, n, move |i| {
        PacketBuilder::udp(src, addr(2), 1, 2, &[])
            .ident(i as u16)
            .pad_to(125)
            .build()
    });
    run_until(&mut net, &mut sim, SimTime::from_millis(30));
    (net, h1, l0)
}

#[test]
fn duplicate_model_delivers_every_frame_twice() {
    let n = 50u64;
    let (net, h1, l0) = duplicated_line_run(n);
    let d = net.link_dir_state(l0, Dir::AtoB);
    assert_eq!(d.duplicated, n);
    assert_eq!(net.hosts[h1].stats.rx_pkts, 2 * n, "original + copy each");
}

/// The send stamp rides in the packet, so a fault-model duplicate carries
/// its original's: every delivered copy records a latency sample (with a
/// uid-keyed side table the first copy to arrive consumed the entry and
/// the other recorded none).
#[test]
fn duplicate_copies_each_record_a_latency_sample() {
    let n = 50u64;
    let (net, h1, _) = duplicated_line_run(n);
    let stats = &net.hosts[h1].stats;
    let samples: u64 = stats.flows.values().map(|f| f.latency_ns.count()).sum();
    assert_eq!(stats.rx_pkts, 2 * n);
    assert_eq!(samples, stats.rx_pkts);
}

#[test]
fn reorder_model_adds_exactly_the_configured_delay() {
    let model = LinkFaultModel {
        reorder_prob: 1.0,
        reorder_delay: SimDuration::from_micros(50),
        ..Default::default()
    };
    let (mut net, h0, h1, l0) = line(Some(model), 5);
    let mut sim: Sim<Network> = Sim::new();
    let f = PacketBuilder::udp(addr(1), addr(2), 1, 2, &[])
        .pad_to(125)
        .build();
    sim.schedule_at(
        SimTime::ZERO,
        move |w: &mut Network, s: &mut Sim<Network>| {
            w.host_send(s, h0, f.clone());
        },
    );
    run_until(&mut net, &mut sim, SimTime::from_millis(1));
    assert_eq!(net.link_dir_state(l0, Dir::AtoB).reordered, 1);
    let fs = net.hosts[h1].stats.flows.values().next().expect("flow");
    // Base path latency 2.2 us (2 × ser 0.1 + prop 1) + 50 us hold-back.
    assert_eq!(fs.latency_ns.mean(), 52_200.0);
}

// ---------------------------------------------------------------------
// Switch stalls
// ---------------------------------------------------------------------

#[test]
fn stalled_switch_holds_frames_until_the_window_ends() {
    let (mut net, h0, h1, _) = line(None, 0);
    let mut sim: Sim<Network> = Sim::new();
    let stall_from = SimTime::from_micros(10);
    let stall_until = SimTime::from_micros(100);
    let plan = FaultPlan::new(1).switch_stall(0, stall_from, stall_until);
    plan.apply(&mut net, &mut sim);
    // One packet well before the stall, one into it.
    for t in [0u64, 20] {
        let f = PacketBuilder::udp(addr(1), addr(2), 1, 2, &[])
            .pad_to(125)
            .build();
        sim.schedule_at(
            SimTime::from_micros(t),
            move |w: &mut Network, s: &mut Sim<Network>| w.host_send(s, h0, f.clone()),
        );
    }
    run_until(&mut net, &mut sim, SimTime::from_millis(1));
    assert_eq!(net.hosts[h1].stats.rx_pkts, 2, "stall delays, never drops");
    let fs = net.hosts[h1].stats.flows.values().next().expect("flow");
    // First packet: 2.2 us. Second: sent at 20 us, held at the switch
    // until 100 us, then one more hop (1.1 us) => 81.1 us latency.
    assert_eq!(fs.latency_ns.min(), 2_200.0);
    assert_eq!(fs.latency_ns.max(), 81_100.0);
}

// ---------------------------------------------------------------------
// Tracer under a link down/up sequence
// ---------------------------------------------------------------------

#[test]
fn tracer_annotates_link_down_up_around_deliveries() {
    let (mut net, h0, h1, l0) = line(None, 0);
    net.tracer.enabled = true;
    let mut sim: Sim<Network> = Sim::new();
    let plan = FaultPlan::new(1).link_down_at(
        l0,
        SimTime::from_micros(10),
        Some(SimTime::from_micros(50)),
    );
    plan.apply(&mut net, &mut sim);
    // One packet while up, one while down (lost), one after recovery.
    for t in [0u64, 20, 60] {
        let f = PacketBuilder::udp(addr(1), addr(2), 1, 2, &[])
            .pad_to(125)
            .build();
        sim.schedule_at(
            SimTime::from_micros(t),
            move |w: &mut Network, s: &mut Sim<Network>| w.host_send(s, h0, f.clone()),
        );
    }
    run_until(&mut net, &mut sim, SimTime::from_millis(1));
    assert_eq!(net.hosts[h1].stats.rx_pkts, 2, "middle packet lost");
    let trace = net.tracer.render();
    let down = trace.find("link0 down").expect("down note");
    let up = trace.find("link0 up").expect("up note");
    assert!(down < up, "down precedes up:\n{trace}");
    // The lost packet produced no rx line between the two notes.
    let between = &trace[down..up];
    assert!(!between.contains(" rx "), "delivery while down:\n{trace}");
    // Four deliveries traced: two switch hops + two host arrivals.
    assert_eq!(trace.matches(" rx ").count(), 4, "{trace}");
}
