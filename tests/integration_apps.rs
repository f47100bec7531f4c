//! Table 2 end-to-end: one representative application per class, run on
//! a real topology, asserting the class's headline benefit.

use edp_apps::common::{addr, run_until, Dumbbell, Flow, Scenario};
use edp_apps::hula::testbed;
use edp_apps::hula::HulaLeaf;
use edp_apps::liveness::{LivenessMonitor, LivenessReflector, Neighbor, CP_OP_KILL};
use edp_apps::netcache::{NetCacheSwitch, TIMER_STATS};
use edp_apps::policer::compare_policers;
use edp_core::{EventSwitch, EventSwitchConfig, TimerSpec};
use edp_evsim::{Sim, SimDuration, SimTime};
use edp_netsim::{Host, HostApp, LinkSpec, Network, NodeRef};
use edp_packet::{KvHeader, KvOp, PacketBuilder};
use std::net::Ipv4Addr;

#[test]
fn congestion_aware_forwarding_beats_ecmp() {
    // Class 1 (Congestion Aware Forwarding): HULA via timer events.
    let (mut net, h0, h1) = testbed::fabric(&testbed::ecmp_leaf);
    let ecmp: f64 = testbed::drive(&mut net, h0, h1, 8).iter().sum();
    let (mut net, h0, h1) = testbed::fabric(&testbed::event_leaf);
    let hula: f64 = testbed::drive(&mut net, h0, h1, 8).iter().sum();
    assert!(hula > ecmp, "HULA {hula} vs ECMP {ecmp}");
    let leaf = &net.switch_as::<EventSwitch<HulaLeaf>>(0).program;
    assert!(leaf.probes_sent > 0, "probes came from the data plane");
}

#[test]
fn network_management_liveness_detects_soft_failure() {
    // Class 2 (Network Management): probe-based failure detection with
    // no control-plane involvement.
    let mut net = Network::new(61);
    let period = SimDuration::from_millis(1);
    let mon_cfg = EventSwitchConfig {
        n_ports: 2,
        timers: vec![
            TimerSpec {
                id: 0,
                period,
                start: period,
            },
            TimerSpec {
                id: 1,
                period,
                start: period,
            },
        ],
        ..Default::default()
    };
    let m = net.add_switch(Box::new(EventSwitch::new(
        LivenessMonitor::new(
            addr(1),
            vec![Neighbor {
                port: 1,
                addr: addr(2),
            }],
            3_000_000,
        ),
        mon_cfg,
    )));
    let r = net.add_switch(Box::new(EventSwitch::new(
        LivenessReflector::new(),
        EventSwitchConfig {
            n_ports: 2,
            switch_id: 2,
            ..Default::default()
        },
    )));
    net.connect(
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
    let kill_at = SimTime::from_millis(15);
    sim.schedule_at(kill_at, |w: &mut Network, s: &mut Sim<Network>| {
        w.control_plane_send(s, SimDuration::ZERO, 1, CP_OP_KILL, [0; 4]);
    });
    run_until(&mut net, &mut sim, SimTime::from_millis(40));
    let mon = &net.switch_as::<EventSwitch<LivenessMonitor>>(0).program;
    let dead = mon.declared_dead_at(0).expect("detected");
    assert!(dead - kill_at <= SimDuration::from_millis(6));
    assert!(
        net.cp_log.iter().any(|(sw, _)| *sw == 0),
        "monitor notified"
    );
}

#[test]
fn traffic_management_policer_enforces_rate() {
    // Class 4 (Traffic Management): a policer built from timer events
    // tracks the fixed-function meter closely at a fine refill period.
    let (timer_err, meter_err) = compare_policers(100_000, 17);
    assert!(timer_err < 0.2, "timer policer error {timer_err}");
    assert!(meter_err < 0.2, "meter policer error {meter_err}");
    assert!((timer_err - meter_err).abs() < 0.15);
}

#[test]
fn in_network_computing_cache_serves_hot_keys() {
    // Class 5 (In-Network Computing): NetCache with timer-cleared stats.
    let mut net = Network::new(62);
    let cfg = EventSwitchConfig {
        n_ports: 2,
        timers: vec![TimerSpec {
            id: TIMER_STATS,
            period: SimDuration::from_millis(2),
            start: SimDuration::from_millis(2),
        }],
        ..Default::default()
    };
    let sw = net.add_switch(Box::new(EventSwitch::new(
        NetCacheSwitch::new(0, 1, 8, 3, true),
        cfg,
    )));
    let client_addr = Ipv4Addr::new(10, 0, 0, 1);
    let server_addr = Ipv4Addr::new(10, 0, 0, 2);
    let client = net.add_host(Host::new(client_addr, HostApp::Sink));
    let server = net.add_host(Host::new(
        server_addr,
        HostApp::KvServer {
            store: (0..100u64).map(|k| (k, k)).collect(),
            served: 0,
        },
    ));
    let spec = LinkSpec::ten_gig(SimDuration::from_micros(2));
    net.connect((NodeRef::Host(client), 0), (NodeRef::Switch(sw), 0), spec);
    net.connect((NodeRef::Switch(sw), 1), (NodeRef::Host(server), 0), spec);
    let mut sim: Sim<Network> = Sim::new();
    // All requests for one hot key: a perfect caching workload.
    edp_netsim::traffic::start_cbr(
        &mut sim,
        client,
        SimTime::ZERO,
        SimDuration::from_micros(30),
        1000,
        move |_| {
            let get = KvHeader {
                op: KvOp::Get,
                key: 7,
                value: 0,
            };
            PacketBuilder::kv(client_addr, server_addr, &get).build()
        },
    );
    run_until(&mut net, &mut sim, SimTime::from_millis(60));
    let prog = &net.switch_as::<EventSwitch<NetCacheSwitch>>(0).program;
    assert!(
        prog.hit_rate() > 0.9,
        "hot-key hit rate {}",
        prog.hit_rate()
    );
    let served = match &net.hosts[server].app {
        HostApp::KvServer { served, .. } => *served,
        _ => unreachable!(),
    };
    assert!(served < 100, "server shed >90% of load, saw {served}");
    assert_eq!(net.hosts[client].stats.rx_pkts, 1000, "every GET answered");
}

#[test]
fn monitoring_cms_window_counts_are_clean() {
    // Class 3 (Network Monitoring): CMS with data-plane reset keeps
    // windows crisp — no cross-window bleed.
    use edp_apps::cms_reset::CmsMonitor;
    let period = SimDuration::from_millis(1);
    let cfg = EventSwitchConfig {
        n_ports: 2,
        timers: vec![TimerSpec {
            id: 0,
            period,
            start: period,
        }],
        ..Default::default()
    };
    let sw = EventSwitch::new(CmsMonitor::new(256, 4, 1), cfg);
    let interval = SimDuration::from_micros(100);
    let flow = Flow::cbr(0, SimTime::ZERO, interval, 100, 1, 2, 1000);
    let sc = Scenario {
        dumbbell: Dumbbell {
            senders: 1,
            bottleneck_bps: 10_000_000_000,
            seed: 63,
        },
        flows: vec![flow],
        until: SimTime::from_millis(20),
    };
    let net = sc.run(Box::new(sw));
    let prog = &net.switch_as::<EventSwitch<CmsMonitor>>(0).program;
    assert!(prog.resets.len() >= 19);
    assert_eq!(prog.mean_reset_lateness_ns(period.as_nanos()), 0.0);
    assert_eq!(net.cp_messages, 0);
}
