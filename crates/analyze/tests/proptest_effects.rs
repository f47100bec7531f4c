//! Soundness property for the effect-summary analysis: every emission
//! the *live* runtime records under randomized traffic must be covered
//! by the static `EffectSummary` closure of the cascade's entry kind.
//!
//! This is the other half of the EDP-W008/EDP-E007 cross-check. The
//! lint compares the analysis prober's observations against the
//! declarations; this test compares the real `EventSwitch` dispatch
//! path — queues, overflow trims, recirculation, generated frames,
//! timers, control-plane opcodes, link flaps — against the same
//! declarations. If it fails, a manifest is lying: its certificate
//! claims silence on a path the app in fact transmits on.

use edp_apps::registry::builtin_apps;
use edp_core::{EffectSummary, EventKind, EventSwitch, EventSwitchConfig, TimerSpec};
use edp_evsim::{SimDuration, SimTime};
use edp_packet::{Packet, PacketBuilder};
use edp_pisa::probe;
use proptest::prelude::*;
use std::net::Ipv4Addr;

const N_PORTS: usize = 4;

/// One randomized stimulus step against the switch under test.
#[derive(Debug, Clone)]
enum Step {
    /// Offer a UDP frame on an ingress port.
    Packet {
        port: u8,
        src: u8,
        dst: u8,
        sport: u16,
        dport: u16,
        pad: u16,
    },
    /// Drain one frame from every egress queue.
    Drain,
    /// Advance time far enough for every armed timer to fire.
    Timers,
    /// Flap a link down and back up.
    Flap { port: u8 },
    /// Raise a control-plane opcode the app declares it understands.
    ControlPlane { which: u8, arg: u64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => (0..N_PORTS as u8, any::<u8>(), any::<u8>(), any::<u16>(), any::<u16>(), 0..600u16)
            .prop_map(|(port, src, dst, sport, dport, pad)| Step::Packet {
                port, src, dst, sport, dport, pad,
            }),
        2 => Just(Step::Drain),
        1 => Just(Step::Timers),
        1 => (0..N_PORTS as u8).prop_map(|port| Step::Flap { port }),
        1 => (any::<u8>(), any::<u64>())
            .prop_map(|(which, arg)| Step::ControlPlane { which, arg }),
    ]
}

fn frame(src: u8, dst: u8, sport: u16, dport: u16, pad: u16) -> Packet {
    Packet::anonymous(
        PacketBuilder::udp(
            Ipv4Addr::new(10, 0, 0, src),
            Ipv4Addr::new(10, 0, 1, dst),
            sport,
            dport,
            b"soundness",
        )
        .pad_to(64 + pad as usize)
        .build(),
    )
}

/// Maps a recorded emission's entry-context string back to the event
/// kind whose closure must cover it.
fn entry_kind(entry: &str) -> EventKind {
    *EventKind::ALL
        .iter()
        .find(|k| k.probe_context() == entry)
        .unwrap_or_else(|| panic!("emission entry context `{entry}` matches no event kind"))
}

/// Runs one app under the step sequence with the probe armed and
/// asserts every recorded emission lands inside the static closure of
/// its cascade's entry kind.
fn check_app(name: &'static str, steps: &[Step]) {
    let app = builtin_apps()
        .into_iter()
        .find(|a| a.manifest.name == name)
        .expect("registry app");
    let summary = EffectSummary::from_manifest(&app.manifest);
    assert!(summary.closed_world, "{name} must declare its emissions");

    let timers: Vec<TimerSpec> = app
        .manifest
        .timer_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| TimerSpec {
            id,
            period: SimDuration::from_micros(50 + 10 * i as u64),
            start: SimDuration::from_micros(50 + 10 * i as u64),
        })
        .collect();
    let cfg = EventSwitchConfig {
        n_ports: N_PORTS,
        timers,
        ..Default::default()
    };
    let mut sw = EventSwitch::new(app.program, cfg);
    let cp_ops = app.manifest.cp_opcodes.clone();

    probe::arm();
    let mut now = SimTime::ZERO;
    for step in steps {
        now += SimDuration::from_nanos(500);
        match step {
            Step::Packet {
                port,
                src,
                dst,
                sport,
                dport,
                pad,
            } => sw.receive(now, *port, frame(*src, *dst, *sport, *dport, *pad)),
            Step::Drain => {
                for p in 0..N_PORTS as u8 {
                    sw.transmit(now, p);
                }
            }
            Step::Timers => {
                now += SimDuration::from_micros(120);
                sw.fire_due_timers(now);
            }
            Step::Flap { port } => {
                sw.set_link_status(now, *port, false);
                sw.set_link_status(now, *port, true);
            }
            Step::ControlPlane { which, arg } => {
                if !cp_ops.is_empty() {
                    let op = cp_ops[*which as usize % cp_ops.len()];
                    // Args stay in the shapes CP channels actually carry
                    // (addr, prefix ≤ 32, valid port): garbage tripping an
                    // app-internal assert isn't the property under test.
                    let args = [
                        *arg & 0xffff_ffff,
                        (*arg >> 32) & 31,
                        (*arg >> 40) % N_PORTS as u64,
                        *arg >> 48,
                    ];
                    sw.control_plane(now, op, args);
                }
            }
        }
    }
    // Drain whatever the final steps queued so egress-context emissions
    // are exercised too.
    now += SimDuration::from_micros(1);
    for p in 0..N_PORTS as u8 {
        sw.transmit_burst(now, p, 64);
    }
    let (_records, _claims, emissions) = probe::disarm();

    for e in &emissions {
        let kind = entry_kind(e.entry);
        let closure = summary.closure(kind);
        assert!(
            closure.covers_port(e.port as u8),
            "{name}: live runtime emitted on port {} from the {} cascade \
             (innermost context `{}`), outside the declared closure {closure}",
            e.port,
            kind.name(),
            e.context,
        );
    }
}

/// One generated-per-app proptest keeps failures attributable: a
/// violating app names itself in the test id, not just the message.
macro_rules! soundness {
    ($($test:ident => $app:literal),+ $(,)?) => {$(
        proptest! {
            #![proptest_config(ProptestConfig { cases: 24 })]
            #[test]
            fn $test(steps in prop::collection::vec(step_strategy(), 1..80)) {
                check_app($app, &steps);
            }
        }
    )+};
}

soundness! {
    microburst_emissions_within_summary => "microburst",
    hula_leaf_emissions_within_summary => "hula-leaf",
    hula_spine_emissions_within_summary => "hula-spine",
    ndp_trim_emissions_within_summary => "ndp-trim",
    timer_policer_emissions_within_summary => "timer-policer",
    state_migrate_emissions_within_summary => "state-migrate",
    telemetry_marker_emissions_within_summary => "telemetry-marker",
    rate_monitor_emissions_within_summary => "rate-monitor",
    liveness_monitor_emissions_within_summary => "liveness-monitor",
    frr_emissions_within_summary => "frr",
    fred_aqm_emissions_within_summary => "fred-aqm",
    netcache_emissions_within_summary => "netcache",
    cms_monitor_emissions_within_summary => "cms-monitor",
    stfq_scheduler_emissions_within_summary => "stfq-scheduler",
    int_reduce_emissions_within_summary => "int-reduce",
    baseline_router_emissions_within_summary => "baseline-router",
}

/// Guards against the property passing vacuously: a deterministic
/// forwarding workload must actually record emissions for the subset
/// check to range over.
#[test]
fn live_probe_observes_emissions() {
    let steps: Vec<Step> = (0..16)
        .map(|i| Step::Packet {
            port: i % N_PORTS as u8,
            src: i,
            dst: i.wrapping_add(1),
            sport: 40_000 + i as u16,
            dport: 9,
            pad: 0,
        })
        .chain(std::iter::once(Step::Drain))
        .collect();
    let app = builtin_apps()
        .into_iter()
        .find(|a| a.manifest.name == "microburst")
        .expect("registry app");
    let cfg = EventSwitchConfig {
        n_ports: N_PORTS,
        ..Default::default()
    };
    let mut sw = EventSwitch::new(app.program, cfg);
    probe::arm();
    let mut now = SimTime::ZERO;
    for step in &steps {
        now += SimDuration::from_nanos(500);
        match step {
            Step::Packet {
                port,
                src,
                dst,
                sport,
                dport,
                pad,
            } => sw.receive(now, *port, frame(*src, *dst, *sport, *dport, *pad)),
            Step::Drain => {
                for p in 0..N_PORTS as u8 {
                    sw.transmit_burst(now, p, 64);
                }
            }
            _ => unreachable!(),
        }
    }
    let (_r, _c, emissions) = probe::disarm();
    assert!(
        !emissions.is_empty(),
        "a forwarding app under live traffic must record emissions"
    );
    assert!(emissions
        .iter()
        .all(|e| e.entry == EventKind::IngressPacket.probe_context()));
}

/// The registry must stay in sync with the macro above: a new app that
/// isn't covered by a soundness property is a silent gap.
#[test]
fn soundness_covers_every_registered_app() {
    let covered = [
        "microburst",
        "hula-leaf",
        "hula-spine",
        "ndp-trim",
        "timer-policer",
        "state-migrate",
        "telemetry-marker",
        "rate-monitor",
        "liveness-monitor",
        "frr",
        "fred-aqm",
        "netcache",
        "cms-monitor",
        "stfq-scheduler",
        "int-reduce",
        "baseline-router",
    ];
    for app in builtin_apps() {
        assert!(
            covered.contains(&app.manifest.name),
            "app `{}` has no emission-soundness property",
            app.manifest.name
        );
    }
}
