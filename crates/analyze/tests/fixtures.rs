//! Negative fixtures: deliberately-broken programs and manifests, each
//! asserting the exact stable diagnostic code the analyzer must emit.
//! These pin the catalog — a code that stops firing on its canonical
//! trigger is a regression.

use edp_analyze::lint_app;
use edp_core::aggreg::MergeOp;
use edp_core::event::{DequeueEvent, EnqueueEvent, TimerEvent};
use edp_core::{AppManifest, EmitFootprint, EventActions, EventKind, EventProgram};
use edp_evsim::SimTime;
use edp_packet::{Packet, ParsedPacket};
use edp_pisa::{
    Destination, FieldMatch, MatchKind, RegisterArray, ShapeEntry, StdMeta, TableShape,
};

const SEED: u64 = 7;

/// A program implementing nothing: every handler is the pass-through
/// default. Fixtures that only exercise manifest-level lints use it.
struct Noop;
impl EventProgram for Noop {}

#[test]
fn shadowed_ternary_rule_is_e002() {
    // Entry #1 can never match: entry #0 wildcards the field at higher
    // priority.
    let shape = TableShape {
        name: "acl".into(),
        schema: vec![MatchKind::Ternary],
        entries: vec![
            ShapeEntry {
                fields: vec![FieldMatch::Any],
                priority: 100,
            },
            ShapeEntry {
                fields: vec![FieldMatch::Ternary {
                    value: 0x0A00_0000,
                    mask: 0xFF00_0000,
                }],
                priority: 1,
            },
        ],
    };
    let manifest = AppManifest::new("fixture-shadowed").table(shape);
    let report = lint_app(&mut Noop, &manifest, SEED);
    assert!(
        report.has_code("EDP-E002"),
        "expected EDP-E002 shadowed-rule, got: {:?}",
        report.diagnostics
    );
    assert!(report.errors() >= 1);
}

#[test]
fn non_commutative_merge_is_e001() {
    fn sat_sub(a: u64, b: u64) -> u64 {
        a.saturating_sub(b)
    }
    let manifest = AppManifest::new("fixture-merge").merge_op(MergeOp {
        name: "sat-sub",
        identity: 0,
        apply: sat_sub,
    });
    let report = lint_app(&mut Noop, &manifest, SEED);
    assert!(
        report.has_code("EDP-E001"),
        "expected EDP-E001 merge-not-commutative, got: {:?}",
        report.diagnostics
    );
}

/// Writes one plain register from both buffer-event contexts — the §4
/// single-port violation the analyzer exists to catch.
struct MultiWriter {
    occ: RegisterArray,
}

impl EventProgram for MultiWriter {
    fn on_enqueue(&mut self, ev: &EnqueueEvent, _now: SimTime, _a: &mut EventActions) {
        self.occ.add(0, ev.pkt_len as u64);
    }
    fn on_dequeue(&mut self, ev: &DequeueEvent, _now: SimTime, _a: &mut EventActions) {
        self.occ.sub(0, ev.pkt_len as u64);
    }
}

fn multi_writer_manifest() -> AppManifest {
    AppManifest::new("fixture-multi-writer")
        .handles([EventKind::BufferEnqueue, EventKind::BufferDequeue])
}

#[test]
fn multi_writer_register_is_w001() {
    let mut program = MultiWriter {
        occ: RegisterArray::new("occ", 4),
    };
    let report = lint_app(&mut program, &multi_writer_manifest(), SEED);
    assert!(
        report.has_code("EDP-W001"),
        "expected EDP-W001 multi-writer-register, got: {:?}",
        report.diagnostics
    );
    // Both contexts RMW, so the cross-handler-RMW lint fires too.
    assert!(report.has_code("EDP-W002"));
}

#[test]
fn allow_moves_finding_to_allowed_not_silence() {
    let mut program = MultiWriter {
        occ: RegisterArray::new("occ", 4),
    };
    let manifest = multi_writer_manifest()
        .allow("EDP-W001", "occ", "fixture: intentional")
        .allow("EDP-W002", "occ", "fixture: intentional");
    let report = lint_app(&mut program, &manifest, SEED);
    assert!(!report.has_code("EDP-W001"));
    assert!(!report.has_code("EDP-W002"));
    assert_eq!(report.allowed.len(), 2, "allowed findings stay visible");
    assert_eq!(report.warnings(), 0);

    // The allow is scoped to its exact subject: a different register
    // would not be covered.
    let mut other = MultiWriter {
        occ: RegisterArray::new("other_reg", 4),
    };
    let report = lint_app(&mut other, &manifest, SEED);
    assert!(report.has_code("EDP-W001"));
}

/// Raises a user-event code nothing handles.
struct Raiser;
impl EventProgram for Raiser {
    fn on_ingress(
        &mut self,
        _pkt: &mut Packet,
        _parsed: &ParsedPacket,
        _meta: &mut StdMeta,
        _now: SimTime,
        actions: &mut EventActions,
    ) {
        actions.raise_user_event(42, [0; 4]);
    }
}

#[test]
fn unhandled_user_event_is_w006() {
    let manifest = AppManifest::new("fixture-raiser").handles([EventKind::IngressPacket]);
    let report = lint_app(&mut Raiser, &manifest, SEED);
    let w006 = report
        .diagnostics
        .iter()
        .find(|d| d.code.code() == "EDP-W006")
        .unwrap_or_else(|| panic!("expected EDP-W006, got: {:?}", report.diagnostics));
    assert_eq!(w006.subject, "42");
}

/// Forwards ingress traffic and, on every timer, generates a frame the
/// (default) generated pass routes right back out — a timer cascade
/// that emits.
struct CovertTimerEmitter;
impl EventProgram for CovertTimerEmitter {
    fn on_ingress(
        &mut self,
        _pkt: &mut Packet,
        _parsed: &ParsedPacket,
        meta: &mut StdMeta,
        _now: SimTime,
        _a: &mut EventActions,
    ) {
        meta.dest = Destination::Port(1);
    }
    fn on_timer(&mut self, _ev: &TimerEvent, _now: SimTime, a: &mut EventActions) {
        a.generate_packet(
            edp_packet::PacketBuilder::udp(
                std::net::Ipv4Addr::new(10, 0, 0, 5),
                std::net::Ipv4Addr::new(10, 0, 0, 6),
                5,
                6,
                &[],
            )
            .build(),
        );
    }
}

fn emitter_manifest() -> AppManifest {
    AppManifest::new("fixture-emitter")
        .handles([EventKind::IngressPacket, EventKind::TimerExpiration])
        .timers([0])
}

#[test]
fn undeclared_emission_is_w008() {
    // No emission declarations at all: the app is open-world, and every
    // probed emission — here the plain ingress forward — is the nudge
    // to close it.
    let report = lint_app(&mut CovertTimerEmitter, &emitter_manifest(), SEED);
    let w008 = report
        .diagnostics
        .iter()
        .find(|d| d.code.code() == "EDP-W008")
        .unwrap_or_else(|| panic!("expected EDP-W008, got: {:?}", report.diagnostics));
    assert_eq!(w008.subject, EventKind::IngressPacket.name());
    // Open-world means nothing can be *violated*.
    assert!(!report.has_code("EDP-E007"));
}

#[test]
fn summary_violation_is_e007() {
    // Declares only the ingress footprint, silently omitting both the
    // `generates()` flag and the timer's generated-frame cascade. The
    // closed world then claims closure(Timer) = None while probing
    // watches the timer cascade emit: the exact lie the certificate
    // exists to catch.
    let manifest = emitter_manifest().emits(EventKind::IngressPacket, EmitFootprint::Any);
    let report = lint_app(&mut CovertTimerEmitter, &manifest, SEED);
    let e007 = report
        .diagnostics
        .iter()
        .find(|d| d.code.code() == "EDP-E007")
        .unwrap_or_else(|| panic!("expected EDP-E007, got: {:?}", report.diagnostics));
    assert_eq!(e007.subject, EventKind::TimerExpiration.name());
    assert!(report.errors() >= 1, "EDP-E007 must gate as an error");

    // The honest declaration of the same program is clean.
    let honest = emitter_manifest()
        .generates()
        .emits(EventKind::IngressPacket, EmitFootprint::Any)
        .emits(EventKind::GeneratedPacket, EmitFootprint::Any);
    let report = lint_app(&mut CovertTimerEmitter, &honest, SEED);
    assert!(!report.has_code("EDP-E007"), "{:?}", report.diagnostics);
    assert!(!report.has_code("EDP-W008"));
}
