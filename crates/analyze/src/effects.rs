//! Effect-summary cross-check: observed emissions vs the declared
//! closed world (lints `EDP-W008` / `EDP-E007`), plus the per-app
//! effect report `edp_lint --effects` renders.
//!
//! The static side is [`EffectSummary::from_manifest`]: the manifest's
//! per-kind emission declarations closed over indirect paths (raised
//! user events, generated/recirculated packets). The dynamic side is
//! the probe pass ([`crate::access::extract`]): every frame-routing
//! decision a handler or its cascade made, attributed to the *entry*
//! kind that started the cascade. The check is one subset relation per
//! entry kind:
//!
//! ```text
//! observed(K)  ⊆  closure(K)
//! ```
//!
//! For an open-world app (no emission declarations) `closure(K)` is
//! `Any`, so nothing can be violated — but every observed emission is
//! an [`EDP-W008`](crate::LintCode::UndeclaredEmission) nudge to close
//! the world. For a closed-world app, an uncovered observation is an
//! [`EDP-E007`](crate::LintCode::SummaryViolation) error: the
//! declaration claims a silence the program does not keep.

use crate::access::AccessMatrix;
use crate::diag::{Diagnostic, LintCode};
use edp_core::{AppManifest, EffectSummary, EmitFootprint, EventKind};

/// One row of the effects report: an event kind's observed, declared,
/// and closure footprints side by side.
#[derive(Debug, Clone)]
pub struct EffectRow {
    /// The entry event kind.
    pub kind: EventKind,
    /// What probing observed the kind's cascade emit.
    pub observed: EmitFootprint,
    /// The manifest's direct declaration for the kind.
    pub declared: EmitFootprint,
    /// The declaration closed over raise/generate/recirculate paths —
    /// what the certificate actually claims.
    pub closure: EmitFootprint,
}

/// The per-app effects report behind `edp_lint --effects`.
#[derive(Debug, Clone)]
pub struct EffectReport {
    /// App name.
    pub app: String,
    /// True when the manifest declares a (possibly empty) emission map.
    pub closed_world: bool,
    /// True when the app's timer cascade provably cannot emit
    /// ([`EffectSummary::timer_local`]).
    pub timer_local: bool,
    /// One row per kind the app handles or was observed emitting under.
    pub rows: Vec<EffectRow>,
}

/// Builds the effects report for one app: the static summary evaluated
/// at every relevant kind, with the probe's observations joined in.
pub fn report(manifest: &AppManifest, matrix: &AccessMatrix) -> EffectReport {
    let summary = EffectSummary::from_manifest(manifest);
    let mut kinds: Vec<EventKind> = manifest.handlers.clone();
    for k in matrix.observed_emissions.keys() {
        if !kinds.contains(k) {
            kinds.push(*k);
        }
    }
    kinds.sort_by_key(|k| k.code());
    kinds.dedup();
    let rows = kinds
        .into_iter()
        .map(|kind| EffectRow {
            kind,
            observed: matrix
                .observed_emissions
                .get(&kind)
                .cloned()
                .unwrap_or(EmitFootprint::None),
            declared: summary.direct(kind),
            closure: summary.closure(kind),
        })
        .collect();
    EffectReport {
        app: manifest.name.to_string(),
        closed_world: summary.closed_world,
        timer_local: summary.timer_local(),
        rows,
    }
}

/// The observed ⊆ declared emission cross-check.
pub fn check(app: &str, manifest: &AppManifest, matrix: &AccessMatrix) -> Vec<Diagnostic> {
    let summary = EffectSummary::from_manifest(manifest);
    let mut out = Vec::new();
    for (kind, observed) in &matrix.observed_emissions {
        if !observed.can_emit() {
            continue;
        }
        if !summary.closed_world {
            out.push(Diagnostic {
                code: LintCode::UndeclaredEmission,
                app: app.to_string(),
                subject: kind.name().to_string(),
                message: format!(
                    "probing observed the {} cascade emit {observed} but the app \
                     declares no emission map; the sharded engine must treat every \
                     event as horizon-bound — declare emits()/no_emissions() to \
                     certify locality",
                    kind.name()
                ),
            });
            continue;
        }
        let closure = summary.closure(*kind);
        if !closure.covers(observed) {
            out.push(Diagnostic {
                code: LintCode::SummaryViolation,
                app: app.to_string(),
                subject: kind.name().to_string(),
                message: format!(
                    "probing observed the {} cascade emit {observed}, outside the \
                     declared closure {closure}; the engine would certify events \
                     this app in fact publishes on — fix the emits() declaration",
                    kind.name()
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::extract;
    use edp_core::event::TimerEvent;
    use edp_core::{EventActions, EventProgram};
    use edp_evsim::SimTime;
    use edp_packet::{Packet, ParsedPacket};
    use edp_pisa::{Destination, StdMeta};

    /// Forwards every packet to port 1; the timer quietly generates a
    /// frame that the generated pass then also routes to port 1.
    struct TimerEmitter;
    impl EventProgram for TimerEmitter {
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
                    std::net::Ipv4Addr::new(10, 0, 0, 9),
                    std::net::Ipv4Addr::new(10, 0, 0, 10),
                    9,
                    9,
                    &[],
                )
                .build(),
            );
        }
    }

    fn manifest_open() -> AppManifest {
        AppManifest::new("emitter").handles([EventKind::IngressPacket, EventKind::TimerExpiration])
    }

    #[test]
    fn open_world_emission_warns_w008() {
        let mut p = TimerEmitter;
        let m = manifest_open();
        let matrix = extract(&mut p, &m);
        // The timer's generated frame routed via the generated pass is
        // attributed to the timer entry.
        assert!(matrix
            .observed_emissions
            .get(&EventKind::TimerExpiration)
            .is_some_and(|f| f.can_emit()));
        let diags = check("emitter", &m, &matrix);
        assert!(diags.iter().any(|d| d.code == LintCode::UndeclaredEmission));
        assert!(!diags.iter().any(|d| d.code == LintCode::SummaryViolation));
    }

    #[test]
    fn closed_world_violation_errors_e007() {
        // Declares a silent timer while the timer cascade in fact emits.
        let m = manifest_open().emits(EventKind::IngressPacket, EmitFootprint::port(1));
        let mut p = TimerEmitter;
        let matrix = extract(&mut p, &m);
        let diags = check("emitter", &m, &matrix);
        assert!(
            diags.iter().any(|d| d.code == LintCode::SummaryViolation
                && d.subject == EventKind::TimerExpiration.name()),
            "expected EDP-E007 on the timer entry, got {diags:?}"
        );
    }

    #[test]
    fn honest_declaration_is_clean_and_reported() {
        // `.generates()` folds the pipeline footprint into the timer
        // closure, covering the observed generated-frame emission.
        let m = manifest_open()
            .generates()
            .emits(EventKind::IngressPacket, EmitFootprint::port(1))
            .emits(EventKind::GeneratedPacket, EmitFootprint::port(1));
        let mut p = TimerEmitter;
        let matrix = extract(&mut p, &m);
        assert!(check("emitter", &m, &matrix).is_empty());
        let rep = report(&m, &matrix);
        assert!(rep.closed_world);
        assert!(!rep.timer_local, "a generating app cannot certify timers");
        let timer_row = rep
            .rows
            .iter()
            .find(|r| r.kind == EventKind::TimerExpiration)
            .expect("timer row");
        assert!(timer_row.observed.can_emit());
        assert_eq!(timer_row.declared, EmitFootprint::None);
        assert!(timer_row.closure.can_emit());
    }
}
