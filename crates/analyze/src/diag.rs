//! Structured diagnostics with stable codes and severities.
//!
//! Every lint has a stable code (`EDP-Wnnn` warning / `EDP-Ennn` error)
//! that tests, CI logs, and per-diagnostic `allow` annotations key on.
//! The catalog lives in [`LintCode`]; DESIGN.md §9 documents each code's
//! rationale against the paper.

use edp_core::manifest::LintAllow;
use std::fmt;

/// Diagnostic severity. Errors always fail the lint gate; warnings fail
/// it only under `--deny warnings` (which CI passes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but conceivably intentional; deniable.
    Warning,
    /// A property violation that makes results wrong.
    Error,
}

impl Severity {
    /// Lowercase name, as printed in reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The lint catalog. Codes are stable: they never get renumbered, only
/// appended to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// `EDP-W001` — a plain (non-aggregated) register is written from
    /// more than one handler context: the paper's §4 single-port
    /// violation unless an aggregation register fronts it.
    MultiWriterRegister,
    /// `EDP-W002` — a register is read-modify-written in one handler
    /// context while another context also writes it: the RMW cycle spans
    /// handlers, so its read can be torn by the interleaved write.
    CrossHandlerRmw,
    /// `EDP-W003` — two LPM entries install the identical prefix; the
    /// later one can never win (first-install-wins tie-break).
    DuplicateLpmPrefix,
    /// `EDP-W004` — an LPM/ternary/range table has no catch-all entry,
    /// so lookups can miss with no default action to fall back on.
    MissingDefaultAction,
    /// `EDP-W005` — a handler is registered for an event the deployed
    /// target never raises (e.g. a timer handler with no armed timer).
    UnraisableEventHandler,
    /// `EDP-W006` — the program raises a user-event code no handler
    /// understands.
    UnhandledUserEvent,
    /// `EDP-W007` — a `SharedRegister` access claimed one `Accessor`
    /// class but ran in a different handler context, corrupting the port
    /// accounting the §4 resource model is built on.
    AccessorMismatch,
    /// `EDP-W008` — probing observed a handler emit a frame but the app
    /// declares no emission map at all (open world). Nothing is wrong at
    /// runtime, but the app certifies nothing about its emissions. Declaring the
    /// observed footprint (or `no_emissions()`) upgrades the app to a
    /// checkable closed world.
    UndeclaredEmission,
    /// `EDP-E001` — a registered merge op is not commutative; idle-cycle
    /// fold reordering changes results.
    MergeNotCommutative,
    /// `EDP-E002` — a table entry is fully shadowed by a
    /// higher-precedence entry and can never be selected.
    ShadowedRule,
    /// `EDP-E003` — a registered merge op is not associative; fold
    /// grouping changes results.
    MergeNotAssociative,
    /// `EDP-E004` — a merge op's declared identity is not its identity
    /// element; zero-initialized aggregation registers corrupt the fold.
    MergeBadIdentity,
    /// `EDP-E005` — a handler panicked while being probed with synthetic
    /// inputs; the access matrix for it is incomplete.
    ProbePanic,
    /// `EDP-E006` — a non-exact match entry is installed into an
    /// all-exact table. At runtime this demotes the hash index to a
    /// linear scan ([`edp_pisa::MatchTable::try_insert`] rejects it with
    /// `TableError::NonExactField`); it is almost always a mis-shaped
    /// control-plane rule.
    NonExactInExactTable,
    /// `EDP-E007` — probing observed an emission outside the app's
    /// declared closed-world effect summary: a handler cascade transmits
    /// on a path the declaration says cannot transmit.
    SummaryViolation,
}

impl LintCode {
    /// Every catalogued code, in code order.
    pub const ALL: [LintCode; 15] = [
        LintCode::MultiWriterRegister,
        LintCode::CrossHandlerRmw,
        LintCode::DuplicateLpmPrefix,
        LintCode::MissingDefaultAction,
        LintCode::UnraisableEventHandler,
        LintCode::UnhandledUserEvent,
        LintCode::AccessorMismatch,
        LintCode::UndeclaredEmission,
        LintCode::MergeNotCommutative,
        LintCode::ShadowedRule,
        LintCode::MergeNotAssociative,
        LintCode::MergeBadIdentity,
        LintCode::ProbePanic,
        LintCode::NonExactInExactTable,
        LintCode::SummaryViolation,
    ];

    /// The stable code string.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::MultiWriterRegister => "EDP-W001",
            LintCode::CrossHandlerRmw => "EDP-W002",
            LintCode::DuplicateLpmPrefix => "EDP-W003",
            LintCode::MissingDefaultAction => "EDP-W004",
            LintCode::UnraisableEventHandler => "EDP-W005",
            LintCode::UnhandledUserEvent => "EDP-W006",
            LintCode::AccessorMismatch => "EDP-W007",
            LintCode::UndeclaredEmission => "EDP-W008",
            LintCode::MergeNotCommutative => "EDP-E001",
            LintCode::ShadowedRule => "EDP-E002",
            LintCode::MergeNotAssociative => "EDP-E003",
            LintCode::MergeBadIdentity => "EDP-E004",
            LintCode::ProbePanic => "EDP-E005",
            LintCode::NonExactInExactTable => "EDP-E006",
            LintCode::SummaryViolation => "EDP-E007",
        }
    }

    /// The short kebab-case lint name.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::MultiWriterRegister => "multi-writer-register",
            LintCode::CrossHandlerRmw => "cross-handler-rmw",
            LintCode::DuplicateLpmPrefix => "duplicate-lpm-prefix",
            LintCode::MissingDefaultAction => "missing-default-action",
            LintCode::UnraisableEventHandler => "unraisable-event-handler",
            LintCode::UnhandledUserEvent => "unhandled-user-event",
            LintCode::AccessorMismatch => "accessor-mismatch",
            LintCode::UndeclaredEmission => "undeclared-emission",
            LintCode::MergeNotCommutative => "merge-not-commutative",
            LintCode::ShadowedRule => "shadowed-rule",
            LintCode::MergeNotAssociative => "merge-not-associative",
            LintCode::MergeBadIdentity => "merge-bad-identity",
            LintCode::ProbePanic => "probe-panic",
            LintCode::NonExactInExactTable => "non-exact-in-exact-table",
            LintCode::SummaryViolation => "summary-violation",
        }
    }

    /// The code's fixed severity.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::MergeNotCommutative
            | LintCode::ShadowedRule
            | LintCode::MergeNotAssociative
            | LintCode::MergeBadIdentity
            | LintCode::ProbePanic
            | LintCode::NonExactInExactTable
            | LintCode::SummaryViolation => Severity::Error,
            _ => Severity::Warning,
        }
    }
}

/// One finding: a catalogued code against a subject inside an app.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// App (registry name) the finding is in.
    pub app: String,
    /// What the finding is about: a register or table name, an event
    /// name, or a user-event code in decimal. `allow` annotations match
    /// on this exact string.
    pub subject: String,
    /// Human-readable explanation with the evidence inline.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} {}] {}: {}",
            self.code.severity().name(),
            self.code.code(),
            self.code.name(),
            self.subject,
            self.message
        )
    }
}

/// The outcome of linting one app: active findings plus the findings the
/// app's manifest explicitly allowed (kept visible, never silent).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Findings still in force.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings matched by an `allow`, with the recorded reason.
    pub allowed: Vec<(Diagnostic, String)>,
}

impl Report {
    /// Partitions `raw` findings against the manifest's allow list: a
    /// finding is allowed iff some entry matches both its stable code and
    /// its exact subject.
    pub fn from_findings(raw: Vec<Diagnostic>, allows: &[LintAllow]) -> Self {
        let mut report = Report::default();
        for d in raw {
            match allows
                .iter()
                .find(|a| a.code == d.code.code() && a.subject == d.subject)
            {
                Some(a) => report.allowed.push((d, a.reason.to_string())),
                None => report.diagnostics.push(d),
            }
        }
        report
            .diagnostics
            .sort_by_key(|d| (std::cmp::Reverse(d.code.severity()), d.code.code()));
        report
    }

    /// Active errors.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.code.severity() == Severity::Error)
            .count()
    }

    /// Active warnings.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.code.severity() == Severity::Warning)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_prefixed() {
        let mut seen = std::collections::HashSet::new();
        for c in LintCode::ALL {
            assert!(seen.insert(c.code()), "duplicate code {}", c.code());
            match c.severity() {
                Severity::Warning => assert!(c.code().starts_with("EDP-W")),
                Severity::Error => assert!(c.code().starts_with("EDP-E")),
            }
        }
    }

    #[test]
    fn allow_matches_code_and_subject() {
        let d = |subject: &str| Diagnostic {
            code: LintCode::MultiWriterRegister,
            app: "a".into(),
            subject: subject.into(),
            message: "m".into(),
        };
        let allows = vec![LintAllow {
            code: "EDP-W001",
            subject: "occ".into(),
            reason: "intentional",
        }];
        let r = Report::from_findings(vec![d("occ"), d("other")], &allows);
        assert_eq!(r.allowed.len(), 1);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].subject, "other");
    }
}
