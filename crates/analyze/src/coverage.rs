//! Event-coverage lints: handlers that can never fire, and raised
//! user-events nothing handles.
//!
//! The analyzer cross-references the manifest's declared handler set
//! against what the deployment can actually raise (armed timers, probed
//! generation paths) and what probing observed the program raising.

use crate::access::AccessMatrix;
use crate::diag::{Diagnostic, LintCode};
use edp_core::{AppManifest, EventKind};
use std::collections::BTreeSet;

/// Runs the coverage lints for one app.
pub fn check(app: &str, manifest: &AppManifest, matrix: &AccessMatrix) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Raisable user-event codes: declared by the manifest plus whatever
    // the synthetic probes observed being raised.
    let raised: BTreeSet<u32> = manifest
        .raises_user_codes
        .iter()
        .copied()
        .chain(matrix.raised_user_codes.iter().copied())
        .collect();

    // W005: handler registered for an event this deployment never raises.
    if manifest.implements(EventKind::TimerExpiration) && manifest.timer_ids.is_empty() {
        out.push(Diagnostic {
            code: LintCode::UnraisableEventHandler,
            app: app.to_string(),
            subject: "timer-expiration".to_string(),
            message: "handles TimerExpiration but the deployment arms no \
                      timer; the handler is dead code"
                .to_string(),
        });
    }
    if manifest.implements(EventKind::UserEvent)
        && manifest.handles_user_codes.is_empty()
        && raised.is_empty()
    {
        out.push(Diagnostic {
            code: LintCode::UnraisableEventHandler,
            app: app.to_string(),
            subject: "user-event".to_string(),
            message: "handles UserEvent but declares no understood codes and \
                      nothing raises one; the handler is dead code"
                .to_string(),
        });
    }
    if manifest.implements(EventKind::GeneratedPacket)
        && !manifest.generates_packets
        && !matrix.generated_packets
    {
        out.push(Diagnostic {
            code: LintCode::UnraisableEventHandler,
            app: app.to_string(),
            subject: "generated-packet".to_string(),
            message: "handles GeneratedPacket but neither the manifest nor \
                      probing shows the program generating packets; the \
                      handler is dead code"
                .to_string(),
        });
    }

    // W006: a raisable user-event code no handler understands.
    let handles_user = manifest.implements(EventKind::UserEvent);
    for code in raised {
        let understood = handles_user
            && (manifest.handles_user_codes.is_empty()
                || manifest.handles_user_codes.contains(&code));
        if !understood {
            out.push(Diagnostic {
                code: LintCode::UnhandledUserEvent,
                app: app.to_string(),
                subject: code.to_string(),
                message: if handles_user {
                    format!(
                        "user-event code {code} is raised but the UserEvent \
                         handler only understands {:?}",
                        manifest.handles_user_codes
                    )
                } else {
                    format!(
                        "user-event code {code} is raised but the program has \
                         no UserEvent handler; the event is dropped"
                    )
                },
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_timer_handler_flagged() {
        let m = AppManifest::new("t").handles([EventKind::TimerExpiration]);
        let diags = check("t", &m, &AccessMatrix::default());
        assert!(
            diags
                .iter()
                .any(|d| d.code == LintCode::UnraisableEventHandler
                    && d.subject == "timer-expiration")
        );
        let armed = AppManifest::new("t")
            .handles([EventKind::TimerExpiration])
            .timers([0]);
        assert!(check("t", &armed, &AccessMatrix::default()).is_empty());
    }

    #[test]
    fn unhandled_user_event_flagged() {
        let m = AppManifest::new("t").raises([7]);
        let diags = check("t", &m, &AccessMatrix::default());
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::UnhandledUserEvent && d.subject == "7"));
    }

    #[test]
    fn probed_raise_counts_too() {
        let m = AppManifest::new("t");
        let mut matrix = AccessMatrix::default();
        matrix.raised_user_codes.insert(9);
        let diags = check("t", &m, &matrix);
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::UnhandledUserEvent && d.subject == "9"));
    }

    #[test]
    fn handled_code_clean() {
        let mut m = AppManifest::new("t")
            .handles([EventKind::UserEvent])
            .raises([7]);
        m.handles_user_codes.push(7);
        assert!(check("t", &m, &AccessMatrix::default()).is_empty());
    }
}
