//! Algebraic checking of aggregation merge/fold ops.
//!
//! Idle-cycle folding (§4, Figure 3) applies parked updates in FIFO
//! order over dirty slots — an order the program does not control, and
//! one that interleaves enqueue-side and dequeue-side updates
//! arbitrarily. Folding is therefore only correct when the merge op is
//! **commutative** and **associative** with the declared **identity** as
//! its no-op element: then every fold order computes the same value.
//!
//! The checker probes all three laws on an exhaustive small domain
//! (boundary values where saturation/overflow misbehavior lives) plus a
//! seeded randomized sweep, reporting the first counterexample verbatim.

use crate::diag::{Diagnostic, LintCode};
use edp_core::MergeOp;

/// Boundary-heavy exhaustive domain: algebraic violations of practical
/// ops (saturating/wrapping arithmetic, subtraction, averages) almost
/// always have a witness among small values and values near `u64::MAX`.
const SMALL_DOMAIN: [u64; 10] = [0, 1, 2, 3, 5, 7, 100, 1 << 32, u64::MAX - 1, u64::MAX];

/// How many seeded random triples to probe beyond the exhaustive domain.
const RANDOM_TRIPLES: usize = 512;

/// splitmix64: tiny deterministic generator for the randomized sweep
/// (seeded, so failures reproduce bit-for-bit).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Checks one merge op's three laws; returns a diagnostic per violated
/// law, each carrying the first counterexample found.
pub fn check(app: &str, op: &MergeOp, seed: u64) -> Vec<Diagnostic> {
    let f = op.apply;
    let mut commut: Option<(u64, u64)> = None;
    let mut assoc: Option<(u64, u64, u64)> = None;
    let mut ident: Option<u64> = None;

    let mut visit_pair = |a: u64, b: u64| {
        if commut.is_none() && f(a, b) != f(b, a) {
            commut = Some((a, b));
        }
    };
    let mut visit_triple = |a: u64, b: u64, c: u64| {
        if assoc.is_none() && f(f(a, b), c) != f(a, f(b, c)) {
            assoc = Some((a, b, c));
        }
    };
    let mut visit_identity = |x: u64| {
        if ident.is_none() && (f(op.identity, x) != x || f(x, op.identity) != x) {
            ident = Some(x);
        }
    };

    // Exhaustive small domain: every pair and triple.
    for &a in &SMALL_DOMAIN {
        visit_identity(a);
        for &b in &SMALL_DOMAIN {
            visit_pair(a, b);
            for &c in &SMALL_DOMAIN {
                visit_triple(a, b, c);
            }
        }
    }
    // Seeded randomized probing across the full u64 range.
    let mut state = seed ^ 0xEDB0_0157_0000_0000;
    for _ in 0..RANDOM_TRIPLES {
        let (a, b, c) = (
            splitmix64(&mut state),
            splitmix64(&mut state),
            splitmix64(&mut state),
        );
        visit_identity(a);
        visit_pair(a, b);
        visit_triple(a, b, c);
    }

    let mut out = Vec::new();
    if let Some((a, b)) = commut {
        out.push(Diagnostic {
            code: LintCode::MergeNotCommutative,
            app: app.to_string(),
            subject: op.name.to_string(),
            message: format!(
                "op({a}, {b}) = {} but op({b}, {a}) = {}; fold reordering \
                 between handler contexts changes results",
                f(a, b),
                f(b, a),
            ),
        });
    }
    if let Some((a, b, c)) = assoc {
        out.push(Diagnostic {
            code: LintCode::MergeNotAssociative,
            app: app.to_string(),
            subject: op.name.to_string(),
            message: format!(
                "op(op({a}, {b}), {c}) = {} but op({a}, op({b}, {c})) = {}; \
                 fold grouping changes results",
                f(f(a, b), c),
                f(a, f(b, c)),
            ),
        });
    }
    if let Some(x) = ident {
        out.push(Diagnostic {
            code: LintCode::MergeBadIdentity,
            app: app.to_string(),
            subject: op.name.to_string(),
            message: format!(
                "declared identity {} is not a no-op: op(id, {x}) = {}, \
                 op({x}, id) = {}; freshly-zeroed aggregation slots corrupt \
                 the fold",
                op.identity,
                f(op.identity, x),
                f(x, op.identity),
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use edp_core::aggreg::MERGE_ADD;

    #[test]
    fn builtin_ops_are_lawful() {
        let diags = check("t", &MERGE_ADD, 42);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn saturating_sub_fails_commutativity() {
        fn sub(a: u64, b: u64) -> u64 {
            a.saturating_sub(b)
        }
        let op = MergeOp {
            name: "sat-sub",
            identity: 0,
            apply: sub,
        };
        let diags = check("t", &op, 42);
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::MergeNotCommutative));
    }

    #[test]
    fn average_fails_associativity() {
        fn avg(a: u64, b: u64) -> u64 {
            a / 2 + b / 2
        }
        let op = MergeOp {
            name: "avg",
            identity: 0,
            apply: avg,
        };
        let diags = check("t", &op, 42);
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::MergeNotAssociative));
    }

    #[test]
    fn wrong_identity_detected() {
        fn max(a: u64, b: u64) -> u64 {
            a.max(b)
        }
        let op = MergeOp {
            name: "max-bad-id",
            identity: u64::MAX, // max's identity is 0, not MAX
            apply: max,
        };
        let diags = check("t", &op, 42);
        assert!(diags.iter().any(|d| d.code == LintCode::MergeBadIdentity));
    }
}
