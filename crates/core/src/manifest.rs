//! Analyzer manifests: what a deployed event program declares about
//! itself so `edp-analyze` can lint it without simulating traffic.
//!
//! Rust trait objects cannot be asked "which default methods did you
//! override?", and several [`crate::EventProgram`] defaults deliberately
//! delegate (recirculated/generated packets fall through to
//! `on_ingress`). A manifest therefore *declares* the handlers a program
//! implements, the timers and control-plane opcodes its deployments arm,
//! the user-event codes it understands, the merge ops backing its shared
//! state, snapshots of its match tables — and any diagnostics it
//! explicitly allows, one `(code, subject)` pair at a time with a written
//! reason. There is intentionally no way to suppress a code wholesale.

use crate::aggreg::MergeOp;
use crate::effects::EmitFootprint;
use crate::event::EventKind;
use edp_pisa::TableShape;

/// A single allowed (suppressed) diagnostic: one stable code against one
/// subject, with the reason on record. Blanket suppression is not
/// expressible — each intentional hazard is acknowledged individually.
#[derive(Debug, Clone)]
pub struct LintAllow {
    /// The stable diagnostic code being allowed (e.g. `"EDP-W001"`).
    pub code: &'static str,
    /// The diagnostic subject the allowance is scoped to (a register or
    /// table name, an event name, a user-event code rendered in decimal).
    pub subject: String,
    /// Why this instance is intentional. Shows up in lint reports.
    pub reason: &'static str,
}

/// Everything an app registers with the analyzer. Built fluently:
///
/// ```
/// use edp_core::{AppManifest, EventKind, aggreg::MERGE_ADD};
///
/// let m = AppManifest::new("microburst")
///     .handles([EventKind::IngressPacket, EventKind::BufferEnqueue,
///               EventKind::BufferDequeue])
///     .merge_op(MERGE_ADD)
///     .allow("EDP-W001", "flowBufSize_reg",
///            "intentional multiported shared_register (paper §2)");
/// assert_eq!(m.name, "microburst");
/// assert!(m.implements(EventKind::BufferEnqueue));
/// ```
#[derive(Debug, Clone)]
pub struct AppManifest {
    /// App name as reported in diagnostics.
    pub name: &'static str,
    /// Handlers the program actually implements (overrides).
    pub handlers: Vec<EventKind>,
    /// Timer ids the deployment arms (`TimerSpec::id` values). A program
    /// handling [`EventKind::TimerExpiration`] with no armed timer is
    /// dead code, and the analyzer says so.
    pub timer_ids: Vec<u16>,
    /// Control-plane opcodes the program reacts to (probed one by one).
    pub cp_opcodes: Vec<u32>,
    /// User-event codes `on_user` understands.
    pub handles_user_codes: Vec<u32>,
    /// User-event codes the program may raise (beyond what probing
    /// observes — probes only exercise one synthetic input per handler).
    pub raises_user_codes: Vec<u32>,
    /// True when the program generates packets on paths probing may not
    /// reach (e.g. replies only to cache-hit requests).
    pub generates_packets: bool,
    /// Merge/fold ops backing the program's shared state. For a
    /// multi-writer register this is the op an aggregation-register
    /// realization (§4, Figure 3) would fold with; the analyzer proves it
    /// reorder-tolerant.
    pub merge_ops: Vec<MergeOp>,
    /// Match-table snapshots for rule analysis.
    pub tables: Vec<TableShape>,
    /// Explicitly allowed diagnostics.
    pub allows: Vec<LintAllow>,
    /// Declared per-event emission footprints (see
    /// [`crate::effects::EffectSummary`]). `None` leaves the app
    /// open-world: nothing is certified and any probed emission is an
    /// EDP-W008 warning. `Some` closes the world: kinds absent from the
    /// map are declared emission-free, and a probed emission outside the
    /// declaration is an EDP-E007 error.
    pub emissions: Option<Vec<(EventKind, EmitFootprint)>>,
    /// Source file of the app (for SARIF locations), typically `file!()`.
    pub source: Option<&'static str>,
}

impl AppManifest {
    /// Creates an empty manifest for `name`.
    pub fn new(name: &'static str) -> Self {
        AppManifest {
            name,
            handlers: Vec::new(),
            timer_ids: Vec::new(),
            cp_opcodes: Vec::new(),
            handles_user_codes: Vec::new(),
            raises_user_codes: Vec::new(),
            generates_packets: false,
            merge_ops: Vec::new(),
            tables: Vec::new(),
            allows: Vec::new(),
            emissions: None,
            source: None,
        }
    }

    /// Declares the handlers the program implements.
    pub fn handles(mut self, kinds: impl IntoIterator<Item = EventKind>) -> Self {
        self.handlers.extend(kinds);
        self
    }

    /// Declares the timer ids the deployment arms.
    pub fn timers(mut self, ids: impl IntoIterator<Item = u16>) -> Self {
        self.timer_ids.extend(ids);
        self
    }

    /// Declares control-plane opcodes the program reacts to.
    pub fn cp_ops(mut self, opcodes: impl IntoIterator<Item = u32>) -> Self {
        self.cp_opcodes.extend(opcodes);
        self
    }

    /// Declares user-event codes the program may raise.
    pub fn raises(mut self, codes: impl IntoIterator<Item = u32>) -> Self {
        self.raises_user_codes.extend(codes);
        self
    }

    /// Declares that the program generates packets (on some path).
    pub fn generates(mut self) -> Self {
        self.generates_packets = true;
        self
    }

    /// Registers a merge op backing the program's shared state.
    pub fn merge_op(mut self, op: MergeOp) -> Self {
        self.merge_ops.push(op);
        self
    }

    /// Registers a match-table snapshot for rule analysis.
    pub fn table(mut self, shape: TableShape) -> Self {
        self.tables.push(shape);
        self
    }

    /// Allows one diagnostic `(code, subject)` with a written reason.
    pub fn allow(
        mut self,
        code: &'static str,
        subject: impl Into<String>,
        reason: &'static str,
    ) -> Self {
        self.allows.push(LintAllow {
            code,
            subject: subject.into(),
            reason,
        });
        self
    }

    /// Declares the emission footprint of one event kind, closing the
    /// app's emission world (kinds never passed here are declared
    /// emission-free). See [`crate::effects::EffectSummary`].
    pub fn emits(mut self, kind: EventKind, footprint: EmitFootprint) -> Self {
        self.emissions
            .get_or_insert_with(Vec::new)
            .push((kind, footprint));
        self
    }

    /// Declares that no handler of this app ever transmits a frame — the
    /// empty closed world, the strongest certificate an app can carry.
    pub fn no_emissions(mut self) -> Self {
        self.emissions.get_or_insert_with(Vec::new);
        self
    }

    /// Records the app's defining source file (use `file!()`), surfaced
    /// as the finding location in `edp_lint --sarif` output.
    pub fn source(mut self, path: &'static str) -> Self {
        self.source = Some(path);
        self
    }

    /// True when the program declares a handler for `kind`.
    pub fn implements(&self, kind: EventKind) -> bool {
        self.handlers.contains(&kind)
    }
}
