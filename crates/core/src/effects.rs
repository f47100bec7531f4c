//! Static effect summaries: what an event program can *do to the wire*.
//!
//! An [`EffectSummary`] is the per-app certificate that bounds which
//! handler firings *might* transmit a frame: for every [`EventKind`] it
//! gives a conservative
//! [`EmitFootprint`] — the set of ports on which handling an event of
//! that kind can cause a frame to leave the switch, closed over the
//! indirect paths (raised user events, generated/recirculated packets)
//! a handler can trigger.
//!
//! Summaries are *declared* in the [`AppManifest`] (closed-world apps
//! list their per-kind footprints; apps that declare nothing stay
//! open-world and certify nothing) and *cross-checked* by `edp-analyze`,
//! which drives the probe over every declared event and reports any
//! observed emission not covered by the declaration (lints EDP-W008 /
//! EDP-E007). The certificate is static tooling: no engine reads it. An
//! event kind whose closure footprint is [`EmitFootprint::None`] cannot
//! make a handler transmit.

use crate::event::EventKind;
use crate::manifest::AppManifest;
use edp_pisa::PortId;
use std::collections::{BTreeMap, BTreeSet};

/// The ports on which handling one event can cause a frame to leave the
/// switch. Forms a join-semilattice under [`EmitFootprint::union`] with
/// `None` at the bottom and `Any` at the top; every analysis in this
/// module only ever moves footprints upward, which is what keeps the
/// summary conservative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitFootprint {
    /// The handler provably cannot transmit.
    None,
    /// The handler can transmit only on these ports.
    Ports(BTreeSet<PortId>),
    /// The handler may transmit on any port (floods, or unknown).
    Any,
}

impl EmitFootprint {
    /// True when the footprint admits at least one transmission.
    pub fn can_emit(&self) -> bool {
        !matches!(self, EmitFootprint::None)
    }

    /// True when every emission allowed by `other` is allowed by `self`.
    pub fn covers(&self, other: &EmitFootprint) -> bool {
        match (self, other) {
            (_, EmitFootprint::None) => true,
            (EmitFootprint::Any, _) => true,
            (EmitFootprint::None, _) => false,
            (EmitFootprint::Ports(a), EmitFootprint::Ports(b)) => b.is_subset(a),
            (EmitFootprint::Ports(_), EmitFootprint::Any) => false,
        }
    }

    /// Least upper bound of two footprints.
    pub fn union(self, other: EmitFootprint) -> EmitFootprint {
        match (self, other) {
            (EmitFootprint::None, x) | (x, EmitFootprint::None) => x,
            (EmitFootprint::Any, _) | (_, EmitFootprint::Any) => EmitFootprint::Any,
            (EmitFootprint::Ports(mut a), EmitFootprint::Ports(b)) => {
                a.extend(b);
                EmitFootprint::Ports(a)
            }
        }
    }

    /// Footprint for a single port.
    pub fn port(p: PortId) -> EmitFootprint {
        EmitFootprint::Ports(std::iter::once(p).collect())
    }
}

impl std::fmt::Display for EmitFootprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmitFootprint::None => write!(f, "-"),
            EmitFootprint::Any => write!(f, "any"),
            EmitFootprint::Ports(p) => {
                let ports: Vec<String> = p.iter().map(|p| p.to_string()).collect();
                write!(f, "ports[{}]", ports.join(","))
            }
        }
    }
}

/// The per-app emission certificate, derived from an [`AppManifest`]'s
/// declarations by [`EffectSummary::from_manifest`].
///
/// An app that never called [`AppManifest::emits`] or
/// [`AppManifest::no_emissions`] is *open-world*: nothing is known, and
/// every closure footprint is [`EmitFootprint::Any`]. An app with a
/// declaration map is *closed-world*: kinds absent from the map are
/// declared emission-free, and `edp-analyze` treats any probed emission
/// outside the map as a contract violation (EDP-E007).
#[derive(Debug, Clone)]
pub struct EffectSummary {
    /// App name, as reported in diagnostics.
    pub app: &'static str,
    /// True when the manifest declared a (possibly empty) emission map.
    pub closed_world: bool,
    /// Declared direct per-kind footprints (closed-world apps only).
    pub declared: BTreeMap<EventKind, EmitFootprint>,
    /// The app may raise user events (manifest `raises_user_codes`).
    pub raises_user: bool,
    /// The app may generate packets (manifest `generates_packets`).
    pub generates: bool,
}

impl EffectSummary {
    /// Builds the summary from a manifest's declarations. Purely static:
    /// no probing, no traffic — `edp-analyze` is the pass that checks the
    /// declarations against observed behavior.
    pub fn from_manifest(m: &AppManifest) -> EffectSummary {
        EffectSummary {
            app: m.name,
            closed_world: m.emissions.is_some(),
            declared: m
                .emissions
                .as_ref()
                .map(|e| e.iter().cloned().collect())
                .unwrap_or_default(),
            raises_user: !m.raises_user_codes.is_empty(),
            generates: m.generates_packets,
        }
    }

    /// The *direct* declared footprint of one event kind: what the
    /// handler itself may transmit, before closing over indirect paths.
    pub fn direct(&self, kind: EventKind) -> EmitFootprint {
        if !self.closed_world {
            return EmitFootprint::Any;
        }
        self.declared
            .get(&kind)
            .cloned()
            .unwrap_or(EmitFootprint::None)
    }

    /// The union of every pipeline-entering kind's direct footprint.
    /// Once any packet pipeline pass starts, a conservative analysis must
    /// assume the whole pipeline family is reachable: a pass may set
    /// `Destination::Recirculate`, and un-overridden recirculated /
    /// generated handlers *fall through to `on_ingress`*, so the three
    /// entry kinds are mutually reachable.
    fn pipeline_footprint(&self) -> EmitFootprint {
        self.direct(EventKind::IngressPacket)
            .union(self.direct(EventKind::RecirculatedPacket))
            .union(self.direct(EventKind::GeneratedPacket))
    }

    /// The footprint of one event kind *closed over* everything handling
    /// it can trigger: a handler that raises user events inherits the
    /// user-event footprint, and any path that can start a packet
    /// pipeline pass — the app generates packets, or `kind` is itself a
    /// pipeline kind (which may recirculate) — inherits the whole
    /// [pipeline footprint](Self::pipeline_footprint). One union reaches
    /// the fixed point: user handlers have no packet metadata so they
    /// cannot recirculate, and the raise/generate flags are app-global,
    /// so the folded-in footprints' own cascades add nothing beyond the
    /// union.
    pub fn closure(&self, kind: EventKind) -> EmitFootprint {
        if !self.closed_world {
            return EmitFootprint::Any;
        }
        let mut acc = self.direct(kind);
        if self.raises_user {
            acc = acc.union(self.direct(EventKind::UserEvent));
        }
        let pipeline_kind = matches!(
            kind,
            EventKind::IngressPacket | EventKind::RecirculatedPacket | EventKind::GeneratedPacket
        );
        if self.generates || pipeline_kind {
            acc = acc.union(self.pipeline_footprint());
        }
        acc
    }

    /// True when firing a timer provably cannot transmit a frame: the
    /// whole timer cascade (handler, raised user events, generated
    /// packets) emits nothing.
    pub fn timer_local(&self) -> bool {
        !self.closure(EventKind::TimerExpiration).can_emit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ports(ps: &[PortId]) -> EmitFootprint {
        EmitFootprint::Ports(ps.iter().copied().collect())
    }

    #[test]
    fn footprint_lattice_union_and_covers() {
        assert_eq!(
            EmitFootprint::None.union(ports(&[1])),
            ports(&[1]),
            "None is the identity"
        );
        assert_eq!(ports(&[1]).union(ports(&[2])), ports(&[1, 2]));
        assert_eq!(ports(&[1]).union(EmitFootprint::Any), EmitFootprint::Any);
        assert!(EmitFootprint::Any.covers(&ports(&[7])));
        assert!(ports(&[1, 2]).covers(&ports(&[2])));
        assert!(!ports(&[1]).covers(&ports(&[2])));
        assert!(!EmitFootprint::None.covers(&ports(&[1])));
        assert!(ports(&[1]).covers(&EmitFootprint::None));
        assert!(!ports(&[1]).covers(&EmitFootprint::Any));
        assert!(!EmitFootprint::None.can_emit());
    }

    #[test]
    fn open_world_certifies_nothing() {
        let m = AppManifest::new("open").handles([EventKind::TimerExpiration]);
        let s = EffectSummary::from_manifest(&m);
        assert!(!s.closed_world);
        assert_eq!(s.closure(EventKind::TimerExpiration), EmitFootprint::Any);
        assert!(!s.timer_local());
    }

    #[test]
    fn closed_world_defaults_absent_kinds_to_no_emission() {
        let m = AppManifest::new("closed")
            .handles([EventKind::IngressPacket, EventKind::TimerExpiration])
            .emits(EventKind::IngressPacket, EmitFootprint::Any);
        let s = EffectSummary::from_manifest(&m);
        assert!(s.closed_world);
        assert_eq!(s.direct(EventKind::TimerExpiration), EmitFootprint::None);
        assert!(s.timer_local());
    }

    #[test]
    fn closure_folds_in_user_and_generated_paths() {
        let m = AppManifest::new("cascade")
            .raises([42])
            .generates()
            .emits(EventKind::UserEvent, EmitFootprint::port(2))
            .emits(EventKind::GeneratedPacket, EmitFootprint::port(3))
            .emits(EventKind::TimerExpiration, EmitFootprint::None);
        let s = EffectSummary::from_manifest(&m);
        // The timer raises nothing directly, but the app's user/generated
        // paths make its closure footprint ports {2, 3}.
        assert_eq!(s.closure(EventKind::TimerExpiration), ports(&[2, 3]));
        assert!(!s.timer_local());
    }

    #[test]
    fn pipeline_kinds_inherit_each_others_footprints() {
        // An ingress handler may recirculate, and the recirculated pass
        // may emit — so closure(Ingress) must cover the recirculated
        // footprint even when direct(Ingress) declares nothing.
        let m = AppManifest::new("recirc")
            .handles([EventKind::IngressPacket, EventKind::RecirculatedPacket])
            .emits(EventKind::RecirculatedPacket, EmitFootprint::port(4));
        let s = EffectSummary::from_manifest(&m);
        assert_eq!(s.closure(EventKind::IngressPacket), ports(&[4]));
        // Non-pipeline kinds of a non-generating app stay clean.
        assert_eq!(s.closure(EventKind::TimerExpiration), EmitFootprint::None);
        assert!(s.timer_local());
    }

    #[test]
    fn no_emissions_declares_the_empty_closed_world() {
        let m = AppManifest::new("pure").no_emissions();
        let s = EffectSummary::from_manifest(&m);
        assert!(s.closed_world);
        assert!(s.timer_local());
        for k in EventKind::ALL {
            assert_eq!(s.closure(k), EmitFootprint::None);
        }
    }
}
