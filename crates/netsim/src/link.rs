//! Point-to-point links with serialization, propagation, and faults.

use edp_evsim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Index of a link within the network.
pub type LinkId = usize;

/// Static link parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Capacity in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Probability of silently dropping each frame (fault injection).
    pub drop_prob: f64,
}

impl LinkSpec {
    /// A 10 Gb/s link with the given propagation delay and no faults —
    /// the SUME port speed.
    pub fn ten_gig(latency: SimDuration) -> Self {
        LinkSpec {
            bandwidth_bps: 10_000_000_000,
            latency,
            drop_prob: 0.0,
        }
    }

    /// Serialization delay for a frame of `bytes` on this link.
    pub fn ser_delay(&self, bytes: usize) -> SimDuration {
        SimDuration::for_bytes_at_rate(bytes as u64, self.bandwidth_bps)
    }
}

/// A per-link packet impairment model (fault injection).
///
/// All probabilities are independent Bernoulli draws per offered frame,
/// evaluated in a fixed order (drop, corrupt, duplicate, reorder) from the
/// model's own deterministic RNG stream — never from the shared workload
/// RNG — so installing a model on one link cannot perturb any other
/// randomness in the run.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct LinkFaultModel {
    /// Probability of silently dropping a frame.
    pub drop_prob: f64,
    /// Probability of flipping one payload byte in transit.
    pub corrupt_prob: f64,
    /// Probability of delivering a frame twice (the duplicate re-occupies
    /// the wire for a second serialization slot).
    pub duplicate_prob: f64,
    /// Probability of delaying a frame by [`reorder_delay`]
    /// (`LinkFaultModel::reorder_delay`), letting later frames overtake it.
    pub reorder_prob: f64,
    /// Extra latency applied to reordered frames.
    pub reorder_delay: SimDuration,
}

impl LinkFaultModel {
    /// A pure loss model.
    pub fn loss(p: f64) -> Self {
        LinkFaultModel {
            drop_prob: p,
            ..Default::default()
        }
    }
}

/// An installed fault model plus its per-direction RNG streams.
#[derive(Debug, Clone)]
pub struct LinkFaults {
    /// The impairment probabilities.
    pub model: LinkFaultModel,
    /// Independent streams, indexed by [`Dir`].
    rng: [SimRng; 2],
}

impl LinkFaults {
    /// Pairs a model with its two direction streams (see
    /// [`SimRng::stream`] for the derivation scheme).
    pub fn new(model: LinkFaultModel, rng_ab: SimRng, rng_ba: SimRng) -> Self {
        LinkFaults {
            model,
            rng: [rng_ab, rng_ba],
        }
    }
}

/// What the wire did with one offered frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Arrival instant at the far end.
    pub at: SimTime,
    /// When set, the byte at this frame offset arrives bit-flipped.
    pub corrupt_at: Option<usize>,
}

/// Outcome of offering a frame to a faulty wire: zero, one, or two
/// deliveries (two when the duplication model fired). Fixed-size so the
/// fault path allocates nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deliveries {
    /// The original frame's delivery, if it survived.
    pub first: Option<Delivery>,
    /// The duplicate's delivery, if one was made.
    pub second: Option<Delivery>,
}

/// One direction of a full-duplex link.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct LinkDirState {
    /// The wire is serializing a frame until this instant.
    pub busy_until: SimTime,
    /// Frames carried.
    pub tx_frames: u64,
    /// Bytes carried.
    pub tx_bytes: u64,
    /// Frames dropped by fault injection.
    pub fault_drops: u64,
    /// Frames dropped because the link was down.
    pub down_drops: u64,
    /// Frames delivered with a flipped byte.
    pub corrupted: u64,
    /// Extra copies delivered by the duplication model.
    pub duplicated: u64,
    /// Frames delayed by the reordering model.
    pub reordered: u64,
}

/// Runtime state of a full-duplex link.
#[derive(Debug, Clone)]
pub struct LinkState {
    /// Static parameters.
    pub spec: LinkSpec,
    /// Administrative/physical status.
    pub up: bool,
    /// Per-direction state, indexed by [`Dir`].
    pub dirs: [LinkDirState; 2],
    /// Installed impairment model, if any.
    pub faults: Option<LinkFaults>,
}

/// Link direction: A→B or B→A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// From endpoint A to endpoint B.
    AtoB = 0,
    /// From endpoint B to endpoint A.
    BtoA = 1,
}

impl LinkState {
    /// Creates an up link.
    pub fn new(spec: LinkSpec) -> Self {
        LinkState {
            spec,
            up: true,
            dirs: [LinkDirState::default(), LinkDirState::default()],
            faults: None,
        }
    }

    /// Attempts to put a frame of `bytes` on the wire in direction `dir`
    /// at `now`. Returns the delivery time at the far end, or `None` if
    /// the frame was dropped (link down or fault injection). The wire is
    /// marked busy for the serialization time either way it is accepted.
    pub fn offer(
        &mut self,
        dir: Dir,
        now: SimTime,
        bytes: usize,
        rng: &mut SimRng,
    ) -> Option<SimTime> {
        let d = &mut self.dirs[dir as usize];
        if !self.up {
            d.down_drops += 1;
            return None;
        }
        let ser = self.spec.ser_delay(bytes);
        let start = now.max(d.busy_until);
        d.busy_until = start + ser;
        if self.spec.drop_prob > 0.0 && rng.chance(self.spec.drop_prob) {
            d.fault_drops += 1;
            return None;
        }
        d.tx_frames += 1;
        d.tx_bytes += bytes as u64;
        Some(d.busy_until + self.spec.latency)
    }

    /// Like [`offer`](Self::offer), but additionally runs the installed
    /// [`LinkFaultModel`], which can drop, corrupt, duplicate, or delay the
    /// frame. Model randomness comes from the model's own per-direction
    /// stream; `rng` is only consulted for the legacy `spec.drop_prob`.
    pub fn offer_faulty(
        &mut self,
        dir: Dir,
        now: SimTime,
        bytes: usize,
        rng: &mut SimRng,
    ) -> Deliveries {
        let Some(at) = self.offer(dir, now, bytes, rng) else {
            return Deliveries::default();
        };
        let Some(faults) = self.faults.as_mut() else {
            return Deliveries {
                first: Some(Delivery {
                    at,
                    corrupt_at: None,
                }),
                second: None,
            };
        };
        let m = faults.model;
        let frng = &mut faults.rng[dir as usize];
        let d = &mut self.dirs[dir as usize];
        if m.drop_prob > 0.0 && frng.chance(m.drop_prob) {
            // The frame burned its wire slot (busy_until stands) but never
            // arrives; undo the carried-traffic accounting `offer` did.
            d.fault_drops += 1;
            d.tx_frames -= 1;
            d.tx_bytes -= bytes as u64;
            return Deliveries::default();
        }
        let corrupt_at = if m.corrupt_prob > 0.0 && bytes > 0 && frng.chance(m.corrupt_prob) {
            d.corrupted += 1;
            Some(frng.index(bytes))
        } else {
            None
        };
        let mut out = Deliveries {
            first: Some(Delivery { at, corrupt_at }),
            second: None,
        };
        if m.duplicate_prob > 0.0 && frng.chance(m.duplicate_prob) {
            // The copy serializes right behind the original.
            let ser = self.spec.ser_delay(bytes);
            d.busy_until += ser;
            d.duplicated += 1;
            d.tx_frames += 1;
            d.tx_bytes += bytes as u64;
            out.second = Some(Delivery {
                at: d.busy_until + self.spec.latency,
                corrupt_at: None,
            });
        }
        if m.reorder_prob > 0.0 && frng.chance(m.reorder_prob) {
            d.reordered += 1;
            if let Some(first) = out.first.as_mut() {
                first.at += m.reorder_delay;
            }
        }
        out
    }

    /// Utilization of direction `dir` over `[0, now]`: busy time fraction.
    ///
    /// Approximated as bytes·8/bandwidth over elapsed time — exact for
    /// non-preempted serialization.
    pub fn utilization(&self, dir: Dir, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        let d = &self.dirs[dir as usize];
        let busy_ns = d.tx_bytes as f64 * 8.0 * 1e9 / self.spec.bandwidth_bps as f64;
        (busy_ns / now.as_nanos() as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(1)
    }

    #[test]
    fn delivery_time_includes_ser_and_latency() {
        let mut l = LinkState::new(LinkSpec::ten_gig(SimDuration::from_micros(1)));
        let t = l
            .offer(Dir::AtoB, SimTime::ZERO, 1250, &mut rng())
            .expect("delivered");
        // 1250 B at 10 Gb/s = 1 us ser + 1 us latency.
        assert_eq!(t, SimTime::from_micros(2));
    }

    #[test]
    fn back_to_back_serialize_in_order() {
        let mut l = LinkState::new(LinkSpec::ten_gig(SimDuration::ZERO));
        let mut r = rng();
        let t1 = l.offer(Dir::AtoB, SimTime::ZERO, 1250, &mut r).expect("1");
        let t2 = l.offer(Dir::AtoB, SimTime::ZERO, 1250, &mut r).expect("2");
        assert_eq!(t1, SimTime::from_micros(1));
        assert_eq!(t2, SimTime::from_micros(2), "second waits for the wire");
    }

    #[test]
    fn directions_independent() {
        let mut l = LinkState::new(LinkSpec::ten_gig(SimDuration::ZERO));
        let mut r = rng();
        let t1 = l.offer(Dir::AtoB, SimTime::ZERO, 1250, &mut r).expect("a");
        let t2 = l.offer(Dir::BtoA, SimTime::ZERO, 1250, &mut r).expect("b");
        assert_eq!(t1, t2, "full duplex");
    }

    #[test]
    fn down_link_drops() {
        let mut l = LinkState::new(LinkSpec::ten_gig(SimDuration::ZERO));
        l.up = false;
        assert!(l.offer(Dir::AtoB, SimTime::ZERO, 100, &mut rng()).is_none());
        assert_eq!(l.dirs[0].down_drops, 1);
    }

    #[test]
    fn fault_injection_drops_statistically() {
        let mut l = LinkState::new(LinkSpec {
            bandwidth_bps: 10_000_000_000,
            latency: SimDuration::ZERO,
            drop_prob: 0.5,
        });
        let mut r = rng();
        let mut dropped = 0;
        for i in 0..1000 {
            if l.offer(Dir::AtoB, SimTime::from_micros(i * 10), 100, &mut r)
                .is_none()
            {
                dropped += 1;
            }
        }
        assert!(
            (380..620).contains(&dropped),
            "drop_prob 0.5 gave {dropped}/1000"
        );
        assert_eq!(l.dirs[0].fault_drops, dropped);
    }

    fn faulty(model: LinkFaultModel) -> LinkState {
        let mut l = LinkState::new(LinkSpec::ten_gig(SimDuration::ZERO));
        l.faults = Some(LinkFaults::new(
            model,
            SimRng::stream(1, &[0]),
            SimRng::stream(1, &[1]),
        ));
        l
    }

    #[test]
    fn model_loss_drops_from_its_own_stream() {
        let mut l = faulty(LinkFaultModel::loss(0.5));
        let mut workload = rng();
        let before = workload.clone();
        let mut dropped = 0;
        for i in 0..1000 {
            let out = l.offer_faulty(Dir::AtoB, SimTime::from_micros(i * 10), 100, &mut workload);
            if out.first.is_none() {
                dropped += 1;
            }
        }
        assert!((380..620).contains(&dropped), "p=0.5 gave {dropped}/1000");
        assert_eq!(l.dirs[0].fault_drops, dropped);
        assert_eq!(l.dirs[0].tx_frames, 1000 - dropped);
        // spec.drop_prob is zero, so the shared workload RNG was untouched.
        let mut a = before;
        let mut b = workload;
        assert_eq!(a.uniform_u64(0, 1 << 40), b.uniform_u64(0, 1 << 40));
    }

    #[test]
    fn model_duplicate_delivers_twice_and_corrupt_flags_offset() {
        let mut l = faulty(LinkFaultModel {
            duplicate_prob: 1.0,
            corrupt_prob: 1.0,
            ..Default::default()
        });
        let out = l.offer_faulty(Dir::AtoB, SimTime::ZERO, 1250, &mut rng());
        let first = out.first.expect("original delivered");
        let second = out.second.expect("duplicate delivered");
        assert!(first.corrupt_at.is_some_and(|o| o < 1250));
        assert_eq!(second.corrupt_at, None, "copy is taken before the flip");
        // 1250 B = 1 us per serialization: original at 1 us, copy at 2 us.
        assert_eq!(first.at, SimTime::from_micros(1));
        assert_eq!(second.at, SimTime::from_micros(2));
        assert_eq!(l.dirs[0].duplicated, 1);
        assert_eq!(l.dirs[0].corrupted, 1);
        assert_eq!(l.dirs[0].tx_frames, 2);
    }

    #[test]
    fn model_reorder_delays_delivery() {
        let mut l = faulty(LinkFaultModel {
            reorder_prob: 1.0,
            reorder_delay: SimDuration::from_micros(50),
            ..Default::default()
        });
        let out = l.offer_faulty(Dir::AtoB, SimTime::ZERO, 1250, &mut rng());
        assert_eq!(out.first.expect("delivered").at, SimTime::from_micros(51));
        assert_eq!(l.dirs[0].reordered, 1);
    }

    #[test]
    fn no_model_offer_faulty_matches_offer() {
        let mut a = LinkState::new(LinkSpec::ten_gig(SimDuration::from_micros(1)));
        let mut b = LinkState::new(LinkSpec::ten_gig(SimDuration::from_micros(1)));
        let t1 = a
            .offer(Dir::AtoB, SimTime::ZERO, 1250, &mut rng())
            .expect("a");
        let out = b.offer_faulty(Dir::AtoB, SimTime::ZERO, 1250, &mut rng());
        assert_eq!(
            out.first,
            Some(Delivery {
                at: t1,
                corrupt_at: None
            })
        );
        assert!(out.second.is_none());
    }

    #[test]
    fn utilization_tracks_bytes() {
        let mut l = LinkState::new(LinkSpec::ten_gig(SimDuration::ZERO));
        let mut r = rng();
        // 1250 B = 1 us of a 10 Gb/s wire.
        l.offer(Dir::AtoB, SimTime::ZERO, 1250, &mut r);
        let u = l.utilization(Dir::AtoB, SimTime::from_micros(10));
        assert!((u - 0.1).abs() < 1e-9, "{u}");
        assert_eq!(l.utilization(Dir::BtoA, SimTime::from_micros(10)), 0.0);
    }
}
