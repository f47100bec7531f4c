//! Deterministic fault injection: seeded schedules of link failures,
//! flaps, packet impairments, and switch stalls.
//!
//! A [`FaultPlan`] is a declarative description of everything that goes
//! wrong in an experiment. [`FaultPlan::apply`] installs it on a built
//! [`Network`]: status changes become scheduled events (so attached
//! switches see the link-status stimuli of the paper's Table 1), and
//! packet impairment models get their own per-link, per-direction RNG
//! streams derived statelessly via [`SimRng::stream`] from the plan's
//! seed — never from the shared workload RNG. That makes every run a
//! pure function of `(topology, workload seed, fault seed)`: adding a
//! fault to one link cannot perturb another link's impairments, and the
//! outcome is identical regardless of thread count or construction
//! order.

use crate::link::{LinkFaultModel, LinkFaults, LinkId};
use crate::net::{NetEvent, Network};
use edp_evsim::{Sim, SimDuration, SimRng, SimTime};

/// First path element of every fault RNG stream: separates the fault
/// domain from any other consumer of [`SimRng::stream`] on the same
/// master seed.
pub const FAULT_DOMAIN: u64 = 0xFA17;

/// A repeating down/up cycle on one link.
#[derive(Debug, Clone, Copy)]
struct Flap {
    link: LinkId,
    first_down: SimTime,
    down_for: SimDuration,
    period: SimDuration,
    count: u32,
}

/// A declarative, seeded schedule of faults for one experiment.
///
/// Build with the fluent methods, then [`apply`](FaultPlan::apply) once
/// after the topology exists. The plan itself is plain data — applying
/// the same plan to the same network always produces the same run.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    downs: Vec<(LinkId, SimTime, Option<SimTime>)>,
    flaps: Vec<Flap>,
    models: Vec<(LinkId, LinkFaultModel)>,
    stalls: Vec<(usize, SimTime, SimTime)>,
}

impl FaultPlan {
    /// An empty plan whose impairment models will draw from streams
    /// derived from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            downs: Vec::new(),
            flaps: Vec::new(),
            models: Vec::new(),
            stalls: Vec::new(),
        }
    }

    /// Takes `link` down at `at`, optionally bringing it back at
    /// `back_up`.
    pub fn link_down_at(mut self, link: LinkId, at: SimTime, back_up: Option<SimTime>) -> Self {
        self.downs.push((link, at, back_up));
        self
    }

    /// Flaps `link`: `count` down/up cycles starting at `first_down`,
    /// each staying down for `down_for`, one cycle every `period`.
    pub fn link_flap(
        mut self,
        link: LinkId,
        first_down: SimTime,
        down_for: SimDuration,
        period: SimDuration,
        count: u32,
    ) -> Self {
        assert!(
            down_for < period,
            "flap must come back up within its period"
        );
        self.flaps.push(Flap {
            link,
            first_down,
            down_for,
            period,
            count,
        });
        self
    }

    /// Installs a packet impairment model (drop/corrupt/duplicate/
    /// reorder) on `link`, both directions.
    pub fn link_model(mut self, link: LinkId, model: LinkFaultModel) -> Self {
        self.models.push((link, model));
        self
    }

    /// Freezes switch `i` between `from` and `until` (no receive,
    /// transmit, or timer cranks while stalled).
    pub fn switch_stall(mut self, i: usize, from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "empty stall window");
        self.stalls.push((i, from, until));
        self
    }

    /// The RNG stream a given link direction's impairment model draws
    /// from: `stream(seed, [FAULT_DOMAIN, link, dir])`. Exposed so tests
    /// can reproduce a model's draws independently.
    pub fn model_stream(&self, link: LinkId, dir: usize) -> SimRng {
        SimRng::stream(self.seed, &[FAULT_DOMAIN, link as u64, dir as u64])
    }

    /// Installs the plan on a built network: impairment models
    /// immediately, status changes and stalls as scheduled events.
    ///
    /// # Panics
    /// On a stall of a switch the network does not have, before anything
    /// is armed, and wherever [`Network::schedule_link_failure`] panics.
    pub fn apply(&self, net: &mut Network, sim: &mut Sim<Network>) {
        for &(i, ..) in &self.stalls {
            assert!(
                i < net.switches.len(),
                "stall on switch {i}, but the network has {} switches",
                net.switches.len()
            );
        }
        for &(link, model) in &self.models {
            net.set_link_faults(
                link,
                Some(LinkFaults::new(
                    model,
                    self.model_stream(link, 0),
                    self.model_stream(link, 1),
                )),
            );
        }
        for &(link, at, back_up) in &self.downs {
            net.schedule_link_failure(sim, link, at, back_up);
        }
        for &f in &self.flaps {
            for k in 0..f.count {
                let down = f.first_down + f.period * u64::from(k);
                net.schedule_link_failure(sim, f.link, down, Some(down + f.down_for));
            }
        }
        for &(i, from, until) in &self.stalls {
            sim.schedule_at(from, NetEvent::Stall(i, until));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_streams_are_per_link_and_direction() {
        let plan = FaultPlan::new(42);
        let draw = |mut r: SimRng| -> Vec<u64> {
            (0..8).map(|_| r.uniform_u64(0, u64::MAX - 1)).collect()
        };
        let a = draw(plan.model_stream(0, 0));
        assert_eq!(
            a,
            draw(plan.model_stream(0, 0)),
            "stateless: same every time"
        );
        assert_ne!(a, draw(plan.model_stream(0, 1)), "directions differ");
        assert_ne!(a, draw(plan.model_stream(1, 0)), "links differ");
        assert_ne!(
            a,
            draw(FaultPlan::new(43).model_stream(0, 0)),
            "seeds differ"
        );
    }

    #[test]
    #[should_panic(expected = "stall on switch 0, but the network has 0 switches")]
    fn stall_of_a_missing_switch_panics_when_applied() {
        let plan = FaultPlan::new(1).switch_stall(0, SimTime::ZERO, SimTime::from_micros(1));
        plan.apply(&mut Network::new(1), &mut Sim::new());
    }

    #[test]
    #[should_panic(expected = "within its period")]
    fn flap_longer_than_period_panics() {
        let _ = FaultPlan::new(1).link_flap(
            0,
            SimTime::ZERO,
            SimDuration::from_micros(5),
            SimDuration::from_micros(5),
            1,
        );
    }
}
