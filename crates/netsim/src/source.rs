//! Traffic sources as data. A generator arms one [`NetEvent::Source`]
//! carrying its [`Source`], boxed once per stream; each firing runs one
//! step and moves the box into the event that re-arms it. Periodic
//! streams (CBR, on/off, the fleet pacer) re-arm with [`Sim::rearm_at`],
//! without a `SchedArm` record; chained ones (Poisson, replay) arm each
//! firing anew with [`Sim::schedule_at`] and its record.

use crate::host::{HostApp, HostId};
use crate::net::{NetEvent, Network, NodeRef};
use crate::traffic::FrameFn;
use edp_evsim::{Sim, SimDuration, SimTime};
use edp_packet::PcapPacket;
use std::sync::Arc;

/// A stream's frame factory, boxed once per stream.
type Frames = Box<dyn FrameFn>;

/// One generator stream's state, its fields in the order each doc names
/// them: the sending host first, and `frame(i)` builds the `i`-th frame.
pub enum Source {
    /// `(host, interval, count, sent, frame)`: `count` frames, one every
    /// `interval`.
    Cbr(HostId, SimDuration, u64, u64, Frames),
    /// `(host, period, burst_len, spacing, until, seq, frame)`: a burst of
    /// `burst_len` frames, `spacing` apart (zero: at once), every
    /// `period`; none starts at or after `until`.
    OnOff(HostId, SimDuration, u64, SimDuration, SimTime, u64, Frames),
    /// `(host, mean_ns, until, seq, started, frame)`: exponential gaps of
    /// mean `mean_ns`, no frame at or after `until`. The first firing, at
    /// the start, only draws the first gap.
    Poisson(HostId, f64, SimTime, u64, bool, Frames),
    /// `(host, n, frame)`: `n` frames at once; fires once.
    Burst(HostId, u64, Frames),
    /// `(host, packets, start, speedup, until, next)`: a capture replayed
    /// from `start` on its own gaps compressed by `speedup`, `next` the
    /// next packet (see [`crate::replay`]).
    Replay(HostId, Arc<Vec<PcapPacket>>, SimTime, f64, SimTime, usize),
    /// `(host, tick, until)`: the endpoint fleet's pacer (see
    /// [`crate::endpoint`]).
    Pacer(HostId, SimDuration, SimTime),
}

/// When a source fires next.
pub(crate) enum Next {
    /// Re-armed without a record (a periodic stream).
    Rearm(SimTime),
    /// Armed anew, with a record (a chained stream).
    Arm(SimTime),
}

impl Source {
    /// Arms the source's first firing at `at`.
    pub(crate) fn arm(self, sim: &mut Sim<Network>, at: SimTime) {
        sim.schedule_at(at, NetEvent::Source(Box::new(self)));
    }

    /// Sends what is due now; returns when the source fires next, or
    /// `None` when it is done.
    pub(crate) fn step(&mut self, w: &mut Network, s: &mut Sim<Network>) -> Option<Next> {
        let now = s.now();
        match self {
            Source::Cbr(host, interval, count, sent, frame) => {
                w.host_send(s, *host, frame(*sent));
                *sent += 1;
                (*sent < *count).then(|| Next::Rearm(now + *interval))
            }
            Source::OnOff(host, period, burst_len, spacing, until, seq, frame) => {
                if now >= *until {
                    return None;
                }
                // Each frame is handed over once: sent now when `spacing`
                // is zero, else moved into its own event `spacing * k` on.
                for k in 0..*burst_len {
                    let f = frame(*seq + k);
                    if spacing.is_zero() {
                        w.host_send(s, *host, f);
                    } else {
                        s.schedule_in(*spacing * k, NetEvent::Frame(*host, f));
                    }
                }
                *seq += *burst_len;
                Some(Next::Rearm(now + *period))
            }
            Source::Poisson(host, mean_ns, until, seq, started, frame) => {
                if *started {
                    w.host_send(s, *host, frame(*seq));
                    *seq += 1;
                }
                *started = true;
                let dt = SimDuration::from_nanos(w.rng.exp(*mean_ns).max(1.0) as u64);
                let at = now + dt;
                (at < *until).then_some(Next::Arm(at))
            }
            Source::Burst(host, n, frame) => {
                for i in 0..*n {
                    w.host_send(s, *host, frame(i));
                }
                None
            }
            Source::Replay(host, packets, start, speedup, until, next) => {
                let i = *next;
                let frame = match Arc::get_mut(packets) {
                    Some(own) => std::mem::take(&mut own[i].data),
                    None => packets[i].data.clone(),
                };
                w.host_send(s, *host, frame);
                *next += 1;
                // Gaps are scaled relative to the first packet's stamp;
                // integer nanoseconds after one f64 division keep the
                // schedule deterministic, and time never runs back.
                let p = packets.get(*next)?;
                let gap = p.ts_ns.saturating_sub(packets[0].ts_ns);
                let scaled = SimDuration::from_nanos((gap as f64 / *speedup) as u64);
                let at = (*start + scaled).max(now);
                (at < *until).then_some(Next::Arm(at))
            }
            Source::Pacer(host, tick, until) => {
                if now >= *until {
                    return None;
                }
                if w.owns_node(NodeRef::Host(*host)) {
                    let frames = match &mut w.hosts[*host].app {
                        HostApp::ClientFleet(fleet) => fleet.advance(now),
                        _ => return None,
                    };
                    for f in frames {
                        w.host_send(s, *host, f);
                    }
                }
                Some(Next::Rearm(now + *tick))
            }
        }
    }
}
