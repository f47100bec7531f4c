//! Wall-clock lap profiler: where did a sharded worker's *real* time go?
//!
//! The trace ring and metrics registry in this crate are sim-time-only
//! and determinism-pinned — byte-identical across thread counts, shard
//! counts, and sub-window counts. That is exactly why they cannot answer
//! the question the sharded engine's perf work asks: of a run's
//! wall-clock seconds, how many were compute, how many were barrier
//! wait, and how many were mailbox exchange? This module is the
//! complementary layer: a per-thread *profiling session* over the
//! monotonic clock ([`std::time::Instant`]), opt-in, and structurally
//! nondeterministic — its output must never feed a canonical render,
//! JSON export, or Prometheus dump that a determinism pin covers.
//!
//! # Attribution model: laps, not paired spans
//!
//! Instrumented code (the sharded engine's window loop) calls
//! [`lap`]`(phase)` at each phase *boundary*: every nanosecond between
//! two laps is attributed to the phase named by the second one. One
//! clock read per transition, no unbalanced begin/end pairs possible,
//! and — because [`enable`] starts the stopwatch and [`disable`] laps the
//! tail into [`Phase::Finish`] — the per-phase totals sum to the
//! session's wall-clock span by construction. Nothing is "unattributed":
//! any time between two boundaries lands in the phase whose boundary
//! follows it. A session keeps only those totals.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Number of profiling phases (the length of [`Profile::phase_ns`]).
pub const NPHASES: usize = 7;

/// The wall-clock phase a lap attributes time to. Mirrors the event
/// lifecycle of one shard worker: build the world, then loop
/// negotiate → execute → fill mailboxes → wait at the barrier →
/// extend the window, and finally tear down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// World construction: topology build, workload scheduling,
    /// partitioning, timer arming — everything before the window loop.
    Setup = 0,
    /// Event execution: `Sim::run_before` firing handlers.
    Execute = 1,
    /// Window negotiation: publishing the local earliest event times and
    /// waiting for the global minimum (both rendezvous of
    /// `WindowSync::negotiate`).
    Negotiate = 2,
    /// Mailbox exchange work: draining inbound mailboxes into the
    /// schedule and staging/publishing outbound batches.
    Mailbox = 3,
    /// Blocked at an exchange / vote barrier waiting for peer shards.
    Barrier = 4,
    /// Horizon extension: continuing a window past a sub-barrier
    /// (mid-window accepts and the next-horizon bookkeeping).
    Extend = 5,
    /// Teardown after the window loop: metric publication, session
    /// collection, and the tail up to `disable`.
    Finish = 6,
}

impl Phase {
    /// Index into a `phase_ns` array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// What one profiling session recorded, returned by [`disable`].
#[derive(Debug, Clone)]
pub struct Profile {
    /// Shard id the session profiled.
    pub shard: usize,
    /// Wall-clock nanoseconds from [`enable`] to [`disable`].
    pub total_ns: u64,
    /// Per-phase attributed nanoseconds, indexed by [`Phase::index`].
    /// Sums to `total_ns` by construction of the lap model.
    pub phase_ns: [u64; NPHASES],
}

impl Profile {
    /// Nanoseconds attributed to named phases — equals `total_ns` in a
    /// healthy session (the lap model attributes everything).
    pub fn attributed_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }
}

struct ProfState {
    epoch: Instant,
    shard: usize,
    start_ns: u64,
    last_ns: u64,
    phase_ns: [u64; NPHASES],
}

impl ProfState {
    fn lap(&mut self, phase: Phase) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.phase_ns[phase.index()] += now - self.last_ns;
        self.last_ns = now;
    }
}

thread_local! {
    static PROF_ON: Cell<bool> = const { Cell::new(false) };
    static PROF: RefCell<Option<ProfState>> = const { RefCell::new(None) };
}

/// Count of enabled profiling sessions across all threads — the same
/// disabled-path discipline as the telemetry session: with no session
/// anywhere, every hook is one relaxed static load and a predictable
/// branch, never a TLS access.
static PROF_ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// True while a profiling session is enabled on this thread.
#[inline(always)]
pub fn on() -> bool {
    if PROF_ACTIVE.load(Ordering::Relaxed) == 0 {
        return false;
    }
    PROF_ON.with(|c| c.get())
}

/// Starts a profiling session on this thread for shard `shard`; laps
/// read the clock as nanoseconds since `epoch`. The shard count is not
/// read; the parameter stays because `benchmark/` calls this
/// three-argument form.
pub fn enable(epoch: Instant, shard: usize, _shards: usize) {
    let start_ns = epoch.elapsed().as_nanos() as u64;
    PROF.with(|s| {
        *s.borrow_mut() = Some(ProfState {
            epoch,
            shard,
            start_ns,
            last_ns: start_ns,
            phase_ns: [0; NPHASES],
        })
    });
    PROF_ON.with(|c| {
        if !c.get() {
            PROF_ACTIVE.fetch_add(1, Ordering::Relaxed);
            c.set(true);
        }
    });
}

/// Stops the session on this thread and returns its profile. The tail
/// since the last lap is attributed to [`Phase::Finish`], so the
/// per-phase totals account for the session's whole wall-clock span.
pub fn disable() -> Option<Profile> {
    PROF_ON.with(|c| {
        if c.get() {
            PROF_ACTIVE.fetch_sub(1, Ordering::Relaxed);
            c.set(false);
        }
    });
    PROF.with(|s| s.borrow_mut().take()).map(|mut st| {
        st.lap(Phase::Finish);
        Profile {
            shard: st.shard,
            total_ns: st.last_ns - st.start_ns,
            phase_ns: st.phase_ns,
        }
    })
}

/// Attributes everything since the previous lap (or [`enable`]) to
/// `phase`. No-op when disabled.
#[inline]
pub fn lap(phase: Phase) {
    if !on() {
        return;
    }
    PROF.with(|s| {
        if let Some(st) = s.borrow_mut().as_mut() {
            st.lap(phase);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t0 = Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_path_is_inert() {
        let _ = disable();
        lap(Phase::Execute);
        assert!(!on());
        assert!(disable().is_none());
    }

    #[test]
    fn laps_attribute_every_nanosecond() {
        enable(Instant::now(), 3, 4);
        spin(50_000);
        lap(Phase::Setup);
        spin(50_000);
        lap(Phase::Execute);
        spin(20_000);
        let p = disable().expect("session");
        assert_eq!(p.shard, 3);
        assert_eq!(
            p.attributed_ns(),
            p.total_ns,
            "lap model must attribute the whole session"
        );
        assert!(p.phase_ns[Phase::Setup.index()] >= 50_000);
        assert!(p.phase_ns[Phase::Execute.index()] >= 50_000);
        // The tail between the last lap and disable lands in Finish.
        assert!(p.phase_ns[Phase::Finish.index()] >= 20_000);
        assert!(!on(), "disable ends the session");
    }
}
