//! Conservative safe-horizon window execution for sharded simulations.
//!
//! A sharded run partitions the world across worker threads, each owning a
//! [`Sim`] of its own. The classic conservative parallel-discrete-event
//! argument applies: if every cross-shard interaction takes at least
//! `lookahead` of simulated time to arrive, then once the shards agree on
//! the globally earliest pending event time `global_next`, every event
//! strictly before `global_next + lookahead` can be executed without ever
//! receiving a message that should have pre-empted it. The shards therefore
//! proceed in *windows*:
//!
//! 1. accept messages delivered at the previous window's close,
//! 2. publish the local earliest pending-event time and take the global
//!    minimum ([`WindowSync::negotiate`]),
//! 3. fire everything strictly before the safe horizon
//!    ([`Sim::run_before`]),
//! 4. hand outbound messages to their destination shards and barrier
//!    ([`WindowSync::exchange`]) so step 1 of the next window sees them.
//!
//! With `subwindows > 1` a negotiated window is stretched into up to
//! that many lookahead-sized sub-windows, each closed by a single
//! combined exchange-and-vote barrier ([`WindowSync::exchange_vote`])
//! instead of a fresh negotiation — see [`drive_windows`] for the
//! induction that keeps this conservative. This barrier loop is the
//! engine's only synchronization protocol.
//!
//! The loop ends when no shard has an event at or before the deadline;
//! messages cannot appear out of thin air, so the shards agree on that
//! state. What makes the merged schedule *byte-identical* to a
//! single-threaded run is not this module but the ordering keys carried by
//! the messages themselves (see [`Sim::schedule_keyed_at`]).
//!
//! The rendezvous is poisonable: a worker that panics mid-window calls
//! [`WindowSync::poison`] before unwinding, which wakes every peer blocked
//! at a barrier and makes it panic too — the run fails loudly instead of
//! deadlocking on a rendezvous that will never fill.

use crate::sim::Sim;
use crate::time::{SimDuration, SimTime};
use edp_telemetry::prof;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Sentinel for "no time" in the atomic negotiation slots and
/// accumulators.
const NONE_NS: u64 = u64::MAX;

fn pack(t: Option<SimTime>) -> u64 {
    t.map_or(NONE_NS, |t| t.as_nanos())
}

fn unpack(v: u64) -> Option<SimTime> {
    (v != NONE_NS).then(|| SimTime::from_nanos(v))
}

/// A cache-line-padded atomic so per-shard negotiation and sequence slots
/// never false-share under the spin-heavy exchange path.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

impl PaddedU64 {
    fn new(v: u64) -> Self {
        PaddedU64(AtomicU64::new(v))
    }
}

/// Shared synchronization state for one sharded run: a reusable,
/// poisonable sense-reversing spin-then-park barrier, per-shard slots for
/// the earliest-pending-event negotiation, and per-destination inbox
/// sequence counters.
pub struct WindowSync {
    shards: usize,
    /// Threads currently arrived at the in-progress barrier.
    arrived: AtomicUsize,
    /// The barrier's sense ticket: bumped by the last arriver; waiters
    /// spin (then park) until it changes.
    generation: AtomicU64,
    /// Set by [`WindowSync::poison`]; every waiter panics on observing it.
    poisoned: AtomicBool,
    /// OR-accumulator for the in-progress [`WindowSync::exchange_vote`].
    vote_accum: AtomicBool,
    /// The accumulated vote of the barrier round that last filled.
    vote_latched: AtomicBool,
    /// Per-shard earliest-pending-event slots for the negotiation.
    next: Vec<PaddedU64>,
    /// Per-destination publish sequence counters: bumped after a message
    /// lands in that destination's mailbox, so receivers drain only when
    /// something actually arrived.
    inbox_seq: Vec<PaddedU64>,
    /// Parking fallback for oversubscribed hosts: waiters that exhaust
    /// the spin budget sleep here until the generation ticket moves.
    park: Mutex<()>,
    cv: Condvar,
}

impl WindowSync {
    /// Iterations of busy-spin before a barrier waiter starts yielding —
    /// sized for sub-microsecond window closes.
    const SPIN: u32 = 128;
    /// `yield_now` rounds after the spin budget, before parking on the
    /// condvar. Short: on an oversubscribed host the peer needs the CPU.
    const YIELDS: u32 = 64;

    /// Creates synchronization state for `shards` worker threads.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a sharded run needs at least one shard");
        WindowSync {
            shards,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            vote_accum: AtomicBool::new(false),
            vote_latched: AtomicBool::new(false),
            next: (0..shards).map(|_| PaddedU64::new(NONE_NS)).collect(),
            inbox_seq: (0..shards).map(|_| PaddedU64::new(0)).collect(),
            park: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Number of participating shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Marks the run as failed and wakes every thread blocked at a
    /// barrier. Call from a worker that is about to unwind so its peers
    /// panic instead of waiting forever for a rendezvous it will never
    /// join.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        // Take and drop the park lock so a waiter between its generation
        // check and its condvar wait cannot miss the wake.
        drop(self.park.lock().unwrap_or_else(|e| e.into_inner()));
        self.cv.notify_all();
    }

    /// Whether [`WindowSync::poison`] has been called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    fn check_poison(&self) {
        assert!(
            !self.is_poisoned(),
            "sharded run poisoned: a peer shard panicked"
        );
    }

    /// One rendezvous of the sense-reversing barrier. The last arriver
    /// runs `latch` (publishing any accumulator results) before releasing
    /// the generation ticket, then wakes parked waiters. Everyone else
    /// spins on the ticket, yields a while, and finally parks.
    fn wait_with(&self, latch: impl FnOnce(&Self)) {
        self.check_poison();
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.shards {
            // Safe to reset before the ticket moves: peers leave on the
            // generation, not the arrival count, and cannot re-arrive
            // until the ticket releases them.
            self.arrived.store(0, Ordering::Release);
            latch(self);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            // Close the park race: a waiter either re-checks the ticket
            // under this lock before sleeping or is already waiting.
            drop(self.park.lock().unwrap_or_else(|e| e.into_inner()));
            self.cv.notify_all();
            return;
        }
        let mut rounds = 0u32;
        loop {
            if self.generation.load(Ordering::Acquire) != gen || self.is_poisoned() {
                break;
            }
            rounds += 1;
            if rounds <= Self::SPIN {
                std::hint::spin_loop();
            } else if rounds <= Self::SPIN + Self::YIELDS {
                std::thread::yield_now();
            } else {
                let mut g = self.park.lock().unwrap_or_else(|e| e.into_inner());
                while self.generation.load(Ordering::Acquire) == gen && !self.is_poisoned() {
                    g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
                }
                break;
            }
        }
        self.check_poison();
    }

    fn wait(&self) {
        self.wait_with(|_| {});
    }

    /// Publishes this shard's earliest pending event time and returns the
    /// global minimum over all shards. Every shard must call this once per
    /// window; all callers return the same value.
    pub fn negotiate(&self, shard: usize, local_next: Option<SimTime>) -> Option<SimTime> {
        self.check_poison();
        self.next[shard]
            .0
            .store(pack(local_next), Ordering::Release);
        self.wait();
        let global = self.next.iter().map(|s| s.0.load(Ordering::Acquire)).min();
        // Second rendezvous so no shard can overwrite its slot for the
        // next window while a peer is still reading this one.
        self.wait();
        unpack(global.unwrap_or(NONE_NS))
    }

    /// Barrier after the outbound mailboxes are filled, so the next
    /// window's accept phase on every shard sees all of this window's
    /// messages.
    pub fn exchange(&self) {
        self.wait();
    }

    /// Exchange barrier that doubles as a one-bit vote: every shard
    /// contributes `active` and all shards receive the OR over the group.
    ///
    /// This is the sub-window fast path (see [`drive_windows`]): a single
    /// rendezvous both publishes mailbox visibility *and* decides whether
    /// any shard still has work before the next sub-horizon. One wait
    /// suffices — the latched result can only be overwritten by the next
    /// barrier fill, which requires every shard (including the slowest
    /// reader) to have arrived again.
    pub fn exchange_vote(&self, active: bool) -> bool {
        if active {
            self.vote_accum.store(true, Ordering::Release);
        }
        self.wait_with(|s| {
            s.vote_latched.store(
                s.vote_accum.swap(false, Ordering::AcqRel),
                Ordering::Release,
            );
        });
        self.vote_latched.load(Ordering::Acquire)
    }

    /// Marks a publish to `dst` by bumping the destination's inbox
    /// sequence. Call after the message is in the mailbox.
    pub fn mark_traffic(&self, dst: usize) {
        self.inbox_seq[dst].0.fetch_add(1, Ordering::AcqRel);
    }

    /// Inbox sequence for `shard` — a drain is needed only when this has
    /// moved since the last one.
    pub fn inbox_seq(&self, shard: usize) -> u64 {
        self.inbox_seq[shard].0.load(Ordering::Acquire)
    }
}

/// The one way the sharded engine synchronizes: negotiated windows of
/// `lookahead`, stretched into sub-windows (see [`drive_windows`]).
/// Nothing reads it — kept for `benchmark/`'s source compatibility;
/// remove with the next benchmark PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HorizonMode {
    /// The barrier loop of [`drive_windows`].
    #[default]
    Classic,
}

/// Counters returned by [`drive_windows`]; identical on every shard of a
/// run (each counted step is a pure function of group-agreed state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveStats {
    /// Negotiated windows executed.
    pub windows: u64,
    /// Barrier rendezvous joined (a negotiation counts its two waits;
    /// every exchange/vote barrier counts one). The true synchronization
    /// cost of the run.
    pub barriers: u64,
}

/// The exclusive event-execution bound for one window: events strictly
/// before the returned time are safe to fire.
///
/// `lookahead` is the minimum simulated-time delay of any cross-shard
/// interaction; `None` means the shards cannot interact at all (no
/// cross-shard links), in which case the whole run up to the deadline is
/// one window. The bound is capped just past `deadline` so an
/// inclusive-deadline run (`t <= deadline`, matching [`Sim::run_until`])
/// never fires later events.
pub fn safe_horizon(
    global_next: SimTime,
    lookahead: Option<SimDuration>,
    deadline: SimTime,
) -> SimTime {
    let cap = deadline.as_nanos().saturating_add(1);
    let h = match lookahead {
        Some(la) => global_next.as_nanos().saturating_add(la.as_nanos()),
        None => cap,
    };
    SimTime::from_nanos(h.min(cap))
}

/// Runs one shard's event loop to `deadline` in conservative windows of up
/// to `subwindows` lookahead-sized sub-steps each.
///
/// `accept` schedules messages handed over by peers into `sim`; `publish`
/// moves outbound messages into the shared mailboxes and returns whether
/// it published anything. Both run on the shard's own thread.
/// Returns [`DriveStats`], identical on every shard.
///
/// # Sub-windows
///
/// A full window negotiates the global earliest event time (two waits) and
/// then fires everything before `global_next + lookahead` (one exchange
/// wait). But once that window closes, a cheaper induction holds: every
/// message that can arrive before `horizon + lookahead` was sent strictly
/// before `horizon`, and the closing exchange already made it visible. So
/// the shards may keep advancing one lookahead at a time with only a
/// single combined exchange-and-vote barrier per sub-step — no
/// renegotiation — for up to `subwindows` sub-steps. The vote is the
/// early exit: when no shard has a pending event before the next
/// sub-horizon and none published this round, every shard breaks back to
/// negotiation in lockstep and the negotiated minimum jumps the idle gap
/// in one hop. The executed schedule is identical for every
/// `subwindows >= 1`; `subwindows == 1` is exactly the legacy protocol.
#[allow(clippy::too_many_arguments)] // deliberate: the low-level engine entry point takes the full window protocol
pub fn drive_windows<W>(
    world: &mut W,
    sim: &mut Sim<W>,
    shard: usize,
    sync: &WindowSync,
    lookahead: Option<SimDuration>,
    deadline: SimTime,
    subwindows: usize,
    mut accept: impl FnMut(&mut W, &mut Sim<W>),
    mut publish: impl FnMut(&mut W, &mut Sim<W>, SimTime) -> bool,
) -> DriveStats {
    let subwindows = subwindows.max(1) as u64;
    let cap = deadline.as_nanos().saturating_add(1);
    let mut stats = DriveStats::default();
    loop {
        accept(world, sim);
        prof::lap(prof::Phase::Mailbox);
        let global = sync.negotiate(shard, sim.peek_next());
        stats.barriers += 2;
        prof::lap(prof::Phase::Negotiate);
        let Some(global) = global else {
            break;
        };
        if global > deadline {
            break;
        }
        stats.windows += 1;
        let mut horizon = safe_horizon(global, lookahead, deadline);
        let mut remaining = subwindows;
        loop {
            sim.run_before(world, horizon);
            prof::lap(prof::Phase::Execute);
            let published = publish(world, sim, horizon);
            prof::lap(prof::Phase::Mailbox);
            remaining -= 1;
            // Extend by one more lookahead without renegotiating, unless
            // the sub-window budget or the deadline cap is exhausted.
            let next = match lookahead {
                Some(la) if remaining > 0 && horizon.as_nanos() < cap => {
                    SimTime::from_nanos(horizon.as_nanos().saturating_add(la.as_nanos()).min(cap))
                }
                _ => {
                    sync.exchange();
                    stats.barriers += 1;
                    prof::lap(prof::Phase::Barrier);
                    break;
                }
            };
            let active = published || sim.peek_next().is_some_and(|t| t < next);
            let vote = sync.exchange_vote(active);
            stats.barriers += 1;
            prof::lap(prof::Phase::Barrier);
            if !vote {
                // Every shard idle below `next` and nothing in flight:
                // renegotiate so the global minimum jumps the gap.
                break;
            }
            accept(world, sim);
            prof::lap(prof::Phase::Extend);
            horizon = next;
        }
    }
    // Mirror run_until's clock semantics once the shards agree that
    // nothing at or before the deadline remains.
    sim.fast_forward(deadline);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_is_lookahead_past_next_capped_at_deadline() {
        let d = SimTime::from_nanos(1000);
        assert_eq!(
            safe_horizon(
                SimTime::from_nanos(100),
                Some(SimDuration::from_nanos(50)),
                d
            ),
            SimTime::from_nanos(150)
        );
        assert_eq!(
            safe_horizon(
                SimTime::from_nanos(990),
                Some(SimDuration::from_nanos(50)),
                d
            ),
            SimTime::from_nanos(1001),
            "cap is one past the deadline so t == deadline still fires"
        );
        assert_eq!(
            safe_horizon(SimTime::from_nanos(0), None, d),
            SimTime::from_nanos(1001)
        );
    }

    /// Runs the two-shard ping-pong under `subwindows` and returns the
    /// per-shard fired-time logs plus the (identical-across-shards)
    /// negotiated-window count.
    fn ping_pong(subwindows: usize) -> (Vec<u64>, Vec<u64>, u64) {
        use std::sync::Mutex as StdMutex;
        let lookahead = SimDuration::from_nanos(10);
        let deadline = SimTime::from_nanos(200);
        let sync = WindowSync::new(2);
        let mailbox: [StdMutex<Vec<SimTime>>; 2] =
            [StdMutex::new(Vec::new()), StdMutex::new(Vec::new())];
        let log: [StdMutex<Vec<u64>>; 2] = [StdMutex::new(Vec::new()), StdMutex::new(Vec::new())];
        let wins: [StdMutex<DriveStats>; 2] = [
            StdMutex::new(DriveStats::default()),
            StdMutex::new(DriveStats::default()),
        ];

        std::thread::scope(|scope| {
            for me in 0..2usize {
                let sync = &sync;
                let mailbox = &mailbox;
                let log = &log;
                let wins = &wins;
                scope.spawn(move || {
                    // World = (outbox of arrival-times, fired-times log).
                    type World = (Vec<SimTime>, Vec<u64>);
                    let mut world: World = (Vec::new(), Vec::new());
                    let mut sim: Sim<World> = Sim::new();
                    if me == 0 {
                        // Shard 0 serves: every received ping fires a pong.
                        sim.schedule_at(SimTime::ZERO, |w: &mut World, s: &mut Sim<World>| {
                            w.1.push(s.now().as_nanos());
                            w.0.push(s.now() + SimDuration::from_nanos(10));
                        });
                    }
                    let stats = drive_windows(
                        &mut world,
                        &mut sim,
                        me,
                        sync,
                        Some(lookahead),
                        deadline,
                        subwindows,
                        |_w, s| {
                            let mut inbox = mailbox[me].lock().unwrap();
                            for at in inbox.drain(..) {
                                s.schedule_keyed_at(
                                    at,
                                    0,
                                    move |w: &mut World, s: &mut Sim<World>| {
                                        w.1.push(s.now().as_nanos());
                                        let reply = s.now() + SimDuration::from_nanos(10);
                                        if reply <= SimTime::from_nanos(100) {
                                            w.0.push(reply);
                                        }
                                    },
                                );
                            }
                        },
                        |w, _s, _horizon| {
                            if w.0.is_empty() {
                                return false;
                            }
                            let peer = 1 - me;
                            mailbox[peer].lock().unwrap().append(&mut w.0);
                            sync.mark_traffic(peer);
                            true
                        },
                    );
                    assert!(stats.windows >= 1 || me == 1);
                    *wins[me].lock().unwrap() = stats;
                    *log[me].lock().unwrap() = world.1;
                });
            }
        });

        let l0 = log[0].lock().unwrap().clone();
        let l1 = log[1].lock().unwrap().clone();
        let (w0, w1) = (*wins[0].lock().unwrap(), *wins[1].lock().unwrap());
        assert_eq!(w0, w1, "drive stats must agree across shards");
        (l0, l1, w0.windows)
    }

    #[test]
    fn two_shards_exchange_messages_deterministically() {
        // Shard 0 fired at 0, 20, 40, ... and shard 1 at 10, 30, ... until
        // the reply cutoff at t=100.
        let (l0, l1, _) = ping_pong(1);
        assert_eq!(l0, vec![0, 20, 40, 60, 80, 100]);
        assert_eq!(l1, vec![10, 30, 50, 70, 90]);
    }

    #[test]
    fn subwindows_preserve_the_schedule_and_collapse_negotiations() {
        let (l0_base, l1_base, w_base) = ping_pong(1);
        for sub in [2usize, 8, 32] {
            let (l0, l1, w) = ping_pong(sub);
            assert_eq!(l0, l0_base, "subwindows={sub} changed shard 0's schedule");
            assert_eq!(l1, l1_base, "subwindows={sub} changed shard 1's schedule");
            assert!(
                w < w_base,
                "subwindows={sub} should negotiate fewer windows ({w} vs {w_base})"
            );
        }
    }

    /// Runs a self-perpetuating chain on shard 0 beside an idle shard 1,
    /// with no traffic between them, and returns shard 0's fired-time log
    /// and its drive stats.
    fn self_chain(subwindows: usize) -> (Vec<u64>, DriveStats) {
        use std::sync::Mutex as StdMutex;
        let sync = WindowSync::new(2);
        let log: StdMutex<Vec<u64>> = StdMutex::new(Vec::new());
        let stats_out: StdMutex<DriveStats> = StdMutex::new(DriveStats::default());

        std::thread::scope(|scope| {
            for me in 0..2usize {
                let sync = &sync;
                let log = &log;
                let stats_out = &stats_out;
                scope.spawn(move || {
                    type World = Vec<u64>;
                    let mut world: World = Vec::new();
                    let mut sim: Sim<World> = Sim::new();
                    if me == 0 {
                        // Fires every 5 ns and never publishes anything.
                        fn tick(w: &mut Vec<u64>, s: &mut Sim<Vec<u64>>) {
                            w.push(s.now().as_nanos());
                            let next = s.now() + SimDuration::from_nanos(5);
                            if next <= SimTime::from_nanos(100) {
                                s.schedule_at(next, tick);
                            }
                        }
                        sim.schedule_at(SimTime::ZERO, tick);
                    }
                    let stats = drive_windows(
                        &mut world,
                        &mut sim,
                        me,
                        sync,
                        Some(SimDuration::from_nanos(10)),
                        SimTime::from_nanos(200),
                        subwindows,
                        |_w, _s| {},
                        |_w, _s, _horizon| false,
                    );
                    if me == 0 {
                        *log.lock().unwrap() = world;
                        *stats_out.lock().unwrap() = stats;
                    }
                });
            }
        });

        let l = log.lock().unwrap().clone();
        let stats = *stats_out.lock().unwrap();
        (l, stats)
    }

    #[test]
    fn a_traffic_free_chain_keeps_its_schedule_in_one_extended_window() {
        let (l_base, _) = self_chain(1);
        let (l, s) = self_chain(32);
        assert_eq!(l, (0..=100).step_by(5).collect::<Vec<u64>>());
        assert_eq!(l, l_base, "sub-windows changed the schedule");
        assert_eq!(s.windows, 1, "one negotiation covers the whole chain");
    }

    #[test]
    fn exchange_vote_ors_across_shards() {
        let sync = std::sync::Arc::new(WindowSync::new(2));
        let peer = {
            let sync = std::sync::Arc::clone(&sync);
            std::thread::spawn(move || {
                let rounds = [false, true, false];
                rounds.map(|mine| sync.exchange_vote(mine))
            })
        };
        let got = [false, false, true].map(|mine| sync.exchange_vote(mine));
        assert_eq!(got, [false, true, true]);
        assert_eq!(peer.join().unwrap(), [false, true, true]);
    }

    #[test]
    fn mark_traffic_bumps_only_the_destination_inbox() {
        let sync = WindowSync::new(3);
        sync.mark_traffic(1);
        assert_eq!(sync.inbox_seq(1), 1);
        assert_eq!(sync.inbox_seq(0), 0, "other inboxes untouched");
    }

    #[test]
    fn poison_wakes_a_blocked_peer_and_panics_it() {
        let sync = std::sync::Arc::new(WindowSync::new(2));
        let peer = {
            let sync = std::sync::Arc::clone(&sync);
            std::thread::spawn(move || sync.negotiate(0, Some(SimTime::ZERO)))
        };
        // Give the peer time to park at the first rendezvous, then poison
        // instead of joining it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        sync.poison();
        let out = peer.join();
        assert!(out.is_err(), "poisoned waiter must panic, not hang");
        // Later arrivals see the poison immediately.
        let late = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sync.exchange()));
        assert!(late.is_err());
    }
}
