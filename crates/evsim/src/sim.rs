//! The discrete-event scheduler.
//!
//! [`Sim<W>`] owns a priority queue of pending events over a user-supplied
//! world type `W`. Events are closures (or [`EventFn`] implementors) that
//! receive `&mut W` and `&mut Sim<W>` so they can mutate the world and
//! schedule further events. Two events scheduled for the same instant fire
//! in the order they were scheduled (stable FIFO tie-break), which keeps
//! runs bit-for-bit reproducible.
//!
//! # Fast path
//!
//! The queue is a slab-backed arena: a key queue holds compact
//! `(time, key, seq, slot)` keys (32 bytes, `Copy`) while the event
//! payloads live in a slot arena indexed by the key. This buys three
//! things over the classic `BinaryHeap<Entry>` + cancelled-`HashSet`
//! design:
//!
//! - **Cancellation is O(1) and exact** — it flips the slot state; there
//!   is no hash-set probe on every pop and no tombstone that can outlive
//!   the queue and skew [`Sim::pending`].
//! - **Periodic timers re-arm in place** — the boxed closure moves back
//!   into its slot with a fresh sequence number, so steady-state timer
//!   ticks allocate nothing.
//! - **Heap traffic is cache-friendly** — sift operations move small
//!   `Copy` keys instead of fat entries carrying a `Box` each.
//!
//! The key queue is a 4-ary min-heap beside a sorted append-only *run*,
//! a fixed ring of keys in non-decreasing order. A network simulation
//! schedules mostly `now + a constant delay`, so one stream of keys
//! arrives already sorted: a push that is `>=` the run's back appends to
//! the run in O(1), and only the keys that would break its order go to
//! the heap. The **restart rule** keeps one early outlier (a far-future
//! fault, say) from owning the run: when the run holds exactly one key
//! and a smaller one arrives, that key moves to the heap and the new key
//! starts the run. A pop takes the smaller of the run's front and the
//! heap's top under the full `(time, key, seq)` order; `seq` is unique,
//! so firing order is exactly that of a single heap.
//!
//! The slab invariant: every occupied slot has exactly one key in the
//! key queue, and a slot is only reclaimed when that key is popped. Handles
//! ([`EventId`]) carry a generation counter so stale ids (already fired,
//! already cancelled, or re-armed since) are rejected instead of
//! corrupting an unrelated event that reused the slot.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;

/// Emits a scheduler trace record when a telemetry session is live and
/// asked for scheduler detail. Disabled cost: one thread-local branch.
#[inline]
fn sched_record(at_ns: u64, kind: edp_telemetry::RecordKind) {
    if !edp_telemetry::on() {
        return;
    }
    edp_telemetry::with(|t| {
        if t.config.scheduler_records {
            t.emit(at_ns, kind);
        }
    });
}

/// Handle to a scheduled event, usable with [`Sim::cancel`].
///
/// Internally packs a slab slot index and a generation counter; a handle
/// goes stale the moment its event fires, is cancelled, or (for periodic
/// timers) re-arms, and stale handles are rejected by [`Sim::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    fn pack(slot: u32, generation: u32) -> Self {
        EventId((generation as u64) << 32 | slot as u64)
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A schedulable event over world `W`.
///
/// Blanket-implemented for all `FnOnce(&mut W, &mut Sim<W>)`, so most call
/// sites just pass a closure. Implement it manually for events that carry
/// state they want back after firing.
pub trait EventFn<W> {
    /// Consumes the event and applies it to the world.
    fn fire(self: Box<Self>, world: &mut W, sim: &mut Sim<W>);
}

impl<W, F: FnOnce(&mut W, &mut Sim<W>)> EventFn<W> for F {
    fn fire(self: Box<Self>, world: &mut W, sim: &mut Sim<W>) {
        self(world, sim)
    }
}

/// Whether a periodic event should keep firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Periodic {
    /// Re-arm for another period.
    Continue,
    /// Stop; the timer is dropped.
    Stop,
}

/// Ordering key for events that carry no cross-run ordering identity:
/// they sort after every keyed event at the same instant and fall back to
/// scheduling order (`seq`) among themselves. See [`Sim::schedule_keyed_at`].
pub const UNKEYED: u64 = u64::MAX;

/// Compact heap key; the payload lives in the slot arena.
#[derive(Clone, Copy, PartialEq, Eq)]
struct HeapKey {
    time: SimTime,
    /// Same-instant ordering class (see [`Sim::schedule_keyed_at`]);
    /// [`UNKEYED`] for ordinary events.
    key: u64,
    seq: u64,
    slot: u32,
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Earliest time first, then the explicit ordering key (keyed
        // events before unkeyed ones, since UNKEYED == u64::MAX), then
        // lowest sequence number first for FIFO among same-time events
        // (natural min ordering; the heap below is a min-heap, unlike
        // std's max-`BinaryHeap`).
        self.time
            .cmp(&other.time)
            .then_with(|| self.key.cmp(&other.key))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Capacity of [`KeyHeap`]'s run: a power of two, so ring indices wrap by
/// mask. The longest monotone stream measured was 55 keys (a k=4
/// fat-tree; the 8-switch line peaks at 29); a full run sends keys to the
/// heap, which costs speed, never order.
const RUN_CAP: usize = 64;

/// A fixed ring of [`HeapKey`]s in non-decreasing order. Inline, so an
/// empty simulator allocates nothing for it.
struct Run {
    keys: [HeapKey; RUN_CAP],
    head: usize,
    len: usize,
}

impl Run {
    const MASK: usize = RUN_CAP - 1;

    fn new() -> Self {
        const EMPTY: HeapKey = HeapKey {
            time: SimTime::ZERO,
            key: 0,
            seq: 0,
            slot: 0,
        };
        Run {
            keys: [EMPTY; RUN_CAP],
            head: 0,
            len: 0,
        }
    }

    fn front(&self) -> Option<&HeapKey> {
        (self.len > 0).then(|| &self.keys[self.head & Self::MASK])
    }

    /// Whether `key` may append without breaking the order.
    fn accepts(&self, key: &HeapKey) -> bool {
        self.len == 0
            || (self.len < RUN_CAP && *key >= self.keys[(self.head + self.len - 1) & Self::MASK])
    }

    fn push_back(&mut self, key: HeapKey) {
        debug_assert!(self.len < RUN_CAP);
        self.keys[(self.head + self.len) & Self::MASK] = key;
        self.len += 1;
    }

    fn pop_front(&mut self) -> HeapKey {
        debug_assert!(self.len > 0);
        let key = self.keys[self.head & Self::MASK];
        self.head = (self.head + 1) & Self::MASK;
        self.len -= 1;
        key
    }
}

/// The key queue: a 4-ary min-heap of [`HeapKey`]s beside a sorted
/// [`Run`] that takes every push which keeps it sorted (see the module
/// docs, including the restart rule).
///
/// Versus `std::collections::BinaryHeap` the 4-ary heap halves the tree
/// depth, so a pop on a deep queue takes fewer dependent cache misses; a
/// node's children are consecutive 32-byte `Copy` keys (two cache lines),
/// which the hardware prefetcher streams while the min-scan runs. The run
/// matters more: every pop from a heap sifts its last key down from the
/// root, and a simulation's monotone stream skips that entirely.
struct KeyHeap {
    /// The heap, in 4-ary array layout.
    keys: Vec<HeapKey>,
    run: Run,
}

impl KeyHeap {
    const ARITY: usize = 4;

    fn new() -> Self {
        KeyHeap {
            keys: Vec::new(),
            run: Run::new(),
        }
    }

    /// Whether the smallest key is the run's front rather than the heap's
    /// top. The two never compare equal: `seq` is unique.
    #[inline]
    fn run_first(&self) -> bool {
        match (self.run.front(), self.keys.first()) {
            (Some(r), Some(h)) => r < h,
            (r, _) => r.is_some(),
        }
    }

    fn peek(&self) -> Option<&HeapKey> {
        if self.run_first() {
            self.run.front()
        } else {
            self.keys.first()
        }
    }

    fn push(&mut self, key: HeapKey) {
        if self.run.accepts(&key) {
            self.run.push_back(key);
        } else if self.run.len == 1 {
            // Restart rule: a lone run key that the stream has undercut
            // (typically a far-future event armed first) moves to the
            // heap, so it cannot turn every later key away from the run.
            let lone = self.run.pop_front();
            self.run.push_back(key);
            self.heap_push(lone);
        } else {
            self.heap_push(key);
        }
    }

    fn pop(&mut self) -> Option<HeapKey> {
        if self.run_first() {
            Some(self.run.pop_front())
        } else {
            self.heap_pop()
        }
    }

    fn heap_push(&mut self, key: HeapKey) {
        self.keys.push(key);
        // Sift up with a hole: move parents down until `key` fits.
        let mut i = self.keys.len() - 1;
        while i > 0 {
            let parent = (i - 1) / Self::ARITY;
            if self.keys[parent] <= key {
                break;
            }
            self.keys[i] = self.keys[parent];
            i = parent;
        }
        self.keys[i] = key;
    }

    fn heap_pop(&mut self) -> Option<HeapKey> {
        let top = *self.keys.first()?;
        let last = self.keys.pop().expect("non-empty");
        if self.keys.is_empty() {
            return Some(top);
        }
        // Sift the displaced last key down with a hole: pull the smallest
        // child up until `last` fits.
        let n = self.keys.len();
        let mut i = 0;
        loop {
            let first_child = i * Self::ARITY + 1;
            if first_child >= n {
                break;
            }
            let end = (first_child + Self::ARITY).min(n);
            let mut min_child = first_child;
            for c in first_child + 1..end {
                if self.keys[c] < self.keys[min_child] {
                    min_child = c;
                }
            }
            if self.keys[min_child] >= last {
                break;
            }
            self.keys[i] = self.keys[min_child];
            i = min_child;
        }
        self.keys[i] = last;
        Some(top)
    }
}

type PeriodicFn<W> = dyn FnMut(&mut W, &mut Sim<W>) -> Periodic;

/// A periodic timer's payload: one allocation reused across every re-arm.
struct Repeat<W> {
    period: SimDuration,
    tick: Box<PeriodicFn<W>>,
}

enum SlotState<W> {
    /// Free-list member; `next_free` chains to the next vacant slot.
    Vacant { next_free: u32 },
    /// A one-shot event waiting to fire.
    Once(Box<dyn EventFn<W>>),
    /// A periodic timer waiting for its next tick.
    Repeating(Box<Repeat<W>>),
    /// Cancelled, but its key is still in the heap; the slot is reclaimed
    /// when that key pops. Also the in-flight placeholder while a periodic
    /// tick runs (its key is already popped then, so the uses can't
    /// collide).
    Cancelled,
}

struct Slot<W> {
    /// Bumped every time the slot is freed or re-armed, invalidating any
    /// [`EventId`] handed out for the previous occupant.
    generation: u32,
    /// Sequence number of the heap key currently pointing at this slot
    /// (meaningful only while occupied; checks the slab invariant).
    #[cfg(debug_assertions)]
    armed_seq: u64,
    state: SlotState<W>,
}

const NO_FREE: u32 = u32::MAX;

/// A deterministic discrete-event simulator over world type `W`.
///
/// # Example
///
/// ```
/// use edp_evsim::{Sim, SimTime, SimDuration};
///
/// let mut sim = Sim::new();
/// let mut hits: Vec<u64> = Vec::new();
/// sim.schedule_at(SimTime::from_nanos(20), |w: &mut Vec<u64>, _: &mut _| w.push(20));
/// sim.schedule_at(SimTime::from_nanos(10), |w: &mut Vec<u64>, s: &mut Sim<Vec<u64>>| {
///     w.push(10);
///     s.schedule_in(SimDuration::from_nanos(5), |w: &mut Vec<u64>, _: &mut _| w.push(15));
/// });
/// sim.run(&mut hits);
/// assert_eq!(hits, vec![10, 15, 20]);
/// ```
pub struct Sim<W> {
    now: SimTime,
    heap: KeyHeap,
    slots: Vec<Slot<W>>,
    free_head: u32,
    /// Events currently armed (excludes cancelled-but-unpopped slots).
    live: usize,
    next_seq: u64,
    fired: u64,
}

impl<W> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Sim<W> {
    /// Creates an empty simulator at t = 0.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            heap: KeyHeap::new(),
            slots: Vec::new(),
            free_head: NO_FREE,
            live: 0,
            next_seq: 0,
            fired: 0,
        }
    }

    /// Current simulated time. Only advances inside [`Sim::run`] variants.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of events currently pending. Exact: cancelled events leave
    /// the count immediately, and stale cancels cannot skew it.
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Grabs a vacant slot (reusing the free list when possible) and arms
    /// it with `state`. Returns the slot index.
    fn arm_slot(&mut self, seq: u64, state: SlotState<W>) -> u32 {
        let _ = seq;
        if self.free_head != NO_FREE {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            match slot.state {
                SlotState::Vacant { next_free } => self.free_head = next_free,
                _ => unreachable!("free list points at an occupied slot"),
            }
            slot.state = state;
            #[cfg(debug_assertions)]
            {
                slot.armed_seq = seq;
            }
            idx
        } else {
            let idx = u32::try_from(self.slots.len()).expect("more than u32::MAX live events");
            self.slots.push(Slot {
                generation: 0,
                #[cfg(debug_assertions)]
                armed_seq: seq,
                state,
            });
            idx
        }
    }

    /// Returns a slot to the free list and invalidates outstanding ids.
    fn free_slot(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        slot.generation = slot.generation.wrapping_add(1);
        slot.state = SlotState::Vacant {
            next_free: self.free_head,
        };
        self.free_head = idx;
    }

    /// Schedules `f` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time: scheduling into the past
    /// is always a logic error and silently reordering it would hide bugs.
    pub fn schedule_at(&mut self, at: SimTime, f: impl EventFn<W> + 'static) -> EventId {
        self.schedule_boxed(at, Box::new(f))
    }

    /// Schedules `f` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, f: impl EventFn<W> + 'static) -> EventId {
        self.schedule_boxed(self.now + delay, Box::new(f))
    }

    /// Schedules an already-boxed event (avoids double boxing for trait
    /// objects built elsewhere).
    pub fn schedule_boxed(&mut self, at: SimTime, f: Box<dyn EventFn<W>>) -> EventId {
        self.schedule_keyed_boxed(at, UNKEYED, f)
    }

    /// Schedules `f` at `at` with an explicit same-instant ordering key.
    ///
    /// Events at the same time fire in ascending `key` order, then in
    /// scheduling order among equal keys. Ordinary events use [`UNKEYED`]
    /// (`u64::MAX`), so keyed events always fire before unkeyed ones at the
    /// same instant. The point of a key is that it can be derived from
    /// *simulation state* (e.g. a wire sequence number) instead of from
    /// scheduling order, making same-instant ordering reproducible across
    /// execution strategies that arm the same events in different orders —
    /// this is what lets a sharded run merge to the exact single-threaded
    /// schedule.
    pub fn schedule_keyed_at(
        &mut self,
        at: SimTime,
        key: u64,
        f: impl EventFn<W> + 'static,
    ) -> EventId {
        self.schedule_keyed_boxed(at, key, Box::new(f))
    }

    /// [`Sim::schedule_keyed_at`] for an already-boxed event; the single
    /// funnel every one-shot schedule goes through.
    pub fn schedule_keyed_boxed(
        &mut self,
        at: SimTime,
        key: u64,
        f: Box<dyn EventFn<W>>,
    ) -> EventId {
        assert!(
            at >= self.now,
            "scheduled into the past: {} < {}",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.arm_slot(seq, SlotState::Once(f));
        self.heap.push(HeapKey {
            time: at,
            key,
            seq,
            slot,
        });
        self.live += 1;
        sched_record(
            self.now.as_nanos(),
            edp_telemetry::RecordKind::SchedArm {
                seq,
                due_ns: at.as_nanos(),
            },
        );
        EventId::pack(slot, self.slots[slot as usize].generation)
    }

    /// Schedules `f` to fire every `period`, first at `start`.
    ///
    /// The closure returns [`Periodic::Stop`] to disarm itself. Returns the
    /// id of the *first* firing; cancelling it before it fires disarms the
    /// whole series. Once a tick has fired the id is stale (re-arming bumps
    /// the slot generation), so use `Periodic::Stop` from inside the
    /// closure to stop an armed series.
    ///
    /// Re-arming reuses the timer's slab slot and its boxed closure, so a
    /// steady-state periodic tick performs no allocation at all.
    pub fn schedule_periodic(
        &mut self,
        start: SimTime,
        period: SimDuration,
        f: impl FnMut(&mut W, &mut Sim<W>) -> Periodic + 'static,
    ) -> EventId
    where
        W: 'static,
    {
        assert!(!period.is_zero(), "zero-period timer would loop forever");
        assert!(
            start >= self.now,
            "scheduled into the past: {} < {}",
            start,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.arm_slot(
            seq,
            SlotState::Repeating(Box::new(Repeat {
                period,
                tick: Box::new(f),
            })),
        );
        self.heap.push(HeapKey {
            time: start,
            key: UNKEYED,
            seq,
            slot,
        });
        self.live += 1;
        sched_record(
            self.now.as_nanos(),
            edp_telemetry::RecordKind::SchedArm {
                seq,
                due_ns: start.as_nanos(),
            },
        );
        EventId::pack(slot, self.slots[slot as usize].generation)
    }

    /// Cancels a pending event. Returns `false` — with no side effects —
    /// if the id is stale: already fired, already cancelled, re-armed
    /// since, or never issued by this simulator.
    ///
    /// Cancellation is O(1): the slot is flagged and its heap key is
    /// reclaimed lazily when it surfaces.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(slot) = self.slots.get_mut(id.slot() as usize) else {
            return false;
        };
        if slot.generation != id.generation() {
            return false;
        }
        match slot.state {
            SlotState::Once(_) | SlotState::Repeating { .. } => {
                slot.state = SlotState::Cancelled;
                self.live -= 1;
                sched_record(
                    self.now.as_nanos(),
                    edp_telemetry::RecordKind::SchedCancel { handle: id.0 },
                );
                true
            }
            SlotState::Vacant { .. } | SlotState::Cancelled => false,
        }
    }

    /// Fires the single earliest pending event. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        while let Some(key) = self.heap.pop() {
            let slot = &mut self.slots[key.slot as usize];
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                slot.armed_seq, key.seq,
                "heap key does not match its slot (slab invariant broken)"
            );
            // Leave `Cancelled` behind while the payload runs: the key is
            // already popped, so the slot is invisible to the heap, and a
            // (stale-generation) cancel arriving mid-fire stays a no-op.
            match std::mem::replace(&mut slot.state, SlotState::Cancelled) {
                SlotState::Vacant { .. } => {
                    unreachable!("vacant slot had a key in the heap")
                }
                SlotState::Cancelled => {
                    self.free_slot(key.slot);
                    continue;
                }
                SlotState::Once(f) => {
                    // Reclaim before firing so the handler sees an exact
                    // pending() and can immediately reuse the slot.
                    self.free_slot(key.slot);
                    self.live -= 1;
                    debug_assert!(key.time >= self.now);
                    self.now = key.time;
                    self.fired += 1;
                    sched_record(
                        self.now.as_nanos(),
                        edp_telemetry::RecordKind::SchedFire { seq: key.seq },
                    );
                    f.fire(world, self);
                    return true;
                }
                SlotState::Repeating(mut rep) => {
                    self.live -= 1;
                    debug_assert!(key.time >= self.now);
                    self.now = key.time;
                    self.fired += 1;
                    sched_record(
                        self.now.as_nanos(),
                        edp_telemetry::RecordKind::SchedFire { seq: key.seq },
                    );
                    match (rep.tick)(world, self) {
                        Periodic::Continue => {
                            // Re-arm in place: same slot, same box, fresh
                            // seq, bumped generation (stale ids must not
                            // cancel future ticks they never named).
                            let at = self.now + rep.period;
                            let seq = self.next_seq;
                            self.next_seq += 1;
                            let slot = &mut self.slots[key.slot as usize];
                            slot.generation = slot.generation.wrapping_add(1);
                            #[cfg(debug_assertions)]
                            {
                                slot.armed_seq = seq;
                            }
                            slot.state = SlotState::Repeating(rep);
                            self.heap.push(HeapKey {
                                time: at,
                                key: UNKEYED,
                                seq,
                                slot: key.slot,
                            });
                            self.live += 1;
                        }
                        Periodic::Stop => {
                            self.free_slot(key.slot);
                        }
                    }
                    return true;
                }
            }
        }
        false
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Time of the earliest live pending event, reclaiming any cancelled
    /// keys that have surfaced at the heap head on the way. `None` when
    /// nothing is pending.
    pub fn peek_next(&mut self) -> Option<SimTime> {
        loop {
            match self.heap.peek() {
                Some(key)
                    if matches!(self.slots[key.slot as usize].state, SlotState::Cancelled) =>
                {
                    // Reclaim cancelled keys without firing them, so a
                    // cancelled event cannot mask the real next event time.
                    let key = self.heap.pop().expect("peeked");
                    self.free_slot(key.slot);
                }
                Some(key) => break Some(key.time),
                None => break None,
            }
        }
    }

    /// Runs until the queue drains or the next event is strictly after
    /// `deadline`. On return `now() == deadline` if the deadline was reached
    /// (time is advanced even if no event fires exactly then).
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) {
        loop {
            match self.peek_next() {
                Some(t) if t <= deadline => {
                    self.step(world);
                }
                _ => {
                    if self.now < deadline {
                        self.now = deadline;
                    }
                    return;
                }
            }
        }
    }

    /// Fires every pending event strictly before `bound`, then stops.
    ///
    /// Unlike [`Sim::run_until`] the clock is *not* advanced past the last
    /// fired event: `bound` is a safe horizon, not a deadline, and events
    /// arriving from outside (cross-shard mailboxes) may still land exactly
    /// at `bound`. Use [`Sim::fast_forward`] to advance the clock once no
    /// more input can arrive.
    pub fn run_before(&mut self, world: &mut W, bound: SimTime) {
        while let Some(t) = self.peek_next() {
            if t >= bound {
                return;
            }
            self.step(world);
        }
    }

    /// Advances the clock to `t` if it is ahead of `now()`; never moves it
    /// backwards. Mirrors the implicit clock advance at the end of
    /// [`Sim::run_until`] for drivers that fire events in windows.
    pub fn fast_forward(&mut self, t: SimTime) {
        if self.now < t {
            self.now = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut out = Vec::new();
        for &t in &[30u64, 10, 20] {
            sim.schedule_at(
                SimTime::from_nanos(t),
                move |w: &mut Vec<u64>, _: &mut _| w.push(t),
            );
        }
        sim.run(&mut out);
        assert_eq!(out, vec![10, 20, 30]);
        assert_eq!(sim.events_fired(), 3);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut out = Vec::new();
        for i in 0..100u64 {
            sim.schedule_at(
                SimTime::from_nanos(5),
                move |w: &mut Vec<u64>, _: &mut _| w.push(i),
            );
        }
        sim.run(&mut out);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim: Sim<u64> = Sim::new();
        let mut count = 0u64;
        sim.schedule_at(SimTime::from_nanos(1), |_w: &mut u64, s: &mut Sim<u64>| {
            s.schedule_in(SimDuration::from_nanos(1), |w: &mut u64, _: &mut _| {
                *w += 1;
            });
        });
        sim.run(&mut count);
        assert_eq!(count, 1);
        assert_eq!(sim.now(), SimTime::from_nanos(2));
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut sim: Sim<u64> = Sim::new();
        let mut count = 0u64;
        let id = sim.schedule_at(SimTime::from_nanos(5), |w: &mut u64, _: &mut _| *w += 1);
        sim.schedule_at(SimTime::from_nanos(6), |w: &mut u64, _: &mut _| *w += 10);
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double cancel reports false");
        sim.run(&mut count);
        assert_eq!(count, 10);
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut sim: Sim<u64> = Sim::new();
        let mut count = 0u64;
        sim.schedule_at(SimTime::from_nanos(10), |w: &mut u64, _: &mut _| *w += 1);
        sim.schedule_at(SimTime::from_nanos(100), |w: &mut u64, _: &mut _| *w += 1);
        sim.run_until(&mut count, SimTime::from_nanos(50));
        assert_eq!(count, 1);
        assert_eq!(sim.now(), SimTime::from_nanos(50));
        assert_eq!(sim.pending(), 1);
        sim.run(&mut count);
        assert_eq!(count, 2);
    }

    #[test]
    fn periodic_fires_until_stopped() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut out = Vec::new();
        sim.schedule_periodic(
            SimTime::from_nanos(10),
            SimDuration::from_nanos(10),
            |w: &mut Vec<u64>, s: &mut Sim<Vec<u64>>| {
                w.push(s.now().as_nanos());
                if w.len() == 4 {
                    Periodic::Stop
                } else {
                    Periodic::Continue
                }
            },
        );
        sim.run(&mut out);
        assert_eq!(out, vec![10, 20, 30, 40]);
    }

    #[test]
    fn cancelling_periodic_before_first_fire_disarms() {
        let mut sim: Sim<u64> = Sim::new();
        let mut count = 0u64;
        let id = sim.schedule_periodic(
            SimTime::from_nanos(10),
            SimDuration::from_nanos(10),
            |w: &mut u64, _s: &mut Sim<u64>| {
                *w += 1;
                Periodic::Continue
            },
        );
        sim.cancel(id);
        sim.run_until(&mut count, SimTime::from_millis(1));
        assert_eq!(count, 0);
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim: Sim<u64> = Sim::new();
        let mut w = 0u64;
        sim.schedule_at(SimTime::from_nanos(100), |_: &mut u64, s: &mut Sim<u64>| {
            s.schedule_at(SimTime::from_nanos(50), |_: &mut u64, _: &mut _| {});
        });
        sim.run(&mut w);
    }

    #[test]
    fn pending_excludes_cancelled() {
        let mut sim: Sim<u64> = Sim::new();
        let a = sim.schedule_at(SimTime::from_nanos(1), |_: &mut u64, _: &mut _| {});
        let _b = sim.schedule_at(SimTime::from_nanos(2), |_: &mut u64, _: &mut _| {});
        assert_eq!(sim.pending(), 2);
        sim.cancel(a);
        assert_eq!(sim.pending(), 1);
    }

    // --- regression tests for the stale-cancel tombstone leak ---

    #[test]
    fn cancel_after_fire_is_rejected_and_pending_stays_exact() {
        let mut sim: Sim<u64> = Sim::new();
        let mut w = 0u64;
        let id = sim.schedule_at(SimTime::from_nanos(1), |w: &mut u64, _: &mut _| *w += 1);
        sim.schedule_at(SimTime::from_nanos(2), |w: &mut u64, _: &mut _| *w += 1);
        assert!(sim.step(&mut w), "first event fires");
        // In the tombstone design this inserted a permanent tombstone and
        // pending() (heap.len() - cancelled.len()) drifted; now the stale
        // cancel must be rejected outright.
        assert!(!sim.cancel(id), "cancel of a fired event reports false");
        assert_eq!(sim.pending(), 1);
        sim.run(&mut w);
        assert_eq!(w, 2);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn cancel_of_foreign_or_spent_id_is_rejected() {
        let mut sim: Sim<u64> = Sim::new();
        let mut other: Sim<u64> = Sim::new();
        let foreign = other.schedule_at(SimTime::from_nanos(1), |_: &mut u64, _: &mut _| {});
        assert!(!sim.cancel(foreign), "id from another simulator");
        let a = sim.schedule_at(SimTime::from_nanos(1), |_: &mut u64, _: &mut _| {});
        assert!(sim.cancel(a));
        assert!(!sim.cancel(a), "second cancel is a no-op");
        assert_eq!(sim.pending(), 0);
        let mut w = 0u64;
        sim.run(&mut w);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn slot_reuse_does_not_resurrect_stale_ids() {
        let mut sim: Sim<u64> = Sim::new();
        let mut w = 0u64;
        let a = sim.schedule_at(SimTime::from_nanos(1), |_: &mut u64, _: &mut _| {});
        sim.run(&mut w);
        // `a`'s slot is free again; the next schedule reuses it with a new
        // generation. Cancelling the stale id must not touch the new event.
        let b = sim.schedule_at(SimTime::from_nanos(10), |w: &mut u64, _: &mut _| *w += 1);
        assert!(!sim.cancel(a), "stale id must not cancel the reused slot");
        assert_eq!(sim.pending(), 1);
        sim.run(&mut w);
        assert_eq!(w, 1, "event b still fired");
        assert!(!sim.cancel(b), "b is spent after firing");
    }

    #[test]
    fn cancelled_id_stays_stale_after_slot_reuse() {
        let mut sim: Sim<u64> = Sim::new();
        let a = sim.schedule_at(SimTime::from_nanos(5), |_: &mut u64, _: &mut _| {});
        assert!(sim.cancel(a));
        // Drain the cancelled key so the slot is actually reclaimed.
        let mut w = 0u64;
        sim.run(&mut w);
        let _b = sim.schedule_at(SimTime::from_nanos(6), |_: &mut u64, _: &mut _| {});
        assert!(!sim.cancel(a), "generation bump invalidates the old id");
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn periodic_rearm_invalidates_first_id() {
        let mut sim: Sim<u64> = Sim::new();
        let mut w = 0u64;
        let id = sim.schedule_periodic(
            SimTime::from_nanos(10),
            SimDuration::from_nanos(10),
            |w: &mut u64, _: &mut Sim<u64>| {
                *w += 1;
                Periodic::Continue
            },
        );
        sim.run_until(&mut w, SimTime::from_nanos(35));
        assert_eq!(w, 3);
        // The series re-armed; the first-firing id no longer names it.
        assert!(!sim.cancel(id), "id of a fired tick is stale");
        assert_eq!(sim.pending(), 1, "series is still armed");
        sim.run_until(&mut w, SimTime::from_nanos(45));
        assert_eq!(w, 4, "series keeps firing after the stale cancel");
    }

    #[test]
    fn run_until_reclaims_cancelled_heads() {
        let mut sim: Sim<u64> = Sim::new();
        let mut w = 0u64;
        let a = sim.schedule_at(SimTime::from_nanos(100), |w: &mut u64, _: &mut _| *w += 1);
        sim.cancel(a);
        // The only key is cancelled and beyond the deadline: run_until must
        // still advance the clock and reclaim it.
        sim.run_until(&mut w, SimTime::from_nanos(50));
        assert_eq!(sim.now(), SimTime::from_nanos(50));
        assert_eq!(w, 0);
        sim.run(&mut w);
        assert_eq!(w, 0);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn scheduler_telemetry_records_arm_fire_cancel() {
        use edp_telemetry::RecordKind;
        edp_telemetry::enable(edp_telemetry::TelemetryConfig::default());
        let mut sim: Sim<u64> = Sim::new();
        let mut w = 0u64;
        sim.schedule_at(SimTime::from_nanos(5), |w: &mut u64, _: &mut _| *w += 1);
        let b = sim.schedule_at(SimTime::from_nanos(9), |_: &mut u64, _: &mut _| {});
        sim.cancel(b);
        sim.run(&mut w);
        let t = edp_telemetry::disable().expect("session");
        let kinds: Vec<RecordKind> = t.ring.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                RecordKind::SchedArm { seq: 0, due_ns: 5 },
                RecordKind::SchedArm { seq: 1, due_ns: 9 },
                RecordKind::SchedCancel { handle: b.0 },
                RecordKind::SchedFire { seq: 0 },
            ]
        );
        assert_eq!(w, 1);
    }

    #[test]
    fn scheduler_telemetry_disabled_by_config() {
        edp_telemetry::enable(edp_telemetry::TelemetryConfig {
            scheduler_records: false,
            ..edp_telemetry::TelemetryConfig::default()
        });
        let mut sim: Sim<u64> = Sim::new();
        let mut w = 0u64;
        sim.schedule_at(SimTime::from_nanos(5), |w: &mut u64, _: &mut _| *w += 1);
        sim.run(&mut w);
        let t = edp_telemetry::disable().expect("session");
        assert!(t.ring.is_empty(), "config gate must suppress sched records");
    }

    #[test]
    fn handler_can_reuse_slot_mid_fire() {
        // The firing slot is reclaimed before the handler runs, so a
        // schedule from inside the handler may land in the same slot; its
        // id must be valid and cancellable.
        let mut sim: Sim<Vec<EventId>> = Sim::new();
        let mut ids: Vec<EventId> = Vec::new();
        sim.schedule_at(
            SimTime::from_nanos(1),
            |ids: &mut Vec<EventId>, s: &mut Sim<Vec<EventId>>| {
                let id = s.schedule_in(
                    SimDuration::from_nanos(1),
                    |_: &mut Vec<EventId>, _: &mut _| panic!("must be cancelled"),
                );
                ids.push(id);
            },
        );
        assert!(sim.step(&mut ids));
        assert!(sim.cancel(ids[0]), "fresh id from reused slot is live");
        sim.run(&mut ids);
    }

    // --- keyed ordering + window-execution APIs (sharded engine) ---

    #[test]
    fn keyed_events_order_by_key_then_seq_at_same_instant() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut out = Vec::new();
        let t = SimTime::from_nanos(5);
        // Armed out of key order; an unkeyed event armed first must still
        // fire last at the same instant.
        sim.schedule_at(t, |w: &mut Vec<u64>, _: &mut _| w.push(999));
        sim.schedule_keyed_at(t, 7, |w: &mut Vec<u64>, _: &mut _| w.push(7));
        sim.schedule_keyed_at(t, 3, |w: &mut Vec<u64>, _: &mut _| w.push(3));
        sim.schedule_keyed_at(t, 7, |w: &mut Vec<u64>, _: &mut _| w.push(70));
        sim.run(&mut out);
        assert_eq!(out, vec![3, 7, 70, 999]);
    }

    #[test]
    fn keyed_order_is_independent_of_arm_order() {
        let fire = |arm: &[u64]| {
            let mut sim: Sim<Vec<u64>> = Sim::new();
            let mut out = Vec::new();
            for &k in arm {
                sim.schedule_keyed_at(
                    SimTime::from_nanos(1),
                    k,
                    move |w: &mut Vec<u64>, _: &mut _| w.push(k),
                );
            }
            sim.run(&mut out);
            out
        };
        assert_eq!(fire(&[2, 0, 1]), fire(&[0, 1, 2]));
        assert_eq!(fire(&[2, 0, 1]), vec![0, 1, 2]);
    }

    #[test]
    fn time_still_dominates_keys() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut out = Vec::new();
        sim.schedule_keyed_at(SimTime::from_nanos(2), 0, |w: &mut Vec<u64>, _: &mut _| {
            w.push(2)
        });
        sim.schedule_keyed_at(SimTime::from_nanos(1), 9, |w: &mut Vec<u64>, _: &mut _| {
            w.push(1)
        });
        sim.run(&mut out);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn run_before_is_exclusive_and_keeps_clock() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut out = Vec::new();
        sim.schedule_at(SimTime::from_nanos(10), |w: &mut Vec<u64>, _: &mut _| {
            w.push(10)
        });
        sim.schedule_at(SimTime::from_nanos(20), |w: &mut Vec<u64>, _: &mut _| {
            w.push(20)
        });
        sim.run_before(&mut out, SimTime::from_nanos(20));
        assert_eq!(out, vec![10], "event exactly at the bound must not fire");
        assert_eq!(
            sim.now(),
            SimTime::from_nanos(10),
            "clock stays at last fired event"
        );
        // An external message may now land exactly at the bound.
        sim.schedule_at(SimTime::from_nanos(20), |w: &mut Vec<u64>, _: &mut _| {
            w.push(21)
        });
        sim.run(&mut out);
        assert_eq!(out, vec![10, 20, 21]);
    }

    #[test]
    fn peek_next_skips_cancelled_and_fast_forward_is_monotone() {
        let mut sim: Sim<u64> = Sim::new();
        assert_eq!(sim.peek_next(), None);
        let a = sim.schedule_at(SimTime::from_nanos(5), |_: &mut u64, _: &mut _| {});
        sim.schedule_at(SimTime::from_nanos(9), |_: &mut u64, _: &mut _| {});
        assert_eq!(sim.peek_next(), Some(SimTime::from_nanos(5)));
        sim.cancel(a);
        assert_eq!(sim.peek_next(), Some(SimTime::from_nanos(9)));
        sim.fast_forward(SimTime::from_nanos(7));
        assert_eq!(sim.now(), SimTime::from_nanos(7));
        sim.fast_forward(SimTime::from_nanos(3));
        assert_eq!(sim.now(), SimTime::from_nanos(7), "never moves backwards");
    }

    // --- the key queue's shape: a sorted run beside the heap ---

    /// Hop `hop` of one packet down an 8-switch line: an edge wire, seven
    /// trunks and the sink's edge wire, each armed `now + a constant
    /// delay` — the push pattern the run is for.
    fn line_hop(s: &mut Sim<()>, hop: usize) {
        const DELAY_NS: [u64; 9] = [
            1_050, 2_050, 2_050, 2_050, 2_050, 2_050, 2_050, 2_050, 1_050,
        ];
        if let Some(&d) = DELAY_NS.get(hop) {
            s.schedule_in(
                SimDuration::from_nanos(d),
                move |_: &mut (), s: &mut Sim<()>| line_hop(s, hop + 1),
            );
        }
    }

    #[test]
    fn line_shaped_chains_keep_the_heap_small() {
        // A packet every 500 ns down the line: three interleaved
        // constant-delay streams (500 / 1,050 / 2,050 ns) and ~33 keys
        // queued. The longest-delay stream always appends to the run, so
        // only the other two reach the heap. A far-future event armed
        // first must not change that (the restart rule).
        for far_first in [false, true] {
            let mut sim: Sim<()> = Sim::new();
            if far_first {
                sim.schedule_at(SimTime::from_millis(1), |_: &mut (), _: &mut _| {});
            }
            sim.schedule_periodic(
                SimTime::ZERO,
                SimDuration::from_nanos(500),
                |_: &mut (), s: &mut Sim<()>| {
                    line_hop(s, 0);
                    if s.now() < SimTime::from_micros(200) {
                        Periodic::Continue
                    } else {
                        Periodic::Stop
                    }
                },
            );
            let (mut max_heap, mut max_pending) = (0, 0);
            while sim.step(&mut ()) {
                if sim.now() > SimTime::from_micros(20) {
                    max_heap = max_heap.max(sim.heap.keys.len());
                    max_pending = max_pending.max(sim.pending());
                }
            }
            assert!(max_pending >= 30, "the line queues ~33 keys");
            assert!(
                max_heap <= 8,
                "far_first={far_first}: heap held {max_heap} keys"
            );
            // 401 packets, a generator tick and nine hops each, plus the
            // far-future event.
            assert_eq!(sim.events_fired(), 401 * 10 + far_first as u64);
        }
    }

    #[test]
    fn monotone_pushes_beyond_the_run_fire_in_order() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut out = Vec::new();
        // Same-instant pairs, so FIFO ties cross the run/heap boundary.
        let arm = |sim: &mut Sim<Vec<u64>>, range: std::ops::Range<u64>| {
            for i in range {
                sim.schedule_at(
                    SimTime::from_nanos(i / 2),
                    move |w: &mut Vec<u64>, _: &mut _| w.push(i),
                );
            }
        };
        let n = 3 * RUN_CAP as u64;
        arm(&mut sim, 0..n);
        assert_eq!(
            (sim.heap.run.len, sim.heap.keys.len()),
            (RUN_CAP, 2 * RUN_CAP)
        );
        for _ in 0..10 {
            sim.step(&mut out);
        }
        // The run has room again; the next monotone batch wraps its ring.
        arm(&mut sim, n..2 * n);
        assert_eq!(sim.heap.run.len, RUN_CAP);
        sim.run(&mut out);
        assert_eq!(out, (0..2 * n).collect::<Vec<_>>());
    }
}
