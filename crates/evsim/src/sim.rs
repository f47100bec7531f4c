//! The discrete-event scheduler.
//!
//! [`Sim<W>`] owns a priority queue of pending events over a world type
//! `W`. The world names its own closed event type, [`World::Event`], and
//! applies one in [`World::fire`] with `&mut W` and `&mut Sim<W>`, so an
//! event can mutate the world and schedule further events. Closure worlds
//! (`()`, the integers, `Vec<T>`, pairs) queue [`Closure`]s; a world with a
//! fixed set of hot events defines an enum and keeps one [`Closure`] arm
//! for everything else. Two events scheduled for the same instant fire in
//! the order they were scheduled (stable FIFO tie-break), which keeps runs
//! bit-for-bit reproducible.
//!
//! # Fast path
//!
//! The queue is a slab-backed arena: a key queue holds compact
//! `(time, key, seq, slot)` keys (32 bytes, `Copy`) while the events
//! themselves live by value in a slot arena indexed by the key. This buys
//! three things over the classic `BinaryHeap<Entry>` + cancelled-`HashSet`
//! design:
//!
//! - **Cancellation is O(1) and exact** — it flips the slot state; there
//!   is no hash-set probe on every pop and no tombstone that can outlive
//!   the queue and skew [`Sim::pending`].
//! - **An event costs what its world's enum costs** — a typed event sits
//!   inline in its slot and fires through a `match`, so scheduling it
//!   allocates nothing and firing it calls through no vtable. An event
//!   repeats by re-arming itself at the end of its step
//!   ([`Sim::rearm_at`]): a typed world moves the same plain-data event
//!   into the next slot, so steady-state repeats allocate nothing either.
//! - **Heap traffic is cache-friendly** — sift operations move small
//!   `Copy` keys instead of the events.
//!
//! The key queue is a 4-ary min-heap beside a sorted *run*, a fixed ring
//! of keys in ascending order. A network simulation schedules mostly
//! `now + a small delay`, so a new key lands at or near the back of what
//! is queued: the **insertion rule** puts a key into the run when at most
//! a constant bound of run keys (32) sort after it, shifting those back
//! by one, and sends any other key to the heap. A full run evicts its
//! back key to the heap to take a key that sorts before it. One early
//! outlier armed first (a far-future fault or a repeating tick) therefore
//! sits at the run's back while the streams insert in front of it. The
//! bound keeps a key that lands far behind the back from paying for a
//! long shift: the heap takes it in `O(log n)`. A pop takes the smaller
//! of the run's front and the heap's top under the full
//! `(time, key, seq)` order; `seq` is unique, so firing order is exactly
//! that of a single heap, wherever each key went.
//!
//! The slab invariant: every occupied slot has exactly one key in the
//! key queue, and a slot is only reclaimed when that key is popped. Handles
//! ([`EventId`]) carry a generation counter so stale ids (already fired or
//! already cancelled) are rejected instead of corrupting an unrelated
//! event that reused the slot.

use crate::time::{SimDuration, SimTime};
use edp_telemetry::RecordKind;
use std::cmp::Ordering;

/// A world a [`Sim`] runs over: it names the one event type its queue
/// holds and applies those events.
///
/// A world with no events of its own queues [`Closure`]s:
///
/// ```
/// use edp_evsim::{Closure, Sim, SimTime, World};
///
/// struct Counter(u64);
/// impl World for Counter {
///     type Event = Closure<Self>;
///     fn fire(&mut self, sim: &mut Sim<Self>, ev: Closure<Self>) {
///         ev.fire(self, sim)
///     }
/// }
///
/// let mut sim: Sim<Counter> = Sim::new();
/// sim.schedule_at(SimTime::from_nanos(5), |c: &mut Counter, _: &mut _| c.0 += 1);
/// let mut c = Counter(0);
/// sim.run(&mut c);
/// assert_eq!(c.0, 1);
/// ```
pub trait World: Sized + 'static {
    /// What the queue holds, inline in its slots.
    type Event;

    /// Applies one fired event to the world.
    fn fire(&mut self, sim: &mut Sim<Self>, ev: Self::Event);
}

/// Closure worlds: their whole event type is [`Closure`].
macro_rules! closure_world {
    ($(impl<$($p:ident),*> for $t:ty;)*) => {$(
        impl<$($p: 'static),*> World for $t {
            type Event = Closure<Self>;
            fn fire(&mut self, sim: &mut Sim<Self>, ev: Closure<Self>) {
                ev.fire(self, sim)
            }
        }
    )*};
}

closure_world! {
    impl<> for ();
    impl<> for u32;
    impl<> for u64;
    impl<T> for Vec<T>;
    impl<A, B> for (A, B);
}

/// A closure event: the whole event type of a closure world, and the
/// catch-all arm of a typed world's enum. Every `schedule_*` call takes an
/// `FnOnce(&mut W, &mut Sim<W>)` as it is.
pub struct Closure<W: World>(Box<Once<W>>);

type Once<W> = dyn FnOnce(&mut W, &mut Sim<W>);

impl<W: World> Closure<W> {
    /// Runs the closure.
    pub fn fire(self, world: &mut W, sim: &mut Sim<W>) {
        (self.0)(world, sim)
    }
}

impl<W: World, F: FnOnce(&mut W, &mut Sim<W>) + 'static> From<F> for Closure<W> {
    fn from(f: F) -> Self {
        Closure(Box::new(f))
    }
}

/// Handle to a scheduled event, usable with [`Sim::cancel`].
///
/// Internally packs a slab slot index and a generation counter; a handle
/// goes stale the moment its event fires or is cancelled (a re-armed
/// event is a new event), and stale handles are rejected by
/// [`Sim::cancel`].
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

/// Ordering key for events that carry no cross-run ordering identity:
/// they sort after every keyed event at the same instant and fall back to
/// scheduling order (`seq`) among themselves. See [`Sim::schedule_keyed_at`].
pub const UNKEYED: u64 = u64::MAX;

/// Compact heap key; the event lives in the slot arena.
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
/// mask. A full run evicts its back key to the heap, which costs speed,
/// never order.
const RUN_CAP: usize = 64;

/// The most run keys a push may shift back to make room for its key; a
/// key that would move more goes to the heap (see the module docs).
const RUN_SHIFT_MAX: usize = 32;

/// A fixed ring of [`HeapKey`]s in ascending order. Inline, so an empty
/// simulator allocates nothing for it.
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

    /// The `i`-th key from the front (`i < len`).
    fn at(&self, i: usize) -> &HeapKey {
        &self.keys[(self.head + i) & Self::MASK]
    }

    fn front(&self) -> Option<&HeapKey> {
        (self.len > 0).then(|| self.at(0))
    }

    /// Inserts `key` behind every smaller key, shifting the larger ones
    /// back by one (the run has room).
    fn insert(&mut self, key: HeapKey) {
        debug_assert!(self.len < RUN_CAP);
        let mut i = self.len;
        while i > 0 && *self.at(i - 1) > key {
            self.keys[(self.head + i) & Self::MASK] = *self.at(i - 1);
            i -= 1;
        }
        self.keys[(self.head + i) & Self::MASK] = key;
        self.len += 1;
    }

    fn pop_front(&mut self) -> HeapKey {
        debug_assert!(self.len > 0);
        let key = *self.at(0);
        self.head = (self.head + 1) & Self::MASK;
        self.len -= 1;
        key
    }

    fn pop_back(&mut self) -> HeapKey {
        debug_assert!(self.len > 0);
        self.len -= 1;
        *self.at(self.len)
    }
}

/// The key queue: a 4-ary min-heap of [`HeapKey`]s beside a sorted
/// [`Run`] that takes every push landing near its back (see the module
/// docs for the insertion rule).
///
/// Versus `std::collections::BinaryHeap` the 4-ary heap halves the tree
/// depth, so a pop on a deep queue takes fewer dependent cache misses; a
/// node's children are consecutive 32-byte `Copy` keys (two cache lines),
/// which the hardware prefetcher streams while the min-scan runs. The run
/// matters more: every pop from a heap sifts its last key down from the
/// root, and a key popped from the run skips that entirely.
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

    /// The insertion rule: `key` joins the run unless more than
    /// [`RUN_SHIFT_MAX`] run keys sort after it, or the run is full and
    /// `key` sorts after all of them. A full run makes room by evicting
    /// its back key to the heap.
    fn push(&mut self, key: HeapKey) {
        let run = &mut self.run;
        if run.len > RUN_SHIFT_MAX && key < *run.at(run.len - 1 - RUN_SHIFT_MAX) {
            self.heap_push(key);
        } else if run.len < RUN_CAP {
            run.insert(key);
        } else if key > *run.at(RUN_CAP - 1) {
            self.heap_push(key);
        } else {
            let back = run.pop_back();
            run.insert(key);
            self.heap_push(back);
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

enum SlotState<E> {
    /// Free-list member; `next_free` chains to the next vacant slot.
    Vacant { next_free: u32 },
    /// An event waiting to fire.
    Armed(E),
    /// Cancelled, but its key is still in the heap; the slot is reclaimed
    /// when that key pops.
    Cancelled,
}

struct Slot<E> {
    /// Bumped every time the slot is freed, invalidating any [`EventId`]
    /// handed out for the previous occupant.
    generation: u32,
    /// Sequence number of the heap key currently pointing at this slot
    /// (meaningful only while occupied; checks the slab invariant).
    #[cfg(debug_assertions)]
    armed_seq: u64,
    state: SlotState<E>,
}

const NO_FREE: u32 = u32::MAX;

/// A deterministic discrete-event simulator over world type `W`.
///
/// # Example
///
/// ```
/// use edp_evsim::{Sim, SimTime, SimDuration};
///
/// let mut sim: Sim<Vec<u64>> = Sim::new();
/// let mut hits: Vec<u64> = Vec::new();
/// sim.schedule_at(SimTime::from_nanos(20), |w: &mut Vec<u64>, _: &mut _| w.push(20));
/// sim.schedule_at(SimTime::from_nanos(10), |w: &mut Vec<u64>, s: &mut Sim<Vec<u64>>| {
///     w.push(10);
///     s.schedule_in(SimDuration::from_nanos(5), |w: &mut Vec<u64>, _: &mut _| w.push(15));
/// });
/// sim.run(&mut hits);
/// assert_eq!(hits, vec![10, 15, 20]);
/// ```
pub struct Sim<W: World> {
    now: SimTime,
    heap: KeyHeap,
    slots: Vec<Slot<W::Event>>,
    free_head: u32,
    /// Events currently armed (excludes cancelled-but-unpopped slots).
    live: usize,
    next_seq: u64,
    fired: u64,
}

impl<W: World> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: World> Sim<W> {
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
    /// it with `ev`. Returns the slot index.
    fn arm_slot(&mut self, seq: u64, ev: W::Event) -> u32 {
        let _ = seq;
        let state = SlotState::Armed(ev);
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

    /// Returns a slot to the free list, invalidates outstanding ids, and
    /// hands back what the slot held.
    fn free_slot(&mut self, idx: u32) -> SlotState<W::Event> {
        let slot = &mut self.slots[idx as usize];
        slot.generation = slot.generation.wrapping_add(1);
        let next_free = std::mem::replace(&mut self.free_head, idx);
        std::mem::replace(&mut slot.state, SlotState::Vacant { next_free })
    }

    /// Schedules `ev` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time: scheduling into the past
    /// is always a logic error and silently reordering it would hide bugs.
    pub fn schedule_at(&mut self, at: SimTime, ev: impl Into<W::Event>) -> EventId {
        self.schedule_keyed_at(at, UNKEYED, ev)
    }

    /// Schedules `ev` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, ev: impl Into<W::Event>) -> EventId {
        self.schedule_keyed_at(self.now + delay, UNKEYED, ev)
    }

    /// Schedules `ev` at `at` with an explicit same-instant ordering key.
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
    pub fn schedule_keyed_at(&mut self, at: SimTime, key: u64, ev: impl Into<W::Event>) -> EventId {
        let id = self.enqueue(at, key, ev.into());
        edp_telemetry::emit(
            self.now.as_nanos(),
            RecordKind::SchedArm {
                seq: self.next_seq - 1,
                due_ns: at.as_nanos(),
            },
        );
        id
    }

    /// The one funnel every event goes through: takes the next sequence
    /// number, parks `ev` in a slot and pushes its key.
    fn enqueue(&mut self, at: SimTime, key: u64, ev: W::Event) -> EventId {
        assert!(
            at >= self.now,
            "scheduled into the past: {} < {}",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.arm_slot(seq, ev);
        self.heap.push(HeapKey {
            time: at,
            key,
            seq,
            slot,
        });
        self.live += 1;
        EventId::pack(slot, self.slots[slot as usize].generation)
    }

    /// Re-arms a repeating event at `at`: the one way an event repeats.
    /// Called last in the step that fired it, so its sequence number
    /// comes after everything that step armed. Unlike
    /// [`Sim::schedule_at`] it writes no `SchedArm` record: the repeat is
    /// the same event again, not a new arm.
    ///
    /// # Panics
    ///
    /// Panics unless `at` is after the current time: a repeat that does
    /// not move time forward would loop forever.
    pub fn rearm_at(&mut self, at: SimTime, ev: impl Into<W::Event>) -> EventId {
        assert!(at > self.now, "a re-arm at {at} would repeat forever");
        self.enqueue(at, UNKEYED, ev.into())
    }

    /// Cancels a pending event. Returns `false` — with no side effects —
    /// if the id is stale: already fired, already cancelled, or never
    /// issued by this simulator.
    ///
    /// Cancellation is O(1): the slot is flagged and its heap key is
    /// reclaimed lazily when it surfaces.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(slot) = self.slots.get_mut(id.slot() as usize) else {
            return false;
        };
        if slot.generation != id.generation() || !matches!(slot.state, SlotState::Armed(_)) {
            return false;
        }
        slot.state = SlotState::Cancelled;
        self.live -= 1;
        edp_telemetry::emit(
            self.now.as_nanos(),
            RecordKind::SchedCancel { handle: id.0 },
        );
        true
    }

    /// Fires the single earliest pending event. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        while let Some(key) = self.heap.pop() {
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                self.slots[key.slot as usize].armed_seq, key.seq,
                "heap key does not match its slot (slab invariant broken)"
            );
            // Reclaim before firing so the handler sees an exact pending()
            // and can immediately reuse the slot.
            match self.free_slot(key.slot) {
                SlotState::Armed(ev) => {
                    self.live -= 1;
                    debug_assert!(key.time >= self.now);
                    self.now = key.time;
                    self.fired += 1;
                    edp_telemetry::emit(
                        self.now.as_nanos(),
                        RecordKind::SchedFire { seq: key.seq },
                    );
                    world.fire(self, ev);
                    return true;
                }
                SlotState::Cancelled => continue,
                SlotState::Vacant { .. } => unreachable!("vacant slot had a key in the heap"),
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

    type Tick<W> = dyn FnMut(&mut W, &mut Sim<W>) -> bool;

    /// A periodic timer on the one repeat path: `tick` fires, and while it
    /// returns `true` the event re-arms itself one `period` on.
    fn every<W: World<Event = Closure<W>>>(
        period: SimDuration,
        mut tick: Box<Tick<W>>,
    ) -> Closure<W> {
        Closure::from(move |w: &mut W, s: &mut Sim<W>| {
            if tick(w, s) {
                let at = s.now() + period;
                s.rearm_at(at, every(period, tick));
            }
        })
    }

    #[test]
    fn periodic_fires_until_stopped() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut out = Vec::new();
        let tick = |w: &mut Vec<u64>, s: &mut Sim<Vec<u64>>| {
            w.push(s.now().as_nanos());
            w.len() < 4
        };
        let period = SimDuration::from_nanos(10);
        sim.schedule_at(SimTime::from_nanos(10), every(period, Box::new(tick)));
        sim.run(&mut out);
        assert_eq!(out, vec![10, 20, 30, 40]);
    }

    #[test]
    fn cancelling_periodic_before_first_fire_disarms() {
        let mut sim: Sim<u64> = Sim::new();
        let mut count = 0u64;
        let tick = |w: &mut u64, _: &mut Sim<u64>| {
            *w += 1;
            true
        };
        let period = SimDuration::from_nanos(10);
        let id = sim.schedule_at(SimTime::from_nanos(10), every(period, Box::new(tick)));
        sim.cancel(id);
        sim.run_until(&mut count, SimTime::from_millis(1));
        assert_eq!(count, 0);
    }

    #[test]
    #[should_panic(expected = "would repeat forever")]
    fn rearm_at_the_current_instant_panics() {
        let mut sim: Sim<u64> = Sim::new();
        let tick = |_: &mut u64, _: &mut Sim<u64>| true;
        sim.schedule_at(
            SimTime::from_nanos(5),
            every(SimDuration::ZERO, Box::new(tick)),
        );
        sim.run(&mut 0);
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
        let tick = |w: &mut u64, _: &mut Sim<u64>| {
            *w += 1;
            true
        };
        let period = SimDuration::from_nanos(10);
        let id = sim.schedule_at(SimTime::from_nanos(10), every(period, Box::new(tick)));
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
        // The first event arms a child, then re-arms itself: the re-arm
        // takes the seq after the child's and writes no `SchedArm`.
        sim.schedule_at(SimTime::from_nanos(5), |w: &mut u64, s: &mut Sim<u64>| {
            *w += 1;
            s.schedule_at(SimTime::from_nanos(7), |_: &mut u64, _: &mut _| {});
            s.rearm_at(SimTime::from_nanos(8), |w: &mut u64, _: &mut _| *w += 1);
        });
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
                RecordKind::SchedArm { seq: 2, due_ns: 7 },
                RecordKind::SchedFire { seq: 2 },
                RecordKind::SchedFire { seq: 3 },
            ]
        );
        assert_eq!(w, 2);
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
    /// delay`.
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

    /// A packet every 500 ns down the line for 200 µs: three interleaved
    /// constant-delay streams (500 / 1,050 / 2,050 ns), ~33 keys queued.
    fn line_shape(s: &mut Sim<()>) {
        let tick = |_: &mut (), s: &mut Sim<()>| {
            line_hop(s, 0);
            s.now() < SimTime::from_micros(200)
        };
        let period = SimDuration::from_nanos(500);
        s.schedule_at(SimTime::ZERO, every(period, Box::new(tick)));
    }

    /// Hop `hop` of an RPC across a k=4 fat-tree and back: 1-µs host
    /// wires at both ends, 2-µs fabric wires between, each hop also
    /// serializing the frame at 10 Gb/s (0.8 ns a byte) after `wait_ns`
    /// behind the frames ahead of it.
    fn fat_hop(s: &mut Sim<()>, hop: usize, bytes: u64, wait_ns: u64) {
        const PROP_NS: [u64; 12] = [
            1_000, 2_000, 2_000, 2_000, 2_000, 1_000, 1_000, 2_000, 2_000, 2_000, 2_000, 1_000,
        ];
        if let Some(&d) = PROP_NS.get(hop) {
            s.schedule_in(
                SimDuration::from_nanos(wait_ns + d + bytes * 4 / 5),
                move |_: &mut (), s: &mut Sim<()>| fat_hop(s, hop + 1, bytes, 0),
            );
        }
    }

    /// Eight client fleets, each a +20 µs periodic pacer armed before any
    /// traffic, sending five RPCs of mixed sizes back to back per tick
    /// for 400 µs: 1-µs and 2-µs streams interleaved by serialization,
    /// with ~90 keys queued.
    fn fat_tree_shape(s: &mut Sim<()>) {
        for fleet in 0..8u64 {
            let mut lcg = fleet.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let tick = move |_: &mut (), s: &mut Sim<()>| {
                let mut wait = 0;
                for _ in 0..5 {
                    lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let bytes = [96, 128, 256, 1_024, 1_536][(lcg >> 61) as usize % 5];
                    fat_hop(s, 0, bytes, wait);
                    wait += bytes * 4 / 5;
                }
                s.now() < SimTime::from_micros(400)
            };
            let period = SimDuration::from_micros(20);
            s.schedule_at(SimTime::from_micros(20), every(period, Box::new(tick)));
        }
    }

    /// Runs a shape to the end; returns the share of pops the run served
    /// and the most keys queued at once.
    fn run_share(shape: fn(&mut Sim<()>), far_first: bool) -> (f64, usize) {
        let mut sim: Sim<()> = Sim::new();
        if far_first {
            sim.schedule_at(SimTime::from_millis(1), |_: &mut (), _: &mut _| {});
        }
        shape(&mut sim);
        let (mut from_run, mut pops, mut max_pending) = (0u64, 0u64, 0);
        while sim.heap.peek().is_some() {
            from_run += sim.heap.run_first() as u64;
            pops += 1;
            max_pending = max_pending.max(sim.pending());
            sim.step(&mut ());
        }
        (from_run as f64 / pops as f64, max_pending)
    }

    #[test]
    fn line_and_fat_tree_shapes_pop_from_the_run() {
        // The run serves at least 90 % of pops on both shapes, with or
        // without a far-future event armed first: it sits at the run's
        // back and every stream inserts in front of it.
        for far_first in [false, true] {
            let (share, queued) = run_share(line_shape, far_first);
            assert!(queued >= 30, "the line queues ~33 keys, saw {queued}");
            assert!(share >= 0.9, "line, far_first={far_first}: {share}");
            let (share, queued) = run_share(fat_tree_shape, far_first);
            assert!(queued >= 60, "the fat-tree queues ~90 keys, saw {queued}");
            assert!(share >= 0.9, "fat-tree, far_first={far_first}: {share}");
        }
    }

    /// A key queue with `seq`s `0..n` at the given times, all pushed.
    fn pushed(times: impl IntoIterator<Item = u64>) -> KeyHeap {
        let mut q = KeyHeap::new();
        for (seq, t) in times.into_iter().enumerate() {
            q.push(HeapKey {
                time: SimTime::from_nanos(t),
                key: UNKEYED,
                seq: seq as u64,
                slot: seq as u32,
            });
        }
        q
    }

    fn drain(mut q: KeyHeap) -> Vec<u64> {
        std::iter::from_fn(|| q.pop().map(|k| k.seq)).collect()
    }

    #[test]
    fn insertion_rule_bounds_the_shift_and_evicts_from_a_full_run() {
        // An early outlier stays at the back; the next key goes in front.
        let q = pushed([1_000_000, 5]);
        assert_eq!((q.run.len, q.keys.len()), (2, 0));
        assert_eq!(drain(q), [1, 0]);
        // A key that would shift more than the bound goes to the heap.
        let n = RUN_SHIFT_MAX as u64;
        let q = pushed((1..=n).chain([0]));
        assert_eq!((q.run.len, q.keys.len()), (RUN_SHIFT_MAX + 1, 0));
        let q = pushed((1..=n + 1).chain([0]));
        assert_eq!((q.run.len, q.keys.len()), (RUN_SHIFT_MAX + 1, 1));
        assert_eq!(drain(q)[0], n + 1);
        // A full run evicts its back key to take a smaller one, and sends
        // a larger one straight to the heap.
        let cap = RUN_CAP as u64;
        let q = pushed((0..cap).map(|t| 2 * t).chain([2 * cap - 3, 2 * cap]));
        assert_eq!((q.run.len, q.keys.len()), (RUN_CAP, 2));
        assert_eq!(q.run.at(RUN_CAP - 1).seq, cap);
        let order = drain(q);
        assert_eq!(order[RUN_CAP - 1..], [cap, cap - 1, cap + 1]);
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
