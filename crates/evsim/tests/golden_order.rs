//! Golden-order property test for the slab-backed event queue.
//!
//! The slab arena + key queue (a 4-ary heap beside a sorted run) in
//! `edp_evsim::Sim` is an acceleration structure; its observable
//! firing semantics must be bit-for-bit those of the obvious reference
//! implementation — a flat list scanned for the minimum
//! `(time, key, seq)` — under arbitrary interleavings of one-shot and
//! keyed schedules, periodic timers re-armed by `Sim::rearm_at`
//! (including ticks that schedule work of their own), self-re-arming constant-delay chains, pre-run and
//! mid-run cancellations, and handlers that schedule more work. Times are drawn from a small range so same-instant ties (keyed
//! order, then FIFO) are exercised constantly, yet wide enough that
//! interleaved chains keep both the run and the heap populated; an
//! optional far-future event armed first sits at the run's back.
//!
//! A second generator has the shape of a fat-tree RPC fabric: waves of
//! packets down interleaved 1-µs and 2-µs streams whose hops also pay a
//! size-dependent serialization, a +20 µs periodic tick armed first that
//! launches each later wave, and keyed and unkeyed same-instant ties. It
//! queues up to hundreds of keys, so the run inserts keys in front of
//! others, turns away keys that would shift too many, and evicts its
//! back key when full.
//!
//! Both executors log every observable: fired tags in order, and the
//! boolean result of every cancellation. The logs must match exactly.

use edp_evsim::{Closure, EventId, Sim, SimDuration, SimTime, UNKEYED};
use proptest::prelude::*;

/// Time range of build-phase events, in ns.
const T: u64 = 64;

/// Far beyond every other event: armed first, it stays at the run's back.
const FAR: u64 = 1_000_000;

/// The fat-tree generator's tick period, ns.
const FAT_TICK: u64 = 20_000;

/// Propagation of each hop of a fat-tree path, ns: 1-µs host wires at
/// both ends, 2-µs fabric wires between.
const FAT_PROP: [u64; 6] = [1_000, 2_000, 2_000, 2_000, 2_000, 1_000];

/// Frame sizes a fat-tree packet draws from, bytes.
const FAT_BYTES: [u64; 4] = [96, 256, 1_024, 1_536];

/// Delay of hop `hop` for a `bytes`-byte frame: propagation plus 10 Gb/s
/// serialization (0.8 ns a byte).
fn fat_hop_ns(hop: usize, bytes: u64) -> u64 {
    FAT_PROP[hop] + bytes * 4 / 5
}

/// One packet of a fat-tree wave.
#[derive(Debug, Clone, Copy)]
struct FatPkt {
    /// Index into [`FAT_BYTES`].
    size: usize,
    /// Its deliveries are keyed (key `tag % 4`), or unkeyed.
    keyed: bool,
}

/// One build-phase command, applied identically to both executors.
#[derive(Debug, Clone)]
enum Cmd {
    /// One-shot event at absolute time `t`.
    Once { t: u64 },
    /// One-shot event at `t` with same-instant ordering key `key`.
    Keyed { t: u64, key: u64 },
    /// Periodic event starting at `t`, firing every `period`, `ticks` times.
    Periodic { t: u64, period: u64, ticks: u64 },
    /// Like `Periodic`, but every tick also schedules a one-shot child at
    /// `now + period`. The tick re-arms only after it returns, so the
    /// child's sequence number is the smaller and it fires first.
    PeriodicNested { t: u64, period: u64, ticks: u64 },
    /// Event at `d` that re-schedules itself at `now + d`, `n` firings in
    /// all: a monotone stream, the run's common case.
    Chain { d: u64, n: u64 },
    /// Immediate (pre-run) cancel of a previously issued id.
    CancelNow { raw: u64 },
    /// Immediate cancel of the newest id, which sits at the run's back
    /// whenever its key appended there.
    CancelNewest,
    /// Event at `t` that cancels a previously issued id when it fires.
    CancelAt { t: u64, raw: u64 },
    /// Event at `t` whose handler schedules a child `child_dt` later.
    Nested { t: u64, child_dt: u64 },
    /// A fat-tree wave: packet `j` of `wave` leaves at `j * gap` and
    /// crosses the [`FAT_PROP`] hops, logging at each. A periodic tick,
    /// armed before the wave, fires every [`FAT_TICK`] `ticks` times and
    /// launches the wave again from its own instant.
    FatTree {
        wave: Vec<FatPkt>,
        gap: u64,
        ticks: u64,
    },
}

fn cmd_strategy() -> BoxedStrategy<Cmd> {
    prop_oneof![
        (0u64..T).prop_map(|t| Cmd::Once { t }),
        ((0u64..T), (0u64..4)).prop_map(|(t, key)| Cmd::Keyed { t, key }),
        ((0u64..T), (1u64..8), (1u64..6)).prop_map(|(t, period, ticks)| Cmd::Periodic {
            t,
            period,
            ticks
        }),
        ((0u64..T), (1u64..8), (1u64..6))
            .prop_map(|(t, period, ticks)| { Cmd::PeriodicNested { t, period, ticks } }),
        ((0u64..24), (1u64..8)).prop_map(|(d, n)| Cmd::Chain { d, n }),
        any::<u64>().prop_map(|raw| Cmd::CancelNow { raw }),
        Just(Cmd::CancelNewest),
        ((0u64..T), any::<u64>()).prop_map(|(t, raw)| Cmd::CancelAt { t, raw }),
        ((0u64..T), (0u64..16)).prop_map(|(t, child_dt)| Cmd::Nested { t, child_dt }),
    ]
    .boxed()
}

fn fat_tree_strategy() -> BoxedStrategy<Cmd> {
    let pkt =
        ((0..FAT_BYTES.len()), any::<bool>()).prop_map(|(size, keyed)| FatPkt { size, keyed });
    (prop::collection::vec(pkt, 1..100), (0u64..48), (0u64..4))
        .prop_map(|(wave, gap, ticks)| Cmd::FatTree { wave, gap, ticks })
        .boxed()
}

// ---------------------------------------------------------------------
// Reference executor: flat list, linear scan for min (time, key, seq).
// ---------------------------------------------------------------------

#[derive(Debug)]
enum RefAction {
    Once(i64),
    Periodic {
        period: u64,
        left: u64,
        tag: i64,
    },
    /// A periodic tick that logs `tag` and schedules `child_tag` one
    /// period on before re-arming.
    PeriodicNested {
        period: u64,
        left: u64,
        tag: i64,
        child_tag: i64,
    },
    Cancel(u64),
    Nested {
        child_dt: u64,
        parent_tag: i64,
        child_tag: i64,
    },
    /// Delivery `hop` of a fat-tree packet; arms the next hop.
    FatHop {
        hop: usize,
        bytes: u64,
        key: u64,
        tag: i64,
    },
    /// The fat-tree tick: logs `tag`, launches the wave, re-arms.
    FatTick {
        left: u64,
        tag: i64,
        wave: Vec<(u64, u64, i64)>,
        gap: u64,
    },
}

#[derive(Debug)]
struct RefEv {
    time: u64,
    key: u64,
    seq: u64,
    action: RefAction,
}

#[derive(Debug, Default)]
struct RefModel {
    now: u64,
    next_seq: u64,
    pending: Vec<RefEv>,
    log: Vec<i64>,
}

impl RefModel {
    fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    fn schedule(&mut self, time: u64, action: RefAction) -> u64 {
        self.schedule_keyed(time, UNKEYED, action)
    }

    fn schedule_keyed(&mut self, time: u64, key: u64, action: RefAction) -> u64 {
        let seq = self.alloc_seq();
        self.pending.push(RefEv {
            time,
            key,
            seq,
            action,
        });
        seq
    }

    /// Launches every `(bytes, key, tag)` packet of a wave from `now`.
    fn launch(&mut self, wave: &[(u64, u64, i64)], gap: u64) {
        for (j, &(bytes, key, tag)) in wave.iter().enumerate() {
            let time = self.now + j as u64 * gap + fat_hop_ns(0, bytes);
            let hop = 0;
            self.schedule_keyed(
                time,
                key,
                RefAction::FatHop {
                    hop,
                    bytes,
                    key,
                    tag,
                },
            );
        }
    }

    fn cancel(&mut self, seq: u64) -> bool {
        match self.pending.iter().position(|e| e.seq == seq) {
            Some(pos) => {
                self.pending.swap_remove(pos);
                true
            }
            None => false,
        }
    }

    fn run(&mut self) {
        loop {
            let Some(pos) = self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.time, e.key, e.seq))
                .map(|(i, _)| i)
            else {
                return;
            };
            let ev = self.pending.swap_remove(pos);
            assert!(ev.time >= self.now);
            self.now = ev.time;
            match ev.action {
                RefAction::Once(tag) => self.log.push(tag),
                RefAction::Periodic { period, left, tag } => {
                    self.log.push(tag);
                    if left > 1 {
                        let time = self.now + period;
                        self.schedule(
                            time,
                            RefAction::Periodic {
                                period,
                                left: left - 1,
                                tag,
                            },
                        );
                    }
                }
                RefAction::PeriodicNested {
                    period,
                    left,
                    tag,
                    child_tag,
                } => {
                    self.log.push(tag);
                    let time = self.now + period;
                    self.schedule(time, RefAction::Once(child_tag));
                    if left > 1 {
                        self.schedule(
                            time,
                            RefAction::PeriodicNested {
                                period,
                                left: left - 1,
                                tag,
                                child_tag,
                            },
                        );
                    }
                }
                RefAction::Cancel(target) => {
                    let r = self.cancel(target);
                    self.log.push(2000 + r as i64);
                }
                RefAction::Nested {
                    child_dt,
                    parent_tag,
                    child_tag,
                } => {
                    self.log.push(parent_tag);
                    let time = self.now + child_dt;
                    self.schedule(time, RefAction::Once(child_tag));
                }
                RefAction::FatHop {
                    hop,
                    bytes,
                    key,
                    tag,
                } => {
                    self.log.push(tag);
                    if hop + 1 < FAT_PROP.len() {
                        let time = self.now + fat_hop_ns(hop + 1, bytes);
                        let hop = hop + 1;
                        self.schedule_keyed(
                            time,
                            key,
                            RefAction::FatHop {
                                hop,
                                bytes,
                                key,
                                tag,
                            },
                        );
                    }
                }
                RefAction::FatTick {
                    left,
                    tag,
                    wave,
                    gap,
                } => {
                    self.log.push(tag);
                    self.launch(&wave, gap);
                    if left > 1 {
                        let time = self.now + FAT_TICK;
                        self.schedule(
                            time,
                            RefAction::FatTick {
                                left: left - 1,
                                tag,
                                wave,
                                gap,
                            },
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The property
// ---------------------------------------------------------------------

type Tick = dyn FnMut(&mut Vec<i64>, &mut Sim<Vec<i64>>) -> bool;

/// A periodic timer on the one repeat path: `tick` fires, and while it
/// returns `true` the event re-arms itself one `period` on with
/// [`Sim::rearm_at`] — after everything the tick armed.
fn every(period: u64, mut tick: Box<Tick>) -> Closure<Vec<i64>> {
    Closure::from(move |w: &mut Vec<i64>, s: &mut Sim<Vec<i64>>| {
        if tick(w, s) {
            let at = s.now() + SimDuration::from_nanos(period);
            s.rearm_at(at, every(period, tick));
        }
    })
}

/// Arms the next link of a chain at `now + d`; `left` firings remain.
fn chain(s: &mut Sim<Vec<i64>>, d: u64, left: u64, tag: i64) -> EventId {
    s.schedule_in(
        SimDuration::from_nanos(d),
        move |w: &mut Vec<i64>, s: &mut Sim<Vec<i64>>| {
            w.push(tag);
            if left > 1 {
                chain(s, d, left - 1, tag);
            }
        },
    )
}

/// Arms delivery `hop` of a fat-tree packet `wait` after now.
fn fat_hop(s: &mut Sim<Vec<i64>>, wait: u64, hop: usize, bytes: u64, key: u64, tag: i64) {
    let at = s.now() + SimDuration::from_nanos(wait + fat_hop_ns(hop, bytes));
    s.schedule_keyed_at(at, key, move |w: &mut Vec<i64>, s: &mut Sim<Vec<i64>>| {
        w.push(tag);
        if hop + 1 < FAT_PROP.len() {
            fat_hop(s, 0, hop + 1, bytes, key, tag);
        }
    });
}

fn fat_launch(s: &mut Sim<Vec<i64>>, wave: &[(u64, u64, i64)], gap: u64) {
    for (j, &(bytes, key, tag)) in wave.iter().enumerate() {
        fat_hop(s, j as u64 * gap, 0, bytes, key, tag);
    }
}

fn run_script(far_first: bool, cmds: &[Cmd]) -> (Vec<i64>, Vec<i64>, usize) {
    let mut sim: Sim<Vec<i64>> = Sim::new();
    let mut model = RefModel::default();
    let mut ids: Vec<EventId> = Vec::new();
    let mut mids: Vec<u64> = Vec::new();
    let mut build_log_sim: Vec<i64> = Vec::new();
    let mut build_log_model: Vec<i64> = Vec::new();
    let mut next_tag: i64 = 0;
    let mut tag = || {
        next_tag += 1;
        next_tag
    };

    let far = far_first.then_some(Cmd::Once { t: FAR });
    for cmd in far.iter().chain(cmds) {
        match *cmd {
            Cmd::Once { t } => {
                let tg = tag();
                ids.push(sim.schedule_at(
                    SimTime::from_nanos(t),
                    move |w: &mut Vec<i64>, _: &mut Sim<Vec<i64>>| w.push(tg),
                ));
                mids.push(model.schedule(t, RefAction::Once(tg)));
            }
            Cmd::Keyed { t, key } => {
                let tg = tag();
                ids.push(sim.schedule_keyed_at(
                    SimTime::from_nanos(t),
                    key,
                    move |w: &mut Vec<i64>, _: &mut Sim<Vec<i64>>| w.push(tg),
                ));
                mids.push(model.schedule_keyed(t, key, RefAction::Once(tg)));
            }
            Cmd::Periodic { t, period, ticks } => {
                let tg = tag();
                let mut left = ticks;
                let tick = move |w: &mut Vec<i64>, _: &mut Sim<Vec<i64>>| {
                    w.push(tg);
                    left -= 1;
                    left > 0
                };
                ids.push(sim.schedule_at(SimTime::from_nanos(t), every(period, Box::new(tick))));
                mids.push(model.schedule(
                    t,
                    RefAction::Periodic {
                        period,
                        left: ticks,
                        tag: tg,
                    },
                ));
            }
            Cmd::PeriodicNested { t, period, ticks } => {
                let (tg, child_tag) = (tag(), tag());
                let mut left = ticks;
                let tick = move |w: &mut Vec<i64>, s: &mut Sim<Vec<i64>>| {
                    w.push(tg);
                    s.schedule_in(
                        SimDuration::from_nanos(period),
                        move |w: &mut Vec<i64>, _: &mut Sim<Vec<i64>>| w.push(child_tag),
                    );
                    left -= 1;
                    left > 0
                };
                ids.push(sim.schedule_at(SimTime::from_nanos(t), every(period, Box::new(tick))));
                mids.push(model.schedule(
                    t,
                    RefAction::PeriodicNested {
                        period,
                        left: ticks,
                        tag: tg,
                        child_tag,
                    },
                ));
            }
            Cmd::Chain { d, n } => {
                let tg = tag();
                ids.push(chain(&mut sim, d, n, tg));
                // The reference fires a chain exactly as a periodic timer;
                // only the simulator arms each link as a fresh event.
                mids.push(model.schedule(
                    d,
                    RefAction::Periodic {
                        period: d,
                        left: n,
                        tag: tg,
                    },
                ));
            }
            Cmd::CancelNewest => {
                if let (Some(&id), Some(&mid)) = (ids.last(), mids.last()) {
                    build_log_sim.push(2000 + sim.cancel(id) as i64);
                    build_log_model.push(2000 + model.cancel(mid) as i64);
                }
            }
            Cmd::CancelNow { raw } => {
                if ids.is_empty() {
                    continue;
                }
                let k = (raw % ids.len() as u64) as usize;
                build_log_sim.push(2000 + sim.cancel(ids[k]) as i64);
                build_log_model.push(2000 + model.cancel(mids[k]) as i64);
            }
            Cmd::CancelAt { t, raw } => {
                if ids.is_empty() {
                    continue;
                }
                let k = (raw % ids.len() as u64) as usize;
                let target = ids[k];
                let mtarget = mids[k];
                ids.push(sim.schedule_at(
                    SimTime::from_nanos(t),
                    move |w: &mut Vec<i64>, s: &mut Sim<Vec<i64>>| {
                        let r = s.cancel(target);
                        w.push(2000 + r as i64);
                    },
                ));
                mids.push(model.schedule(t, RefAction::Cancel(mtarget)));
            }
            Cmd::Nested { t, child_dt } => {
                let parent_tag = tag();
                let child_tag = tag();
                ids.push(sim.schedule_at(
                    SimTime::from_nanos(t),
                    move |w: &mut Vec<i64>, s: &mut Sim<Vec<i64>>| {
                        w.push(parent_tag);
                        s.schedule_in(
                            SimDuration::from_nanos(child_dt),
                            move |w: &mut Vec<i64>, _: &mut Sim<Vec<i64>>| w.push(child_tag),
                        );
                    },
                ));
                mids.push(model.schedule(
                    t,
                    RefAction::Nested {
                        child_dt,
                        parent_tag,
                        child_tag,
                    },
                ));
            }
            Cmd::FatTree {
                ref wave,
                gap,
                ticks,
            } => {
                let tick_tag = tag();
                let wave: Vec<(u64, u64, i64)> = wave
                    .iter()
                    .map(|p| {
                        let tg = tag();
                        let key = if p.keyed { tg as u64 % 4 } else { UNKEYED };
                        (FAT_BYTES[p.size], key, tg)
                    })
                    .collect();
                if ticks > 0 {
                    let (w, mut left) = (wave.clone(), ticks);
                    let tick = move |log: &mut Vec<i64>, s: &mut Sim<Vec<i64>>| {
                        log.push(tick_tag);
                        fat_launch(s, &w, gap);
                        left -= 1;
                        left > 0
                    };
                    let first = SimTime::from_nanos(FAT_TICK);
                    ids.push(sim.schedule_at(first, every(FAT_TICK, Box::new(tick))));
                    mids.push(model.schedule(
                        FAT_TICK,
                        RefAction::FatTick {
                            left: ticks,
                            tag: tick_tag,
                            wave: wave.clone(),
                            gap,
                        },
                    ));
                }
                fat_launch(&mut sim, &wave, gap);
                model.launch(&wave, gap);
            }
        }
    }

    let mut fired_sim = Vec::new();
    sim.run(&mut fired_sim);
    model.run();

    let mut sim_log = build_log_sim;
    sim_log.extend(fired_sim);
    let mut model_log = build_log_model;
    model_log.extend(model.log);
    (sim_log, model_log, sim.pending())
}

proptest! {
    #[test]
    fn slab_queue_fires_in_reference_order(
        far_first: bool,
        cmds in prop::collection::vec(cmd_strategy(), 0..48)
    ) {
        let (sim_log, model_log, sim_pending) = run_script(far_first, &cmds);
        prop_assert_eq!(&sim_log, &model_log);
        prop_assert_eq!(sim_pending, 0, "queue fully drained");
    }
}

proptest! {
    #[test]
    fn fat_tree_shaped_streams_fire_in_reference_order(
        far_first: bool,
        fat in fat_tree_strategy(),
        cmds in prop::collection::vec(cmd_strategy(), 0..12)
    ) {
        let script: Vec<Cmd> = std::iter::once(fat).chain(cmds).collect();
        let (sim_log, model_log, sim_pending) = run_script(far_first, &script);
        prop_assert_eq!(&sim_log, &model_log);
        prop_assert_eq!(sim_pending, 0, "queue fully drained");
    }
}

/// A fixed deep interleaving as a plain test, so a regression shows up
/// even with PROPTEST_CASES=1.
#[test]
fn golden_order_fixed_script() {
    let cmds = vec![
        Cmd::Once { t: 3 },
        Cmd::Periodic {
            t: 0,
            period: 2,
            ticks: 3,
        },
        Cmd::Once { t: 3 },
        Cmd::CancelAt { t: 2, raw: 0 },
        Cmd::Nested { t: 1, child_dt: 0 },
        Cmd::CancelNow { raw: 1 },
        Cmd::PeriodicNested {
            t: 2,
            period: 3,
            ticks: 3,
        },
        Cmd::Once { t: 4 },
        Cmd::CancelAt { t: 4, raw: 1 },
        Cmd::Nested { t: 4, child_dt: 2 },
        Cmd::Periodic {
            t: 5,
            period: 1,
            ticks: 2,
        },
        Cmd::CancelNow { raw: 9 },
        Cmd::Chain { d: 3, n: 6 },
        Cmd::Keyed { t: 9, key: 2 },
        Cmd::Chain { d: 5, n: 4 },
        Cmd::Keyed { t: 9, key: 0 },
        Cmd::Once { t: 40 },
        Cmd::CancelNewest,
        Cmd::Chain { d: 7, n: 3 },
        Cmd::CancelAt { t: 8, raw: 13 },
    ];
    for far_first in [false, true] {
        let (sim_log, model_log, sim_pending) = run_script(far_first, &cmds);
        assert_eq!(sim_log, model_log, "far_first={far_first}");
        assert_eq!(sim_pending, 0);
    }
}
