//! The traced pass: where the host time of a workload goes, per layer.
//!
//! Three kinds of number, all taken through public API only:
//!
//! * **exact counts** — public counters of an untraced reference run;
//! * **the ladder** — the frames switch 0 received in the traced run are
//!   pushed through each layer's entry point alone, so every rung costs
//!   the *same packets* one layer at a time;
//! * **in-situ self times** — spans the harness records around each call
//!   into a layer during the traced run.
//!
//! The pass runs at the workload's `traced` scale. Its reference runs
//! give `netsim.hop_ns`, against which the ladder closes:
//! `hop_ns = Σ(rung × its per-hop count) + netsim.unattributed_ns_per_hop`.

use crate::digest::{sim_digest, switch_hops, total};
use crate::json::Json;
use crate::measure::{failed_packets, repetition, summary};
use crate::probe::{self, FrameRec, Session};
use crate::spec::{RunResult, DIR};
use crate::worlds::{self, Drive, FatRole, Kind, Outcome, Probe, Workload};
use crate::{host, stats};
use edp_core::{EventProgram, EventSwitch};
use edp_evsim::{Sim, SimDuration, SimRng, SimTime};
use edp_netsim::{Dir, Host, HostApp, LinkSpec, LinkState};
use edp_packet::{parse_packet, Burst, Packet, PacketBuilder, PacketUid, PcapFile, PcapPacket, L4};
use edp_pisa::{
    insert_ipv4_route, ipv4_lpm_schema, MatchTable, PortId, QueueConfig, StdMeta, TrafficManager,
};
use edp_telemetry::{self as telemetry, prof};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames of switch 0 the ladder keeps.
const LADDER_FRAMES: usize = 100_000;
/// Spans written to the trace file: the first this many of the run, so
/// the file stays loadable. Statistics always use every span.
const FILE_SPANS: usize = 100_000;
/// Timed passes per ladder rung; the rung is their median.
const RUNG_PASSES: usize = 9;
/// Frames per ladder window. A rung walks the recording window by
/// window: the window's frames are copied first (untimed), then the layer
/// call is timed on the copies. In the real run a frame is parsed,
/// queued and released moments after it was written, so it is in cache;
/// timing a layer over the whole multi-megabyte recording instead would
/// charge every rung the same cache miss and the rungs would not add up.
const WINDOW: usize = 256;

/// Median over [`RUNG_PASSES`] passes of the nanoseconds `pass` reports
/// for `items` items.
fn median_ns_per_item(items: usize, mut pass: impl FnMut() -> Duration) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let per_item: Vec<f64> = (0..RUNG_PASSES)
        .map(|_| pass().as_nanos() as f64 / items as f64)
        .collect();
    stats::median(&per_item)
}

/// A windowed rung: `start` makes the pass's state (a switch, a queue, a
/// host), `window` prepares one window untimed and returns the time its
/// layer calls took. The rung is nanoseconds per frame.
fn rung<S>(
    frames: &[FrameRec],
    mut start: impl FnMut() -> S,
    mut window: impl FnMut(&mut S, &[FrameRec]) -> Duration,
) -> f64 {
    median_ns_per_item(frames.len(), || {
        let mut state = start();
        frames.chunks(WINDOW).map(|w| window(&mut state, w)).sum()
    })
}

fn packets(frames: &[FrameRec]) -> Vec<Packet> {
    frames
        .iter()
        .map(|f| Packet::new(PacketUid(0), f.bytes.clone()))
        .collect()
}

/// `evsim`: schedule-and-fire cost per event, with the run's event count
/// per frame and its timestamp pattern — a self-chaining injector (one
/// event per frame at the frame's recorded time) whose frames each walk
/// a chain of `chain - 1` further no-op events, so the heap stays as
/// shallow as the real run's.
fn sched_rung(frames: &[FrameRec], chain: u64) -> f64 {
    fn hop(sim: &mut Sim<u64>, left: u64) {
        if left > 0 {
            sim.schedule_in(
                SimDuration::from_nanos(700),
                move |w: &mut u64, s: &mut Sim<u64>| {
                    *w += 1;
                    hop(s, left - 1);
                },
            );
        }
    }
    fn inject(sim: &mut Sim<u64>, times: Arc<Vec<SimTime>>, i: usize, chain: u64) {
        let Some(&at) = times.get(i) else { return };
        sim.schedule_at(at.max(sim.now()), move |w: &mut u64, s: &mut Sim<u64>| {
            *w += 1;
            hop(s, chain - 1);
            inject(s, times, i + 1, chain);
        });
    }
    let times = Arc::new(frames.iter().map(|f| f.at).collect::<Vec<_>>());
    let chain = chain.max(1);
    median_ns_per_item(frames.len() * chain as usize, || {
        let mut sim: Sim<u64> = Sim::new();
        let mut fired = 0u64;
        let t0 = Instant::now();
        inject(&mut sim, Arc::clone(&times), 0, chain);
        sim.run(&mut fired);
        let dt = t0.elapsed();
        assert_eq!(fired, times.len() as u64 * chain);
        dt
    })
}

/// `packet`: rebuild each frame's headers at its length.
fn build_rung(frames: &[FrameRec]) -> f64 {
    rung(
        frames,
        || 0u16,
        |ident, window| {
            let shapes: Vec<(Ipv4Addr, Ipv4Addr, u16, u16, usize)> = window
                .iter()
                .map(|f| {
                    let p = parse_packet(&f.bytes).ok();
                    let ip = p.and_then(|p| p.ipv4);
                    let (sp, dp) = match p.and_then(|p| p.l4) {
                        Some(L4::Udp(u)) => (u.src_port, u.dst_port),
                        Some(L4::Tcp(t)) => (t.src_port, t.dst_port),
                        _ => (0, 0),
                    };
                    (
                        ip.map_or(Ipv4Addr::UNSPECIFIED, |ip| ip.src),
                        ip.map_or(Ipv4Addr::UNSPECIFIED, |ip| ip.dst),
                        sp,
                        dp,
                        f.bytes.len(),
                    )
                })
                .collect();
            let t0 = Instant::now();
            for &(src, dst, sp, dp, len) in &shapes {
                *ident = ident.wrapping_add(1);
                black_box(
                    PacketBuilder::udp(src, dst, sp, dp, &[])
                        .ident(*ident)
                        .pad_to(len)
                        .build(),
                );
            }
            t0.elapsed()
        },
    )
}

fn parse_rung(frames: &[FrameRec]) -> f64 {
    rung(
        frames,
        || (),
        |(), window| {
            let copies: Vec<Vec<u8>> = window.iter().map(|f| f.bytes.clone()).collect();
            let t0 = Instant::now();
            for bytes in &copies {
                let _ = black_box(parse_packet(black_box(bytes)));
            }
            t0.elapsed()
        },
    )
}

fn pcap_decode_rung(frames: &[FrameRec]) -> f64 {
    rung(
        frames,
        || (),
        |(), window| {
            let bytes = PcapFile {
                packets: window
                    .iter()
                    .map(|f| PcapPacket::full(f.at.as_nanos(), f.bytes.clone()))
                    .collect(),
            }
            .to_pcap_bytes();
            let t0 = Instant::now();
            let parsed = black_box(PcapFile::parse(black_box(&bytes)).expect("own capture parses"));
            let dt = t0.elapsed();
            assert_eq!(parsed.packets.len(), window.len());
            dt
        },
    )
}

/// `pisa` tables: LPM lookup of each frame's destination in the
/// workload's route table (only the fat-tree has one).
fn lpm_rung(kind: Kind, frames: &[FrameRec]) -> f64 {
    if kind != Kind::FatTree {
        return 0.0;
    }
    let mut table: MatchTable<PortId> = MatchTable::new("routes", ipv4_lpm_schema());
    for (ip, len, port) in worlds::fat_routes(FatRole::Edge(0, 0)) {
        insert_ipv4_route(&mut table, ip, len, port);
    }
    rung(
        frames,
        || (),
        |(), window| {
            let keys: Vec<[u64; 1]> = window
                .iter()
                .filter_map(|f| parse_packet(&f.bytes).ok()?.ipv4)
                .map(|ip| [u64::from(u32::from(ip.dst))])
                .collect();
            let t0 = Instant::now();
            for k in &keys {
                black_box(table.lookup(black_box(k)));
            }
            t0.elapsed()
        },
    )
}

/// `pisa` traffic manager: offer + dequeue of each frame.
fn tm_rung(frames: &[FrameRec]) -> f64 {
    rung(
        frames,
        || TrafficManager::new(4, QueueConfig::default()),
        |tm, window| {
            let pkts = packets(window);
            let t0 = Instant::now();
            for (f, pkt) in window.iter().zip(pkts) {
                let meta = StdMeta::ingress(f.port, f.at, pkt.len());
                black_box(tm.offer(1, pkt, meta, f.at));
                let _ = black_box(tm.dequeue(1, f.at));
            }
            t0.elapsed()
        },
    )
}

/// `core`: the whole switch on the workload's program, per packet
/// (`burst` = 1) or through the burst entry points.
fn switch_rung<P: EventProgram>(
    make: impl Fn() -> EventSwitch<P>,
    frames: &[FrameRec],
    burst: usize,
) -> f64 {
    let tx_delay = SimDuration::from_nanos(50);
    rung(frames, &make, |sw, window| {
        let mut pkts = packets(window).into_iter();
        let ports = sw.n_ports() as PortId;
        let t0 = Instant::now();
        if burst == 1 {
            for f in window {
                sw.receive(f.at, f.port, pkts.next().expect("one packet per frame"));
                for p in 0..ports {
                    if sw.has_pending(p) {
                        black_box(sw.transmit(f.at + tx_delay, p));
                    }
                }
            }
        } else {
            // A burst is same-port and same-instant by definition; the
            // chunk takes both from its first frame.
            for chunk in window.chunks(burst) {
                let mut b = Burst::with_capacity(chunk.len());
                for _ in chunk {
                    b.push(pkts.next().expect("one packet per frame"));
                }
                sw.receive_burst(chunk[0].at, chunk[0].port, b);
                for p in 0..ports {
                    black_box(sw.transmit_burst(chunk[0].at + tx_delay, p, burst));
                }
            }
        }
        t0.elapsed()
    })
}

fn switch_rungs(kind: Kind, frames: &[FrameRec]) -> (f64, f64) {
    match kind {
        Kind::Line8 | Kind::Line8Shards2 | Kind::PcapReplay => (
            switch_rung(worlds::replay_switch, frames, 1),
            switch_rung(worlds::replay_switch, frames, 32),
        ),
        Kind::Microburst => (
            switch_rung(worlds::microburst_switch, frames, 1),
            switch_rung(worlds::microburst_switch, frames, 32),
        ),
        Kind::FatTree => {
            let make = || worlds::fat_switch(FatRole::Edge(0, 0), 0);
            (switch_rung(make, frames, 1), switch_rung(make, frames, 32))
        }
    }
}

fn link_rung(frames: &[FrameRec]) -> f64 {
    rung(
        frames,
        || {
            (
                LinkState::new(LinkSpec::ten_gig(SimDuration::from_micros(1))),
                SimRng::seed_from_u64(1),
            )
        },
        |(link, rng), window| {
            let t0 = Instant::now();
            for f in window {
                black_box(link.offer(Dir::AtoB, f.at, f.bytes.len(), rng));
            }
            t0.elapsed()
        },
    )
}

/// `netsim` hosts: `Host::on_receive` with the workload's receiving app
/// (the fat-tree's servers answer; every other host is a sink).
fn host_rung(kind: Kind, frames: &[FrameRec]) -> f64 {
    rung(
        frames,
        || {
            let app = if kind == Kind::FatTree {
                HostApp::RpcServer { served: 0 }
            } else {
                HostApp::Sink
            };
            Host::new(Ipv4Addr::new(10, 0, 0, 3), app)
        },
        |host, window| {
            let pkts = packets(window);
            let t0 = Instant::now();
            for (f, pkt) in window.iter().zip(&pkts) {
                black_box(host.on_receive(f.at, pkt, Some(1_000)));
            }
            t0.elapsed()
        },
    )
}

/// Cost of one `Instant::now()`, ns.
fn clock_ns() -> f64 {
    const N: u32 = 1_000_000;
    let t0 = Instant::now();
    for _ in 0..N {
        black_box(Instant::now());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(N)
}

/// One traced repetition: every switch behind `Timed`, the generator in a
/// span, the scheduler stepped by the harness. Returns the outcome and
/// the probe sessions (main thread first).
fn traced_repetition(w: &Workload, seed: u64, scale: u64) -> (Outcome, Vec<Session>) {
    let epoch = Instant::now();
    // ~40 spans per line packet is the densest workload; the log grows
    // if a workload exceeds the guess.
    let span_cap = 1 << 20;
    probe::enable(epoch, 0, span_cap, LADDER_FRAMES);
    let outcome;
    let mut sessions = Vec::new();
    if w.kind == Kind::Line8Shards2 {
        let (o, shards) = worlds::run_sharded(
            w,
            seed,
            scale,
            Probe::On,
            |shard| probe::enable(epoch, shard as u32 + 1, span_cap, LADDER_FRAMES),
            |_| probe::disable().expect("enabled on this shard"),
        );
        outcome = o;
        sessions.push(probe::disable().expect("enabled above"));
        sessions.extend(shards);
    } else {
        if w.kind == Kind::Microburst {
            worlds::telemetry_on();
        }
        let world = probe::span(probe::SETUP, || worlds::build(w, seed, scale, Probe::On));
        outcome = worlds::run(world, Drive::Stepped);
        telemetry::disable();
        sessions.push(probe::disable().expect("enabled above"));
    }
    (outcome, sessions)
}

fn write_trace(w: &Workload, rep: u64, sessions: &mut [Session]) -> Result<String, String> {
    let mut left = FILE_SPANS;
    for s in sessions.iter_mut() {
        s.spans.truncate(left);
        left -= s.spans.len();
    }
    let dir = format!("{DIR}/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/trace-{}.json", w.name);
    std::fs::write(&path, probe::to_trace_json(w.name, rep, sessions))
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

/// `(barrier_wait_frac, exchange_frac)` of a profiled sharded run: the
/// share of the shards' attributed wall-clock spent waiting at barriers
/// and moving mailbox traffic (the `bench_shards` definitions).
fn shard_fracs(w: &Workload, seed: u64, scale: u64) -> (f64, f64) {
    let epoch = Instant::now();
    let (_, profiles) = worlds::run_sharded(
        w,
        seed,
        scale,
        Probe::Off,
        |shard| prof::enable(epoch, shard, worlds::SHARDS),
        |_| prof::disable().expect("enabled on this shard"),
    );
    let mut phase_ns = [0u64; prof::NPHASES];
    for p in &profiles {
        for (dst, src) in phase_ns.iter_mut().zip(p.phase_ns.iter()) {
            *dst += src;
        }
    }
    let attributed: u64 = phase_ns.iter().sum();
    if attributed == 0 {
        return (0.0, 0.0);
    }
    let of = |phases: [prof::Phase; 2]| {
        phases.iter().map(|p| phase_ns[p.index()]).sum::<u64>() as f64 / attributed as f64
    };
    (
        of([prof::Phase::Negotiate, prof::Phase::Barrier]),
        of([prof::Phase::Mailbox, prof::Phase::Extend]),
    )
}

/// Calls `rep` at least 3 times, then until `budget` is spent or 25
/// calls are made; returns what it returned.
fn repeat_for(budget: Duration, mut rep: impl FnMut() -> f64) -> Vec<f64> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < 3 || (t0.elapsed() < budget && out.len() < 25) {
        out.push(rep());
    }
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Measures the per-layer metrics of `w`, spending about `seconds`.
pub fn per_layer(w: &Workload, seed: u64, seconds: f64, scale: u64) -> Result<RunResult, String> {
    let load_before = host::loadavg();
    let budget = Duration::from_secs_f64(seconds / 4.0);

    // Untraced reference runs: exact counters, hop_ns, CPU split.
    let (_, first) = repetition(w, seed, scale);
    let want = sim_digest(&first);
    let mut failed = failed_packets(&first, want);
    let mut attempted = first.packets;
    let (cpu0, t0) = (host::cpu_times(), Instant::now());
    let wall_ref = repeat_for(budget, || {
        let (_, o) = repetition(w, seed, scale);
        failed += failed_packets(&o, want);
        attempted += o.packets;
        o.wall_s
    });
    let (cpu1, ref_elapsed) = (host::cpu_times(), t0.elapsed().as_secs_f64());
    let cpu_s = (cpu1.0 - cpu0.0) + (cpu1.1 - cpu0.1);
    let hops = switch_hops(&first);
    let hop_ns = stats::median(&wall_ref) * 1e9 / hops as f64;

    // Counting pass: allocations of one timed region.
    let ((_, counted), allocs, alloc_bytes) = host::count_allocs(|| repetition(w, seed, scale));
    failed += failed_packets(&counted, want);

    // Traced runs: spans, frames, tracing overhead. The digest check is
    // the proof that the wrappers are invisible to the simulation.
    let mut last = None;
    let wall_traced = repeat_for(budget, || {
        let (o, sessions) = traced_repetition(w, seed, scale);
        failed += failed_packets(&o, want);
        last = Some(sessions);
        o.wall_s
    });
    let mut sessions = last.expect("at least three traced runs");
    let span_totals = probe::totals(&sessions);
    let span_count: usize = sessions.iter().map(|s| s.spans.len()).sum();
    let frames: Vec<FrameRec> = sessions
        .iter_mut()
        .flat_map(|s| std::mem::take(&mut s.frames))
        .collect();
    let trace_path = write_trace(w, wall_traced.len() as u64, &mut sessions)?;
    drop(sessions);
    let clock = clock_ns();
    let per_call = |name: u8| {
        let (calls, own) = span_totals[name as usize];
        // A span's own clock reads fall inside it; take one out.
        (ratio(own, calls) - clock).max(0.0)
    };

    // The ladder, on the frames switch 0 received — under a telemetry
    // session where the workload runs under one, so the hooks inside
    // each layer cost in the rung what they cost in the run.
    if w.kind == Kind::Microburst {
        worlds::telemetry_on();
    }
    let events_per_pkt = first.events as f64 / first.packets as f64;
    let sched = sched_rung(&frames, events_per_pkt.round() as u64);
    let build = build_rung(&frames);
    let parse = parse_rung(&frames);
    let decode = pcap_decode_rung(&frames);
    let lpm = lpm_rung(w.kind, &frames);
    let tm = tm_rung(&frames);
    let (scalar, burst32) = switch_rungs(w.kind, &frames);
    let link = link_rung(&frames);
    let host_rx = host_rung(w.kind, &frames);
    telemetry::disable();
    // Per hop: one switch pass, and the run's own ratio of events, wire
    // offers, host receives and frame builds (capture decodes for the
    // replay, whose frames are never built) to switch hops.
    let per_hop = |count: u64| count as f64 / hops as f64;
    let host_per_hop = per_hop(first.hosts.iter().map(|h| h.rx_pkts).sum());
    let sched_ns = sched * per_hop(first.events);
    let link_ns = link * per_hop(total(&first, "link_frames"));
    let frames_ns = if w.kind == Kind::PcapReplay {
        decode * per_hop(first.packets)
    } else {
        build * per_hop(first.packets)
    };
    let attributed = scalar + sched_ns + link_ns + host_rx * host_per_hop + frames_ns;

    // The same ladder regrouped by crate, as shares of hop_ns (they sum
    // to 1): the switch rung splits into its parse (`packet`), its
    // traffic manager (`pisa`) and the rest (`core`); a host receive
    // splits into its parse and the rest (`netsim`); whatever the ladder
    // leaves unattributed is `netsim` glue.
    let share = |ns: f64| Json::Num(ns / hop_ns);
    let layer_share = Json::obj([
        ("evsim", share(sched_ns)),
        (
            "netsim",
            share(link_ns + (host_rx - parse) * host_per_hop + hop_ns - attributed),
        ),
        ("core", share(scalar - parse - tm)),
        ("pisa", share(tm)),
        ("packet", share(parse * (1.0 + host_per_hop) + frames_ns)),
    ]);

    // Workload-specific engines.
    // Median wall of the same world on the bare classic engine: no
    // telemetry session, no shards — the other side of two ratios.
    let bare_wall = || {
        let walls: Vec<f64> = (0..wall_ref.len().min(7))
            .map(|_| worlds::run(worlds::build(w, seed, scale, Probe::Off), Drive::Engine).wall_s)
            .collect();
        stats::median(&walls)
    };
    let mut session_overhead = 0.0;
    if w.kind == Kind::Microburst {
        session_overhead = stats::median(&wall_ref) / bare_wall() - 1.0;
    }
    let (mut speedup, mut wait_frac, mut exchange_frac) = (0.0, 0.0, 0.0);
    let shard = first.shard.unwrap_or_default();
    if w.kind == Kind::Line8Shards2 {
        speedup = bare_wall() / stats::median(&wall_ref);
        (wait_frac, exchange_frac) = shard_fracs(w, seed, scale);
    }

    let metrics = vec![
        ("evsim.events_per_pkt", events_per_pkt),
        ("evsim.sched_ns_per_event", sched),
        ("packet.build_ns_per_pkt", build),
        ("packet.parse_ns_per_pkt", parse),
        ("packet.pcap_decode_ns_per_pkt", decode),
        ("pisa.lpm_lookup_ns", lpm),
        (
            "pisa.flow_cache_hit_ratio",
            ratio(
                total(&first, "flow_cache_hits"),
                total(&first, "flow_cache_hits") + total(&first, "flow_cache_misses"),
            ),
        ),
        ("pisa.tm_ns_per_pkt", tm),
        (
            "pisa.queue_drop_frac",
            ratio(
                total(&first, "queue_dropped"),
                total(&first, "queue_dropped") + total(&first, "queue_enqueued"),
            ),
        ),
        ("core.switch_scalar_ns_per_pkt", scalar),
        ("core.switch_burst32_ns_per_pkt", burst32),
        (
            "core.handler_events_per_pkt",
            ratio(total(&first, "events_total"), hops),
        ),
        ("core.switch_rx_ns_per_call", per_call(probe::SW_RX)),
        ("core.switch_tx_ns_per_call", per_call(probe::SW_TX)),
        ("netsim.hop_ns", hop_ns),
        ("netsim.link_offer_ns_per_pkt", link),
        ("netsim.host_rx_ns_per_pkt", host_rx),
        (
            "netsim.step_self_ns_per_hop",
            span_totals[probe::STEP as usize].1 as f64 / hops as f64,
        ),
        ("netsim.unattributed_ns_per_hop", hop_ns - attributed),
        ("netsim.shard.windows", shard.windows as f64),
        ("netsim.shard.barriers", shard.barriers as f64),
        (
            "netsim.shard.cross_msgs_per_pkt",
            ratio(shard.cross_messages, first.packets),
        ),
        ("netsim.shard.speedup_vs_1", speedup),
        ("netsim.shard.barrier_wait_frac", wait_frac),
        ("netsim.shard.exchange_frac", exchange_frac),
        ("netsim.shard.cpu_s_per_wall_s", cpu_s / ref_elapsed),
        ("telemetry.session_overhead_frac", session_overhead),
        ("host.allocs_per_pkt", ratio(allocs, counted.packets)),
        (
            "host.alloc_bytes_per_pkt",
            ratio(alloc_bytes, counted.packets),
        ),
        (
            "host.sys_frac",
            if cpu_s > 0.0 {
                (cpu1.1 - cpu0.1) / cpu_s
            } else {
                0.0
            },
        ),
        (
            "trace.overhead_frac",
            stats::median(&wall_traced) / stats::median(&wall_ref) - 1.0,
        ),
        ("trace.clock_ns", clock),
    ];
    let detail = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("scale", Json::Num(scale as f64)),
        ("sim_digest", Json::str(format!("{want:016x}"))),
        ("packets", Json::Num(first.packets as f64)),
        ("switch_hops", Json::Num(hops as f64)),
        ("wall_untraced_s", summary(&wall_ref)),
        ("wall_traced_s", summary(&wall_traced)),
        ("spans", Json::Num(span_count as f64)),
        ("ladder_frames", Json::Num(frames.len() as f64)),
        ("ladder_attributed_ns_per_hop", Json::Num(attributed)),
        ("layer_share", layer_share),
        ("trace_file", Json::str(trace_path)),
        ("host", host::fingerprint(load_before)),
    ]);
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        detail,
    })
}
