//! The five workloads: which world each builds, from which seed, and how
//! the world is run. Why each exists is in `BENCHMARK.json` and the
//! README; this file is the executable definition.
//!
//! Every build is a pure function of `(workload, seed, scale)`. All
//! randomness comes from `SimRng::stream(seed, ..)` streams owned by the
//! generators — never from `Network::rng` — so the sharded engine's SPMD
//! builds see identical inputs on every shard.

use crate::probe::{self, Timed};
use edp_apps::registry::builtin_apps;
use edp_core::{BaselineAdapter, EventProgram, EventSwitch, EventSwitchConfig, TimerSpec};
use edp_evsim::{HorizonMode, Sim, SimDuration, SimRng, SimTime};
use edp_netsim::traffic::{start_cbr, start_on_off};
use edp_netsim::{
    run_sharded_opts, start_endpoints, start_replay, Dir, EndpointConfig, EndpointFleet, Host,
    HostApp, LinkId, LinkSpec, Network, NodeRef, ShardStats, SwitchHarness,
};
use edp_packet::{
    EthHeader, EtherType, KvHeader, KvOp, MacAddr, PacketBuilder, PcapFile, PcapPacket, RpcHeader,
    RpcKind,
};
use edp_pisa::{ForwardTo, PortId, TableRouter};
use edp_telemetry::{self as telemetry, Registry, TelemetryConfig};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

/// Which world a workload builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 8 forwarding switches in a line, classic engine.
    Line8,
    /// The same world through the 2-shard engine.
    Line8Shards2,
    /// The paper's microburst app on a 3-sender dumbbell, telemetry on.
    Microburst,
    /// k=4 fat-tree of LPM routers under the RPC endpoint fleet.
    FatTree,
    /// IMIX capture decoded and replayed through a dumbbell.
    PcapReplay,
}

/// One benchmark workload. `scale` is the size knob `build` takes: frames
/// for the line and the capture, simulated microseconds for the other two.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The world it builds.
    pub kind: Kind,
    /// Scale of one timed repetition (about a second on the 2-core host).
    pub full: u64,
    /// Scale of the traced pass: small enough that every span of a run
    /// fits in memory and the trace file stays loadable.
    pub traced: u64,
    /// Scale of `--smoke`.
    pub smoke: u64,
    /// `sim_digest` of the full-scale run at seed 1. A change that moves
    /// it changed the *model*, not the engine; re-pin only on purpose.
    pub pin: u64,
}

/// The workloads, in reporting order. Names are final.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "line8_fwd64",
        kind: Kind::Line8,
        full: 250_000,
        traced: 25_000,
        smoke: 4_000,
        pin: 0x5479_d660_aa4b_bc89,
    },
    Workload {
        name: "top_microburst",
        kind: Kind::Microburst,
        full: 5_800_000,
        traced: 600_000,
        smoke: 40_000,
        pin: 0x0a33_cf90_69b7_8e64,
    },
    Workload {
        name: "fattree4_rpc",
        kind: Kind::FatTree,
        full: 70_000,
        traced: 7_000,
        smoke: 1_500,
        pin: 0x57c0_dc78_1965_ea86,
    },
    Workload {
        name: "pcap_imix_replay",
        kind: Kind::PcapReplay,
        full: 400_000,
        traced: 40_000,
        smoke: 4_000,
        pin: 0xe44d_4783_16cc_3407,
    },
    Workload {
        name: "line8_shards2",
        kind: Kind::Line8Shards2,
        full: 250_000,
        traced: 25_000,
        smoke: 4_000,
        pin: 0x5479_d660_aa4b_bc89,
    },
];

/// A built world, ready to run.
pub struct World {
    /// The network.
    pub net: Network,
    /// Its scheduler, generators armed.
    pub sim: Sim<Network>,
    /// Run deadline; chosen so everything injected has landed by then.
    pub deadline: SimTime,
    /// Every host's access link in the host→switch direction. Their
    /// frame counts sum to the packets injected.
    pub access: Vec<(LinkId, Dir)>,
    /// `pcap_imix_replay` only: the encoded capture the timed region
    /// decodes and replays from host 0.
    pub capture: Option<Vec<u8>>,
}

/// How to instrument a build. The untraced runs use [`Probe::Off`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// No wrappers at all.
    Off,
    /// Wrap every switch in [`Timed`] and the frame generator in a span;
    /// switch 0 also records the frames it receives.
    On,
}

fn switch(sw: impl SwitchHarness, idx: usize, probe: Probe) -> Box<dyn SwitchHarness> {
    match probe {
        Probe::Off => Box::new(sw),
        Probe::On => Timed::wrap(Box::new(sw), idx == 0),
    }
}

/// Builds `w`'s world from `seed` at `scale`.
pub fn build(w: &Workload, seed: u64, scale: u64, probe: Probe) -> World {
    match w.kind {
        Kind::Line8 | Kind::Line8Shards2 => line8(seed, scale, probe),
        Kind::Microburst => microburst(seed, scale, probe),
        Kind::FatTree => fattree(seed, scale, probe),
        Kind::PcapReplay => pcap_replay(seed, scale, probe),
    }
}

fn connect_host(
    net: &mut Network,
    access: &mut Vec<(LinkId, Dir)>,
    host: usize,
    sw: usize,
    port: PortId,
    spec: LinkSpec,
) {
    let link = net.connect((NodeRef::Host(host), 0), (NodeRef::Switch(sw), port), spec);
    access.push((link, Dir::AtoB));
}

// ---------------------------------------------------------------------
// line8_fwd64 / line8_shards2
// ---------------------------------------------------------------------

const LINE_SWITCHES: usize = 8;
const LINE_FLOWS: usize = 64;
const LINE_GAP_NS: u64 = 500;
/// The line's access links (first and last link built); the sharded
/// engine's `finish` closure sees only the network, so it needs them
/// by id.
const LINE_ACCESS: [(LinkId, Dir); 2] = [(0, Dir::AtoB), (LINE_SWITCHES, Dir::AtoB)];

/// Last injection + the ~17 µs path + margin.
fn line_deadline(n: u64) -> SimTime {
    SimTime::from_nanos(LINE_GAP_NS * n + 1_000_000)
}

/// One switch of the line: the event switch running the trivial
/// baseline program, so `core`/`pisa` do as little as they can.
pub fn line_switch(id: usize) -> EventSwitch<BaselineAdapter<ForwardTo>> {
    EventSwitch::new(
        BaselineAdapter(ForwardTo(1)),
        EventSwitchConfig {
            n_ports: 2,
            switch_id: id as u16,
            ..Default::default()
        },
    )
}

fn line8(seed: u64, n: u64, probe: Probe) -> World {
    let mut net = Network::new(seed);
    let mut access = Vec::new();
    let sws: Vec<usize> = (0..LINE_SWITCHES)
        .map(|i| net.add_switch(switch(line_switch(i), i, probe)))
        .collect();
    let h0 = net.add_host(Host::new(Ipv4Addr::new(10, 0, 0, 1), HostApp::Sink));
    let h1 = net.add_host(Host::new(Ipv4Addr::new(10, 0, 0, 2), HostApp::Sink));
    let edge = LinkSpec::ten_gig(SimDuration::from_micros(1));
    let trunk = LinkSpec::ten_gig(SimDuration::from_micros(2));
    connect_host(&mut net, &mut access, h0, sws[0], 0, edge);
    for w in sws.windows(2) {
        net.connect(
            (NodeRef::Switch(w[0]), 1),
            (NodeRef::Switch(w[1]), 0),
            trunk,
        );
    }
    connect_host(&mut net, &mut access, h1, sws[LINE_SWITCHES - 1], 1, edge);
    assert_eq!(access, LINE_ACCESS);

    let mut rng = SimRng::stream(seed, &[0x11E8]);
    let flows: Vec<(Ipv4Addr, Ipv4Addr, u16, u16)> = (0..LINE_FLOWS)
        .map(|_| {
            (
                Ipv4Addr::new(10, 1, rng.index(256) as u8, rng.index(256) as u8),
                Ipv4Addr::new(10, 2, rng.index(256) as u8, rng.index(256) as u8),
                rng.uniform_u64(1024, 65_536) as u16,
                rng.uniform_u64(1024, 65_536) as u16,
            )
        })
        .collect();
    let frames = move |i: u64| {
        let (src, dst, sp, dp) = flows[rng.index(LINE_FLOWS)];
        PacketBuilder::udp(src, dst, sp, dp, &[])
            .ident(i as u16)
            .pad_to(64)
            .build()
    };
    let mut sim: Sim<Network> = Sim::new();
    let gap = SimDuration::from_nanos(LINE_GAP_NS);
    match probe {
        Probe::Off => start_cbr(&mut sim, h0, SimTime::ZERO, gap, n, frames),
        Probe::On => start_cbr(
            &mut sim,
            h0,
            SimTime::ZERO,
            gap,
            n,
            probe::timed_frames(frames),
        ),
    }
    World {
        net,
        sim,
        deadline: line_deadline(n),
        access,
        capture: None,
    }
}

// ---------------------------------------------------------------------
// top_microburst
// ---------------------------------------------------------------------

/// Port the registry's `microburst` instance egresses to.
const MB_SINK_PORT: PortId = 1;
const MB_SENDER_PORTS: [PortId; 3] = [0, 2, 3];
/// Each sender bursts 160 frames (about 128 kB at the 800 B mean, more
/// than the 100 kB queue) about every 4 ms: a burst alone overflows the
/// bottleneck, the mean load (about 77 % of 1 Gb/s) lets it drain. The
/// periods differ so the senders drift through every relative alignment
/// about twenty times a second: how often bursts collide is then a
/// property of the workload, not of the seed's phases.
const MB_PERIODS_US: [u64; 3] = [3_700, 4_000, 4_300];
const MB_BURST: u64 = 160;

/// The registry's `microburst` app as `edp_top` runs it: the program
/// behind `Box<dyn EventProgram>`, every manifest timer armed with
/// `edp_top`'s staggered periods.
pub fn microburst_switch() -> EventSwitch<Box<dyn EventProgram>> {
    let app = builtin_apps()
        .into_iter()
        .find(|a| a.manifest.name == "microburst")
        .expect("microburst is a registered app");
    let timers = app
        .manifest
        .timer_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| TimerSpec {
            id,
            period: SimDuration::from_micros(100 + 25 * i as u64),
            start: SimDuration::from_micros(100 + 25 * i as u64),
        })
        .collect();
    EventSwitch::new(
        app.program,
        EventSwitchConfig {
            n_ports: 4,
            timers,
            ..Default::default()
        },
    )
}

/// `scale` = simulated microseconds of on/off traffic.
fn microburst(seed: u64, sim_us: u64, probe: Probe) -> World {
    let mut net = Network::new(seed);
    let mut access = Vec::new();
    let sw = net.add_switch(switch(microburst_switch(), 0, probe));
    let lat = SimDuration::from_micros(1);
    let sink_addr = Ipv4Addr::new(10, 0, 0, 200);
    let until = SimTime::from_micros(sim_us);
    let mut sim: Sim<Network> = Sim::new();
    // The dumbbell of `apps::common::dumbbell`, laid out by hand because
    // the registry instance egresses to port 1: the sink sits there
    // behind the 1 Gb/s bottleneck, the senders take the other ports.
    for (s, &port) in MB_SENDER_PORTS.iter().enumerate() {
        let h = net.add_host(Host::new(
            Ipv4Addr::new(10, 0, s as u8 + 1, 1),
            HostApp::Sink,
        ));
        connect_host(&mut net, &mut access, h, sw, port, LinkSpec::ten_gig(lat));
        let mut rng = SimRng::stream(seed, &[0xB0B5, s as u64]);
        let phase = SimTime::from_nanos(rng.uniform_u64(0, MB_PERIODS_US[s] * 1_000));
        // 16 source addresses per sender: 48 flows share the program's
        // 64-entry occupancy register.
        let frames = move |i: u64| {
            let src = Ipv4Addr::new(10, 0, s as u8 + 1, 1 + rng.index(16) as u8);
            let len = rng.uniform_u64(200, 1_401) as usize;
            PacketBuilder::udp(src, sink_addr, 4000 + s as u16, 9000, &[])
                .ident(i as u16)
                .pad_to(len)
                .build()
        };
        let period = SimDuration::from_micros(MB_PERIODS_US[s]);
        let none = SimDuration::ZERO;
        match probe {
            Probe::Off => start_on_off(&mut sim, h, phase, period, MB_BURST, none, until, frames),
            Probe::On => start_on_off(
                &mut sim,
                h,
                phase,
                period,
                MB_BURST,
                none,
                until,
                probe::timed_frames(frames),
            ),
        }
    }
    let sink = net.add_host(Host::new(sink_addr, HostApp::Sink));
    connect_host(
        &mut net,
        &mut access,
        sink,
        sw,
        MB_SINK_PORT,
        LinkSpec {
            bandwidth_bps: 1_000_000_000,
            latency: lat,
            drop_prob: 0.0,
        },
    );
    World {
        net,
        sim,
        // A full 100 kB queue drains in 800 µs at 1 Gb/s.
        deadline: until + SimDuration::from_millis(2),
        access,
        capture: None,
    }
}

// ---------------------------------------------------------------------
// fattree4_rpc
// ---------------------------------------------------------------------

const PODS: u8 = 4;

/// Where a fat-tree switch sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FatRole {
    /// Edge switch `e` of pod `p`: ports 0,1 hosts; 2,3 the pod's aggs.
    Edge(u8, u8),
    /// Aggregation switch of pod `p`: ports 0,1 the pod's edges; 2,3 cores.
    Agg(u8),
    /// Core switch: port `p` reaches pod `p`.
    Core,
}

/// The static routes of a fat-tree switch as `(prefix, length, port)`:
/// /32 host routes, /24 edge subnets, /16 pods and a default, with the
/// uplink chosen per destination so both uplinks carry traffic.
pub fn fat_routes(role: FatRole) -> Vec<(Ipv4Addr, u8, PortId)> {
    let mut r = Vec::new();
    match role {
        FatRole::Edge(p, e) => {
            r.push((Ipv4Addr::new(10, p, e, 2), 32, 0));
            r.push((Ipv4Addr::new(10, p, e, 3), 32, 1));
            for q in 0..PODS {
                for f in 0..2u8 {
                    if (q, f) != (p, e) {
                        r.push((Ipv4Addr::new(10, q, f, 0), 24, 2 + (q + f) % 2));
                    }
                }
                r.push((Ipv4Addr::new(10, q, 0, 0), 16, 2 + q % 2));
            }
            r.push((Ipv4Addr::new(0, 0, 0, 0), 0, 2));
        }
        FatRole::Agg(p) => {
            r.push((Ipv4Addr::new(10, p, 0, 0), 24, 0));
            r.push((Ipv4Addr::new(10, p, 1, 0), 24, 1));
            for q in (0..PODS).filter(|&q| q != p) {
                r.push((Ipv4Addr::new(10, q, 0, 0), 16, 2 + q % 2));
            }
            r.push((Ipv4Addr::new(0, 0, 0, 0), 0, 2));
        }
        FatRole::Core => {
            for q in 0..PODS {
                r.push((Ipv4Addr::new(10, q, 0, 0), 16, q));
            }
            r.push((Ipv4Addr::new(0, 0, 0, 0), 0, 0));
        }
    }
    r
}

/// A fat-tree switch: the LPM router behind the event switch, routes
/// installed through the control-plane opcode as a deployment would.
pub fn fat_switch(role: FatRole, id: usize) -> EventSwitch<BaselineAdapter<TableRouter>> {
    let mut sw = EventSwitch::new(
        BaselineAdapter(TableRouter::new()),
        EventSwitchConfig {
            n_ports: 4,
            switch_id: id as u16,
            ..Default::default()
        },
    );
    for (ip, len, port) in fat_routes(role) {
        sw.control_plane(
            SimTime::ZERO,
            TableRouter::OP_INSERT_ROUTE,
            [u64::from(u32::from(ip)), u64::from(len), u64::from(port), 0],
        );
    }
    sw
}

/// `scale` = simulated microseconds of closed-loop RPC traffic.
fn fattree(seed: u64, sim_us: u64, probe: Probe) -> World {
    let mut net = Network::new(seed);
    let mut access = Vec::new();
    let host_link = LinkSpec::ten_gig(SimDuration::from_micros(1));
    let fabric = LinkSpec::ten_gig(SimDuration::from_micros(2));
    let until = SimTime::from_micros(sim_us);
    let mut sim: Sim<Network> = Sim::new();
    // Switch indices: edges 0..8 (pod-major), aggs 8..16, cores 16..20.
    let edge = |p: u8, e: u8| (p * 2 + e) as usize;
    let agg = |p: u8, a: u8| 8 + (p * 2 + a) as usize;
    let core = |a: u8, c: u8| 16 + (a * 2 + c) as usize;
    for p in 0..PODS {
        for e in 0..2 {
            let role = FatRole::Edge(p, e);
            let i = net.add_switch(switch(fat_switch(role, edge(p, e)), edge(p, e), probe));
            debug_assert_eq!(i, edge(p, e));
        }
    }
    for p in 0..PODS {
        for a in 0..2 {
            net.add_switch(switch(
                fat_switch(FatRole::Agg(p), agg(p, a)),
                agg(p, a),
                probe,
            ));
        }
    }
    for c in 0..4 {
        net.add_switch(switch(fat_switch(FatRole::Core, 16 + c), 16 + c, probe));
    }
    for p in 0..PODS {
        for e in 0..2u8 {
            for a in 0..2u8 {
                net.connect(
                    (NodeRef::Switch(edge(p, e)), 2 + a),
                    (NodeRef::Switch(agg(p, a)), e),
                    fabric,
                );
            }
        }
        for a in 0..2u8 {
            for c in 0..2u8 {
                net.connect(
                    (NodeRef::Switch(agg(p, a)), 2 + c),
                    (NodeRef::Switch(core(a, c)), p),
                    fabric,
                );
            }
        }
    }
    // Host `.2` of every edge is a client fleet, host `.3` an RPC server;
    // each fleet talks to the server of the same edge slot one pod over,
    // so every exchange crosses the core.
    for p in 0..PODS {
        for e in 0..2u8 {
            let me = Ipv4Addr::new(10, p, e, 2);
            let server = Ipv4Addr::new(10, (p + 1) % PODS, e, 3);
            let cfg = EndpointConfig {
                endpoints: 256,
                // A distinct master seed per fleet: endpoint `i` of every
                // fleet draws from stream `[ENDPOINT_DOMAIN, i]` of it.
                seed: seed.wrapping_mul(8).wrapping_add(u64::from(p * 2 + e)),
                server,
                keys: 4096,
                zipf_s: 1.0,
                think_mean_ns: 1_000_000.0,
                timeout: SimDuration::from_millis(1),
                max_retries: 3,
            };
            let client = net.add_host(Host::new(
                me,
                HostApp::ClientFleet(Box::new(EndpointFleet::new(me, cfg))),
            ));
            connect_host(&mut net, &mut access, client, edge(p, e), 0, host_link);
            start_endpoints(
                &mut sim,
                client,
                SimTime::ZERO,
                SimDuration::from_micros(20),
                until,
            );
            let srv = net.add_host(Host::new(
                Ipv4Addr::new(10, p, e, 3),
                HostApp::RpcServer { served: 0 },
            ));
            connect_host(&mut net, &mut access, srv, edge(p, e), 1, host_link);
        }
    }
    World {
        net,
        sim,
        // No request is sent at or after `until`; replies land well
        // inside the margin (RTT ≈ 30 µs).
        deadline: until + SimDuration::from_millis(1),
        access,
        capture: None,
    }
}

// ---------------------------------------------------------------------
// pcap_imix_replay
// ---------------------------------------------------------------------

fn arp_frame(src_id: u32) -> Vec<u8> {
    let mut out = Vec::new();
    EthHeader {
        dst: MacAddr::from_id(0xFFFF),
        src: MacAddr::from_id(src_id),
        ethertype: EtherType::Arp,
    }
    .emit(&mut out);
    out.resize(64, 0);
    out
}

/// A seeded IMIX capture: 64 / 576 / 1500-byte frames at 7:4:1, the
/// small class split over ARP, KV, RPC, UDP and TCP, the large classes
/// over UDP and TCP; exponential gaps (mean 1 µs, about a third of the
/// 10 Gb/s access link).
pub fn imix_capture(seed: u64, n: u64) -> PcapFile {
    let mut rng = SimRng::stream(seed, &[0x1417]);
    let dst = Ipv4Addr::new(10, 0, 0, 2);
    let mut ts = 0u64;
    let mut file = PcapFile::default();
    file.packets.reserve(n as usize);
    for i in 0..n {
        ts += rng.exp(1_000.0) as u64 + 1;
        let src = Ipv4Addr::new(10, 0, 1, 1 + rng.index(200) as u8);
        let sport = rng.uniform_u64(1024, 65_536) as u16;
        let frame = match rng.index(12) {
            0..=6 => match rng.index(5) {
                0 => arp_frame(u32::from(src)),
                1 => PacketBuilder::kv(
                    src,
                    dst,
                    &KvHeader {
                        op: KvOp::Get,
                        key: rng.uniform_u64(0, 4096),
                        value: 0,
                    },
                )
                .pad_to(64)
                .build(),
                2 => PacketBuilder::rpc(
                    src,
                    dst,
                    &RpcHeader {
                        kind: RpcKind::Request,
                        endpoint: rng.index(256) as u32,
                        seq: i as u32,
                        key: rng.uniform_u64(0, 4096),
                        resp_bytes: 256,
                    },
                )
                .pad_to(64)
                .build(),
                3 => PacketBuilder::udp(src, dst, sport, 9_999, &[])
                    .pad_to(64)
                    .build(),
                _ => PacketBuilder::tcp(src, dst, sport, 80, i as u32, 0, &[])
                    .pad_to(64)
                    .build(),
            },
            len_class => {
                let len = if len_class <= 10 { 576 } else { 1500 };
                if rng.chance(0.5) {
                    PacketBuilder::udp(src, dst, sport, 9_999, &[])
                        .pad_to(len)
                        .build()
                } else {
                    PacketBuilder::tcp(src, dst, sport, 80, (i as u32).wrapping_mul(512), 0, &[])
                        .pad_to(len)
                        .build()
                }
            }
        };
        file.packets.push(PcapPacket::full(ts, frame));
    }
    file
}

/// The dumbbell the capture replays through: one forwarding event switch.
pub fn replay_switch() -> EventSwitch<BaselineAdapter<ForwardTo>> {
    line_switch(0)
}

/// `scale` = frames in the capture.
fn pcap_replay(seed: u64, n: u64, probe: Probe) -> World {
    let file = imix_capture(seed, n);
    let span_ns = file.duration_ns();
    let capture = file.to_pcap_bytes();
    let mut net = Network::new(seed);
    let mut access = Vec::new();
    let sw = net.add_switch(switch(replay_switch(), 0, probe));
    let h0 = net.add_host(Host::new(Ipv4Addr::new(10, 0, 0, 1), HostApp::Sink));
    let h1 = net.add_host(Host::new(Ipv4Addr::new(10, 0, 0, 2), HostApp::Sink));
    let spec = LinkSpec::ten_gig(SimDuration::from_micros(1));
    connect_host(&mut net, &mut access, h0, sw, 0, spec);
    connect_host(&mut net, &mut access, h1, sw, 1, spec);
    World {
        net,
        sim: Sim::new(),
        deadline: SimTime::from_nanos(span_ns + 1_000_000),
        access,
        capture: Some(capture),
    }
}

// ---------------------------------------------------------------------
// Running a world
// ---------------------------------------------------------------------

/// Receive totals of one host; flows fold order-independently because
/// `HostStats::flows` is a `HashMap`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostSummary {
    /// Frames received.
    pub rx_pkts: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Distinct flows seen.
    pub flows: u64,
    /// Wrapping sum over flows of `hash(key, pkts, bytes)`.
    pub flow_fold: u64,
}

/// What one run produced: the modelled statistics (for the digest and the
/// conservation check), the engine's work counters, and the host time.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host seconds of the timed region.
    pub wall_s: f64,
    /// Frames the hosts injected (sum over access links, host→switch).
    pub packets: u64,
    /// `Sim::events_fired`, summed over shards.
    pub events: u64,
    /// `Network::publish_metrics` into a fresh registry (merged over
    /// shards) — modelled statistics only, whatever session was on.
    pub registry: Registry,
    /// Per-host receive totals, in host order.
    pub hosts: Vec<HostSummary>,
    /// Frames each host's downlink carried, in host order.
    pub downlink_frames: Vec<u64>,
    /// Sharded engine statistics (`None` for the classic engine).
    pub shard: Option<ShardStats>,
}

fn harvest(net: &Network, access: &[(LinkId, Dir)]) -> (Registry, Vec<HostSummary>, Vec<u64>, u64) {
    let mut reg = Registry::new();
    net.publish_metrics(&mut reg);
    let hosts = net
        .hosts
        .iter()
        .map(|h| {
            let mut s = HostSummary {
                rx_pkts: h.stats.rx_pkts,
                rx_bytes: h.stats.rx_bytes,
                flows: h.stats.flows.len() as u64,
                flow_fold: 0,
            };
            for (k, f) in &h.stats.flows {
                let mut x = edp_packet::Fnv1a::with_basis(k.hash64());
                x.write(&f.pkts.to_le_bytes());
                x.write(&f.bytes.to_le_bytes());
                s.flow_fold = s.flow_fold.wrapping_add(x.finish());
            }
            s
        })
        .collect();
    let down = access
        .iter()
        .map(|&(l, _)| net.link_dir_state(l, Dir::BtoA).tx_frames)
        .collect();
    let injected = access
        .iter()
        .map(|&(l, d)| net.link_dir_state(l, d).tx_frames)
        .sum();
    (reg, hosts, down, injected)
}

/// How the timed region drives the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// `Sim::run_until`, as users do.
    Engine,
    /// The harness's own `peek_next`/`step` loop, one span per step —
    /// the same schedule, observable from outside.
    Stepped,
}

/// Runs a classic (single-threaded) world to its deadline. The timed
/// region is everything a user waits for after the world is built:
/// (capture decode and replay arming), timer arming, the event loop and,
/// when a telemetry session is on, publishing into it.
pub fn run(mut w: World, drive: Drive) -> Outcome {
    let t0 = Instant::now();
    if let Some(bytes) = w.capture.take() {
        let file = probe::span(probe::PCAP_PARSE, || {
            PcapFile::parse(&bytes).expect("generated capture parses")
        });
        start_replay(
            &mut w.sim,
            0,
            Arc::new(file.packets),
            SimTime::ZERO,
            1.0,
            w.deadline,
        );
    }
    w.net.arm_all_timers(&mut w.sim);
    match drive {
        Drive::Engine => w.sim.run_until(&mut w.net, w.deadline),
        Drive::Stepped => {
            while w.sim.peek_next().is_some_and(|t| t <= w.deadline) {
                probe::span(probe::STEP, || w.sim.step(&mut w.net));
            }
            w.sim.fast_forward(w.deadline);
        }
    }
    telemetry::with(|t| w.net.publish_metrics(&mut t.registry));
    let wall_s = t0.elapsed().as_secs_f64();
    let (registry, hosts, downlink_frames, packets) = harvest(&w.net, &w.access);
    Outcome {
        wall_s,
        packets,
        events: w.sim.events_fired(),
        registry,
        hosts,
        downlink_frames,
        shard: None,
    }
}

/// Shards and sub-windows of `line8_shards2`: 2 threads is the host's
/// core count; 32 sub-windows is the engine's best 2-shard leg.
pub const SHARDS: usize = 2;
const SUBWINDOWS: usize = 32;

/// Runs `wl` through the sharded engine. World builds happen on the
/// shard threads, inside the timed region — that is the engine's
/// contract, and what its users wait for. `on_shard` runs first on each
/// shard thread (to enable a probe or profiler session there) and
/// `off_shard` last (to collect it).
pub fn run_sharded<T: Send>(
    wl: &Workload,
    seed: u64,
    scale: u64,
    probe: Probe,
    on_shard: impl Fn(usize) + Sync,
    off_shard: impl Fn(usize) -> T + Sync,
) -> (Outcome, Vec<T>) {
    assert_eq!(wl.kind, Kind::Line8Shards2, "only the line runs sharded");
    let t0 = Instant::now();
    let (parts, stats) = probe::span(probe::SHARDED, || {
        run_sharded_opts(
            SHARDS,
            SUBWINDOWS,
            HorizonMode::Classic,
            line_deadline(scale),
            |shard| {
                on_shard(shard);
                let w = build(wl, seed, scale, probe);
                (w.net, w.sim)
            },
            |shard, net, sim| {
                (
                    harvest(&net, &LINE_ACCESS),
                    sim.events_fired(),
                    off_shard(shard),
                )
            },
        )
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut out = Outcome {
        wall_s,
        shard: Some(stats),
        ..Outcome::default()
    };
    let mut extras = Vec::new();
    for ((reg, hosts, down, injected), events, extra) in parts {
        out.registry.merge(&reg);
        out.packets += injected;
        out.events += events;
        if out.hosts.is_empty() {
            out.hosts = vec![HostSummary::default(); hosts.len()];
            out.downlink_frames = vec![0; down.len()];
        }
        // A host receives only on its owning shard, and a wire counts
        // only on its transmitting shard: sums rebuild the classic view.
        for (a, b) in out.hosts.iter_mut().zip(&hosts) {
            a.rx_pkts += b.rx_pkts;
            a.rx_bytes += b.rx_bytes;
            a.flows += b.flows;
            a.flow_fold = a.flow_fold.wrapping_add(b.flow_fold);
        }
        for (a, b) in out.downlink_frames.iter_mut().zip(&down) {
            *a += b;
        }
        extras.push(extra);
    }
    (out, extras)
}

/// Enables the telemetry session `top_microburst` runs under (the
/// `edp_top` defaults: ring of 65 536 records).
pub fn telemetry_on() {
    telemetry::enable(TelemetryConfig {
        trace_capacity: 65_536,
        ..TelemetryConfig::default()
    });
}
