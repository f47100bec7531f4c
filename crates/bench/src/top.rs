//! The `edp_top` runner: drives any registered app on the canonical
//! dumbbell under a telemetry session and renders what it saw.
//!
//! One sweep *point* is one seed: enable a fresh telemetry session,
//! build the app from [`builtin_apps`], run a one-sender dumbbell with a
//! CBR load that oversubscribes the bottleneck (so queues, drops, and
//! overflow handlers actually fire), publish every component's counters
//! into the session registry, and disable. A point is a pure function of
//! `(app, seed, options)` — `sweep` may place it on any worker thread
//! and the outputs stay byte-identical regardless of
//! `EDP_SWEEP_THREADS`, which is exactly what the determinism test
//! checks.

use edp_apps::common::{addr, dumbbell, run_until, sink_addr};
use edp_apps::registry::builtin_apps;
use edp_core::event::{
    ControlPlaneEvent, DequeueEvent, EnqueueEvent, LinkStatusEvent, OverflowEvent, TimerEvent,
    TransmitEvent, UnderflowEvent, UserEvent,
};
use edp_core::{EventActions, EventProgram, EventSwitch, EventSwitchConfig, TimerSpec};
use edp_evsim::{default_threads, sweep, HorizonMode, Sim, SimDuration, SimTime};
use edp_netsim::traffic::start_cbr;
use edp_netsim::{
    run_sharded_opts, start_endpoints, start_replay, EndpointConfig, EndpointFleet, HostApp,
    Network, SUBWINDOWS,
};
use edp_packet::{Packet, PacketBuilder, ParsedPacket, PcapPacket};
use edp_pisa::{Destination, StdMeta};
use edp_telemetry::{self as telemetry, prof, Registry, TelemetryConfig};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The traffic a sweep point drives through the app's dumbbell.
#[derive(Debug, Clone, Default)]
pub enum TopWorkload {
    /// The canonical oversubscribing CBR stream (the historical default).
    #[default]
    Cbr,
    /// Replay a decoded capture from the sender host, preserving the
    /// file's inter-arrival gaps divided by `speedup`.
    Pcap {
        /// The parsed capture's frames (shared across seeds/shards
        /// zero-copy).
        packets: Arc<Vec<PcapPacket>>,
        /// Gap compression factor (1 = real capture pacing).
        speedup: f64,
    },
    /// An endpoint fleet on the sender host against an RPC server on the
    /// sink: `count` logical clients doing closed-loop request/response
    /// with Zipf keys/sizes and timeout retransmit.
    Endpoints {
        /// Logical endpoints multiplexed onto the sender host.
        count: u32,
    },
}

/// How `edp_top` drives an app.
#[derive(Debug, Clone)]
pub struct TopOptions {
    /// Seeds to run, one sweep point each.
    pub seeds: Vec<u64>,
    /// Simulated duration per point.
    pub duration: SimDuration,
    /// Worker threads for the sweep (`EDP_SWEEP_THREADS` default).
    pub threads: usize,
    /// Trace-ring capacity per point.
    pub trace_capacity: usize,
    /// Shard count for the parallel engine (`EDP_SHARDS` default).
    /// `0` runs the classic single-world path; `>= 1` runs every point
    /// through [`edp_netsim::run_sharded`], whose output is byte-identical
    /// for any shard count.
    pub shards: usize,
    /// The traffic source (CBR, pcap replay, or endpoint fleet).
    pub workload: TopWorkload,
    /// Opt-in wall-clock profiler ([`edp_telemetry::prof`]). Collects
    /// per-shard phase attribution over the monotonic clock —
    /// nondeterministic by nature, and therefore kept strictly out of
    /// the canonical trace/JSON/prom outputs, which stay byte-identical
    /// whether this is on or off.
    pub profile: bool,
}

/// Reads `EDP_SHARDS`; unset or empty means `0` (classic path).
///
/// Anything else must parse as a non-negative integer — garbage or
/// negative values exit with a diagnostic naming the bad value
/// ([`edp_evsim::env_config_error`]).
pub fn shards_from_env() -> usize {
    let raw = match std::env::var("EDP_SHARDS") {
        Ok(v) => v,
        Err(_) => return 0,
    };
    let v = raw.trim();
    if v.is_empty() {
        return 0;
    }
    match v.parse() {
        Ok(n) => n,
        Err(_) => edp_evsim::env_config_error(
            "EDP_SHARDS",
            v,
            "a non-negative shard count (0 = classic single-world path)",
        ),
    }
}

impl Default for TopOptions {
    fn default() -> Self {
        TopOptions {
            seeds: vec![1, 2],
            duration: SimDuration::from_millis(5),
            threads: default_threads(),
            trace_capacity: 65_536,
            shards: shards_from_env(),
            workload: TopWorkload::Cbr,
            profile: false,
        }
    }
}

/// Everything one `edp_top` run observed, merged across seeds.
#[derive(Debug)]
pub struct TopReport {
    /// App name as registered.
    pub app: String,
    /// Number of seeds (sweep points) merged into this report.
    pub n_seeds: usize,
    /// Simulated duration per point.
    pub duration: SimDuration,
    /// Unified metrics: counters summed across seeds, gauges folded as
    /// maxima (high-water marks), histogram buckets merged.
    pub registry: Registry,
    /// Rendered traces, one `== app seed N ==` section per point, in
    /// seed order.
    pub trace: String,
    /// Total trace records retained across points.
    pub trace_records: u64,
    /// Total trace records evicted by ring capacity across points.
    pub trace_dropped: u64,
    /// Shard count the points ran with (`0` = classic path).
    pub shards: usize,
    /// Safe-horizon windows executed, summed across points (0 classic).
    pub shard_windows: u64,
    /// Barrier rendezvous joined per shard, summed across points — the
    /// true synchronization cost (0 classic).
    pub shard_barriers: u64,
    /// Packets exchanged across shard boundaries, summed across points.
    pub shard_messages: u64,
    /// Wall-clock profiles, one `(seed, per-shard profiles)` entry per
    /// point in seed order — empty unless [`TopOptions::profile`] was
    /// set. Nondeterministic; rendered only by [`render_profile`] and
    /// [`profile_trace_json`], never by the canonical outputs.
    pub profiles: Vec<(u64, Vec<prof::Profile>)>,
}

/// Names of every registered app, in registry order.
pub fn app_names() -> Vec<&'static str> {
    builtin_apps().iter().map(|a| a.manifest.name).collect()
}

struct PointOutcome {
    registry: Registry,
    trace: String,
    records: u64,
    dropped: u64,
    windows: u64,
    barriers: u64,
    cross_messages: u64,
    profiles: Vec<prof::Profile>,
}

/// Fronts a registry app's program with a static return route: ingress
/// frames addressed to the fleet host go straight out its access port,
/// everything else runs the app's own ingress unchanged. Registry
/// programs are one-way (they egress toward the sink), so without this
/// the server's replies would reflect back into the bottleneck — the
/// closed-loop endpoint workload needs a reverse path, not a smarter app.
struct ReturnPath {
    inner: Box<dyn EventProgram>,
    client: std::net::Ipv4Addr,
    client_port: edp_pisa::PortId,
}

impl EventProgram for ReturnPath {
    fn on_ingress(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        actions: &mut EventActions,
    ) {
        if parsed.ipv4.map(|ip| ip.dst) == Some(self.client) {
            meta.dest = Destination::Port(self.client_port);
            return;
        }
        self.inner.on_ingress(pkt, parsed, meta, now, actions)
    }

    fn on_egress(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        actions: &mut EventActions,
    ) {
        self.inner.on_egress(pkt, parsed, meta, now, actions)
    }

    fn on_recirculated(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        actions: &mut EventActions,
    ) {
        self.inner.on_recirculated(pkt, parsed, meta, now, actions)
    }

    fn on_generated(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        actions: &mut EventActions,
    ) {
        self.inner.on_generated(pkt, parsed, meta, now, actions)
    }

    fn on_enqueue(&mut self, ev: &EnqueueEvent, now: SimTime, actions: &mut EventActions) {
        self.inner.on_enqueue(ev, now, actions)
    }

    fn on_dequeue(&mut self, ev: &DequeueEvent, now: SimTime, actions: &mut EventActions) {
        self.inner.on_dequeue(ev, now, actions)
    }

    fn on_overflow(&mut self, ev: &OverflowEvent, now: SimTime, actions: &mut EventActions) {
        self.inner.on_overflow(ev, now, actions)
    }

    fn on_underflow(&mut self, ev: &UnderflowEvent, now: SimTime, actions: &mut EventActions) {
        self.inner.on_underflow(ev, now, actions)
    }

    fn on_timer(&mut self, ev: &TimerEvent, now: SimTime, actions: &mut EventActions) {
        self.inner.on_timer(ev, now, actions)
    }

    fn on_control_plane(
        &mut self,
        ev: &ControlPlaneEvent,
        now: SimTime,
        actions: &mut EventActions,
    ) {
        self.inner.on_control_plane(ev, now, actions)
    }

    fn on_link_status(&mut self, ev: &LinkStatusEvent, now: SimTime, actions: &mut EventActions) {
        self.inner.on_link_status(ev, now, actions)
    }

    fn on_user(&mut self, ev: &UserEvent, now: SimTime, actions: &mut EventActions) {
        self.inner.on_user(ev, now, actions)
    }

    fn on_transmit(&mut self, ev: &TransmitEvent, now: SimTime, actions: &mut EventActions) {
        self.inner.on_transmit(ev, now, actions)
    }

    fn passive_events(&self) -> u16 {
        self.inner.passive_events()
    }
}

/// Builds the app's dumbbell with its CBR load armed but nothing run:
/// the piece of [`drive`] that is also usable as a [`run_sharded`] build
/// closure (the sharded engine arms switch timers and runs the loop
/// itself).
fn build_point(
    app: &str,
    seed: u64,
    duration: SimDuration,
    workload: &TopWorkload,
) -> (Network, Sim<Network>) {
    let reg_app = builtin_apps()
        .into_iter()
        .find(|a| a.manifest.name == app)
        .expect("caller validated the app name");
    // Arm every timer the manifest declares; periods are staggered so
    // multi-timer apps interleave firings instead of stacking them.
    let timers = reg_app
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
    let cfg = EventSwitchConfig {
        n_ports: 4,
        timers,
        ..Default::default()
    };
    // The endpoint workload is closed-loop: front the app with a return
    // route so the server's replies can reach the fleet host on port 0.
    let program: Box<dyn EventProgram> = match workload {
        TopWorkload::Endpoints { .. } => Box::new(ReturnPath {
            inner: reg_app.program,
            client: addr(1),
            client_port: 0,
        }),
        _ => reg_app.program,
    };
    let summary = edp_core::EffectSummary::from_manifest(&reg_app.manifest);
    let sw: EventSwitch<Box<dyn EventProgram>> = EventSwitch::new(program, cfg);
    // One sender on port 0, sink behind a 50 Mb/s bottleneck on port 1 —
    // the port most registry apps egress to — so ~190 Mb/s of CBR load
    // builds real queues and forces overflow/trim paths.
    let (mut net, senders, sink, _) = dumbbell(Box::new(sw), 1, 50_000_000, seed);
    // The app's emission certificate rides along so a sharded run can
    // class certified timer cranks local (exchange elision). The
    // ReturnPath front adds an undeclared client-bound ingress emission,
    // so the endpoint workload conservatively runs uncertified.
    if !matches!(workload, TopWorkload::Endpoints { .. }) {
        net.install_effect_summary(0, summary);
    }
    let mut sim: Sim<Network> = Sim::new();
    let until = SimTime::ZERO + duration;
    match workload {
        TopWorkload::Cbr => {
            let src = addr(1);
            let interval = SimDuration::from_micros(10);
            let count = duration.as_nanos() / interval.as_nanos();
            start_cbr(
                &mut sim,
                senders[0],
                SimTime::ZERO,
                interval,
                count,
                move |i| {
                    PacketBuilder::udp(src, sink_addr(), 4000, 9000, &[0u8; 200])
                        .ident(i as u16)
                        .build()
                },
            );
        }
        TopWorkload::Pcap { packets, speedup } => {
            start_replay(
                &mut sim,
                senders[0],
                Arc::clone(packets),
                SimTime::ZERO,
                *speedup,
                until,
            );
        }
        TopWorkload::Endpoints { count } => {
            let cfg = EndpointConfig {
                endpoints: *count,
                seed,
                server: sink_addr(),
                keys: 4096,
                zipf_s: 1.0,
                think_mean_ns: 1_000_000.0,
                timeout: SimDuration::from_millis(1),
                max_retries: 3,
            };
            net.hosts[senders[0]].app =
                HostApp::ClientFleet(Box::new(EndpointFleet::new(addr(1), cfg)));
            net.hosts[sink].app = HostApp::RpcServer { served: 0 };
            start_endpoints(
                &mut sim,
                senders[0],
                SimTime::ZERO,
                SimDuration::from_micros(20),
                until,
            );
        }
    }
    (net, sim)
}

/// Builds the app's dumbbell, drives the CBR load for `duration`, and
/// returns the network for metric publication. Runs identically with
/// telemetry enabled or disabled — [`measure_overhead`] exploits that.
fn drive(app: &str, seed: u64, duration: SimDuration, workload: &TopWorkload) -> Network {
    let (mut net, mut sim) = build_point(app, seed, duration, workload);
    run_until(&mut net, &mut sim, SimTime::ZERO + duration);
    net
}

/// One sweep point: a pure function of `(app, seed, duration, capacity)`
/// on the classic path, and of those *plus nothing else* on the sharded
/// path — the sharded outcome is byte-identical for every `shards >= 1`.
/// The opt-in profiler rides alongside in separate (wall-clock,
/// nondeterministic) structures and never touches these outputs.
fn run_point(app: &str, seed: u64, o: &TopOptions) -> PointOutcome {
    if o.shards > 0 {
        return run_point_sharded(app, seed, o, SUBWINDOWS);
    }
    telemetry::enable(TelemetryConfig {
        trace_capacity: o.trace_capacity,
        ..TelemetryConfig::default()
    });
    // The classic engine has no windows or barriers: its minimal profile
    // is setup + one long execute span, comparable with a sharded run's
    // compute fraction.
    if o.profile {
        prof::enable(Instant::now(), 0, 1);
    }
    let (mut net, mut sim) = build_point(app, seed, o.duration, &o.workload);
    prof::lap(prof::Phase::Setup);
    run_until(&mut net, &mut sim, SimTime::ZERO + o.duration);
    prof::lap(prof::Phase::Execute);
    telemetry::with(|t| net.publish_metrics(&mut t.registry));
    let profiles = prof::disable().into_iter().collect();
    let t = telemetry::disable().expect("session enabled above");
    let mut trace = format!("== {app} seed {seed} ==\n");
    trace.push_str(&t.render_trace());
    PointOutcome {
        records: t.ring.len() as u64,
        dropped: t.ring.dropped(),
        registry: t.registry,
        trace,
        windows: 0,
        barriers: 0,
        cross_messages: 0,
        profiles,
    }
}

/// One sweep point through the sharded engine.
///
/// Each shard runs the identical build on its own thread under its own
/// telemetry session; `finish` publishes only owner-gated metrics into
/// that session. Scheduler records are disabled — they carry global
/// heap sequence numbers, which depend on how events were distributed
/// over shards — and the merged trace uses the canonical (span-less)
/// rendering sorted by `(time, text)`, so the whole outcome is a pure
/// function of `(app, seed, duration, capacity)` for any shard count
/// and any `subwindows` (always [`SUBWINDOWS`] outside the tests that
/// pin exactly that).
fn run_point_sharded(app: &str, seed: u64, o: &TopOptions, subwindows: usize) -> PointOutcome {
    // One epoch per point, created before the workers spawn, so every
    // shard's profiling timestamps share an origin and the per-shard
    // tracks of the trace export line up.
    let epoch = Instant::now();
    let (sessions, stats) = run_sharded_opts(
        o.shards,
        subwindows,
        HorizonMode::Classic,
        SimTime::ZERO + o.duration,
        |shard| {
            telemetry::enable(TelemetryConfig {
                trace_capacity: o.trace_capacity,
                scheduler_records: false,
                ..TelemetryConfig::default()
            });
            if o.profile {
                prof::enable(epoch, shard, o.shards);
            }
            build_point(app, seed, o.duration, &o.workload)
        },
        |_shard, net, _sim| {
            telemetry::with(|t| net.publish_metrics(&mut t.registry));
            let profile = prof::disable();
            (
                telemetry::disable().expect("session enabled in build"),
                profile,
            )
        },
    );
    let (sessions, profiles): (Vec<_>, Vec<_>) = sessions.into_iter().unzip();
    let profiles: Vec<prof::Profile> = profiles.into_iter().flatten().collect();
    // Counters/histograms are per-scope partial sums; gauges are written
    // only by the owning shard, so `merge`'s overwrite is safe and the
    // max re-fold below is a no-op kept for symmetry with `run`.
    let mut registry = Registry::new();
    for s in &sessions {
        registry.merge(&s.registry);
    }
    for s in &sessions {
        for (n, sc, v) in s.registry.gauges() {
            registry.gauge_max(n, sc, v);
        }
    }
    let mut lines: Vec<(u64, String)> = Vec::new();
    let (mut records, mut dropped) = (0u64, 0u64);
    for s in &sessions {
        records += s.ring.len() as u64;
        dropped += s.ring.dropped();
        for rec in s.ring.iter() {
            lines.push((rec.at_ns, rec.render_canonical()));
        }
    }
    lines.sort();
    let mut trace = format!("== {app} seed {seed} ==\n");
    for (_, line) in &lines {
        trace.push_str(line);
        trace.push('\n');
    }
    trace.push_str(&format!(
        "-- {records} records, {dropped} dropped (ring capacity {})\n",
        o.trace_capacity
    ));
    PointOutcome {
        registry,
        trace,
        records,
        dropped,
        windows: stats.windows,
        barriers: stats.barriers,
        cross_messages: stats.cross_messages,
        profiles,
    }
}

/// Wall-clock cost of a full telemetry session vs the disabled path:
/// runs the same point `reps` times with a session enabled, then `reps`
/// times disabled, and returns `(enabled_secs, disabled_secs)` totals.
/// The ratio is the number DESIGN.md §10's overhead budget quotes.
pub fn measure_overhead(app: &str, duration: SimDuration, reps: u64) -> (f64, f64) {
    use std::time::Instant;
    let t0 = Instant::now();
    for r in 0..reps {
        telemetry::enable(TelemetryConfig::default());
        drive(app, 1 + r, duration, &TopWorkload::Cbr);
        telemetry::disable();
    }
    let enabled = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for r in 0..reps {
        let _ = telemetry::disable(); // ensure the disabled path
        drive(app, 1 + r, duration, &TopWorkload::Cbr);
    }
    let disabled = t1.elapsed().as_secs_f64();
    (enabled, disabled)
}

/// Wall-clock cost of the profiler itself on the instrumented sharded
/// engine (the path with hooks at every rendezvous): runs a 2-shard
/// point at the shipped [`SUBWINDOWS`] `reps` times with a profiling
/// session enabled, then `reps` times with the hooks on their disabled
/// one-branch path, and returns
/// `(profiled_secs, unprofiled_secs)` totals. Telemetry stays off for
/// both so the ratio isolates the profiler.
pub fn measure_prof_overhead(app: &str, duration: SimDuration, reps: u64) -> (f64, f64) {
    let run_once = |seed: u64, profile: bool| {
        let epoch = Instant::now();
        let (_, stats) = run_sharded_opts(
            2,
            SUBWINDOWS,
            HorizonMode::Classic,
            SimTime::ZERO + duration,
            |shard| {
                if profile {
                    prof::enable(epoch, shard, 2);
                }
                build_point(app, seed, duration, &TopWorkload::Cbr)
            },
            |_shard, _net, _sim| prof::disable(),
        );
        stats
    };
    let t0 = Instant::now();
    for r in 0..reps {
        run_once(1 + r, true);
    }
    let profiled = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for r in 0..reps {
        run_once(1 + r, false);
    }
    let unprofiled = t1.elapsed().as_secs_f64();
    (profiled, unprofiled)
}

/// Runs `app` over every seed in `opts` and merges the outcomes.
pub fn run(app: &str, opts: &TopOptions) -> Result<TopReport, String> {
    if !builtin_apps().iter().any(|a| a.manifest.name == app) {
        return Err(format!(
            "unknown app `{app}` (known: {})",
            app_names().join(", ")
        ));
    }
    let mut outcomes = sweep(opts.seeds.clone(), opts.threads, |seed| {
        run_point(app, seed, opts)
    });
    let mut registry = Registry::new();
    let mut trace = String::new();
    let mut records = 0u64;
    let mut dropped = 0u64;
    let mut windows = 0u64;
    let mut barriers = 0u64;
    let mut cross = 0u64;
    for o in &outcomes {
        registry.merge(&o.registry);
        trace.push_str(&o.trace);
        records += o.records;
        dropped += o.dropped;
        windows += o.windows;
        barriers += o.barriers;
        cross += o.cross_messages;
    }
    // `sweep` returns outcomes in input order, so zipping the seeds back
    // on labels each point's profiles correctly whatever thread ran it.
    let profiles: Vec<(u64, Vec<prof::Profile>)> = opts
        .seeds
        .iter()
        .zip(outcomes.iter_mut())
        .filter(|(_, o)| !o.profiles.is_empty())
        .map(|(&seed, o)| (seed, std::mem::take(&mut o.profiles)))
        .collect();
    // `merge` keeps the *later* gauge value; re-fold them as maxima so
    // high-water marks (staleness bounds, queue peaks) survive merging.
    for o in &outcomes {
        for (n, s, v) in o.registry.gauges() {
            registry.gauge_max(n, s, v);
        }
    }
    Ok(TopReport {
        app: app.to_string(),
        n_seeds: outcomes.len(),
        duration: opts.duration,
        registry,
        trace,
        trace_records: records,
        trace_dropped: dropped,
        shards: opts.shards,
        shard_windows: windows,
        shard_barriers: barriers,
        shard_messages: cross,
        profiles,
    })
}

/// Renders the wall-clock profile table for a profiled report: per-shard
/// phase attribution, the compute/barrier-wait/exchange headline, the
/// straggler-by-decile line, and the cross-shard message matrix.
/// Nondeterministic output — print it to a human, never into a pinned
/// artifact.
pub fn render_profile(r: &TopReport) -> String {
    let points: Vec<&[prof::Profile]> = r.profiles.iter().map(|(_, p)| p.as_slice()).collect();
    prof::render_table(&points)
}

/// Renders a profiled report as Chrome trace-event JSON (one process per
/// seed, one thread track per shard) for Perfetto / `chrome://tracing`.
pub fn profile_trace_json(r: &TopReport) -> String {
    let points: Vec<(String, &[prof::Profile])> = r
        .profiles
        .iter()
        .map(|(seed, p)| (format!("{} seed {seed}", r.app), p.as_slice()))
        .collect();
    prof::to_trace_json(&points)
}

/// Renders the report as the human-facing summary table.
pub fn render(r: &TopReport) -> String {
    let secs = r.duration.as_nanos() as f64 / 1e9 * r.n_seeds as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "edp_top — {} | {} seed(s) x {} ms sim",
        r.app,
        r.n_seeds,
        r.duration.as_nanos() / 1_000_000
    );

    let _ = writeln!(out, "\n  events (sw0)              count      rate/s");
    for (name, scope, v) in r.registry.counters() {
        if scope == "sw0" && name.starts_with("events_") && v > 0 {
            let _ = writeln!(
                out,
                "  {:<22} {:>9} {:>11.0}",
                &name["events_".len()..],
                v,
                v as f64 / secs
            );
        }
    }

    let _ = writeln!(out, "\n  drops (sw0)");
    for n in [
        "dropped_by_program",
        "dropped_overflow",
        "dropped_link_down",
        "parse_errors",
        "cascade_limit_drops",
    ] {
        let _ = writeln!(out, "  {:<22} {:>9}", n, r.registry.counter(n, "sw0"));
    }

    let _ = writeln!(
        out,
        "\n  queues         enq      deq     drop  pkts(hi)  bytes(hi)"
    );
    let scopes: Vec<&str> = r
        .registry
        .counters()
        .filter(|(n, s, _)| *n == "queue_enqueued" && s.starts_with("sw0:p"))
        .map(|(_, s, _)| s)
        .collect();
    for s in scopes {
        let _ = writeln!(
            out,
            "  {:<8} {:>9} {:>8} {:>8} {:>9} {:>10}",
            s,
            r.registry.counter("queue_enqueued", s),
            r.registry.counter("queue_dequeued", s),
            r.registry.counter("queue_dropped", s),
            r.registry.gauge("queue_pkts", s).unwrap_or(0),
            r.registry.gauge("queue_bytes", s).unwrap_or(0),
        );
    }

    let mut any = false;
    for (name, scope, v) in r.registry.counters() {
        if name != "proto_pkts" || v == 0 {
            continue;
        }
        if !any {
            let _ = writeln!(out, "\n  protocols (hosts)           pkts       bytes");
            any = true;
        }
        let _ = writeln!(
            out,
            "  {:<22} {:>10} {:>11}",
            scope,
            v,
            r.registry.counter("proto_bytes", scope)
        );
    }

    if r.registry.counter("endpoint_connects", "net") > 0 {
        let responses = r.registry.counter("endpoint_responses", "net");
        let samples = r.registry.counter("endpoint_rtt_samples", "net");
        let mean_rtt = r
            .registry
            .counter("endpoint_rtt_ns", "net")
            .checked_div(samples)
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "\n  endpoints: {} connected | {} requests, {} responses, {} retransmits, {} gave up | mean rtt {} ns",
            r.registry.counter("endpoint_connected", "net"),
            r.registry.counter("endpoint_requests", "net"),
            responses,
            r.registry.counter("endpoint_retransmits", "net"),
            r.registry.counter("endpoint_gave_up", "net"),
            mean_rtt,
        );
    }

    let mut any = false;
    for (name, scope, h) in r.registry.histograms() {
        if !any {
            let _ = writeln!(
                out,
                "\n  histograms                          count      p50      p99      max"
            );
            any = true;
        }
        let _ = writeln!(
            out,
            "  {:<20} {:<12} {:>8} {:>8} {:>8} {:>8}",
            name,
            scope,
            h.count(),
            h.p50(),
            h.p99(),
            h.max()
        );
    }

    let mut any = false;
    for (name, scope, v) in r.registry.gauges() {
        if name.starts_with("queue_") {
            continue;
        }
        if !any {
            let _ = writeln!(out, "\n  gauges (high-water)");
            any = true;
        }
        let _ = writeln!(out, "  {:<22} {:<12} {:>8}", name, scope, v);
    }

    let _ = writeln!(
        out,
        "\n  trace ring: {} records, {} dropped",
        r.trace_records, r.trace_dropped
    );
    if r.shards > 0 {
        let _ = writeln!(
            out,
            "  shards: {} | {} windows, {} barriers, {} cross-shard msgs",
            r.shards, r.shard_windows, r.shard_barriers, r.shard_messages
        );
    }
    out
}

/// Renders the report as one JSON object (registry via
/// [`telemetry::to_json`], so the shape matches the exporter).
pub fn to_json_report(r: &TopReport) -> String {
    format!(
        "{{\"app\":\"{}\",\"seeds\":{},\"duration_ns\":{},\"trace_records\":{},\"trace_dropped\":{},\"registry\":{}}}",
        r.app,
        r.n_seeds,
        r.duration.as_nanos(),
        r.trace_records,
        r.trace_dropped,
        telemetry::to_json(&r.registry)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> TopOptions {
        TopOptions {
            seeds: vec![7],
            duration: SimDuration::from_millis(1),
            threads: 1,
            trace_capacity: 4096,
            shards: 0,
            workload: TopWorkload::Cbr,
            profile: false,
        }
    }

    #[test]
    fn unknown_app_is_an_error() {
        assert!(run("no-such-app", &quick()).is_err());
    }

    #[test]
    fn microburst_report_has_events_and_queues() {
        let r = run("microburst", &quick()).expect("runs");
        assert!(r.registry.counter("events_ingress", "sw0") > 0);
        assert!(r.registry.counter("rx", "sw0") > 0);
        assert!(r.trace.contains("== microburst seed 7 =="));
        let text = render(&r);
        assert!(text.contains("events (sw0)"));
        assert!(text.contains("trace ring:"));
        let json = to_json_report(&r);
        assert!(json.starts_with("{\"app\":\"microburst\""));
        assert!(json.contains("\"registry\":{\"counters\":["));
    }

    #[test]
    fn timer_apps_fire_declared_timers() {
        let r = run("timer-policer", &quick()).expect("runs");
        assert!(
            r.registry.counter("events_timer", "sw0") > 0,
            "manifest timers must be armed"
        );
    }

    #[test]
    fn sharded_point_is_byte_identical_across_shard_counts() {
        let mut opts = quick();
        // Big enough that no shard's ring evicts — eviction order is the
        // one thing that legitimately differs per shard count.
        opts.trace_capacity = 65_536;
        opts.shards = 1;
        let one = run("microburst", &opts).expect("runs");
        opts.shards = 2;
        let two = run("microburst", &opts).expect("runs");
        assert_eq!(one.trace, two.trace, "merged canonical traces diverge");
        assert_eq!(to_json_report(&one), to_json_report(&two));
        assert!(one.trace_records > 0);
        assert_eq!(one.shards, 1);
        assert_eq!(two.shards, 2);
        assert!(render(&two).contains("shards: 2"));
    }

    /// Canonical outputs (trace, JSON, Prometheus) and negotiated-window
    /// count of one sharded point at an explicit sub-window count — the
    /// one axis `TopOptions` cannot reach, since [`run`] always uses
    /// [`SUBWINDOWS`].
    fn sharded_point(
        app: &str,
        seed: u64,
        o: &TopOptions,
        subwindows: usize,
    ) -> ((String, String, String), u64) {
        let p = run_point_sharded(app, seed, o, subwindows);
        assert!(p.records > 0, "{app}: sharded run recorded nothing");
        assert_eq!(p.dropped, 0, "{app}: ring evicted; raise capacity");
        let json = telemetry::to_json(&p.registry);
        let prom = telemetry::to_prometheus_text(&p.registry);
        ((p.trace, json, prom), p.windows)
    }

    /// The sub-window count is a pure execution strategy: every
    /// registered app renders the byte-identical canonical trace and
    /// exports at 1 (one negotiation per lookahead, the reference leg)
    /// and at [`SUBWINDOWS`], for shards {1, 2, 4} — only the
    /// negotiated-window count may move (down).
    #[test]
    fn every_app_is_byte_identical_across_subwindow_counts() {
        let mut o = quick();
        o.trace_capacity = 65_536;
        for app in app_names() {
            for seed in [1u64, 2] {
                o.shards = 1;
                let (base, _) = sharded_point(app, seed, &o, 1);
                for shards in [1usize, 2, 4] {
                    o.shards = shards;
                    let (one, w1) = sharded_point(app, seed, &o, 1);
                    let (many, w32) = sharded_point(app, seed, &o, SUBWINDOWS);
                    let leg = format!("{app} seed {seed}: {shards} shards");
                    assert_eq!(base, one, "{leg} differs at 1 sub-window");
                    assert_eq!(base, many, "{leg} differs at {SUBWINDOWS} sub-windows");
                    assert!(w32 <= w1, "{leg}: more windows ({w32} > {w1})");
                }
            }
        }
    }

    /// The ingestion-plane pin: the pcap-replay and endpoint-fleet
    /// workloads are a pure function of `(file, seed)` — trace and
    /// exports byte-identical across shards {1, 2, 4} × sub-windows
    /// {1, [`SUBWINDOWS`]}.
    fn workload_pin(workload: TopWorkload) {
        let mut o = quick();
        o.seeds = vec![1];
        o.duration = SimDuration::from_millis(2);
        o.trace_capacity = 262_144;
        o.workload = workload;
        o.shards = 1;
        let (base, _) = sharded_point("microburst", 1, &o, 1);
        for shards in [1usize, 2, 4] {
            o.shards = shards;
            for sub in [1, SUBWINDOWS] {
                let (b, _) = sharded_point("microburst", 1, &o, sub);
                assert_eq!(base, b, "differs at {shards} shards x {sub} sub-windows");
            }
        }
    }

    #[test]
    fn pcap_replay_is_byte_identical_across_shards_and_subwindows() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/mixed_protocols.pcap"
        );
        let bytes = std::fs::read(path).expect("fixture present");
        let file = edp_packet::PcapFile::parse(&bytes).expect("fixture parses");
        assert!(!file.packets.is_empty());
        workload_pin(TopWorkload::Pcap {
            packets: Arc::new(file.packets),
            speedup: 1.0,
        });
    }

    #[test]
    fn endpoint_fleet_is_byte_identical_across_shards_and_subwindows() {
        workload_pin(TopWorkload::Endpoints { count: 1000 });
    }

    #[test]
    fn profiled_points_attribute_their_wall_clock() {
        let mut opts = quick();
        opts.profile = true;
        let classic = run("microburst", &opts).expect("runs");
        assert_eq!(classic.profiles.len(), 1, "one profiled point");
        let (seed, profs) = &classic.profiles[0];
        assert_eq!(*seed, 7);
        assert_eq!(profs.len(), 1, "classic path is a single track");
        assert_eq!(profs[0].attributed_ns(), profs[0].total_ns);
        assert!(profs[0].phase_ns[prof::Phase::Execute.index()] > 0);

        opts.shards = 2;
        let sharded = run("microburst", &opts).expect("runs");
        assert_eq!(sharded.profiles[0].1.len(), 2, "one profile per shard");
        for p in &sharded.profiles[0].1 {
            assert_eq!(p.attributed_ns(), p.total_ns);
            assert!(p.phase_ns[prof::Phase::Negotiate.index()] > 0);
        }
        assert!(render_profile(&sharded).contains("wall-clock profile"));
        assert!(profile_trace_json(&sharded).contains("\"traceEvents\""));
    }

    #[test]
    fn env_default_is_classic_path() {
        // The suite doesn't set EDP_SHARDS, so Default must pick classic.
        if std::env::var("EDP_SHARDS").is_err() {
            assert_eq!(TopOptions::default().shards, 0);
        }
    }
}
