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
use edp_evsim::{default_threads, sweep, Sim, SimDuration, SimTime};
use edp_netsim::traffic::start_cbr;
use edp_netsim::{start_endpoints, start_replay, EndpointConfig, EndpointFleet, HostApp, Network};
use edp_packet::{Packet, PacketBuilder, ParsedPacket, PcapPacket};
use edp_pisa::{Destination, StdMeta};
use edp_telemetry::{self as telemetry, Registry, TelemetryConfig};
use std::fmt::Write as _;
use std::sync::Arc;

/// The traffic a sweep point drives through the app's dumbbell.
#[derive(Debug, Clone, Default)]
pub enum TopWorkload {
    /// The canonical oversubscribing CBR stream (the historical default).
    #[default]
    Cbr,
    /// Replay a decoded capture from the sender host, preserving the
    /// file's inter-arrival gaps divided by `speedup`.
    Pcap {
        /// The parsed capture's frames (shared across seeds zero-copy).
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
    /// The traffic source (CBR, pcap replay, or endpoint fleet).
    pub workload: TopWorkload,
}

impl Default for TopOptions {
    fn default() -> Self {
        TopOptions {
            seeds: vec![1, 2],
            duration: SimDuration::from_millis(5),
            threads: default_threads(),
            trace_capacity: 65_536,
            workload: TopWorkload::Cbr,
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

/// Builds the app's dumbbell, drives the workload for `duration`, and
/// returns the network for metric publication.
fn drive(app: &str, seed: u64, duration: SimDuration, workload: &TopWorkload) -> Network {
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
    let sw: EventSwitch<Box<dyn EventProgram>> = EventSwitch::new(program, cfg);
    // One sender on port 0, sink behind a 50 Mb/s bottleneck on port 1 —
    // the port most registry apps egress to — so ~190 Mb/s of CBR load
    // builds real queues and forces overflow/trim paths.
    let (mut net, senders, sink, _) = dumbbell(Box::new(sw), 1, 50_000_000, seed);
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
    run_until(&mut net, &mut sim, until);
    net
}

/// One sweep point: a pure function of `(app, seed, options)`.
fn run_point(app: &str, seed: u64, o: &TopOptions) -> PointOutcome {
    telemetry::enable(TelemetryConfig {
        trace_capacity: o.trace_capacity,
        ..TelemetryConfig::default()
    });
    let net = drive(app, seed, o.duration, &o.workload);
    telemetry::with(|t| net.publish_metrics(&mut t.registry));
    let t = telemetry::disable().expect("session enabled above");
    let mut trace = format!("== {app} seed {seed} ==\n");
    trace.push_str(&t.render_trace());
    PointOutcome {
        records: t.ring.len() as u64,
        dropped: t.ring.dropped(),
        registry: t.registry,
        trace,
    }
}

/// Runs `app` over every seed in `opts` and merges the outcomes.
pub fn run(app: &str, opts: &TopOptions) -> Result<TopReport, String> {
    if !builtin_apps().iter().any(|a| a.manifest.name == app) {
        return Err(format!(
            "unknown app `{app}` (known: {})",
            app_names().join(", ")
        ));
    }
    let outcomes = sweep(opts.seeds.clone(), opts.threads, |seed| {
        run_point(app, seed, opts)
    });
    let mut registry = Registry::new();
    let mut trace = String::new();
    let mut records = 0u64;
    let mut dropped = 0u64;
    for o in &outcomes {
        registry.merge(&o.registry);
        trace.push_str(&o.trace);
        records += o.records;
        dropped += o.dropped;
    }
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
    })
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
    out
}

/// Renders the report as one JSON object (registry via
/// [`telemetry::to_json`], so the shape matches the exporter).
pub fn to_json_report(r: &TopReport) -> String {
    format!(
        "{{\"app\":{},\"seeds\":{},\"duration_ns\":{},\"trace_records\":{},\"trace_dropped\":{},\"registry\":{}}}",
        telemetry::json::string(&r.app),
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
            workload: TopWorkload::Cbr,
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

    /// The ingestion-plane pin: the pcap-replay and endpoint-fleet
    /// workloads (the latter through [`ReturnPath`]) are a pure function
    /// of `(input, seed)` — trace, JSON and Prometheus output are
    /// byte-identical on 1 and 8 sweep threads. Returns the 1-thread run
    /// so each test can check the workload did real work.
    fn workload_pin(workload: TopWorkload) -> TopReport {
        let mut o = quick();
        o.seeds = vec![1, 2];
        o.duration = SimDuration::from_millis(2);
        o.trace_capacity = 262_144;
        o.workload = workload;
        let one = run("microburst", &o).expect("1-thread run");
        o.threads = 8;
        let eight = run("microburst", &o).expect("8-thread run");
        assert_eq!(one.trace, eight.trace, "trace depends on threads");
        assert_eq!(to_json_report(&one), to_json_report(&eight));
        assert_eq!(
            telemetry::to_prometheus_text(&one.registry),
            telemetry::to_prometheus_text(&eight.registry)
        );
        assert!(one.trace_records > 0);
        assert_eq!(one.trace_dropped, 0, "ring evicted; raise capacity");
        one
    }

    #[test]
    fn pcap_replay_is_byte_identical_across_sweep_threads() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/mixed_protocols.pcap"
        );
        let bytes = std::fs::read(path).expect("fixture present");
        let file = edp_packet::PcapFile::parse(&bytes).expect("fixture parses");
        let r = workload_pin(TopWorkload::Pcap {
            packets: Arc::new(file.packets),
            speedup: 1.0,
        });
        for scope in ["eth:arp", "port:rpc"] {
            assert!(
                r.registry.counter("proto_pkts", scope) > 0,
                "no proto_pkts for {scope}"
            );
        }
    }

    #[test]
    fn endpoint_fleet_is_byte_identical_across_sweep_threads() {
        let r = workload_pin(TopWorkload::Endpoints { count: 1000 });
        assert!(r.registry.counter("endpoint_responses", "net") > 0);
    }
}
