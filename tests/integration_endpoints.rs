//! Endpoint model end-to-end: a client fleet against the RPC server over
//! an impaired wire. Timeout-driven retransmit reacts to injected drops,
//! heavy loss makes endpoints give up, reorder past the timeout produces
//! spurious retransmits whose stale responses are ignored — and every
//! one of those outcomes is byte-identical between the classic engine
//! and `run_sharded_opts` at 2/4 shards crossed with sub-windows 1/32.

use edp_evsim::{HorizonMode, Sim, SimDuration, SimTime};
use edp_netsim::{
    run_sharded_opts, start_endpoints, EndpointConfig, EndpointFleet, FaultPlan, FleetStats, Host,
    HostApp, LinkFaultModel, LinkSpec, Network, NodeRef,
};
use std::net::Ipv4Addr;

fn a(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

/// Pacer stop time; the run deadline leaves room for in-flight timeouts.
const UNTIL: SimTime = SimTime::from_millis(4);
const DEADLINE: SimTime = SimTime::from_millis(5);
const ENDPOINTS: u32 = 30;

fn cfg(seed: u64) -> EndpointConfig {
    EndpointConfig {
        endpoints: ENDPOINTS,
        seed,
        server: a(2),
        keys: 512,
        zipf_s: 1.0,
        think_mean_ns: 50_000.0,
        timeout: SimDuration::from_micros(40),
        max_retries: 3,
    }
}

/// Fleet host (id 0) — server host (id 1), direct 10G wire, optional
/// impairment model on the wire, pacer armed. The same closure body
/// serves as the `run_sharded_opts` build function.
fn build(seed: u64, model: Option<LinkFaultModel>) -> (Network, Sim<Network>) {
    let mut net = Network::new(seed);
    let fleet = EndpointFleet::new(a(1), cfg(seed));
    let h0 = net.add_host(Host::new(a(1), HostApp::ClientFleet(Box::new(fleet))));
    let h1 = net.add_host(Host::new(a(2), HostApp::RpcServer { served: 0 }));
    let link = net.connect(
        (NodeRef::Host(h0), 0),
        (NodeRef::Host(h1), 0),
        LinkSpec::ten_gig(SimDuration::from_micros(2)),
    );
    let mut sim: Sim<Network> = Sim::new();
    if let Some(m) = model {
        FaultPlan::new(seed)
            .link_model(link, m)
            .apply(&mut net, &mut sim);
    }
    start_endpoints(
        &mut sim,
        h0,
        SimTime::ZERO,
        SimDuration::from_micros(10),
        UNTIL,
    );
    (net, sim)
}

/// Fleet stats and server `served` count, but only from the world (or
/// shard) that owns each host — exactly how the telemetry layer sums.
fn harvest(net: &Network) -> (Option<FleetStats>, Option<u64>) {
    let fleet = if net.owns_node(NodeRef::Host(0)) {
        match &net.hosts[0].app {
            HostApp::ClientFleet(f) => Some(f.stats.clone()),
            _ => unreachable!(),
        }
    } else {
        None
    };
    let served = if net.owns_node(NodeRef::Host(1)) {
        match &net.hosts[1].app {
            HostApp::RpcServer { served } => Some(*served),
            _ => unreachable!(),
        }
    } else {
        None
    };
    (fleet, served)
}

fn run_classic(seed: u64, model: Option<LinkFaultModel>) -> (FleetStats, u64) {
    let (mut net, mut sim) = build(seed, model);
    sim.run_until(&mut net, DEADLINE);
    let (fleet, served) = harvest(&net);
    (
        fleet.expect("classic world owns all"),
        served.expect("owned"),
    )
}

fn run_sharded(
    seed: u64,
    model: Option<LinkFaultModel>,
    shards: usize,
    subwindows: usize,
) -> (FleetStats, u64) {
    let (results, _) = run_sharded_opts(
        shards,
        subwindows,
        HorizonMode::Classic,
        DEADLINE,
        |_shard| build(seed, model),
        |_shard, net, _sim| harvest(&net),
    );
    let fleet = results.iter().filter_map(|(f, _)| f.clone()).next();
    let served = results.iter().filter_map(|(_, s)| *s).next();
    (
        fleet.expect("one shard owns the fleet"),
        served.expect("one shard owns the server"),
    )
}

fn assert_invariants(st: &FleetStats, served: u64) {
    assert_eq!(st.responses, st.rtt_samples, "{st:?}");
    assert!(st.connected <= st.connects_sent, "{st:?}");
    // The server answers exactly the frames that reached it.
    assert!(
        served <= st.connects_sent + st.requests + st.retransmits,
        "{st:?} served={served}"
    );
}

#[test]
fn clean_wire_needs_no_retransmits() {
    let (st, served) = run_classic(11, None);
    assert_eq!(st.connected, u64::from(ENDPOINTS), "{st:?}");
    assert_eq!(st.retransmits, 0, "{st:?}");
    assert_eq!(st.gave_up, 0, "{st:?}");
    assert!(st.responses > 0, "{st:?}");
    assert_invariants(&st, served);
}

#[test]
fn drop_faults_trigger_retransmits() {
    let (st, served) = run_classic(12, Some(LinkFaultModel::loss(0.05)));
    assert!(st.retransmits > 0, "5% loss must cost retransmits: {st:?}");
    assert!(st.connected > 0, "{st:?}");
    assert!(st.responses > 0, "the loop still makes progress: {st:?}");
    assert_invariants(&st, served);
}

#[test]
fn heavy_loss_makes_endpoints_give_up() {
    let (st, served) = run_classic(13, Some(LinkFaultModel::loss(0.9)));
    assert!(st.gave_up > 0, "90% loss must exhaust retries: {st:?}");
    assert!(st.retransmits > 0, "{st:?}");
    assert_invariants(&st, served);
}

#[test]
fn reorder_past_timeout_causes_spurious_retransmits() {
    let model = LinkFaultModel {
        reorder_prob: 0.3,
        reorder_delay: SimDuration::from_micros(100),
        ..Default::default()
    };
    let (st, served) = run_classic(14, Some(model));
    // A 100 µs detour past the 40 µs timeout forces retransmits even
    // though nothing is lost; the late originals' responses arrive as
    // stale (seq-mismatched) and are dropped by the state machine.
    assert!(st.retransmits > 0, "{st:?}");
    assert!(st.responses > 0, "{st:?}");
    assert_invariants(&st, served);
}

/// The acceptance pin: under combined drop + reorder impairment, the
/// fleet's statistics and the server's count are identical between the
/// classic engine and every sharded execution mode.
#[test]
fn stats_identical_classic_vs_sharded_under_faults() {
    let model = LinkFaultModel {
        drop_prob: 0.05,
        reorder_prob: 0.2,
        reorder_delay: SimDuration::from_micros(100),
        ..Default::default()
    };
    for seed in [21u64, 22] {
        let classic = run_classic(seed, Some(model));
        assert!(
            classic.0.retransmits > 0,
            "impairment bites: {:?}",
            classic.0
        );
        for shards in [2usize, 4] {
            for sub in [1usize, 32] {
                let sharded = run_sharded(seed, Some(model), shards, sub);
                assert_eq!(
                    classic, sharded,
                    "seed {seed}: {shards} shards x {sub} sub-windows diverged"
                );
            }
        }
    }
}
