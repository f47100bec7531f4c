//! The endpoint fleet: one host modelling many HTTP/gRPC-shaped clients.
//!
//! Each logical endpoint runs a tiny connection state machine — connect,
//! then closed-loop request/response with think times — with
//! Zipf-distributed keys and response sizes and timeout-driven
//! retransmit, so the fleet reacts to [`crate::FaultPlan`] impairments
//! the way real request traffic does: a dropped request or response
//! surfaces as a retransmission after the timeout, not silence.
//!
//! Determinism: every endpoint draws from its own stateless RNG stream,
//! `SimRng::stream(seed, &[ENDPOINT_DOMAIN, endpoint_id])`, so the whole
//! fleet's traffic is a pure function of the config seed — independent of
//! endpoint count ordering, shard count, or sub-window count. The fleet
//! is advanced only by its host's pacer event, whose body is gated on shard
//! ownership like every other traffic source.
//!
//! A pacer tick visits only the endpoints with something due: the fleet
//! keeps each live endpoint's next due instant (its first connect, a
//! retransmit deadline, the end of a think time) in a min-queue, and an
//! entry that a reply made stale is dropped when it surfaces.

use crate::host::HostId;
use crate::net::Network;
use crate::source::Source;
use edp_evsim::{Sim, SimDuration, SimRng, SimTime, Zipf};
use edp_packet::{PacketBuilder, RpcHeader, RpcKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;

/// Domain tag for per-endpoint RNG streams (see [`SimRng::stream`]).
pub const ENDPOINT_DOMAIN: u64 = 0xE9D0;

/// Response-size classes the client draws from (a Zipf over this table:
/// small responses common, a heavy tail of large ones). Values are total
/// frame bytes the server pads the `Response` to.
pub const RESPONSE_SIZES: [u32; 8] = [96, 128, 192, 256, 384, 512, 1024, 1536];

/// Fleet configuration. All timing is simulation time.
#[derive(Debug, Clone)]
pub struct EndpointConfig {
    /// Number of logical endpoints multiplexed onto the host.
    pub endpoints: u32,
    /// Master seed; endpoint `i` draws from stream `[ENDPOINT_DOMAIN, i]`.
    pub seed: u64,
    /// The RPC server's address.
    pub server: Ipv4Addr,
    /// Key-space size for request keys.
    pub keys: usize,
    /// Zipf exponent for key popularity (~0.9–1.1 matches measured
    /// key-value workloads; 0 = uniform).
    pub zipf_s: f64,
    /// Mean think time between a response and the next request, ns
    /// (exponentially distributed).
    pub think_mean_ns: f64,
    /// Retransmit timeout for connects and requests.
    pub timeout: SimDuration,
    /// Retransmits before an endpoint gives up on an exchange.
    pub max_retries: u32,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            endpoints: 100,
            seed: 1,
            server: Ipv4Addr::new(10, 0, 0, 200),
            keys: 1024,
            zipf_s: 1.0,
            think_mean_ns: 100_000.0,
            timeout: SimDuration::from_micros(50),
            max_retries: 3,
        }
    }
}

/// Aggregate fleet accounting, published as `endpoint_*` counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// `Connect` frames sent (including retransmitted connects).
    pub connects_sent: u64,
    /// Endpoints that completed connection setup.
    pub connected: u64,
    /// First-transmission requests sent.
    pub requests: u64,
    /// Responses received and matched to an outstanding request.
    pub responses: u64,
    /// Timeout-driven retransmissions (connects and requests).
    pub retransmits: u64,
    /// Exchanges abandoned after `max_retries` retransmits.
    pub gave_up: u64,
    /// Sum of request→response round-trip times, ns.
    pub rtt_ns_sum: u64,
    /// Count of RTT samples in `rtt_ns_sum`.
    pub rtt_samples: u64,
}

/// One endpoint's protocol position.
#[derive(Debug, Clone)]
enum EpState {
    /// `Connect` not yet sent (first action due at the embedded time).
    Start(SimTime),
    /// `Connect` in flight; retransmit at the embedded deadline.
    Connecting { deadline: SimTime, retries: u32 },
    /// Connected, thinking; next request due at the embedded time.
    Idle(SimTime),
    /// Request in flight.
    Waiting {
        seq: u32,
        key: u64,
        resp_bytes: u32,
        sent_at: SimTime,
        deadline: SimTime,
        retries: u32,
    },
    /// Gave up (connect or request exceeded `max_retries`).
    Dead,
}

impl EpState {
    /// When [`EndpointFleet::advance`] next has work for this endpoint.
    fn due(&self) -> Option<SimTime> {
        match *self {
            EpState::Start(at) | EpState::Idle(at) => Some(at),
            EpState::Connecting { deadline, .. } | EpState::Waiting { deadline, .. } => {
                Some(deadline)
            }
            EpState::Dead => None,
        }
    }
}

#[derive(Debug, Clone)]
struct Ep {
    rng: SimRng,
    state: EpState,
    next_seq: u32,
}

/// A fleet of logical clients multiplexed onto one host (installed as
/// [`HostApp::ClientFleet`](crate::HostApp::ClientFleet)).
#[derive(Debug, Clone)]
pub struct EndpointFleet {
    cfg: EndpointConfig,
    /// The client host's address (stamped as the IP source).
    addr: Ipv4Addr,
    eps: Vec<Ep>,
    /// `(due, endpoint)` for every live endpoint's [`EpState::due`], plus
    /// stale entries a reply superseded, skipped when they surface.
    due: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// The endpoints one `advance` visits, kept to reuse its allocation.
    visit: Vec<u32>,
    key_zipf: Zipf,
    size_zipf: Zipf,
    /// Aggregate accounting.
    pub stats: FleetStats,
}

impl EndpointFleet {
    /// Builds the fleet for a host at `addr`. Each endpoint's first
    /// connect is staggered by an exponential draw with the think-time
    /// mean so the fleet does not start as one synchronized burst.
    pub fn new(addr: Ipv4Addr, cfg: EndpointConfig) -> Self {
        let eps: Vec<Ep> = (0..cfg.endpoints as u64)
            .map(|i| {
                let mut rng = SimRng::stream(cfg.seed, &[ENDPOINT_DOMAIN, i]);
                let first = SimTime::from_nanos(rng.exp(cfg.think_mean_ns) as u64);
                Ep {
                    rng,
                    state: EpState::Start(first),
                    next_seq: 0,
                }
            })
            .collect();
        let due = (0..)
            .zip(&eps)
            .filter_map(|(i, ep)| Some(Reverse((ep.state.due()?, i))))
            .collect();
        EndpointFleet {
            due,
            visit: Vec::new(),
            key_zipf: Zipf::new(cfg.keys.max(1), cfg.zipf_s),
            size_zipf: Zipf::new(RESPONSE_SIZES.len(), 1.0),
            cfg,
            addr,
            eps,
            stats: FleetStats::default(),
        }
    }

    /// Number of endpoints currently dead (gave up).
    pub fn dead(&self) -> u64 {
        self.eps
            .iter()
            .filter(|e| matches!(e.state, EpState::Dead))
            .count() as u64
    }

    fn frame(&self, ep: u32, kind: RpcKind, seq: u32, key: u64, resp_bytes: u32) -> Vec<u8> {
        PacketBuilder::rpc(
            self.addr,
            self.cfg.server,
            &RpcHeader {
                kind,
                endpoint: ep,
                seq,
                key,
                resp_bytes,
            },
        )
        .build()
    }

    /// Advances the fleet to `now`; returns the frames to inject, in
    /// endpoint order. Only endpoints with something due at or before
    /// `now` are visited. Timeouts are detected here, so their
    /// granularity is the pacer's tick interval.
    pub fn advance(&mut self, now: SimTime) -> Vec<Vec<u8>> {
        let mut visit = std::mem::take(&mut self.visit);
        while let Some(&Reverse((at, i))) = self.due.peek() {
            if at > now {
                break;
            }
            self.due.pop();
            if self.eps[i as usize].state.due() == Some(at) {
                visit.push(i);
            }
        }
        visit.sort_unstable();
        visit.dedup();
        let mut out = Vec::new();
        for &i in &visit {
            self.step(i, now, &mut out);
            if let Some(at) = self.eps[i as usize].state.due() {
                self.due.push(Reverse((at, i)));
            }
        }
        visit.clear();
        self.visit = visit;
        out
    }

    /// Moves endpoint `id` on to `now`, pushing any frame it sends onto
    /// `out`; an endpoint with nothing due is left as it is.
    fn step(&mut self, id: u32, now: SimTime, out: &mut Vec<Vec<u8>>) {
        let i = id as usize;
        // Take the state to appease the borrow checker; every arm either
        // restores it or installs a successor.
        let state = std::mem::replace(&mut self.eps[i].state, EpState::Dead);
        self.eps[i].state = match state {
            EpState::Start(at) if at <= now => {
                self.stats.connects_sent += 1;
                out.push(self.frame(id, RpcKind::Connect, 0, 0, 0));
                EpState::Connecting {
                    deadline: now + self.cfg.timeout,
                    retries: 0,
                }
            }
            EpState::Connecting { deadline, retries } if deadline <= now => {
                if retries >= self.cfg.max_retries {
                    self.stats.gave_up += 1;
                    EpState::Dead
                } else {
                    self.stats.retransmits += 1;
                    self.stats.connects_sent += 1;
                    out.push(self.frame(id, RpcKind::Connect, 0, 0, 0));
                    EpState::Connecting {
                        deadline: now + self.cfg.timeout,
                        retries: retries + 1,
                    }
                }
            }
            EpState::Idle(at) if at <= now => {
                let ep = &mut self.eps[i];
                let seq = ep.next_seq;
                ep.next_seq += 1;
                let key = self.key_zipf.sample(&mut ep.rng) as u64;
                let resp_bytes = RESPONSE_SIZES[self.size_zipf.sample(&mut ep.rng)];
                self.stats.requests += 1;
                out.push(self.frame(id, RpcKind::Request, seq, key, resp_bytes));
                EpState::Waiting {
                    seq,
                    key,
                    resp_bytes,
                    sent_at: now,
                    deadline: now + self.cfg.timeout,
                    retries: 0,
                }
            }
            EpState::Waiting {
                seq,
                key,
                resp_bytes,
                sent_at,
                deadline,
                retries,
            } if deadline <= now => {
                if retries >= self.cfg.max_retries {
                    self.stats.gave_up += 1;
                    EpState::Dead
                } else {
                    self.stats.retransmits += 1;
                    out.push(self.frame(id, RpcKind::Request, seq, key, resp_bytes));
                    EpState::Waiting {
                        seq,
                        key,
                        resp_bytes,
                        sent_at,
                        deadline: now + self.cfg.timeout,
                        retries: retries + 1,
                    }
                }
            }
            unchanged => unchanged,
        };
    }

    /// Feeds a received RPC frame (called from the host's receive path).
    /// Duplicate and stale responses — e.g. the original arriving after a
    /// retransmit already won — are ignored.
    pub fn on_rpc(&mut self, now: SimTime, hdr: &RpcHeader) {
        let Some(ep) = self.eps.get_mut(hdr.endpoint as usize) else {
            return;
        };
        match (hdr.kind, &ep.state) {
            (RpcKind::ConnectAck, EpState::Connecting { .. }) => {
                self.stats.connected += 1;
            }
            (RpcKind::Response, EpState::Waiting { seq, sent_at, .. }) if *seq == hdr.seq => {
                self.stats.responses += 1;
                self.stats.rtt_ns_sum += now.as_nanos().saturating_sub(sent_at.as_nanos());
                self.stats.rtt_samples += 1;
            }
            _ => return,
        }
        let next = now + SimDuration::from_nanos(ep.rng.exp(self.cfg.think_mean_ns) as u64);
        ep.state = EpState::Idle(next);
        self.due.push(Reverse((next, hdr.endpoint)));
    }
}

/// Arms the fleet pacer on `host` (whose app must be
/// [`HostApp::ClientFleet`](crate::HostApp::ClientFleet)): every `tick`
/// from `start` until `until`, the fleet advances and its frames are
/// injected. A tick is gated on shard ownership, so under sharded
/// execution only the host's owner advances fleet state or injects — the
/// same schedule fires everywhere, the effects happen exactly once.
pub fn start_endpoints(
    sim: &mut Sim<Network>,
    host: HostId,
    start: SimTime,
    tick: SimDuration,
    until: SimTime,
) {
    Source::Pacer(host, tick, until).arm(sim, start);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{Host, HostApp};
    use crate::link::LinkSpec;
    use crate::net::NodeRef;
    use edp_packet::{parse_packet, AppHeader};
    use proptest::prelude::*;

    fn a(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    fn cfg(endpoints: u32) -> EndpointConfig {
        EndpointConfig {
            endpoints,
            seed: 7,
            server: a(2),
            think_mean_ns: 20_000.0,
            timeout: SimDuration::from_micros(30),
            ..EndpointConfig::default()
        }
    }

    /// client-fleet host — server host, direct link.
    fn fleet_pair(endpoints: u32) -> (Network, HostId, HostId) {
        let mut net = Network::new(5);
        let fleet = EndpointFleet::new(a(1), cfg(endpoints));
        let h0 = net.add_host(Host::new(a(1), HostApp::ClientFleet(Box::new(fleet))));
        let h1 = net.add_host(Host::new(a(2), HostApp::RpcServer { served: 0 }));
        net.connect(
            (NodeRef::Host(h0), 0),
            (NodeRef::Host(h1), 0),
            LinkSpec::ten_gig(SimDuration::from_nanos(500)),
        );
        (net, h0, h1)
    }

    fn fleet_stats(net: &Network, h: HostId) -> FleetStats {
        match &net.hosts[h].app {
            HostApp::ClientFleet(f) => f.stats.clone(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn closed_loop_exchanges_complete() {
        let (mut net, h0, h1) = fleet_pair(20);
        let mut sim: Sim<Network> = Sim::new();
        start_endpoints(
            &mut sim,
            h0,
            SimTime::ZERO,
            SimDuration::from_micros(5),
            SimTime::from_millis(2),
        );
        sim.run(&mut net);
        let st = fleet_stats(&net, h0);
        assert_eq!(st.connected, 20, "all endpoints connect: {st:?}");
        assert!(st.requests > 20, "requests flowed: {st:?}");
        assert_eq!(st.responses, st.rtt_samples);
        assert!(st.responses > 0 && st.responses <= st.requests + st.retransmits);
        // A clean wire: no timeouts at all.
        assert_eq!(st.retransmits, 0, "{st:?}");
        assert_eq!(st.gave_up, 0);
        match &net.hosts[h1].app {
            HostApp::RpcServer { served } => {
                assert_eq!(*served, st.connects_sent + st.requests + st.retransmits)
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn traffic_is_a_pure_function_of_seed() {
        let run = |seed: u64| {
            let mut f = EndpointFleet::new(a(1), EndpointConfig { seed, ..cfg(10) });
            let mut frames = Vec::new();
            for step in 0..200u64 {
                frames.extend(f.advance(SimTime::from_nanos(step * 10_000)));
            }
            frames
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn requests_are_wire_valid_rpc() {
        let mut f = EndpointFleet::new(a(1), cfg(1));
        let frames = f.advance(SimTime::from_millis(1));
        assert_eq!(frames.len(), 1, "one connect");
        let pp = parse_packet(&frames[0]).expect("parse");
        match pp.app {
            Some(AppHeader::Rpc(r)) => assert!(matches!(r.kind, RpcKind::Connect)),
            other => panic!("not rpc: {other:?}"),
        }
    }

    #[test]
    fn timeout_retransmits_then_gives_up() {
        // No server attached: every connect times out.
        let mut f = EndpointFleet::new(a(1), cfg(1));
        let mut sent = 0;
        for step in 0..40u64 {
            sent += f.advance(SimTime::from_nanos(step * 50_000)).len();
        }
        // 1 original + max_retries retransmits, then dead.
        assert_eq!(sent, 1 + 3);
        assert_eq!(f.stats.retransmits, 3);
        assert_eq!(f.stats.gave_up, 1);
        assert_eq!(f.dead(), 1);
    }

    #[test]
    fn stale_response_is_ignored() {
        let mut f = EndpointFleet::new(a(1), cfg(1));
        f.advance(SimTime::from_millis(1));
        f.on_rpc(
            SimTime::from_millis(1),
            &RpcHeader {
                kind: RpcKind::ConnectAck,
                endpoint: 0,
                seq: 0,
                key: 0,
                resp_bytes: 0,
            },
        );
        assert_eq!(f.stats.connected, 1);
        // Request goes out once the think time elapses.
        let mut frames = Vec::new();
        let mut t = SimTime::from_millis(1);
        while frames.is_empty() {
            t += SimDuration::from_micros(10);
            frames = f.advance(t);
        }
        let pp = parse_packet(&frames[0]).expect("parse");
        let Some(AppHeader::Rpc(req)) = pp.app else {
            panic!("not rpc")
        };
        // A response for the wrong seq does nothing...
        f.on_rpc(
            t,
            &RpcHeader {
                seq: req.seq + 7,
                kind: RpcKind::Response,
                ..req
            },
        );
        assert_eq!(f.stats.responses, 0);
        // ...as does one for an unknown endpoint.
        f.on_rpc(
            t,
            &RpcHeader {
                endpoint: 99,
                kind: RpcKind::Response,
                ..req
            },
        );
        assert_eq!(f.stats.responses, 0);
        // The right one completes the exchange.
        f.on_rpc(
            t + SimDuration::from_micros(3),
            &RpcHeader {
                kind: RpcKind::Response,
                ..req
            },
        );
        assert_eq!(f.stats.responses, 1);
        assert!(f.stats.rtt_ns_sum >= 3_000);
    }

    impl EndpointFleet {
        /// The reference the due-queue replaces: visit every endpoint, in
        /// endpoint order, on every call.
        fn advance_full_scan(&mut self, now: SimTime) -> Vec<Vec<u8>> {
            let mut out = Vec::new();
            for id in 0..self.eps.len() as u32 {
                self.step(id, now, &mut out);
            }
            out
        }
    }

    /// One step of a fleet's life, applied to both fleets.
    #[derive(Debug, Clone)]
    enum Op {
        /// Move the clock on by this many ns, then advance.
        Advance(u64),
        /// A reply arrives for `endpoint` (possibly unknown): `kind`
        /// indexes [`KINDS`], and the seq is the endpoint's outstanding
        /// one, the one before it, or arbitrary.
        Reply {
            endpoint: u32,
            kind: usize,
            seq: SeqPick,
        },
    }

    #[derive(Debug, Clone)]
    enum SeqPick {
        Current,
        Stale,
        Any(u32),
    }

    const KINDS: [RpcKind; 4] = [
        RpcKind::ConnectAck,
        RpcKind::Response,
        RpcKind::Connect,
        RpcKind::Request,
    ];

    /// Endpoint ids run past the largest fleet, so some replies name no
    /// endpoint.
    fn op_strategy() -> impl Strategy<Value = Op> {
        let seq = prop_oneof![
            Just(SeqPick::Current),
            Just(SeqPick::Stale),
            any::<u32>().prop_map(SeqPick::Any),
        ];
        prop_oneof![
            (0u64..60_000).prop_map(Op::Advance),
            (0u32..14, 0..KINDS.len(), seq).prop_map(|(endpoint, kind, seq)| Op::Reply {
                endpoint,
                kind,
                seq
            }),
        ]
    }

    proptest! {
        #[test]
        fn due_queue_fleet_equals_the_full_scan(
            endpoints in 1u32..12,
            ops in prop::collection::vec(op_strategy(), 0..120),
            timeout_us in 1u64..50,
            max_retries in 0u32..3,
            think_us in 1u64..40,
            seed: u64,
        ) {
            let cfg = EndpointConfig {
                endpoints,
                seed,
                server: a(2),
                keys: 64,
                think_mean_ns: think_us as f64 * 1_000.0,
                timeout: SimDuration::from_micros(timeout_us),
                max_retries,
                ..EndpointConfig::default()
            };
            let mut fleet = EndpointFleet::new(a(1), cfg.clone());
            let mut scan = EndpointFleet::new(a(1), cfg);
            let mut now = SimTime::ZERO;
            for op in ops {
                match op {
                    Op::Advance(dt) => {
                        now += SimDuration::from_nanos(dt);
                        prop_assert_eq!(fleet.advance(now), scan.advance_full_scan(now));
                    }
                    Op::Reply { endpoint, kind, seq } => {
                        let outstanding = match fleet.eps.get(endpoint as usize).map(|e| &e.state) {
                            Some(EpState::Waiting { seq, .. }) => *seq,
                            _ => 0,
                        };
                        let hdr = RpcHeader {
                            kind: KINDS[kind],
                            endpoint,
                            seq: match seq {
                                SeqPick::Current => outstanding,
                                SeqPick::Stale => outstanding.wrapping_sub(1),
                                SeqPick::Any(s) => s,
                            },
                            key: 0,
                            resp_bytes: 0,
                        };
                        fleet.on_rpc(now, &hdr);
                        scan.on_rpc(now, &hdr);
                    }
                }
                prop_assert_eq!(&fleet.stats, &scan.stats);
            }
            prop_assert_eq!(fleet.dead(), scan.dead());
        }
    }
}
