//! Property-based tests for the network substrate's conservation and
//! determinism invariants.

use edp_core::{BaselineAdapter, EventSwitch};
use edp_evsim::{HorizonMode, Sim, SimDuration, SimTime};
use edp_netsim::traffic::start_cbr;
use edp_netsim::{merge_tracers, run_sharded_opts, Host, HostApp, LinkSpec, Network, NodeRef};
use edp_packet::PacketBuilder;
use edp_pisa::{ForwardTo, QueueConfig};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn a(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

/// Builds a line of `n_switches` ForwardTo(1) switches between two hosts.
fn line(n_switches: usize, drop_prob: f64, seed: u64) -> (Network, usize, usize) {
    let mut net = Network::new(seed);
    let mut prev: Option<usize> = None;
    let spec = LinkSpec {
        bandwidth_bps: 10_000_000_000,
        latency: SimDuration::from_micros(1),
        drop_prob,
    };
    let h1 = net.add_host(Host::new(a(1), HostApp::Sink));
    let h2 = net.add_host(Host::new(a(2), HostApp::Sink));
    for _ in 0..n_switches {
        let s = net.add_switch(Box::new(EventSwitch::baseline(
            ForwardTo(1),
            2,
            QueueConfig::default(),
        )));
        match prev {
            None => {
                net.connect((NodeRef::Host(h1), 0), (NodeRef::Switch(s), 0), spec);
            }
            Some(p) => {
                net.connect((NodeRef::Switch(p), 1), (NodeRef::Switch(s), 0), spec);
            }
        }
        prev = Some(s);
    }
    net.connect(
        (NodeRef::Switch(prev.expect("at least one switch")), 1),
        (NodeRef::Host(h2), 0),
        spec,
    );
    (net, h1, h2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Without faults, every sent packet is delivered, across any line
    /// length, packet size, and count.
    #[test]
    fn lossless_line_conserves_packets(
        n_switches in 1usize..5,
        count in 1u64..150,
        size in 64usize..1500,
        interval_us in 1u64..50,
    ) {
        let (mut net, h1, h2) = line(n_switches, 0.0, 7);
        let mut sim: Sim<Network> = Sim::new();
        start_cbr(
            &mut sim,
            h1,
            SimTime::ZERO,
            SimDuration::from_micros(interval_us),
            count,
            move |i| {
                PacketBuilder::udp(a(1), a(2), 9, 10, &[]).ident(i as u16).pad_to(size).build()
            },
        );
        sim.run(&mut net);
        prop_assert_eq!(net.hosts[h2].stats.rx_pkts, count);
        prop_assert_eq!(net.hosts[h2].stats.rx_errors, 0);
        // Every hop forwarded everything.
        for s in 0..n_switches {
            let sw = net.switch_as::<EventSwitch<BaselineAdapter<ForwardTo>>>(s);
            prop_assert_eq!(sw.counters().rx, count);
            prop_assert_eq!(sw.counters().tx, count);
        }
    }

    /// With fault injection, delivered + per-link fault drops == sent.
    #[test]
    fn faulty_line_accounts_for_every_packet(
        drop_pct in 0u32..60,
        count in 10u64..200,
        seed in 0u64..1000,
    ) {
        let (mut net, h1, h2) = line(1, drop_pct as f64 / 100.0, seed);
        let mut sim: Sim<Network> = Sim::new();
        start_cbr(&mut sim, h1, SimTime::ZERO, SimDuration::from_micros(10), count, move |i| {
            PacketBuilder::udp(a(1), a(2), 9, 10, &[]).ident(i as u16).build()
        });
        sim.run(&mut net);
        let delivered = net.hosts[h2].stats.rx_pkts;
        let mut fault_drops = 0;
        for l in 0..2 {
            fault_drops += net.link_drops(l).0;
        }
        prop_assert_eq!(delivered + fault_drops, count);
    }

    /// Two runs with the same seed are byte-identical; latency stats too.
    #[test]
    fn runs_are_deterministic(seed in 0u64..500, count in 1u64..100) {
        let run = |seed| {
            let (mut net, h1, h2) = line(2, 0.1, seed);
            let mut sim: Sim<Network> = Sim::new();
            start_cbr(&mut sim, h1, SimTime::ZERO, SimDuration::from_micros(7), count, move |i| {
                PacketBuilder::udp(a(1), a(2), 9, 10, &[]).ident(i as u16).build()
            });
            sim.run(&mut net);
            (
                net.hosts[h2].stats.rx_pkts,
                net.hosts[h2].stats.rx_bytes,
                sim.now(),
                sim.events_fired(),
            )
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Seq-gated accept soundness: a shard drains its mailboxes only when
    /// its inbox sequence moved since the last drain. No publish pattern —
    /// bursty, sparse, or degenerate — at any sub-window count may leave a
    /// published message undrained. A message drained late or never would
    /// change the merged schedule against the single-shard reference, or
    /// panic as an event scheduled into the past; both fail the property.
    #[test]
    fn the_seq_gated_accept_drains_every_message_across_subwindows(
        count in 1u64..40,
        interval_us in 1u64..40,
        subwindows in 1usize..64,
    ) {
        let run = |shards: usize, subwindows: usize| {
            let (nets, _) = run_sharded_opts(
                shards,
                subwindows,
                HorizonMode::Classic,
                SimTime::from_millis(3),
                |_me| {
                    let (mut net, h1, _h2) = line(2, 0.0, 5);
                    net.tracer.enabled = true;
                    let mut sim: Sim<Network> = Sim::new();
                    start_cbr(
                        &mut sim,
                        h1,
                        SimTime::ZERO,
                        SimDuration::from_micros(interval_us),
                        count,
                        move |i| {
                            PacketBuilder::udp(a(1), a(2), 9, 10, &[])
                                .ident(i as u16)
                                .pad_to(256)
                                .build()
                        },
                    );
                    (net, sim)
                },
                |_me, net, _sim| net,
            );
            let rx: u64 = nets.iter().map(|n| n.hosts[1].stats.rx_pkts).sum();
            let tracers: Vec<&edp_netsim::Tracer> = nets.iter().map(|n| &n.tracer).collect();
            (rx, merge_tracers(&tracers))
        };
        let (rx_ref, trace_ref) = run(1, 1);
        prop_assert_eq!(rx_ref, count);
        let (rx, trace) = run(2, subwindows);
        prop_assert_eq!(rx, rx_ref);
        prop_assert_eq!(trace, trace_ref);
    }
}
