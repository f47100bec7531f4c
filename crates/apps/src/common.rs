//! The dumbbell testbed as data, and run helpers.
//!
//! Every §2–§5 experiment, example and app test runs on one topology:
//! senders on one event switch, one sink behind a bottleneck. A
//! [`Scenario`] is that world as a value: the [`Dumbbell`] (sender count,
//! bottleneck rate, seed), the [`Flow`]s and the deadline. A flow is one
//! UDP stream from a sender to the sink, sent in one of the four patterns
//! of `edp_netsim::traffic` (CBR, burst, Poisson, on/off); its `i`-th
//! frame carries IP ident `i` (mod 2^16) and is padded to `len` bytes.
//!
//! [`Scenario::build`] arms the flows in list order, so two scenarios
//! with the same list are the same world, event for event. Traffic the
//! flows do not model (a pcap replay, an endpoint fleet, telemetry
//! frames, a controller's events) is armed by hand on the `Sim` that
//! `build` returns, before [`run_until`].

use edp_evsim::{Sim, SimDuration, SimTime};
use edp_netsim::traffic::{start_burst, start_cbr, start_on_off, start_poisson};
use edp_netsim::{Host, HostApp, HostId, LinkSpec, Network, NodeRef, SwitchHarness};
use edp_packet::{FlowKey, IpProto, PacketBuilder};
use std::net::Ipv4Addr;

/// Host address `10.0.0.n`.
pub fn addr(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

/// The sink host address of every [`Scenario`].
pub fn sink_addr() -> Ipv4Addr {
    addr(200)
}

/// Sender `i` is `10.0.0.(i + 1)`, so sender 199 would be the sink.
const MAX_SENDERS: usize = 199;

fn sender_addr(i: usize) -> Ipv4Addr {
    addr(i as u8 + 1)
}

/// A dumbbell: `senders` hosts on switch ports `0..senders`, one sink on
/// port `senders`. Every link is 10 Gb/s with 1 µs latency except the
/// bottleneck (switch → sink), which runs at `bottleneck_bps`. Hosts
/// `0..senders` are the senders, host `senders` is the sink.
#[derive(Debug, Clone, Copy)]
pub struct Dumbbell {
    /// Sender hosts, at most 199 (sender `i` is `10.0.0.(i + 1)`, the
    /// sink `10.0.0.200`).
    pub senders: usize,
    /// Rate of the switch → sink link.
    pub bottleneck_bps: u64,
    /// The network's RNG seed.
    pub seed: u64,
}

/// When a [`Flow`] sends: the arguments of its `edp_netsim::traffic`
/// generator, in that generator's order.
#[derive(Debug, Clone, Copy)]
pub enum Pattern {
    /// `(start, interval, count)`: `start_cbr`; a `count` of `u64::MAX`
    /// runs until the deadline.
    Cbr(SimTime, SimDuration, u64),
    /// `(at, n)`: `start_burst`, `n` frames back to back.
    Burst(SimTime, u64),
    /// `(start, mean_interval, until)`: `start_poisson`.
    Poisson(SimTime, SimDuration, SimTime),
    /// `(start, period, burst_len, spacing, until)`: `start_on_off`.
    OnOff(SimTime, SimDuration, u64, SimDuration, SimTime),
}

/// One UDP stream from sender `from` to the sink.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    /// The sending host's index among the senders.
    pub from: usize,
    /// UDP source port.
    pub sport: u16,
    /// UDP destination port.
    pub dport: u16,
    /// Every frame is zero-padded to this many bytes.
    pub len: usize,
    /// When the frames are sent.
    pub pattern: Pattern,
}

impl Flow {
    /// A constant-bit-rate flow (`start_cbr`'s arguments).
    pub fn cbr(
        from: usize,
        start: SimTime,
        interval: SimDuration,
        count: u64,
        sport: u16,
        dport: u16,
        len: usize,
    ) -> Self {
        let pattern = Pattern::Cbr(start, interval, count);
        Flow::udp(from, pattern, sport, dport, len)
    }

    /// A microburst (`start_burst`'s arguments).
    pub fn burst(from: usize, at: SimTime, n: u64, sport: u16, dport: u16, len: usize) -> Self {
        Flow::udp(from, Pattern::Burst(at, n), sport, dport, len)
    }

    /// An on/off flow (`start_on_off`'s arguments).
    #[allow(clippy::too_many_arguments)]
    pub fn on_off(
        from: usize,
        start: SimTime,
        period: SimDuration,
        burst_len: u64,
        spacing: SimDuration,
        until: SimTime,
        sport: u16,
        dport: u16,
        len: usize,
    ) -> Self {
        let pattern = Pattern::OnOff(start, period, burst_len, spacing, until);
        Flow::udp(from, pattern, sport, dport, len)
    }

    fn udp(from: usize, pattern: Pattern, sport: u16, dport: u16, len: usize) -> Self {
        Flow {
            from,
            sport,
            dport,
            len,
            pattern,
        }
    }

    /// The 5-tuple the sink records this flow's frames under.
    pub fn key(&self) -> FlowKey {
        let src = sender_addr(self.from);
        FlowKey::new(src, sink_addr(), IpProto::Udp, self.sport, self.dport)
    }

    /// The flow's `i`-th frame.
    fn frame(&self, i: u64) -> Vec<u8> {
        let src = sender_addr(self.from);
        PacketBuilder::udp(src, sink_addr(), self.sport, self.dport, &[])
            .ident(i as u16)
            .pad_to(self.len)
            .build()
    }
}

/// A whole dumbbell world: topology, seed, traffic and deadline.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The topology and seed.
    pub dumbbell: Dumbbell,
    /// The traffic, armed in this order.
    pub flows: Vec<Flow>,
    /// Where [`Scenario::run`] stops.
    pub until: SimTime,
}

impl Scenario {
    /// The sink's host id.
    pub fn sink(&self) -> HostId {
        self.dumbbell.senders
    }

    /// Lays out the dumbbell around `switch` and arms the flows in list
    /// order. Panics if the switch has too few ports, the senders would
    /// reach the sink's address, or a flow names a missing sender.
    pub fn build(&self, switch: Box<dyn SwitchHarness>) -> (Network, Sim<Network>) {
        let Dumbbell {
            senders,
            bottleneck_bps,
            seed,
        } = self.dumbbell;
        assert!(
            senders <= MAX_SENDERS,
            "a dumbbell has at most {MAX_SENDERS} senders (sender {MAX_SENDERS} would share \
             the sink's address {}), asked for {senders}",
            sink_addr()
        );
        let n_ports = switch.n_ports();
        assert!(
            n_ports > senders,
            "switch needs {} ports, has {n_ports}",
            senders + 1
        );
        let mut net = Network::new(seed);
        let sw = net.add_switch(switch);
        let lat = SimDuration::from_micros(1);
        for i in 0..senders {
            let h = net.add_host(Host::new(sender_addr(i), HostApp::Sink));
            net.connect(
                (NodeRef::Host(h), 0),
                (NodeRef::Switch(sw), i as u8),
                LinkSpec::ten_gig(lat),
            );
        }
        let sink = net.add_host(Host::new(sink_addr(), HostApp::Sink));
        net.connect(
            (NodeRef::Host(sink), 0),
            (NodeRef::Switch(sw), senders as u8),
            LinkSpec {
                bandwidth_bps: bottleneck_bps,
                latency: lat,
                drop_prob: 0.0,
            },
        );
        let mut sim = Sim::new();
        for &flow in &self.flows {
            let host = flow.from;
            assert!(host < senders, "a flow from sender {host} of {senders}");
            let frames = move |i| flow.frame(i);
            match flow.pattern {
                Pattern::Cbr(start, interval, n) => {
                    start_cbr(&mut sim, host, start, interval, n, frames)
                }
                Pattern::Burst(at, n) => start_burst(&mut sim, host, at, n, frames),
                Pattern::Poisson(start, mean, until) => {
                    start_poisson(&mut sim, host, start, mean, until, frames)
                }
                Pattern::OnOff(start, period, n, spacing, until) => {
                    start_on_off(&mut sim, host, start, period, n, spacing, until, frames)
                }
            }
        }
        (net, sim)
    }

    /// [`Scenario::build`], then [`run_until`] the deadline.
    pub fn run(&self, switch: Box<dyn SwitchHarness>) -> Network {
        let (mut net, mut sim) = self.build(switch);
        run_until(&mut net, &mut sim, self.until);
        net
    }
}

/// Runs the network until `deadline` (arming all switch timers first).
pub fn run_until(net: &mut Network, sim: &mut Sim<Network>, deadline: SimTime) {
    net.arm_all_timers(sim);
    sim.run_until(net, deadline);
}

#[cfg(test)]
mod tests {
    use super::*;
    use edp_core::EventSwitch;
    use edp_pisa::{ForwardTo, QueueConfig};

    fn scenario(senders: usize, flows: Vec<Flow>) -> Scenario {
        Scenario {
            dumbbell: Dumbbell {
                senders,
                bottleneck_bps: 1_000_000_000,
                seed: 1,
            },
            flows,
            until: SimTime::from_millis(10),
        }
    }

    #[test]
    fn dumbbell_carries_traffic() {
        let sw = Box::new(EventSwitch::baseline(
            ForwardTo(2),
            3,
            QueueConfig::default(),
        ));
        let cbr = Flow::cbr(0, SimTime::ZERO, SimDuration::from_micros(10), 100, 1, 2, 0);
        let sc = scenario(2, vec![cbr]);
        let sink = sc.sink();
        let net = sc.run(sw);
        assert_eq!(net.hosts[sink].stats.rx_pkts, 100);
        // The flow's key is the one the sink recorded its frames under.
        let seen: Vec<_> = net.hosts[sink]
            .stats
            .flows
            .iter()
            .map(|(k, f)| (*k, f.pkts))
            .collect();
        assert_eq!(seen, [(cbr.key(), 100)]);
        // A flow's frames are the hand-built UDP frames, ident wrapping
        // at 2^16.
        let burst = Flow::burst(1, SimTime::from_millis(5), 3, 30, 40, 1500);
        for flow in [cbr, burst] {
            for i in [0, 1, 99, 65_535, 65_536, 65_537, 200_000] {
                let want = PacketBuilder::udp(
                    addr(flow.from as u8 + 1),
                    sink_addr(),
                    flow.sport,
                    flow.dport,
                    &[],
                )
                .ident(i as u16)
                .pad_to(flow.len)
                .build();
                assert_eq!(flow.frame(i), want, "frame {i}");
            }
            assert_eq!(flow.frame(65_536 + 7), flow.frame(7));
        }
        assert_eq!(burst.frame(0).len(), 1500);
    }

    #[test]
    #[should_panic(expected = "a dumbbell has at most 199 senders")]
    fn a_sender_on_the_sink_address_is_refused() {
        // 256 ports are enough for 200 senders, but sender 199 would be
        // 10.0.0.200, the sink.
        let sw = Box::new(EventSwitch::baseline(
            ForwardTo(200),
            256,
            QueueConfig::default(),
        ));
        scenario(200, vec![]).build(sw);
    }
}
