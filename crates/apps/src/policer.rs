//! Policing with a do-it-yourself token bucket (§3 "Traffic Management").
//!
//! "While baseline PISA architectures might expose fixed-function meters
//! to P4 programmers as primitive elements, if we use timer events, token
//! bucket meters can be constructed from simple registers."
//!
//! [`TimerPolicer`] is that construction: a register pair (tokens, cap)
//! refilled by a periodic timer event, consumed at ingress. The
//! comparator [`MeterPolicer`] uses the fixed-function continuous-time
//! meter a baseline target would provide. The sweep over timer periods in
//! `exp_policer` shows the accuracy cost of refill quantization — the
//! customizability/fidelity trade-off the paper highlights.

use edp_core::event::TimerEvent;
use edp_core::{EventActions, EventProgram};
use edp_evsim::SimTime;
use edp_packet::{Packet, ParsedPacket};
use edp_pisa::{Destination, PisaProgram, PortId, StdMeta};
use edp_primitives::{Color, TimerTokenBucket, TokenBucket};

/// Timer id for bucket refill.
pub const TIMER_REFILL: u16 = 0;

/// Event-driven policer: registers + timer events.
#[derive(Debug)]
pub struct TimerPolicer {
    /// The register-built bucket.
    pub bucket: TimerTokenBucket,
    /// Output port for conforming traffic.
    pub out_port: PortId,
    /// Conforming packets forwarded.
    pub green: u64,
    /// Non-conforming packets dropped.
    pub red: u64,
}

impl TimerPolicer {
    /// Creates a policer for `rate_bytes_per_sec` refilled every
    /// `period_ns` with burst `burst_bytes`.
    pub fn new(
        rate_bytes_per_sec: u64,
        period_ns: u64,
        burst_bytes: u64,
        out_port: PortId,
    ) -> Self {
        TimerPolicer {
            bucket: TimerTokenBucket::new(rate_bytes_per_sec, period_ns, burst_bytes),
            out_port,
            green: 0,
            red: 0,
        }
    }
}

impl EventProgram for TimerPolicer {
    fn on_ingress(
        &mut self,
        _pkt: &mut Packet,
        _parsed: &ParsedPacket,
        meta: &mut StdMeta,
        _now: SimTime,
        _a: &mut EventActions,
    ) {
        match self.bucket.offer(meta.pkt_len as u64) {
            Color::Green => {
                self.green += 1;
                meta.dest = Destination::Port(self.out_port);
            }
            Color::Red => {
                self.red += 1;
                meta.dest = Destination::Drop;
            }
        }
    }

    fn on_timer(&mut self, ev: &TimerEvent, _now: SimTime, _a: &mut EventActions) {
        if ev.timer_id == TIMER_REFILL {
            self.bucket.refill();
        }
    }
}

/// Baseline policer using the fixed-function meter extern.
#[derive(Debug)]
pub struct MeterPolicer {
    /// The continuous-time meter.
    pub bucket: TokenBucket,
    /// Output port for conforming traffic.
    pub out_port: PortId,
    /// Conforming packets forwarded.
    pub green: u64,
    /// Non-conforming packets dropped.
    pub red: u64,
}

impl MeterPolicer {
    /// Creates the fixed-function policer.
    pub fn new(rate_bytes_per_sec: u64, burst_bytes: u64, out_port: PortId) -> Self {
        MeterPolicer {
            bucket: TokenBucket::new(rate_bytes_per_sec, burst_bytes),
            out_port,
            green: 0,
            red: 0,
        }
    }
}

impl PisaProgram for MeterPolicer {
    fn ingress(
        &mut self,
        _pkt: &mut Packet,
        _parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
    ) {
        match self.bucket.offer(now.as_nanos(), meta.pkt_len as u64) {
            Color::Green => {
                self.green += 1;
                meta.dest = Destination::Port(self.out_port);
            }
            Color::Red => {
                self.red += 1;
                meta.dest = Destination::Drop;
            }
        }
    }
}

/// Runs both policers against the same CBR overload and returns the
/// green-rate relative error of each against the configured rate:
/// `(timer_error, meter_error)`. Used by tests and the bench sweep.
pub fn compare_policers(timer_period_ns: u64, seed: u64) -> (f64, f64) {
    use crate::common::{addr, dumbbell, run_until, sink_addr};
    use edp_core::{EventSwitch, EventSwitchConfig, TimerSpec};
    use edp_evsim::{Sim, SimDuration};
    use edp_netsim::traffic::start_cbr;
    use edp_netsim::Network;
    use edp_packet::PacketBuilder;
    use edp_pisa::QueueConfig;

    const RATE: u64 = 12_500_000; // 100 Mb/s in bytes/s
    const BURST: u64 = 15_000;
    let horizon = SimTime::from_millis(100);
    // Offered: 1500 B every 60 us = 200 Mb/s (2× the policed rate).
    let run_one = |timer: bool| -> f64 {
        let (mut net, senders, sink, _) = if timer {
            let cfg = EventSwitchConfig {
                n_ports: 2,
                timers: vec![TimerSpec {
                    id: TIMER_REFILL,
                    period: SimDuration::from_nanos(timer_period_ns),
                    start: SimDuration::from_nanos(timer_period_ns),
                }],
                ..Default::default()
            };
            let sw = EventSwitch::new(TimerPolicer::new(RATE, timer_period_ns, BURST, 1), cfg);
            dumbbell(Box::new(sw), 1, 10_000_000_000, seed)
        } else {
            let sw =
                EventSwitch::baseline(MeterPolicer::new(RATE, BURST, 1), 2, QueueConfig::default());
            dumbbell(Box::new(sw), 1, 10_000_000_000, seed)
        };
        let mut sim: Sim<Network> = Sim::new();
        let src = addr(1);
        start_cbr(
            &mut sim,
            senders[0],
            SimTime::ZERO,
            SimDuration::from_micros(60),
            u64::MAX,
            move |i| {
                PacketBuilder::udp(src, sink_addr(), 7, 8, &[])
                    .ident(i as u16)
                    .pad_to(1500)
                    .build()
            },
        );
        run_until(&mut net, &mut sim, horizon);
        let got = net.hosts[sink].stats.rx_bytes as f64 / horizon.as_secs_f64();
        (got - RATE as f64).abs() / RATE as f64
    };
    (run_one(true), run_one(false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_timer_matches_fixed_function_meter() {
        // 100 us refill: quantization is negligible.
        let (timer_err, meter_err) = compare_policers(100_000, 71);
        assert!(meter_err < 0.12, "meter error {meter_err}");
        assert!(timer_err < 0.15, "timer error {timer_err}");
    }

    #[test]
    fn coarse_timer_underdelivers_when_burst_smaller_than_quantum() {
        // With a 10 ms refill, one quantum is 125 KB but the bucket only
        // holds 15 KB: most of each refill is lost to the cap and the
        // policer under-delivers badly. This is exactly the quantization
        // cost of building a meter from a *slow* timer — the knob the
        // paper's "customize your own policing algorithms" point implies
        // the programmer must now own.
        let (fine, _) = compare_policers(100_000, 72);
        let (coarse, _) = compare_policers(10_000_000, 72); // 10 ms refill
        assert!(coarse > fine + 0.2, "coarse {coarse} vs fine {fine}");
        assert!(coarse < 1.0, "still forwards something: {coarse}");
    }

    #[test]
    fn policer_counts_green_and_red() {
        use edp_packet::PacketBuilder;
        use std::net::Ipv4Addr;
        let mut p = TimerPolicer::new(1_000_000, 1_000_000, 3_000, 1);
        let frame = PacketBuilder::udp(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            1,
            2,
            &[0u8; 1400],
        )
        .build();
        let parsed = edp_packet::parse_packet(&frame).expect("p");
        // Burst allows 2 packets, third is red.
        for _ in 0..3 {
            let mut pkt = Packet::anonymous(frame.clone());
            let mut meta = StdMeta::ingress(0, SimTime::ZERO, pkt.len());
            let mut a = EventActions::new();
            p.on_ingress(&mut pkt, &parsed, &mut meta, SimTime::ZERO, &mut a);
        }
        assert_eq!(p.green, 2);
        assert_eq!(p.red, 1);
        // Refills restore service.
        for _ in 0..2000 {
            p.on_timer(
                &TimerEvent {
                    timer_id: TIMER_REFILL,
                    firing: 1,
                },
                SimTime::ZERO,
                &mut EventActions::new(),
            );
        }
        assert_eq!(p.bucket.offer(1), Color::Green);
    }
}
