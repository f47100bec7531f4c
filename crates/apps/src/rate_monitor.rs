//! Time-windowed network measurement (§5 student project).
//!
//! "One student group demonstrated how to use timer events in conjunction
//! with a simple shift register to accurately measure flow rates in the
//! data plane." [`RateMonitor`] is that program: per-flow
//! [`WindowRate`] shift registers fed by ingress packets and advanced by
//! a timer event; a second timer samples the estimate into a time series
//! so experiments can compare it against ground truth.

use edp_core::event::TimerEvent;
use edp_core::{EventActions, EventProgram};
use edp_evsim::{SimTime, TimeSeries};
use edp_packet::{Packet, ParsedPacket};
use edp_pisa::{Destination, PortId, StdMeta};
use edp_primitives::WindowRate;

/// Timer id advancing the shift registers.
pub const TIMER_SHIFT: u16 = 0;
/// Timer id sampling estimates into the time series.
pub const TIMER_SAMPLE: u16 = 1;

/// Per-flow windowed rate measurement in the data plane.
#[derive(Debug)]
pub struct RateMonitor {
    /// One shift register per tracked flow slot (hash-indexed).
    pub windows: Vec<WindowRate>,
    /// Sampled rate estimates per flow slot, in bits/s.
    pub samples: Vec<TimeSeries>,
    /// Output port for data traffic.
    pub out_port: PortId,
}

impl RateMonitor {
    /// Creates a monitor with `n_flows` slots, each a shift register of
    /// `n_buckets` × `bucket_ns`.
    pub fn new(n_flows: usize, n_buckets: usize, bucket_ns: u64, out_port: PortId) -> Self {
        RateMonitor {
            windows: (0..n_flows)
                .map(|_| WindowRate::new(n_buckets, bucket_ns))
                .collect(),
            samples: (0..n_flows).map(|_| TimeSeries::new()).collect(),
            out_port,
        }
    }

    /// Total stateful words (for the resource accounting).
    pub fn state_words(&self) -> usize {
        self.windows.iter().map(|w| w.state_words()).sum()
    }
}

impl EventProgram for RateMonitor {
    fn on_ingress(
        &mut self,
        _pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        _now: SimTime,
        _a: &mut EventActions,
    ) {
        meta.dest = Destination::Port(self.out_port);
        if let Some(key) = parsed.flow_key() {
            let slot = key.index(self.windows.len());
            self.windows[slot].add(meta.pkt_len as u64);
        }
    }

    fn on_timer(&mut self, ev: &TimerEvent, now: SimTime, _a: &mut EventActions) {
        match ev.timer_id {
            TIMER_SHIFT => {
                for w in &mut self.windows {
                    w.tick();
                }
            }
            TIMER_SAMPLE => {
                for (i, w) in self.windows.iter().enumerate() {
                    self.samples[i].push(now, w.rate_bps());
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{Dumbbell, Flow, Scenario};
    use edp_core::{EventSwitch, EventSwitchConfig, TimerSpec};
    use edp_evsim::SimDuration;
    use edp_netsim::Network;

    const N_FLOWS: usize = 16;
    const BUCKET: SimDuration = SimDuration::from_millis(1);

    fn run(flows: Vec<Flow>, until: SimTime) -> Network {
        let cfg = EventSwitchConfig {
            n_ports: 3,
            timers: vec![
                TimerSpec {
                    id: TIMER_SHIFT,
                    period: BUCKET,
                    start: BUCKET,
                },
                TimerSpec {
                    id: TIMER_SAMPLE,
                    period: SimDuration::from_millis(5),
                    start: SimDuration::from_millis(10),
                },
            ],
            ..Default::default()
        };
        let sw = EventSwitch::new(RateMonitor::new(N_FLOWS, 8, BUCKET.as_nanos(), 2), cfg);
        let sc = Scenario {
            dumbbell: Dumbbell {
                senders: 2,
                bottleneck_bps: 10_000_000_000,
                seed: 41,
            },
            flows,
            until,
        };
        sc.run(Box::new(sw))
    }

    #[test]
    fn cbr_rate_measured_accurately() {
        // 1000 B every 100 us = 80 Mb/s.
        let interval = SimDuration::from_micros(100);
        let flow = Flow::cbr(0, SimTime::ZERO, interval, 1000, 10, 20, 1000);
        let net = run(vec![flow], SimTime::from_millis(90));
        let prog = &net.switch_as::<EventSwitch<RateMonitor>>(0).program;
        let s = &prog.samples[flow.key().index(N_FLOWS)];
        assert!(!s.is_empty());
        // Steady-state samples (drop the first two while the window fills).
        let steady: Vec<f64> = s
            .points()
            .iter()
            .skip(2)
            .take(14)
            .map(|&(_, v)| v)
            .collect();
        for (i, v) in steady.iter().enumerate() {
            assert!((v - 80e6).abs() / 80e6 < 0.15, "sample {i}: {v} vs 80 Mb/s");
        }
    }

    #[test]
    fn bursty_flow_average_rate_is_right() {
        // 20 × 1000 B per 7 ms ≈ 22.86 Mb/s average, very bursty. The
        // 7 ms period is deliberately co-prime with the 8 ms window and
        // the 5 ms sampling period so aliasing averages out.
        let flow = Flow::on_off(
            1,
            SimTime::ZERO,
            SimDuration::from_millis(7),
            20,
            SimDuration::ZERO,
            SimTime::from_millis(100),
            30,
            40,
            1000,
        );
        let net = run(vec![flow], SimTime::from_millis(100));
        let prog = &net.switch_as::<EventSwitch<RateMonitor>>(0).program;
        let s = &prog.samples[flow.key().index(N_FLOWS)];
        let truth = 20.0 * 1000.0 * 8.0 / 7e-3; // bits per second
        let avg = s.time_weighted_mean();
        assert!(
            (avg - truth).abs() / truth < 0.35,
            "bursty average {avg} vs {truth}"
        );
        let max = s.points().iter().map(|&(_, v)| v).fold(0.0, f64::max);
        assert!(max >= avg, "max {max} avg {avg}");
    }

    #[test]
    fn idle_flow_measures_zero() {
        let net = run(vec![], SimTime::from_millis(50));
        let prog = &net.switch_as::<EventSwitch<RateMonitor>>(0).program;
        for s in &prog.samples {
            assert!(s.points().iter().all(|&(_, v)| v == 0.0));
        }
    }
}
