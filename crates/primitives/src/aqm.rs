//! Active queue management: RED.
//!
//! The paper names AQM as "one of the motivating applications for our
//! work": the congestion signals these controllers consume (queue size,
//! queueing delay, per-flow occupancy) are exactly what enqueue/dequeue
//! events expose in the ingress pipeline. The FRED-style *fair* variant
//! lives in `edp-apps::fred`, built on these pieces.

use crate::window::Ewma;
use serde::{Deserialize, Serialize};

/// Verdict for an arriving packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AqmVerdict {
    /// Enqueue normally.
    Accept,
    /// Mark (ECN CE) but enqueue.
    Mark,
    /// Drop.
    Drop,
}

/// Random Early Detection (Floyd & Jacobson, 1993).
///
/// Drop probability ramps linearly from 0 at `min_thresh` to `max_p` at
/// `max_thresh`; above `max_thresh` everything is dropped (the "gentle"
/// variant is out of scope). Thresholds are in bytes of queue occupancy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Red {
    min_thresh: u64,
    max_thresh: u64,
    max_p: f64,
    ecn_capable_marks: bool,
    avg: Ewma,
    /// Deterministic inter-drop counter, RED's `count` variable.
    since_last_drop: u64,
}

impl Red {
    /// Creates a RED instance. `weight` is the queue-average EWMA weight
    /// (Floyd recommends ~0.002 for per-packet updates).
    pub fn new(min_thresh: u64, max_thresh: u64, max_p: f64, weight: f64, mark: bool) -> Self {
        assert!(min_thresh < max_thresh, "RED thresholds inverted");
        assert!((0.0..=1.0).contains(&max_p));
        Red {
            min_thresh,
            max_thresh,
            max_p,
            ecn_capable_marks: mark,
            avg: Ewma::new(weight),
            since_last_drop: 0,
        }
    }

    /// Offers a packet with instantaneous queue occupancy `queue_bytes`;
    /// `u` must be a uniform random number in `[0,1)` supplied by the
    /// caller (keeps this type free of RNG state).
    pub fn offer(&mut self, queue_bytes: u64, u: f64) -> AqmVerdict {
        let avg = self.avg.update(queue_bytes as f64);
        if avg < self.min_thresh as f64 {
            self.since_last_drop += 1;
            return AqmVerdict::Accept;
        }
        if avg >= self.max_thresh as f64 {
            self.since_last_drop = 0;
            return self.penalty();
        }
        let frac = (avg - self.min_thresh as f64) / (self.max_thresh - self.min_thresh) as f64;
        let pb = self.max_p * frac;
        // Floyd's uniformization: pa = pb / (1 - count*pb).
        let pa = pb / (1.0 - (self.since_last_drop as f64 * pb).min(0.999));
        if u < pa {
            self.since_last_drop = 0;
            self.penalty()
        } else {
            self.since_last_drop += 1;
            AqmVerdict::Accept
        }
    }

    fn penalty(&self) -> AqmVerdict {
        if self.ecn_capable_marks {
            AqmVerdict::Mark
        } else {
            AqmVerdict::Drop
        }
    }

    /// Current averaged queue occupancy in bytes.
    pub fn avg_queue(&self) -> f64 {
        self.avg.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn red_accepts_below_min() {
        let mut red = Red::new(1000, 5000, 0.1, 1.0, false);
        for _ in 0..100 {
            assert_eq!(red.offer(500, 0.0), AqmVerdict::Accept);
        }
    }

    #[test]
    fn red_drops_all_above_max() {
        let mut red = Red::new(1000, 5000, 0.1, 1.0, false);
        assert_eq!(red.offer(10_000, 0.99), AqmVerdict::Drop);
    }

    #[test]
    fn red_marks_when_ecn() {
        let mut red = Red::new(1000, 5000, 0.1, 1.0, true);
        assert_eq!(red.offer(10_000, 0.99), AqmVerdict::Mark);
    }

    #[test]
    fn red_probabilistic_band_scales() {
        // With weight 1.0 the average tracks the instantaneous queue.
        let mut red = Red::new(1000, 5000, 0.5, 1.0, false);
        let mut drops_low = 0;
        let mut drops_high = 0;
        for i in 0..1000 {
            let u = (i as f64) / 1000.0;
            if red.offer(1500, u) == AqmVerdict::Drop {
                drops_low += 1;
            }
        }
        let mut red = Red::new(1000, 5000, 0.5, 1.0, false);
        for i in 0..1000 {
            let u = (i as f64) / 1000.0;
            if red.offer(4500, u) == AqmVerdict::Drop {
                drops_high += 1;
            }
        }
        assert!(
            drops_high > drops_low * 2,
            "deeper queue should drop more: {drops_low} vs {drops_high}"
        );
    }

    #[test]
    fn red_ewma_smooths() {
        let mut red = Red::new(1000, 5000, 0.1, 0.01, false);
        // A single spike barely moves a slow average.
        red.offer(100, 0.5);
        red.offer(100_000, 0.5);
        assert!(red.avg_queue() < 2000.0, "avg {}", red.avg_queue());
    }
}
