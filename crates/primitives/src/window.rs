//! Time-window functions over a signal.
//!
//! Two estimators back the paper's "Time-Windowed Network Measurement"
//! student project (§5): a bucketed sliding-window rate built from a shift
//! register advanced by timer events, and a classic EWMA for comparison.

use serde::{Deserialize, Serialize};

/// A sliding-window byte-rate estimator: `n_buckets` counters, each
/// covering `bucket_ns`, shifted by a timer event.
///
/// This is exactly the "simple shift register" + timer-event construction
/// from the paper: packets add to the head bucket, each timer tick retires
/// the tail, and the rate is the window sum over the window span.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WindowRate {
    buckets: Vec<u64>,
    head: usize,
    bucket_ns: u64,
    filled: usize,
}

impl WindowRate {
    /// Creates an estimator with `n_buckets` buckets of `bucket_ns` each.
    pub fn new(n_buckets: usize, bucket_ns: u64) -> Self {
        assert!(n_buckets > 0 && bucket_ns > 0, "degenerate window");
        WindowRate {
            buckets: vec![0; n_buckets],
            head: 0,
            bucket_ns,
            filled: 1,
        }
    }

    /// Accounts `bytes` arriving in the current bucket.
    pub fn add(&mut self, bytes: u64) {
        self.buckets[self.head] += bytes;
    }

    /// Advances the window one bucket (call this from the timer event).
    pub fn tick(&mut self) {
        self.head = (self.head + 1) % self.buckets.len();
        self.buckets[self.head] = 0;
        self.filled = (self.filled + 1).min(self.buckets.len());
    }

    /// Total bytes across the window.
    pub fn window_bytes(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Estimated rate in bits per second over the *complete* buckets of
    /// the window. The in-progress head bucket is excluded (it has only
    /// accumulated a fraction of a bucket interval, so including it would
    /// bias the estimate low by up to one bucket's worth); before the
    /// first tick, the head bucket is all there is and is used as-is.
    pub fn rate_bps(&self) -> f64 {
        if self.filled <= 1 {
            let span_ns = self.bucket_ns as f64;
            return self.buckets[self.head] as f64 * 8.0 * 1e9 / span_ns;
        }
        let complete = (self.filled - 1) as u64;
        let bytes = self.window_bytes() - self.buckets[self.head];
        bytes as f64 * 8.0 * 1e9 / (complete * self.bucket_ns) as f64
    }

    /// Window span when fully filled, in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.buckets.len() as u64 * self.bucket_ns
    }

    /// Memory footprint in counter words.
    pub fn state_words(&self) -> usize {
        self.buckets.len()
    }
}

/// Exponentially weighted moving average.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    value: f64,
    primed: bool,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]` (weight
    /// of the newest sample).
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha {alpha} out of range");
        Ewma {
            alpha,
            value: 0.0,
            primed: false,
        }
    }

    /// Feeds a sample and returns the updated average. The first sample
    /// initializes the average directly (no bias toward zero).
    pub fn update(&mut self, x: f64) -> f64 {
        if self.primed {
            self.value += self.alpha * (x - self.value);
        } else {
            self.value = x;
            self.primed = true;
        }
        self.value
    }

    /// Current average (0 before the first sample).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Resets to the unprimed state.
    pub fn reset(&mut self) {
        self.value = 0.0;
        self.primed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_rate_measured_exactly() {
        // 1000 bytes per 1 ms bucket = 8 Mb/s.
        let mut w = WindowRate::new(10, 1_000_000);
        for _ in 0..20 {
            w.add(1000);
            w.tick();
        }
        let rate = w.rate_bps();
        assert!((rate - 8_000_000.0).abs() / 8e6 < 0.15, "rate {rate}");
    }

    #[test]
    fn window_forgets_old_traffic() {
        let mut w = WindowRate::new(4, 1_000_000);
        w.add(1_000_000); // burst in bucket 0
        for _ in 0..4 {
            w.tick();
        }
        assert_eq!(w.window_bytes(), 0, "burst should have aged out");
    }

    #[test]
    fn early_estimates_use_partial_span() {
        let mut w = WindowRate::new(100, 1_000_000);
        w.add(1000);
        // Only 1 bucket filled: span is 1 ms, not 100 ms.
        let rate = w.rate_bps();
        assert!((rate - 8_000_000.0).abs() < 1.0, "rate {rate}");
    }

    #[test]
    fn window_span() {
        let w = WindowRate::new(8, 250_000);
        assert_eq!(w.window_ns(), 2_000_000);
        assert_eq!(w.state_words(), 8);
    }

    #[test]
    fn ewma_first_sample_initializes() {
        let mut e = Ewma::new(0.1);
        assert!(!e.primed);
        assert_eq!(e.update(50.0), 50.0);
        assert!(e.primed);
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.2);
        for _ in 0..100 {
            e.update(10.0);
        }
        assert!((e.value() - 10.0).abs() < 1e-9);
        // Step change converges toward the new level.
        for _ in 0..50 {
            e.update(20.0);
        }
        assert!((e.value() - 20.0).abs() < 0.01);
    }

    #[test]
    fn ewma_reset() {
        let mut e = Ewma::new(0.5);
        e.update(4.0);
        e.reset();
        assert!(!e.primed);
        assert_eq!(e.value(), 0.0);
    }

    #[test]
    #[should_panic]
    fn bad_alpha_panics() {
        Ewma::new(0.0);
    }
}
