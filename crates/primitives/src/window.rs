//! A time-window function over a signal.
//!
//! The paper's "Time-Windowed Network Measurement" student project (§5):
//! a bucketed sliding-window rate built from a shift register advanced by
//! timer events.

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
        let bytes = self.buckets.iter().sum::<u64>() - self.buckets[self.head];
        bytes as f64 * 8.0 * 1e9 / (complete * self.bucket_ns) as f64
    }

    /// Memory footprint in counter words.
    pub fn state_words(&self) -> usize {
        self.buckets.len()
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
        // One counter word per bucket of the span.
        assert_eq!(WindowRate::new(8, 250_000).state_words(), 8);
    }
}
