//! Measurement utilities shared by every experiment.
//!
//! Everything here is plain data: streaming mean/min/max ([`Welford`]), a
//! [`TimeSeries`] recorder, and Jain's fairness index. The log-linear
//! latency histogram is `edp_telemetry::LogHistogram`.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Streaming mean, minimum and maximum (Welford's online mean update).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample; 0 when empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// `Default` must match [`Welford::new`] — a derived default would zero
/// the min/max sentinels and silently report `min() == 0` forever.
impl Default for Welford {
    fn default() -> Self {
        Welford::new()
    }
}

/// A `(time, value)` series recorder with simple summary queries.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a point. Times must be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t.as_nanos() >= last, "time series going backwards");
        }
        self.points.push((t.as_nanos(), v));
    }

    /// All points as `(ns, value)`.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no point was recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Time-weighted average of the (step-wise) signal over its span.
    ///
    /// Treats the series as piecewise constant between samples; returns the
    /// plain mean when the span is degenerate.
    pub fn time_weighted_mean(&self) -> f64 {
        if self.points.len() < 2 {
            return self.points.first().map(|&(_, v)| v).unwrap_or(0.0);
        }
        let mut acc = 0.0;
        let mut dur = 0.0;
        for w in self.points.windows(2) {
            let dt = (w[1].0 - w[0].0) as f64;
            acc += w[0].1 * dt;
            dur += dt;
        }
        if dur == 0.0 {
            let s: f64 = self.points.iter().map(|&(_, v)| v).sum();
            s / self.points.len() as f64
        } else {
            acc / dur
        }
    }
}

/// Jain's fairness index over per-entity allocations: 1.0 is perfectly
/// fair, `1/n` is maximally unfair. Empty input yields 1.0.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn welford_default_tracks_min_like_new() {
        let mut w = Welford::default();
        w.add(2200.0);
        w.add(81100.0);
        assert_eq!(w.min(), 2200.0, "default must not zero the min sentinel");
        assert_eq!(w.max(), 81100.0);
    }

    /// The experiments' latency histogram (`LogHistogram`) keeps its
    /// quantiles and mean within bucket error over a wide range.
    #[test]
    fn histogram_quantile_bounded_error() {
        let mut h = edp_telemetry::LogHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p50 = h.p50() as f64;
        assert!(
            (p50 - 50_000.0).abs() / 50_000.0 < 0.07,
            "p50 {p50} off by more than bucket error"
        );
        let p99 = h.p99() as f64;
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.07, "p99 {p99}");
        assert!((h.mean() - 50_000.5).abs() < 1.0);
    }

    #[test]
    fn time_series_weighted_mean() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_nanos(0), 10.0);
        ts.push(SimTime::from_nanos(10), 0.0);
        ts.push(SimTime::from_nanos(30), 0.0);
        // 10 for 10 ns, 0 for 20 ns => 100/30.
        assert!((ts.time_weighted_mean() - 100.0 / 30.0).abs() < 1e-12);
        assert_eq!(ts.points()[0], (0, 10.0));
        assert_eq!(ts.len(), 3);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn time_series_rejects_backwards() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_nanos(5), 1.0);
        ts.push(SimTime::from_nanos(4), 1.0);
    }

    #[test]
    fn jain_extremes() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let unfair = jain_fairness(&[4.0, 0.0, 0.0, 0.0]);
        assert!((unfair - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }
}
