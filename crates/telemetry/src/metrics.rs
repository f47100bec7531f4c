//! The unified metrics registry: named counters, gauges, and log-linear
//! histograms keyed by `(name, scope)`, with Prometheus-text and JSON
//! exporters.
//!
//! Scopes identify the component a metric belongs to — `sw0` for a
//! switch, `sw0:p2` for a port, `net` for the substrate. Storage is
//! `BTreeMap`-backed so every export walks metrics in one deterministic
//! order regardless of registration order.

use std::collections::BTreeMap;

/// A log-linear histogram for non-negative values, HDR-style with 16
/// sub-buckets per octave (relative error ~6% across the full `u64`
/// range). Mirrors `edp_evsim::stats::Histogram`, re-implemented here so
/// the telemetry crate stays dependency-free at the bottom of the
/// workspace.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

const SUB_BITS: u32 = 4; // 16 sub-buckets per power of two.

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; (64 << SUB_BITS) as usize],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v < (1 << SUB_BITS) {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) & ((1 << SUB_BITS) - 1)) as u32;
        (((msb - SUB_BITS + 1) << SUB_BITS) + sub) as usize
    }

    fn bucket_low(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < (1 << SUB_BITS) {
            return idx;
        }
        let octave = (idx >> SUB_BITS) - 1;
        let sub = idx & ((1 << SUB_BITS) - 1);
        ((1 << SUB_BITS) | sub) << octave
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of recorded values; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]`, within bucket resolution.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q}");
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_low(i).min(self.max);
            }
        }
        self.max
    }

    /// Shorthand for the median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Shorthand for the 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// The unified metrics registry.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<(String, String), u64>,
    gauges: BTreeMap<(String, String), i64>,
    histograms: BTreeMap<(String, String), LogHistogram>,
}

fn key(name: &str, scope: &str) -> (String, String) {
    (name.to_string(), scope.to_string())
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `name` in `scope` (registering it on first use).
    pub fn add_counter(&mut self, name: &str, scope: &str, n: u64) {
        let c = self.counters.entry(key(name, scope)).or_insert(0);
        *c = c.saturating_add(n);
    }

    /// Sets counter `name` in `scope` to an absolute value (used when
    /// publishing component-owned counters like `EventSwitchCounters`).
    pub fn set_counter(&mut self, name: &str, scope: &str, v: u64) {
        self.counters.insert(key(name, scope), v);
    }

    /// Current value of a counter; 0 if never registered.
    pub fn counter(&self, name: &str, scope: &str) -> u64 {
        self.counters.get(&key(name, scope)).copied().unwrap_or(0)
    }

    /// Sets gauge `name` in `scope`.
    pub fn set_gauge(&mut self, name: &str, scope: &str, v: i64) {
        self.gauges.insert(key(name, scope), v);
    }

    /// Raises gauge `name` in `scope` to `v` if `v` is larger (high-water
    /// marks like staleness bounds).
    pub fn gauge_max(&mut self, name: &str, scope: &str, v: i64) {
        let g = self.gauges.entry(key(name, scope)).or_insert(i64::MIN);
        *g = (*g).max(v);
    }

    /// Current value of a gauge; `None` if never set.
    pub fn gauge(&self, name: &str, scope: &str) -> Option<i64> {
        self.gauges.get(&key(name, scope)).copied()
    }

    /// Records `v` into histogram `name` in `scope`.
    pub fn observe(&mut self, name: &str, scope: &str, v: u64) {
        self.histograms
            .entry(key(name, scope))
            .or_default()
            .record(v);
    }

    /// The histogram registered as `name` in `scope`, if any.
    pub fn histogram(&self, name: &str, scope: &str) -> Option<&LogHistogram> {
        self.histograms.get(&key(name, scope))
    }

    /// All counters, sorted by `(name, scope)`.
    pub fn counters(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.counters
            .iter()
            .map(|((n, s), v)| (n.as_str(), s.as_str(), *v))
    }

    /// All gauges, sorted by `(name, scope)`.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &str, i64)> {
        self.gauges
            .iter()
            .map(|((n, s), v)| (n.as_str(), s.as_str(), *v))
    }

    /// All histograms, sorted by `(name, scope)`.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &str, &LogHistogram)> {
        self.histograms
            .iter()
            .map(|((n, s), h)| (n.as_str(), s.as_str(), h))
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds another registry into this one: counters add, gauges take
    /// the later value, histogram buckets merge.
    pub fn merge(&mut self, other: &Registry) {
        for ((n, s), v) in &other.counters {
            let c = self.counters.entry((n.clone(), s.clone())).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for ((n, s), v) in &other.gauges {
            self.gauges.insert((n.clone(), s.clone()), *v);
        }
        for ((n, s), h) in &other.histograms {
            let mine = self.histograms.entry((n.clone(), s.clone())).or_default();
            for (i, c) in h.counts.iter().enumerate() {
                mine.counts[i] += c;
            }
            mine.total += h.total;
            mine.sum += h.sum;
            mine.max = mine.max.max(h.max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let mut r = Registry::new();
        r.add_counter("rx", "sw0", 3);
        r.add_counter("rx", "sw0", 2);
        r.set_counter("tx", "sw0", 7);
        r.set_gauge("occ_bytes", "sw0:p1", 1500);
        r.gauge_max("staleness", "sw0", 4);
        r.gauge_max("staleness", "sw0", 2);
        assert_eq!(r.counter("rx", "sw0"), 5);
        assert_eq!(r.counter("tx", "sw0"), 7);
        assert_eq!(r.counter("nope", "sw0"), 0);
        assert_eq!(r.gauge("occ_bytes", "sw0:p1"), Some(1500));
        assert_eq!(r.gauge("staleness", "sw0"), Some(4));
    }

    #[test]
    fn counter_saturates() {
        let mut r = Registry::new();
        r.set_counter("c", "s", u64::MAX - 1);
        r.add_counter("c", "s", 10);
        assert_eq!(r.counter("c", "s"), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_bounded_error() {
        let mut r = Registry::new();
        for v in 1..=10_000u64 {
            r.observe("lat", "sw0", v);
        }
        let h = r.histogram("lat", "sw0").unwrap();
        assert_eq!(h.count(), 10_000);
        let p50 = h.p50() as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.07, "p50 {p50}");
        assert_eq!(h.max(), 10_000);
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.add_counter("rx", "sw0", 1);
        b.add_counter("rx", "sw0", 2);
        b.add_counter("rx", "sw1", 5);
        a.observe("lat", "sw0", 10);
        b.observe("lat", "sw0", 20);
        a.merge(&b);
        assert_eq!(a.counter("rx", "sw0"), 3);
        assert_eq!(a.counter("rx", "sw1"), 5);
        let h = a.histogram("lat", "sw0").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 20);
    }
}
