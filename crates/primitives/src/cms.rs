//! Count-min sketch (Cormode & Muthukrishnan, 2005).
//!
//! The paper's running example of state that must be *periodically reset*:
//! on a baseline PISA device the control plane has to clear the counters,
//! while an event-driven device resets from a timer event in the data
//! plane. The sketch itself is the same either way — `edp-apps::cms_reset`
//! compares the two reset paths.

use serde::{Deserialize, Serialize};

/// A count-min sketch over `u64` keys with saturating `u64` counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    rows: Vec<Vec<u64>>,
    /// Row seeds; one independent hash stream per row.
    seeds: Vec<u64>,
    items: u64,
}

impl CountMinSketch {
    /// Creates a sketch with `width` counters per row and `depth` rows.
    ///
    /// Error bound: with probability ≥ 1 − (1/2)^depth, the estimate
    /// overshoots the true count by at most 2·N/width, where N is the total
    /// number of increments.
    pub fn new(width: usize, depth: usize) -> Self {
        assert!(width > 0 && depth > 0, "degenerate sketch {width}x{depth}");
        CountMinSketch {
            width,
            depth,
            rows: vec![vec![0; width]; depth],
            seeds: (0..depth as u64)
                .map(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1) ^ 0xD6E8_FEB8_6659_FD93)
                .collect(),
            items: 0,
        }
    }

    fn bucket(&self, row: usize, key: u64) -> usize {
        // SplitMix-style finalizer keyed by the row seed: cheap, uniform,
        // deterministic across platforms.
        let mut z = key ^ self.seeds[row];
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % self.width as u64) as usize
    }

    /// Adds `count` to `key`.
    pub fn update(&mut self, key: u64, count: u64) {
        for row in 0..self.depth {
            let b = self.bucket(row, key);
            let c = &mut self.rows[row][b];
            *c = c.saturating_add(count);
        }
        self.items = self.items.saturating_add(count);
    }

    /// Point estimate for `key` (an overestimate, never an underestimate).
    pub fn query(&self, key: u64) -> u64 {
        (0..self.depth)
            .map(|row| self.rows[row][self.bucket(row, key)])
            .min()
            .expect("depth > 0")
    }

    /// Zeroes every counter (the periodic reset the paper talks about).
    pub fn reset(&mut self) {
        for row in &mut self.rows {
            row.fill(0);
        }
        self.items = 0;
    }

    /// Total increments since the last reset.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Memory footprint in counter words (what Table 3's BRAM cost prices).
    pub fn state_words(&self) -> usize {
        self.width * self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_underestimates() {
        let mut cms = CountMinSketch::new(64, 4);
        for k in 0..200u64 {
            cms.update(k, k + 1);
        }
        for k in 0..200u64 {
            assert!(cms.query(k) > k, "underestimate for {k}");
        }
    }

    #[test]
    fn exact_when_sparse() {
        let mut cms = CountMinSketch::new(1024, 4);
        cms.update(42, 7);
        cms.update(43, 3);
        assert_eq!(cms.query(42), 7);
        assert_eq!(cms.query(43), 3);
        assert_eq!(cms.query(44), 0);
    }

    #[test]
    fn reset_clears() {
        let mut cms = CountMinSketch::new(16, 2);
        cms.update(1, 100);
        assert!(cms.query(1) >= 100);
        cms.reset();
        assert_eq!(cms.query(1), 0);
        assert_eq!(cms.items(), 0);
    }

    #[test]
    fn error_bound_holds_statistically() {
        // 10k increments into a 256-wide sketch: estimates should stay
        // within 2*N/width = ~78 of truth for almost all keys.
        let mut cms = CountMinSketch::new(256, 4);
        let n_keys = 1000u64;
        for k in 0..n_keys {
            cms.update(k, 10);
        }
        let n_total = 10 * n_keys;
        let bound = 2 * n_total / 256;
        let violations = (0..n_keys).filter(|&k| cms.query(k) > 10 + bound).count();
        assert!(
            violations < (n_keys as usize) / 16,
            "{violations} of {n_keys} exceed the CMS error bound"
        );
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut cms = CountMinSketch::new(4, 1);
        cms.update(1, u64::MAX);
        cms.update(1, 10);
        assert_eq!(cms.query(1), u64::MAX);
    }

    #[test]
    fn state_words() {
        assert_eq!(CountMinSketch::new(64, 4).state_words(), 256);
    }

    #[test]
    #[should_panic]
    fn zero_width_panics() {
        CountMinSketch::new(0, 2);
    }
}
