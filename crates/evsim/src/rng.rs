//! Deterministic randomness for workloads.
//!
//! All stochastic behaviour in the workspace draws from a [`SimRng`] that is
//! seeded explicitly, either directly or as a named stream of one experiment
//! master seed via [`SimRng::stream`]. A named stream gives each component an
//! independent generator, so adding a new consumer of randomness does not
//! perturb existing ones.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded random number generator with networking-flavoured helpers.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives a *stateless* named stream: a pure function of the master
    /// seed and a label path, independent of any RNG's current state.
    ///
    /// `stream` gives every consumer the same generator for the same
    /// `(master, path)` no matter when — or on which thread — it is
    /// constructed. This is the seeding
    /// scheme the fault-injection layer uses: each fault model draws from
    /// `stream(seed, &[FAULT_DOMAIN, link_id, dir])`, so adding a fault to
    /// one link can never perturb another link's impairments or the
    /// workload RNG, and parallel sweeps stay byte-identical.
    ///
    /// The path is folded through SplitMix64, whose output is equidistributed
    /// over `u64` — distinct paths give statistically independent seeds.
    pub fn stream(master: u64, path: &[u64]) -> SimRng {
        let mut s = splitmix64(master);
        for &p in path {
            s = splitmix64(s ^ splitmix64(p));
        }
        SimRng::seed_from_u64(s)
    }

    /// Uniform `u64` in `[lo, hi)`. Panics if the range is empty.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform `usize` in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index(0)");
        self.inner.gen_range(0..n)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// Exponentially distributed value with the given mean (inverse CDF).
    ///
    /// Used for Poisson inter-arrival times. Always finite and positive.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "non-positive mean {mean}");
        // 1 - u in (0, 1]: avoids ln(0).
        let u = 1.0 - self.inner.gen::<f64>();
        -mean * u.ln()
    }
}

/// SplitMix64: one multiply-xorshift round; full-period over `u64`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A Zipf(*n*, *s*) sampler over ranks `0..n` with precomputed CDF.
///
/// Rank 0 is the most popular item. Used to generate skewed flow and key
/// popularity (e.g. NetCache-style workloads where a few keys are hot).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` items with exponent `s` (s = 0 is uniform;
    /// s around 0.9–1.1 matches measured key-value workloads).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero items");
        assert!(s >= 0.0, "negative Zipf exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating error leaving the last bucket slightly < 1.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when there is exactly one rank (degenerate distribution).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Samples a rank in `0..n`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.f64();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("no NaN in CDF"))
        {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0, 1 << 40), b.uniform_u64(0, 1 << 40));
        }
    }

    #[test]
    fn streams_are_pure_functions_of_seed_and_path() {
        let mut a = SimRng::stream(7, &[1, 2, 3]);
        let mut b = SimRng::stream(7, &[1, 2, 3]);
        let va: Vec<u64> = (0..16).map(|_| a.uniform_u64(0, u64::MAX - 1)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.uniform_u64(0, u64::MAX - 1)).collect();
        assert_eq!(va, vb, "same (master, path) must be the same stream");
    }

    #[test]
    fn streams_differ_across_paths_and_masters() {
        let draw = |mut r: SimRng| -> Vec<u64> {
            (0..8).map(|_| r.uniform_u64(0, u64::MAX - 1)).collect()
        };
        let base = draw(SimRng::stream(7, &[1, 2]));
        assert_ne!(base, draw(SimRng::stream(7, &[2, 1])), "path order matters");
        assert_ne!(base, draw(SimRng::stream(7, &[1, 2, 0])), "length matters");
        assert_ne!(base, draw(SimRng::stream(8, &[1, 2])), "master matters");
        assert_ne!(base, draw(SimRng::stream(7, &[])), "empty path differs");
    }

    #[test]
    fn exp_mean_is_close() {
        let mut rng = SimRng::seed_from_u64(42);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| rng.exp(mean)).sum();
        let got = sum / n as f64;
        assert!(
            (got - mean).abs() < 0.2,
            "exp mean {got} too far from {mean}"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "p=0.25 gave {hits}/10000");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = SimRng::seed_from_u64(9);
        let z = Zipf::new(100, 1.0);
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            let r = z.sample(&mut rng);
            counts[r] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 should dominate rank 10");
        assert!(counts[0] > counts[99] * 5, "head vs tail skew missing");
    }

    #[test]
    fn zipf_s0_is_uniformish() {
        let mut rng = SimRng::seed_from_u64(10);
        let z = Zipf::new(4, 0.0);
        let mut counts = vec![0u32; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "uniform bucket {c}");
        }
    }
}
