//! Property-based tests for the data-plane primitives' invariants.

use edp_primitives::{Color, CountMinSketch, TimerTokenBucket, TokenBucket, WindowRate};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    /// CMS point queries never underestimate, for any update sequence.
    #[test]
    fn cms_never_underestimates(
        width in 8usize..256,
        depth in 1usize..6,
        ops in prop::collection::vec((0u64..64, 1u64..1000), 1..300),
    ) {
        let mut cms = CountMinSketch::new(width, depth);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(k, c) in &ops {
            cms.update(k, c);
            *truth.entry(k).or_insert(0) += c;
        }
        for (&k, &t) in &truth {
            prop_assert!(cms.query(k) >= t, "key {} under truth {}", k, t);
        }
        prop_assert_eq!(cms.items(), ops.iter().map(|&(_, c)| c).sum::<u64>());
    }

    /// CMS reset makes everything exactly zero.
    #[test]
    fn cms_reset_total(ops in prop::collection::vec((0u64..100, 1u64..50), 1..100)) {
        let mut cms = CountMinSketch::new(64, 3);
        for &(k, c) in &ops {
            cms.update(k, c);
        }
        cms.reset();
        for &(k, _) in &ops {
            prop_assert_eq!(cms.query(k), 0);
        }
    }

    /// Token bucket conformance never exceeds rate × time + burst.
    #[test]
    fn token_bucket_rate_bound(
        rate in 1_000u64..10_000_000,
        burst in 100u64..100_000,
        arrivals in prop::collection::vec((1u64..10_000, 1u64..5_000), 1..300),
    ) {
        let mut tb = TokenBucket::new(rate, burst);
        let mut now = 0u64;
        let mut green_bytes = 0u64;
        for &(gap_us, bytes) in &arrivals {
            now += gap_us * 1000;
            if tb.offer(now, bytes) == Color::Green {
                green_bytes += bytes;
            }
        }
        let elapsed_s = now as f64 / 1e9;
        let bound = rate as f64 * elapsed_s + burst as f64 + 1.0;
        prop_assert!(
            (green_bytes as f64) <= bound,
            "green {} exceeds bound {}",
            green_bytes,
            bound
        );
    }

    /// The timer-refilled bucket obeys the same bound with its quantized
    /// refill schedule.
    #[test]
    fn timer_bucket_rate_bound(
        rate in 10_000u64..10_000_000,
        period_us in 10u64..10_000,
        burst in 1_000u64..100_000,
        n_steps in 10u64..500,
    ) {
        let mut tb = TimerTokenBucket::new(rate, period_us * 1000, burst);
        let mut green = 0u64;
        for step in 0..n_steps {
            if step > 0 {
                tb.refill();
            }
            // Offer an MTU per refill period.
            if tb.offer(1500) == Color::Green {
                green += 1500;
            }
        }
        let elapsed_s = (n_steps * period_us) as f64 / 1e6;
        // One refill quantum of slack: the timer grants bytes in steps.
        let quantum = (rate * period_us / 1_000_000).max(1);
        let bound = rate as f64 * elapsed_s + burst as f64 + quantum as f64;
        prop_assert!((green as f64) <= bound, "green {} bound {}", green, bound);
    }

    /// WindowRate's window total equals the sum of the last N bucket adds.
    #[test]
    fn window_total_is_recent_sum(
        buckets in 2usize..16,
        adds in prop::collection::vec(prop::collection::vec(0u64..10_000, 0..5), 1..60),
    ) {
        let mut w = WindowRate::new(buckets, 1_000_000);
        let mut per_tick: Vec<u64> = Vec::new();
        for tick_adds in &adds {
            let sum: u64 = tick_adds.iter().sum();
            for &a in tick_adds {
                w.add(a);
            }
            per_tick.push(sum);
            w.tick();
        }
        // After the final tick the window holds the last (buckets-1)
        // completed tick-sums (head bucket was just reset).
        let expect: u64 = per_tick.iter().rev().take(buckets - 1).sum();
        prop_assert_eq!(w.window_bytes(), expect);
    }
}
