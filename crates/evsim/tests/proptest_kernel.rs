//! Property-based tests for the simulation kernel's core invariants.

use edp_evsim::{Sim, SimDuration, SimTime, Welford};
use edp_telemetry::LogHistogram;
use proptest::prelude::*;

proptest! {
    /// Events always fire in non-decreasing time order, regardless of the
    /// order they were scheduled in.
    #[test]
    fn events_fire_in_time_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        for &t in &times {
            sim.schedule_at(SimTime::from_nanos(t), move |w: &mut Vec<u64>, _: &mut _| {
                w.push(t)
            });
        }
        let mut fired = Vec::new();
        sim.run(&mut fired);
        prop_assert_eq!(fired.len(), times.len());
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(fired, sorted);
    }

    /// Same-instant events fire in scheduling (FIFO) order.
    #[test]
    fn same_time_fifo(n in 1usize..100, t in 0u64..1000) {
        let mut sim: Sim<Vec<usize>> = Sim::new();
        for i in 0..n {
            sim.schedule_at(SimTime::from_nanos(t), move |w: &mut Vec<usize>, _: &mut _| {
                w.push(i)
            });
        }
        let mut fired = Vec::new();
        sim.run(&mut fired);
        prop_assert_eq!(fired, (0..n).collect::<Vec<_>>());
    }

    /// Cancelling an arbitrary subset prevents exactly that subset.
    #[test]
    fn cancellation_is_exact(
        times in prop::collection::vec(0u64..10_000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 100),
    ) {
        let mut sim: Sim<Vec<usize>> = Sim::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                sim.schedule_at(SimTime::from_nanos(t), move |w: &mut Vec<usize>, _: &mut _| {
                    w.push(i)
                })
            })
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask[i % cancel_mask.len()] {
                sim.cancel(*id);
            } else {
                expect.push(i);
            }
        }
        let mut fired = Vec::new();
        sim.run(&mut fired);
        fired.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(fired, expect);
    }

    /// run_until never fires events beyond the deadline and always leaves
    /// `now == deadline` when it had events left.
    #[test]
    fn run_until_respects_deadline(
        times in prop::collection::vec(1u64..100_000, 1..100),
        deadline in 1u64..100_000,
    ) {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        for &t in &times {
            sim.schedule_at(SimTime::from_nanos(t), move |w: &mut Vec<u64>, _: &mut _| {
                w.push(t)
            });
        }
        let mut fired = Vec::new();
        sim.run_until(&mut fired, SimTime::from_nanos(deadline));
        prop_assert!(fired.iter().all(|&t| t <= deadline));
        prop_assert_eq!(sim.now(), SimTime::from_nanos(deadline));
        prop_assert_eq!(
            fired.len(),
            times.iter().filter(|&&t| t <= deadline).count()
        );
    }

    /// Histogram quantiles are monotone in q and bracket the data.
    #[test]
    fn histogram_quantiles_monotone(values in prop::collection::vec(0u64..1_000_000_000, 1..300)) {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        let mut prev = 0;
        for i in 0..=10 {
            let q = h.quantile(i as f64 / 10.0);
            prop_assert!(q >= prev, "quantiles must be monotone");
            prev = q;
        }
        prop_assert!(h.quantile(1.0) <= max);
        // Bucket resolution bound: p0 can undershoot min by ≤ ~6%.
        prop_assert!(h.quantile(0.0) as f64 >= min as f64 * 0.93 - 1.0);
        prop_assert_eq!(h.max(), max);
    }

    /// Welford's mean matches the naive mean.
    #[test]
    fn welford_mean_matches_naive(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut w = Welford::new();
        for &v in &values {
            w.add(v);
        }
        let naive = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((w.mean() - naive).abs() < 1e-6 * (1.0 + naive.abs()));
    }

    /// Duration arithmetic round-trips through serialization-delay math.
    #[test]
    fn serialization_delay_bounds(bytes in 1u64..100_000, rate in 1_000u64..100_000_000_000) {
        let d = SimDuration::for_bytes_at_rate(bytes, rate);
        let exact_ns = bytes as f64 * 8.0 * 1e9 / rate as f64;
        // Rounds up, never by more than 1 ns.
        prop_assert!(d.as_nanos() as f64 >= exact_ns - 1e-6);
        prop_assert!((d.as_nanos() as f64) < exact_ns + 1.0);
    }

    /// The 64-bit path gives the 128-bit formula's result exactly, on
    /// both sides of the length (2,305,843,009 B) past which `bytes *
    /// 8e9` no longer fits in a `u64`, at every rate.
    #[test]
    fn serialization_delay_matches_the_u128_formula(
        bytes in prop_oneof![0u64..20_000, 2_305_842_960u64..2_305_843_060, any::<u64>()],
        rate in prop_oneof![1u64..1_000, 1_000u64..1_000_000_000_000, any::<u64>().prop_map(|r| r.max(1))],
    ) {
        let want = (bytes as u128 * 8 * 1_000_000_000).div_ceil(rate as u128);
        prop_assert_eq!(
            SimDuration::for_bytes_at_rate(bytes, rate).as_nanos() as u128,
            want.min(u64::MAX as u128)
        );
    }
}
