//! §3 experiment — policing with a timer-built token bucket.
//!
//! Sweeps the refill period of the register-built policer against the
//! fixed-function meter under a 2× overload. Reproduction target: with a
//! fine timer the DIY policer matches the meter; coarse timers expose the
//! refill-quantization trade-off the programmer now owns (including the
//! burst-smaller-than-quantum cliff).

use crate::{f2, footnote, table_header};
use edp_apps::policer::compare_policers;

pub fn run() {
    println!("policed rate 100 Mb/s, burst 15 KB, offered 200 Mb/s CBR for 100 ms");
    table_header(
        "green-rate error vs refill period (timer policer vs fixed meter)",
        &[
            ("refill period", 14),
            ("timer err %", 12),
            ("meter err %", 12),
            ("quantum (B)", 12),
            ("quantum>burst", 14),
        ],
    );
    for &period_us in &[10u64, 50, 100, 500, 1000, 5000, 10_000] {
        let period_ns = period_us * 1000;
        let (timer_err, meter_err) = compare_policers(period_ns, 19);
        let quantum = 12_500_000u64 * period_ns / 1_000_000_000;
        println!(
            "{:>14} {:>12} {:>12} {:>12} {:>14}",
            format!("{period_us} us"),
            f2(timer_err * 100.0),
            f2(meter_err * 100.0),
            quantum,
            if quantum > 15_000 {
                "YES (cliff)"
            } else {
                "no"
            },
        );
    }
    footnote(
        "the timer policer tracks the fixed-function meter within a few \
         percent until the refill quantum exceeds the bucket depth \
         (rate x period > burst), where refills are clipped and the \
         policer under-delivers — the customization-vs-fidelity knob the \
         paper's build-your-own-meter argument hands to the programmer.",
    );
}
