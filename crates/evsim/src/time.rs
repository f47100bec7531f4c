//! Simulated time.
//!
//! All simulation time in the workspace is expressed in integer nanoseconds
//! wrapped in [`SimTime`] (an instant) and [`SimDuration`] (a span). Using
//! integers keeps event ordering exact and the simulation fully
//! deterministic; `f64` time would make event order depend on rounding.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// An instant in simulated time, in nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

/// A count of clock cycles, the unit of the cycle-granular SUME datapath
/// models (one 5 ns cycle at 200 MHz moves one pipeline word).
pub type Cycles = u64;

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds since simulation start; panics
    /// if it does not fit in `u64` nanoseconds.
    pub const fn from_micros(us: u64) -> Self {
        match us.checked_mul(1_000) {
            Some(ns) => SimTime(ns),
            None => panic!("SimTime overflow"),
        }
    }

    /// Creates an instant from milliseconds since simulation start; panics
    /// if it does not fit in `u64` nanoseconds.
    pub const fn from_millis(ms: u64) -> Self {
        match ms.checked_mul(1_000_000) {
            Some(ns) => SimTime(ns),
            None => panic!("SimTime overflow"),
        }
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Span from an earlier instant to `self`, saturating at zero.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span; used as "forever".
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a span from microseconds; panics if it does not fit in `u64`
    /// nanoseconds.
    pub const fn from_micros(us: u64) -> Self {
        match us.checked_mul(1_000) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration overflow"),
        }
    }

    /// Creates a span from milliseconds; panics if it does not fit in `u64`
    /// nanoseconds.
    pub const fn from_millis(ms: u64) -> Self {
        match ms.checked_mul(1_000_000) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration overflow"),
        }
    }

    /// Creates a span from a floating-point number of seconds (rounded to
    /// the nearest nanosecond). Panics if `s` is negative or too large.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s >= 0.0 && s <= u64::MAX as f64 / 1e9,
            "duration out of range: {s}"
        );
        SimDuration((s * 1e9).round() as u64)
    }

    /// Length of the span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length of the span in seconds, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if the span has zero length.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction of two spans.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The time a given number of bytes occupies on a link of `bits_per_sec`.
    ///
    /// This is the canonical serialization-delay helper used by the link and
    /// queue models. Rounds up so back-to-back packets never overlap.
    pub fn for_bytes_at_rate(bytes: u64, bits_per_sec: u64) -> SimDuration {
        assert!(bits_per_sec > 0, "zero link rate");
        // Below ~2.3 GB the product fits in 64 bits, and a 64-bit divide
        // gives the same quotient without the 128-bit library call.
        if let Some(bit_ns) = bytes.checked_mul(8_000_000_000) {
            return SimDuration(bit_ns.div_ceil(bits_per_sec));
        }
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(bits_per_sec as u128);
        SimDuration(ns.min(u64::MAX as u128) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_millis(2_000).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "SimTime overflow")]
    fn time_constructor_overflow_panics() {
        // 18446744073710 ms is just past u64::MAX ns; it must not wrap.
        let _ = SimTime::from_millis(18_446_744_073_710);
    }

    #[test]
    #[should_panic(expected = "SimDuration overflow")]
    fn duration_constructor_overflow_panics() {
        let _ = SimDuration::from_micros(u64::MAX / 1_000 + 1);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_nanos(100);
        let d = SimDuration::from_nanos(40);
        assert_eq!((t + d).as_nanos(), 140);
        assert_eq!((t + d) - t, d);
        assert_eq!((t - d).as_nanos(), 60);
        assert_eq!((d * 3).as_nanos(), 120);
        assert_eq!((d / 2).as_nanos(), 20);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(30);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a).as_nanos(), 20);
    }

    #[test]
    fn serialization_delay_rounds_up() {
        // 1500 bytes at 10 Gb/s = 1.2 us exactly.
        let d = SimDuration::for_bytes_at_rate(1500, 10_000_000_000);
        assert_eq!(d.as_nanos(), 1_200);
        // 1 byte at 3 bits/s: 8/3 s rounds up.
        let d = SimDuration::for_bytes_at_rate(1, 3);
        assert_eq!(d.as_nanos(), 2_666_666_667);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(7).to_string(), "7ns");
        assert_eq!(SimDuration::from_micros(1).to_string(), "1.000us");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_millis(3_000).to_string(), "3.000s");
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1e-9).as_nanos(), 1);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    #[should_panic]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }
}
