//! Token-bucket policing.
//!
//! Two implementations of the same policer, mirroring §3 "Traffic
//! Management": [`TokenBucket`] is the fixed-function meter a baseline
//! PISA target exposes as a primitive extern, and [`TimerTokenBucket`] is
//! the paper's alternative — a policer a P4 programmer *builds themselves*
//! from plain registers plus a periodic timer event. The timer variant
//! quantizes refills to the timer period, which is precisely the accuracy
//! trade-off the event period controls.

use serde::{Deserialize, Serialize};

/// Policing verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Color {
    /// Conforming traffic.
    Green,
    /// Non-conforming traffic (drop or deprioritize).
    Red,
}

/// A continuous-time token bucket (fixed-function meter model).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TokenBucket {
    rate_bytes_per_sec: u64,
    burst_bytes: u64,
    tokens: f64,
    last_ns: u64,
}

impl TokenBucket {
    /// Creates a bucket that refills at `rate_bytes_per_sec` with capacity
    /// `burst_bytes`, starting full.
    pub fn new(rate_bytes_per_sec: u64, burst_bytes: u64) -> Self {
        assert!(rate_bytes_per_sec > 0 && burst_bytes > 0);
        TokenBucket {
            rate_bytes_per_sec,
            burst_bytes,
            tokens: burst_bytes as f64,
            last_ns: 0,
        }
    }

    /// Offers a packet of `bytes` at time `now_ns`; consumes tokens and
    /// returns [`Color::Green`] if it conforms.
    pub fn offer(&mut self, now_ns: u64, bytes: u64) -> Color {
        let dt = now_ns.saturating_sub(self.last_ns) as f64 / 1e9;
        self.last_ns = now_ns;
        self.tokens =
            (self.tokens + dt * self.rate_bytes_per_sec as f64).min(self.burst_bytes as f64);
        if self.tokens >= bytes as f64 {
            self.tokens -= bytes as f64;
            Color::Green
        } else {
            Color::Red
        }
    }
}

/// A token bucket built from registers + a periodic timer event.
///
/// The data-plane program keeps `tokens` in a register; the timer handler
/// calls [`TimerTokenBucket::refill`] every period; the packet handler
/// calls [`TimerTokenBucket::offer`]. No fixed-function meter required.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TimerTokenBucket {
    tokens_per_refill: u64,
    burst_bytes: u64,
    tokens: u64,
}

impl TimerTokenBucket {
    /// Creates a timer-driven bucket. `rate_bytes_per_sec` and `period_ns`
    /// determine the per-refill quantum; `burst_bytes` caps accumulation.
    pub fn new(rate_bytes_per_sec: u64, period_ns: u64, burst_bytes: u64) -> Self {
        assert!(rate_bytes_per_sec > 0 && period_ns > 0 && burst_bytes > 0);
        let quantum = (rate_bytes_per_sec as u128 * period_ns as u128 / 1_000_000_000) as u64;
        TimerTokenBucket {
            tokens_per_refill: quantum.max(1),
            burst_bytes,
            tokens: burst_bytes,
        }
    }

    /// The timer-event handler: adds one refill quantum.
    pub fn refill(&mut self) {
        self.tokens = (self.tokens + self.tokens_per_refill).min(self.burst_bytes);
    }

    /// The packet-event handler: consumes tokens if available.
    pub fn offer(&mut self, bytes: u64) -> Color {
        if self.tokens >= bytes {
            self.tokens -= bytes;
            Color::Green
        } else {
            Color::Red
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuous_bucket_enforces_rate() {
        // 1000 B/s, 100 B burst; offer 100 B every 50 ms = 2000 B/s load.
        let mut tb = TokenBucket::new(1000, 100);
        let mut green = 0;
        for i in 0..100u64 {
            if tb.offer(i * 50_000_000, 100) == Color::Green {
                green += 1;
            }
        }
        // 5 s of sim time at 1000 B/s = 5000 B = 50 packets (+burst 1).
        assert!((50..=52).contains(&green), "green {green}");
    }

    #[test]
    fn burst_allows_initial_spike() {
        let mut tb = TokenBucket::new(1, 1000);
        assert_eq!(tb.offer(0, 1000), Color::Green);
        assert_eq!(tb.offer(0, 1), Color::Red);
    }

    #[test]
    fn timer_bucket_matches_continuous_long_run() {
        // Same configuration, coarse 10 ms timer.
        let rate = 125_000u64; // 1 Mb/s
        let mut cont = TokenBucket::new(rate, 3000);
        let mut timer = TimerTokenBucket::new(rate, 10_000_000, 3000);
        let (mut g_cont, mut g_timer) = (0u64, 0u64);
        let mut now = 0u64;
        for step in 0..10_000u64 {
            now += 1_000_000; // 1 ms between packets
            if step % 10 == 9 {
                timer.refill();
            }
            if cont.offer(now, 1500) == Color::Green {
                g_cont += 1;
            }
            if timer.offer(1500) == Color::Green {
                g_timer += 1;
            }
        }
        let diff = (g_cont as i64 - g_timer as i64).unsigned_abs();
        assert!(
            diff * 100 <= g_cont * 5,
            "timer bucket diverges: {g_timer} vs {g_cont}"
        );
    }

    #[test]
    fn timer_bucket_quantum() {
        // 1 MB/s refilled every 1 ms: a refill of an empty bucket admits
        // exactly 1000 bytes.
        let mut tb = TimerTokenBucket::new(1_000_000, 1_000_000, 10_000);
        assert_eq!(tb.offer(10_000), Color::Green);
        tb.refill();
        assert_eq!(tb.offer(1001), Color::Red);
        assert_eq!(tb.offer(1000), Color::Green);
        assert_eq!(tb.offer(1), Color::Red);
    }

    #[test]
    fn timer_bucket_caps_at_burst() {
        let mut tb = TimerTokenBucket::new(1_000_000, 1_000_000, 1500);
        for _ in 0..100 {
            tb.refill();
        }
        assert_eq!(tb.offer(1501), Color::Red);
        assert_eq!(tb.offer(1500), Color::Green);
        assert_eq!(tb.offer(1), Color::Red);
    }

    #[test]
    fn red_when_empty() {
        let mut tb = TimerTokenBucket::new(1000, 1_000_000, 100);
        assert_eq!(tb.offer(100), Color::Green);
        assert_eq!(tb.offer(1), Color::Red);
        tb.refill();
        assert_eq!(tb.offer(1), Color::Green);
    }
}
