//! # edp-primitives — data-plane algorithm building blocks
//!
//! The stateful structures the paper's applications are made of, each a
//! small register-backed algorithm a P4 program could express:
//!
//! * [`CountMinSketch`] — frequency estimation with periodic reset
//!   (the paper's control-plane-overhead running example);
//! * [`WindowRate`] — a time-window rate built from timer events
//!   (§5 "Time-Windowed Network Measurement");
//! * [`TokenBucket`] / [`TimerTokenBucket`] — fixed-function vs.
//!   build-it-yourself-from-timer-events policing (§3).
//!
//! The one PIFO is the traffic manager's `QueueDisc::Pifo` in `edp-pisa`.
//! Everything is deterministic.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod cms;
mod meter;
mod window;

pub use cms::CountMinSketch;
pub use meter::{Color, TimerTokenBucket, TokenBucket};
pub use window::WindowRate;
