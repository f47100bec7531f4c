//! # edp-primitives — data-plane algorithm building blocks
//!
//! The stateful structures the paper's applications are made of, each a
//! small register-backed algorithm a P4 program could express:
//!
//! * [`CountMinSketch`] — frequency estimation with periodic reset
//!   (the paper's control-plane-overhead running example);
//! * [`WindowRate`] / [`Ewma`] — time-window functions built from timer
//!   events (§5 "Time-Windowed Network Measurement");
//! * [`TokenBucket`] / [`TimerTokenBucket`] — fixed-function vs.
//!   build-it-yourself-from-timer-events policing (§3);
//! * [`Red`] — the AQM controller fed by enqueue/dequeue signals;
//! * [`Pifo`] — the programmable scheduler substrate (§3).
//!
//! Everything is deterministic; types that need randomness take the
//! uniform variate as an argument instead of owning an RNG.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod aqm;
mod cms;
mod meter;
mod pifo;
mod window;

pub use aqm::{AqmVerdict, Red};
pub use cms::CountMinSketch;
pub use meter::{Color, TimerTokenBucket, TokenBucket};
pub use pifo::{Pifo, PifoPush};
pub use window::{Ewma, WindowRate};
