//! # edp-evsim — deterministic discrete-event simulation kernel
//!
//! The foundation of the *Event-Driven Packet Processing* reproduction:
//! every model in the workspace (links, switches, the SUME Event Switch
//! datapath, control-plane agents) runs on this kernel.
//!
//! Design rules, chosen for reproducibility of the paper's experiments:
//!
//! * **Integer time.** [`SimTime`]/[`SimDuration`] are nanoseconds in `u64`;
//!   event order never depends on floating-point rounding.
//! * **Stable ordering.** Events at the same instant fire in scheduling
//!   order ([`Sim`] keeps a FIFO sequence number), so a run is a pure
//!   function of (program, seed).
//! * **Explicit randomness.** All stochastic inputs flow from [`SimRng`]
//!   seeds; forked streams keep components independent.
//! * **Cycle models welcome.** [`ClockDomain`] supports hardware-shaped,
//!   cycle-granular models alongside event-granular ones.
//!
//! ```
//! use edp_evsim::{Sim, SimTime, SimDuration, Periodic};
//!
//! // A world counting timer ticks.
//! let mut sim: Sim<u32> = Sim::new();
//! sim.schedule_periodic(SimTime::from_micros(10), SimDuration::from_micros(10), |n, _| {
//!     *n += 1;
//!     Periodic::Continue
//! });
//! let mut ticks = 0;
//! sim.run_until(&mut ticks, SimTime::from_millis(1));
//! assert_eq!(ticks, 100);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod clock;
mod parallel;
mod rng;
pub mod shard;
mod sim;
pub mod stats;
mod time;

pub use clock::{ClockDomain, Cycles};
pub use parallel::{default_threads, sweep};
pub use rng::{SimRng, Zipf};
pub use shard::{drive_windows, safe_horizon, DriveStats, HorizonMode, WindowSync};
pub use sim::{EventFn, EventId, Periodic, Sim, UNKEYED};
pub use stats::{jain_fairness, percentile, Counter, TimeSeries, Welford};
pub use time::{SimDuration, SimTime};
