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
//! * **One closed event type per world.** A [`World`] names the events
//!   its queue holds; they sit inline in the scheduler's slab. Closure
//!   worlds (integers, `()`, `Vec<T>`, pairs) queue [`Closure`]s.
//! * **Explicit randomness.** All stochastic inputs flow from [`SimRng`]
//!   seeds; named streams ([`SimRng::stream`]) keep components independent.
//!
//! ```
//! use edp_evsim::{Sim, SimDuration, SimTime};
//!
//! // A world counting timer ticks: each tick re-arms itself 10 µs on.
//! fn tick(n: &mut u32, sim: &mut Sim<u32>) {
//!     *n += 1;
//!     sim.rearm_at(sim.now() + SimDuration::from_micros(10), tick);
//! }
//! let mut sim: Sim<u32> = Sim::new();
//! sim.schedule_at(SimTime::from_micros(10), tick);
//! let mut ticks = 0;
//! sim.run_until(&mut ticks, SimTime::from_millis(1));
//! assert_eq!(ticks, 100);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod parallel;
mod rng;
pub mod shard;
mod sim;
pub mod stats;
mod time;

pub use parallel::{default_threads, sweep};
pub use rng::{SimRng, Zipf};
pub use shard::{drive_windows, safe_horizon, DriveStats, HorizonMode, WindowSync};
pub use sim::{Closure, EventId, Sim, World, UNKEYED};
pub use stats::{jain_fairness, TimeSeries, Welford};
pub use time::{Cycles, SimDuration, SimTime};
