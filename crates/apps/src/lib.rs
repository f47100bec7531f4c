//! # edp-apps — the paper's applications, event-driven and baseline
//!
//! One module per application the paper discusses, each built twice where
//! the paper draws a comparison: once against the event-driven
//! architecture (`edp-core`) and once against baseline PISA
//! (`edp-pisa`). Table 2's five application classes map to:
//!
//! | Class | Modules | Events used |
//! |---|---|---|
//! | Congestion Aware Forwarding | [`hula`], [`ecn`], [`ndp`] | Timer, Transmit, Enqueue, Dequeue, Overflow |
//! | Network Management | [`frr`], [`liveness`], [`migrate`] | Link Status, Timer, Generated Packet |
//! | Network Monitoring | [`microburst`], [`cms_reset`], [`rate_monitor`], [`int_reduce`] | Enqueue, Dequeue, Overflow, Timer |
//! | Traffic Management | [`fred`], [`policer`], [`scheduler`] | Enqueue, Dequeue, Overflow, Timer |
//! | In-Network Computing | [`netcache`] | Timer, Generated Packet |
//!
//! Every module's tests run the application on a real simulated topology
//! with byte-level packets; `edp_exp` (in `edp-bench`) re-runs them at
//! experiment scale and prints the paper's tables/figures.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cms_reset;
pub mod common;
pub mod ecn;
pub mod fred;
pub mod frr;
pub mod hula;
pub mod int_reduce;
pub mod liveness;
pub mod microburst;
pub mod migrate;
pub mod ndp;
pub mod netcache;
pub mod policer;
pub mod rate_monitor;
pub mod registry;
pub mod scheduler;
