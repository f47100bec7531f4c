//! # edp-netsim — the network substrate
//!
//! Topologies of hosts and switches over links with serialization delay,
//! propagation latency, failure schedules, and probabilistic fault
//! injection — everything needed to put the event-driven and baseline
//! switches under realistic, reproducible workloads.
//!
//! * [`Network`] is the simulation world: build a topology with
//!   [`Network::add_switch`] / [`Network::add_host`] /
//!   [`Network::connect`], then run it on a [`edp_evsim::Sim`].
//! * [`SwitchHarness`] erases a switch's program type so one network
//!   holds event-driven and baseline switches alike — both are
//!   `edp_core::EventSwitch`; the baseline's blindness to timers, link
//!   status and the rest is its program's (`BaselineAdapter`), not the
//!   harness's.
//! * [`Host`] endpoints count per-flow statistics and can run small
//!   responders (UDP echo, key-value server).
//! * [`traffic`] provides CBR / Poisson / microburst / on-off generators.
//! * Control-plane round trips are modelled by
//!   [`Network::control_plane_send`] with an explicit channel latency —
//!   the quantity the paper's event-driven designs remove from the
//!   critical path.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod endpoint;
pub mod faults;
mod flow_table;
mod harness;
mod host;
mod link;
mod net;
pub mod replay;
pub mod shard;
mod source;
pub mod trace;
pub mod traffic;

pub use endpoint::{
    start_endpoints, EndpointConfig, EndpointFleet, FleetStats, ENDPOINT_DOMAIN, RESPONSE_SIZES,
};
pub use faults::{FaultPlan, FAULT_DOMAIN};
pub use flow_table::FlowTable;
pub use harness::SwitchHarness;
pub use host::{
    FlowStats, Host, HostApp, HostId, HostStats, ProtoStats, ETH_CLASSES, IP_CLASSES, PORT_CLASSES,
};
pub use link::{
    Deliveries, Delivery, Dir, LinkDirState, LinkFaultModel, LinkFaults, LinkId, LinkSpec,
    LinkState,
};
pub use net::{Endpoint, NetEvent, Network, NodeRef};
pub use replay::start_replay;
pub use shard::{merge_tracers, run_sharded, run_sharded_opts, ShardPlan, ShardStats, SUBWINDOWS};
pub use trace::{TraceEntry, TraceKind, Tracer};
