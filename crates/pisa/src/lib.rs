//! # edp-pisa — the baseline PISA/PSA data-plane model
//!
//! The substrate the paper *starts from*: a Protocol Independent Switch
//! Architecture with programmable match-action processing, expressed as a
//! typed Rust embedding instead of P4 source. It provides:
//!
//! * [`MatchTable`] — exact / LPM / ternary / range match-action tables;
//! * [`RegisterArray`] — stateful externs with access accounting (memory
//!   bandwidth is the commodity §4 of the paper trades in);
//! * [`StdMeta`] — PSA-style standard metadata, extended with the
//!   program-staged `event_meta` the paper's `enq_meta`/`deq_meta` become;
//! * [`TrafficManager`] — output queues (FIFO / strict priority / PIFO)
//!   that emit [`TmEvent`] records for every enqueue/dequeue/overflow;
//! * [`PisaProgram`] + [`BaselineSwitch`] — the synchronous
//!   packet-by-packet programming model and the PSA switch around it
//!   (Figure 1 of the paper).
//!
//! The deliberate limitation — faithfully reproduced — is that a
//! [`BaselineSwitch`] throws its [`TmEvent`] records away: the baseline
//! programming model has no handler to deliver them to. The event-driven
//! architecture (`edp-core`) is built from these same parts but delivers
//! every event to P4-expressible handlers.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod meta;
pub mod probe;
mod program;
mod register;
mod switch;
mod table;
mod tm;

pub use meta::{Destination, PortId, StdMeta};
pub use probe::{ProbeAccess, ProbeClaim, ProbeClass, ProbeRecord};
pub use program::{ForwardTo, PisaProgram, TableRouter};
pub use register::{PacketByteCounter, RegisterArray};
pub use switch::{BaselineSwitch, SwitchCounters, MAX_RECIRCULATIONS};
pub use table::{
    insert_ipv4_route, ipv4_lpm_schema, FieldMatch, MatchKind, MatchTable, ShapeEntry, TableEntry,
    TableError, TableShape,
};
pub use tm::{QueueConfig, QueueDisc, QueueStats, TmEvent, TrafficManager};
