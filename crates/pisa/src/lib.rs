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
//!   whose enqueues, dequeues, overflows and underflows are the paper's
//!   buffer events;
//! * [`PisaProgram`] — the synchronous packet-by-packet programming model
//!   (Figure 1 of the paper): an ingress and an egress control, plus the
//!   `control_update` management channel.
//!
//! There is one switch, and it lives in `edp-core`: the event-driven
//! architecture built from these parts. A baseline switch is that switch
//! running a [`PisaProgram`] through `edp_core::BaselineAdapter`
//! (`EventSwitch::baseline`). The deliberate limitation — faithfully
//! reproduced — is that the adapter gives the program no handler for any
//! buffer or other non-packet event: they still fire, but nothing in the
//! baseline programming model can observe them.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod meta;
pub mod probe;
mod program;
mod register;
mod table;
mod tm;

pub use meta::{Destination, PortId, StdMeta};
pub use probe::{ProbeAccess, ProbeClaim, ProbeClass, ProbeRecord};
pub use program::{ForwardTo, PisaProgram, TableRouter};
pub use register::RegisterArray;
pub use table::{
    insert_ipv4_route, ipv4_lpm_schema, FieldMatch, MatchKind, MatchTable, ShapeEntry, TableEntry,
    TableError, TableShape,
};
pub use tm::{QueueConfig, QueueDisc, QueueStats, TrafficManager};
