//! # edp-core — the event-driven PISA architecture
//!
//! The primary contribution of *Event-Driven Packet Processing* (Ibanez,
//! Antichi, Brebner, McKeown — HotNets 2019), reproduced as a software
//! architecture model:
//!
//! * [`EventKind`] / [`Event`] — the thirteen data-plane events of
//!   Table 1, with typed payloads;
//! * [`EventProgram`] — the event-driven programming model: one handler
//!   per event, sharing state through ordinary program fields or the
//!   [`SharedRegister`] extern from `microburst.p4`;
//! * [`EventSwitch`] — the SUME Event Switch (Figure 4): the full
//!   architecture delivering every event to the program. It is the only
//!   switch model: the baseline PSA switch is
//!   [`EventSwitch::baseline`], the same switch running a baseline
//!   program, so the two models differ *only* in what they expose;
//! * [`EventMerger`] — the Figure 4 block that piggybacks event metadata
//!   on packets or injects carrier frames, modelled at cycle granularity;
//! * [`AggregatedState`] — the §4/Figure 3 single-ported realization of
//!   shared state with aggregation registers, idle-cycle folding and
//!   measurable, bounded staleness;
//! * [`BaselineAdapter`] — embeds any baseline program unchanged,
//!   witnessing that the baseline model is a strict subset (§8).
//!
//! ## Example: the paper's microburst program, condensed
//!
//! ```
//! use edp_core::{Accessor, EventActions, EventProgram, SharedRegister};
//! use edp_core::event::{EnqueueEvent, DequeueEvent};
//! use edp_evsim::SimTime;
//! use edp_packet::{Packet, ParsedPacket};
//! use edp_pisa::{Destination, StdMeta};
//!
//! struct Microburst {
//!     buf_size: SharedRegister,
//!     threshold: u64,
//!     culprits: u64,
//! }
//!
//! impl EventProgram for Microburst {
//!     fn on_ingress(&mut self, _p: &mut Packet, parsed: &ParsedPacket,
//!                   meta: &mut StdMeta, _now: SimTime, _a: &mut EventActions) {
//!         let flow = parsed.flow_key().map(|k| k.ip_pair_index(self.buf_size.size()));
//!         if let Some(flow) = flow {
//!             // Stage enq/deq metadata, read occupancy, detect culprit.
//!             meta.event_meta = [flow as u64, meta.pkt_len as u64, 0, 0];
//!             if self.buf_size.read(Accessor::Packet, flow) > self.threshold {
//!                 self.culprits += 1;
//!             }
//!         }
//!         meta.dest = Destination::Port(1);
//!     }
//!     fn on_enqueue(&mut self, ev: &EnqueueEvent, _now: SimTime, _a: &mut EventActions) {
//!         self.buf_size.add(Accessor::Enqueue, ev.meta[0] as usize, ev.meta[1]);
//!     }
//!     fn on_dequeue(&mut self, ev: &DequeueEvent, _now: SimTime, _a: &mut EventActions) {
//!         self.buf_size.sub(Accessor::Dequeue, ev.meta[0] as usize, ev.meta[1]);
//!     }
//! }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggreg;
pub mod effects;
pub mod event;
pub mod manifest;
mod merger;
mod program;
mod shared;
mod sume;

pub use aggreg::{
    run_staleness_experiment, AggregConfig, AggregatedState, MergeOp, StalenessReport,
};
pub use effects::{EffectSummary, EmitFootprint};
pub use event::{Event, EventCounters, EventKind};
pub use manifest::{AppManifest, LintAllow};
pub use merger::{EventMerger, MergerConfig, MergerStats};
pub use program::{BaselineAdapter, EventActions, EventProgram};
pub use shared::{Accessor, SharedRegister};
pub use sume::{
    CpNotification, EventSwitch, EventSwitchConfig, EventSwitchCounters, PacketGenConfig,
    TimerSpec, MAX_CASCADE_DEPTH, MAX_RECIRCULATIONS,
};
