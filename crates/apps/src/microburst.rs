//! Microburst-culprit detection — the paper's worked example (§2).
//!
//! Two implementations of the same task, "identify flows that contribute
//! to a sudden, significant increase in buffer usage":
//!
//! * [`MicroburstEvent`] — the `microburst.p4` program: ONE shared
//!   register array tracks exact per-flow buffer occupancy, updated by
//!   enqueue/dequeue events; detection happens in the **ingress** pipeline
//!   *before* the packet is buffered.
//! * [`MicroburstBaseline`] — a Snappy-style baseline (Chen et al. \[3\])
//!   for a baseline PISA switch: because the programming model cannot see
//!   enqueues/dequeues, it keeps FOUR stateful structures in the
//!   **egress** pipeline that *approximate* queue occupancy from packet
//!   timestamps (two alternating byte-count windows, a window-id array,
//!   and a culprit watchlist), and can only flag a packet after it has
//!   already traversed the buffer.
//!
//! The paper's claim: the event-driven version cuts stateful requirements
//! "at least four-fold" and detects before enqueue. `exp_microburst`
//! measures state words, detections, and detection latency for both.

use edp_core::event::{DequeueEvent, EnqueueEvent};
use edp_core::{Accessor, EventActions, EventProgram, SharedRegister};
use edp_evsim::SimTime;
use edp_packet::{Packet, ParsedPacket};
use edp_pisa::{Destination, PisaProgram, PortId, RegisterArray, StdMeta};
use serde::{Deserialize, Serialize};

/// A recorded culprit detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Detection {
    /// When the program flagged the flow.
    pub at: SimTime,
    /// The flow's register index (hash of src·dst).
    pub flow_index: u64,
    /// The occupancy estimate that triggered the detection, in bytes.
    pub occupancy: u64,
}

/// The event-driven microburst program (`microburst.p4`).
#[derive(Debug)]
pub struct MicroburstEvent {
    /// Per-flow buffer occupancy — the single stateful structure.
    pub buf_size: SharedRegister,
    /// Detection threshold in bytes (`FLOW_THRESH`).
    pub threshold: u64,
    /// Output port for all data traffic.
    pub out_port: PortId,
    /// Detections, in time order.
    pub detections: Vec<Detection>,
}

impl MicroburstEvent {
    /// Creates the program with `n_flows` register entries.
    pub fn new(n_flows: usize, threshold: u64, out_port: PortId) -> Self {
        MicroburstEvent {
            buf_size: SharedRegister::new("flowBufSize_reg", n_flows),
            threshold,
            out_port,
            detections: Vec::new(),
        }
    }

    /// Words of stateful storage this design needs.
    pub fn state_words(&self) -> usize {
        self.buf_size.state_words()
    }
}

impl EventProgram for MicroburstEvent {
    fn on_ingress(
        &mut self,
        _pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        _actions: &mut EventActions,
    ) {
        meta.dest = Destination::Port(self.out_port);
        let Some(key) = parsed.flow_key() else {
            return;
        };
        // hash(hdr.ip.src ++ hdr.ip.dst, flowID)
        let flow = key.ip_pair_index(self.buf_size.size());
        // Initialize enq & deq metadata for this packet.
        meta.event_meta = [flow as u64, meta.pkt_len as u64, 0, 0];
        // Read buffer occupancy of this flow; detect microburst culprit
        // BEFORE the packet is enqueued.
        let occ = self.buf_size.read(Accessor::Packet, flow);
        if occ > self.threshold {
            self.detections.push(Detection {
                at: now,
                flow_index: flow as u64,
                occupancy: occ,
            });
        }
    }

    fn on_enqueue(&mut self, ev: &EnqueueEvent, _now: SimTime, _a: &mut EventActions) {
        self.buf_size
            .add(Accessor::Enqueue, ev.meta[0] as usize, ev.meta[1]);
    }

    fn on_dequeue(&mut self, ev: &DequeueEvent, _now: SimTime, _a: &mut EventActions) {
        self.buf_size
            .sub(Accessor::Dequeue, ev.meta[0] as usize, ev.meta[1]);
    }
}

/// The Snappy-style baseline for a baseline PISA switch.
///
/// Approximates per-flow queue occupancy as "bytes of this flow that
/// arrived within the last `window_ns`" using two alternating windows;
/// `window_ns` should be set to the buffer's expected drain time. Runs in
/// egress (the only place a baseline program can correlate with queueing),
/// so a culprit is flagged only after its packets already hogged the
/// buffer.
#[derive(Debug)]
pub struct MicroburstBaseline {
    /// Structure 1: bytes per flow in the current window.
    pub win_cur: RegisterArray,
    /// Structure 2: bytes per flow in the previous window.
    pub win_prev: RegisterArray,
    /// Structure 3: the window id in which a flow was last updated.
    pub last_win: RegisterArray,
    /// Structure 4: culprit watchlist (detection latch per flow).
    pub watchlist: RegisterArray,
    /// Detection threshold in bytes.
    pub threshold: u64,
    /// Window length (≈ buffer drain time).
    pub window_ns: u64,
    /// Output port for all data traffic.
    pub out_port: PortId,
    /// Detections, in time order.
    pub detections: Vec<Detection>,
}

impl MicroburstBaseline {
    /// Creates the baseline with `n_flows` entries per structure.
    pub fn new(n_flows: usize, threshold: u64, window_ns: u64, out_port: PortId) -> Self {
        MicroburstBaseline {
            win_cur: RegisterArray::new("win_cur", n_flows),
            win_prev: RegisterArray::new("win_prev", n_flows),
            last_win: RegisterArray::new("last_win", n_flows),
            watchlist: RegisterArray::new("watchlist", n_flows),
            threshold,
            window_ns,
            out_port,
            detections: Vec::new(),
        }
    }

    /// Words of stateful storage this design needs (4 structures).
    pub fn state_words(&self) -> usize {
        self.win_cur.state_words()
            + self.win_prev.state_words()
            + self.last_win.state_words()
            + self.watchlist.state_words()
    }
}

impl PisaProgram for MicroburstBaseline {
    fn ingress(
        &mut self,
        _pkt: &mut Packet,
        _parsed: &ParsedPacket,
        meta: &mut StdMeta,
        _now: SimTime,
    ) {
        meta.dest = Destination::Port(self.out_port);
    }

    fn egress(
        &mut self,
        _pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
    ) {
        let Some(key) = parsed.flow_key() else {
            return;
        };
        let flow = key.ip_pair_index(self.win_cur.size());
        let win_id = now.as_nanos() / self.window_ns;
        let seen_win = self.last_win.read(flow);
        if seen_win != win_id {
            // Rotate this flow's windows lazily on first touch.
            if seen_win + 1 == win_id {
                let cur = self.win_cur.read(flow);
                self.win_prev.write(flow, cur);
            } else {
                self.win_prev.write(flow, 0);
            }
            self.win_cur.write(flow, 0);
            self.last_win.write(flow, win_id);
        }
        let cur = self.win_cur.add(flow, meta.pkt_len as u64);
        // Occupancy estimate: bytes in roughly one drain time.
        let est = cur + self.win_prev.read(flow) / 2;
        if est > self.threshold && self.watchlist.read(flow) != win_id + 1 {
            self.watchlist.write(flow, win_id + 1);
            self.detections.push(Detection {
                at: now,
                flow_index: flow as u64,
                occupancy: est,
            });
        }
    }
}

/// Footnote 1 of the paper: "If needed, a count-min-sketch data structure
/// can be used to reduce state requirements even further."
///
/// Same event-driven structure as [`MicroburstEvent`] but per-flow
/// occupancy lives in a CMS instead of an exact register array. CMS
/// decrements are handled by updating with the *negated* length via a
/// conservative pair of sketches (one counting enqueued bytes, one
/// dequeued bytes; occupancy = enq − deq), preserving the
/// never-underestimate property for the difference's upper bound.
#[derive(Debug)]
pub struct MicroburstCms {
    /// Bytes enqueued per flow (overestimate).
    pub enq: edp_primitives::CountMinSketch,
    /// Bytes dequeued per flow (overestimate).
    pub deq: edp_primitives::CountMinSketch,
    /// Detection threshold in bytes.
    pub threshold: u64,
    /// Output port.
    pub out_port: PortId,
    /// Detections, in time order (flow_index is the 64-bit flow hash).
    pub detections: Vec<Detection>,
}

impl MicroburstCms {
    /// Creates the sketch-based detector (`width`×`depth` per sketch).
    pub fn new(width: usize, depth: usize, threshold: u64, out_port: PortId) -> Self {
        MicroburstCms {
            enq: edp_primitives::CountMinSketch::new(width, depth),
            deq: edp_primitives::CountMinSketch::new(width, depth),
            threshold,
            out_port,
            detections: Vec::new(),
        }
    }

    /// Words of stateful storage (both sketches).
    pub fn state_words(&self) -> usize {
        self.enq.state_words() + self.deq.state_words()
    }

    fn occupancy(&self, flow_hash: u64) -> u64 {
        self.enq
            .query(flow_hash)
            .saturating_sub(self.deq.query(flow_hash))
    }
}

impl EventProgram for MicroburstCms {
    fn on_ingress(
        &mut self,
        _pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        _actions: &mut EventActions,
    ) {
        meta.dest = Destination::Port(self.out_port);
        let Some(key) = parsed.flow_key() else {
            return;
        };
        let h = key.hash64();
        meta.event_meta = [h, meta.pkt_len as u64, 0, 0];
        let occ = self.occupancy(h);
        if occ > self.threshold {
            self.detections.push(Detection {
                at: now,
                flow_index: h,
                occupancy: occ,
            });
        }
    }

    fn on_enqueue(&mut self, ev: &EnqueueEvent, _now: SimTime, _a: &mut EventActions) {
        self.enq.update(ev.meta[0], ev.meta[1]);
    }

    fn on_dequeue(&mut self, ev: &DequeueEvent, _now: SimTime, _a: &mut EventActions) {
        self.deq.update(ev.meta[0], ev.meta[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{addr, dumbbell, run_until, sink_addr};
    use edp_core::{BaselineAdapter, EventSwitch, EventSwitchConfig};
    use edp_evsim::{Sim, SimDuration};
    use edp_netsim::traffic::{start_burst, start_cbr};
    use edp_netsim::Network;
    use edp_packet::PacketBuilder;
    use edp_pisa::QueueConfig;

    const THRESH: u64 = 20_000; // 20 KB of buffered bytes per flow

    fn queue_cfg() -> QueueConfig {
        QueueConfig {
            capacity_bytes: 200_000,
            ..QueueConfig::default()
        }
    }

    #[test]
    fn event_program_state_is_quarter_of_baseline() {
        let ev = MicroburstEvent::new(256, THRESH, 1);
        let base = MicroburstBaseline::new(256, THRESH, 1_000_000, 1);
        assert_eq!(base.state_words(), 4 * ev.state_words());
    }

    #[test]
    fn event_detector_flags_bursting_flow_only() {
        let cfg = EventSwitchConfig {
            n_ports: 3,
            queue: queue_cfg(),
            ..Default::default()
        };
        let sw = EventSwitch::new(MicroburstEvent::new(256, THRESH, 2), cfg);
        let (mut net, senders, _sink, _) = dumbbell(Box::new(sw), 2, 1_000_000_000, 5);
        let mut sim: Sim<Network> = Sim::new();

        // Sender 0: polite 1500 B packet every 100 us (well under thresh).
        let polite_src = addr(1);
        start_cbr(
            &mut sim,
            senders[0],
            SimTime::ZERO,
            SimDuration::from_micros(100),
            200,
            move |i| {
                PacketBuilder::udp(polite_src, sink_addr(), 10, 20, &[])
                    .ident(i as u16)
                    .pad_to(1500)
                    .build()
            },
        );
        // Sender 1: a 100-packet microburst at t = 5 ms.
        let burst_src = addr(2);
        start_burst(
            &mut sim,
            senders[1],
            SimTime::from_millis(5),
            100,
            move |i| {
                PacketBuilder::udp(burst_src, sink_addr(), 30, 40, &[])
                    .ident(i as u16)
                    .pad_to(1500)
                    .build()
            },
        );

        run_until(&mut net, &mut sim, SimTime::from_millis(30));
        let prog = &net.switch_as::<EventSwitch<MicroburstEvent>>(0).program;
        assert!(!prog.detections.is_empty(), "burst must be detected");
        let burst_flow =
            edp_packet::FlowKey::new(burst_src, sink_addr(), edp_packet::IpProto::Udp, 30, 40)
                .ip_pair_index(256) as u64;
        for d in &prog.detections {
            assert_eq!(
                d.flow_index, burst_flow,
                "only the bursting flow is flagged"
            );
            assert!(d.occupancy > THRESH);
        }
        // Detections start shortly after the burst begins.
        assert!(prog.detections[0].at >= SimTime::from_millis(5));
        assert!(prog.detections[0].at < SimTime::from_millis(7));
    }

    #[test]
    fn event_occupancy_returns_to_zero_after_drain() {
        let cfg = EventSwitchConfig {
            n_ports: 3,
            queue: queue_cfg(),
            ..Default::default()
        };
        let sw = EventSwitch::new(MicroburstEvent::new(64, THRESH, 2), cfg);
        let (mut net, senders, _, _) = dumbbell(Box::new(sw), 2, 1_000_000_000, 6);
        let mut sim: Sim<Network> = Sim::new();
        let src = addr(1);
        start_burst(&mut sim, senders[0], SimTime::ZERO, 20, move |i| {
            PacketBuilder::udp(src, sink_addr(), 1, 2, &[])
                .ident(i as u16)
                .pad_to(1500)
                .build()
        });
        run_until(&mut net, &mut sim, SimTime::from_millis(50));
        let prog = &net.switch_as::<EventSwitch<MicroburstEvent>>(0).program;
        assert_eq!(
            prog.buf_size.nonzero_entries(),
            0,
            "all enqueued bytes were dequeued"
        );
    }

    #[test]
    fn cms_variant_detects_with_less_state() {
        // Footnote 1: a small CMS (2×(64×2) = 256 words here, but scalable
        // to far fewer words than flows) still catches the burst.
        let cfg = EventSwitchConfig {
            n_ports: 3,
            queue: queue_cfg(),
            ..Default::default()
        };
        let sw = EventSwitch::new(MicroburstCms::new(32, 2, THRESH, 2), cfg);
        let (mut net, senders, _, _) = dumbbell(Box::new(sw), 2, 1_000_000_000, 5);
        let mut sim: Sim<Network> = Sim::new();
        let burst_src = addr(2);
        start_burst(
            &mut sim,
            senders[1],
            SimTime::from_millis(5),
            100,
            move |i| {
                PacketBuilder::udp(burst_src, sink_addr(), 30, 40, &[])
                    .ident(i as u16)
                    .pad_to(1500)
                    .build()
            },
        );
        run_until(&mut net, &mut sim, SimTime::from_millis(30));
        let prog = &net.switch_as::<EventSwitch<MicroburstCms>>(0).program;
        assert!(!prog.detections.is_empty(), "CMS variant must detect");
        // 2 sketches × 32 × 2 = 128 words: half of the 256-entry exact
        // register while tracking an unbounded flow id space.
        assert_eq!(prog.state_words(), 128);
        let exact = MicroburstEvent::new(256, THRESH, 2);
        assert!(prog.state_words() < exact.state_words());
    }

    #[test]
    fn baseline_detects_later_than_event_driven() {
        // Same workload into both architectures; compare first-detection time.
        let run = |event: bool| -> (Option<SimTime>, usize) {
            let (mut net, senders, _sink, _) = if event {
                let cfg = EventSwitchConfig {
                    n_ports: 3,
                    queue: queue_cfg(),
                    ..Default::default()
                };
                let sw = EventSwitch::new(MicroburstEvent::new(256, THRESH, 2), cfg);
                dumbbell(Box::new(sw), 2, 1_000_000_000, 9)
            } else {
                let prog = MicroburstBaseline::new(256, THRESH, 240_000, 2);
                dumbbell(
                    Box::new(EventSwitch::baseline(prog, 3, queue_cfg())),
                    2,
                    1_000_000_000,
                    9,
                )
            };
            let mut sim: Sim<Network> = Sim::new();
            let burst_src = addr(2);
            start_burst(
                &mut sim,
                senders[1],
                SimTime::from_millis(1),
                120,
                move |i| {
                    PacketBuilder::udp(burst_src, sink_addr(), 30, 40, &[])
                        .ident(i as u16)
                        .pad_to(1500)
                        .build()
                },
            );
            run_until(&mut net, &mut sim, SimTime::from_millis(20));
            if event {
                let p = &net.switch_as::<EventSwitch<MicroburstEvent>>(0).program;
                (p.detections.first().map(|d| d.at), p.state_words())
            } else {
                let p = &net
                    .switch_as::<EventSwitch<BaselineAdapter<MicroburstBaseline>>>(0)
                    .program
                    .0;
                (p.detections.first().map(|d| d.at), p.state_words())
            }
        };
        let (t_event, words_event) = run(true);
        let (t_base, words_base) = run(false);
        let t_event = t_event.expect("event-driven detected");
        let t_base = t_base.expect("baseline detected");
        assert!(
            t_event <= t_base,
            "event-driven ({t_event}) must not lag baseline ({t_base})"
        );
        assert!(words_base >= 4 * words_event);
    }
}
