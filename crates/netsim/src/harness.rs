//! The interface the network drives a switch through.
//!
//! Every switch is an [`EventSwitch`] — a baseline one runs its program
//! through `edp_core::BaselineAdapter` — and [`SwitchHarness`] erases its
//! program type, so a `Network` holds `Box<dyn SwitchHarness>` nodes and
//! tests get the concrete switch back with `Network::switch_as`. The
//! trait's defaults let a wrapper implement only what it needs: a test
//! fake (`MemoWatch` in `net.rs`'s tests) or a decorator that forwards
//! everything (the benchmark's `Timed`).

use edp_core::{CpNotification, EventProgram, EventSwitch};
use edp_evsim::SimTime;
use edp_packet::Packet;
use edp_pisa::PortId;
use std::any::Any;

/// A switch that the network can drive.
///
/// `Send` so finished shard state (the owning [`crate::Network`]) can be
/// handed back across the worker-thread boundary for inspection.
pub trait SwitchHarness: Any + Send {
    /// Number of ports.
    fn n_ports(&self) -> usize;
    /// Deliver an arriving frame.
    fn receive(&mut self, now: SimTime, port: PortId, pkt: Packet);
    /// Deliver a same-instant burst of frames: per-frame
    /// [`SwitchHarness::receive`] calls in arrival order. An override
    /// must stay byte-identical to this unrolled form.
    fn receive_burst(&mut self, now: SimTime, port: PortId, burst: edp_packet::Burst) {
        for pkt in burst {
            self.receive(now, port, pkt);
        }
    }
    /// Pull the next frame for `port` (None if empty or dropped).
    fn transmit(&mut self, now: SimTime, port: PortId) -> Option<Packet>;
    /// True if `port` has queued frames.
    fn has_pending(&self, port: PortId) -> bool;
    /// The ports with queued frames as a bit set over every [`PortId`]:
    /// bit `p % 64` of word `p / 64` is [`SwitchHarness::has_pending`]
    /// of port `p`. The default asks each port in turn; it is compiled
    /// per switch type, so an [`EventSwitch`] reads its TM occupancy
    /// with one virtual call for the whole set.
    fn pending_ports(&self) -> [u64; 4] {
        let mut mask = [0; 4];
        for port in 0..self.n_ports() {
            if self.has_pending(port as PortId) {
                mask[port / 64] |= 1 << (port % 64);
            }
        }
        mask
    }
    /// Fire timers due at or before `now` (default: none).
    fn fire_due_timers(&mut self, _now: SimTime) {}
    /// Earliest pending timer deadline (default: none).
    fn next_timer_due(&self) -> Option<SimTime> {
        None
    }
    /// Notify a link status change (default: ignored).
    fn set_link_status(&mut self, _now: SimTime, _port: PortId, _up: bool) {}
    /// Deliver a control-plane message. It fires a control-plane-triggered
    /// *event*; a baseline program receives it as a P4Runtime-style
    /// management update (`PisaProgram::control_update`). Default: ignored.
    fn control_plane(&mut self, _now: SimTime, _opcode: u32, _args: [u64; 4]) {}
    /// Drain control-plane notifications raised by handlers.
    fn drain_cp(&mut self) -> Vec<CpNotification> {
        Vec::new()
    }
    /// Publish this switch's counters into the unified metrics registry
    /// under `scope` (default: nothing to publish).
    fn publish_metrics(&self, _reg: &mut edp_telemetry::Registry, _scope: &str) {}
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Downcast support (mutable).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<P: EventProgram + 'static> SwitchHarness for EventSwitch<P> {
    fn n_ports(&self) -> usize {
        EventSwitch::n_ports(self)
    }
    fn receive(&mut self, now: SimTime, port: PortId, pkt: Packet) {
        EventSwitch::receive(self, now, port, pkt)
    }
    fn transmit(&mut self, now: SimTime, port: PortId) -> Option<Packet> {
        EventSwitch::transmit(self, now, port)
    }
    fn has_pending(&self, port: PortId) -> bool {
        EventSwitch::has_pending(self, port)
    }
    fn fire_due_timers(&mut self, now: SimTime) {
        EventSwitch::fire_due_timers(self, now);
    }
    fn next_timer_due(&self) -> Option<SimTime> {
        EventSwitch::next_timer_due(self)
    }
    fn set_link_status(&mut self, now: SimTime, port: PortId, up: bool) {
        EventSwitch::set_link_status(self, now, port, up)
    }
    fn control_plane(&mut self, now: SimTime, opcode: u32, args: [u64; 4]) {
        EventSwitch::control_plane(self, now, opcode, args)
    }
    fn drain_cp(&mut self) -> Vec<CpNotification> {
        EventSwitch::drain_cp_notifications(self)
    }
    fn publish_metrics(&self, reg: &mut edp_telemetry::Registry, scope: &str) {
        EventSwitch::publish_metrics(self, reg, scope)
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edp_core::EventSwitchConfig;
    use edp_pisa::{ForwardTo, QueueConfig};

    #[test]
    fn burst_delivery_matches_sequential() {
        use edp_packet::{Burst, PacketBuilder};
        use std::net::Ipv4Addr;
        let frame = |src_port: u16| {
            Packet::anonymous(
                PacketBuilder::udp(
                    Ipv4Addr::new(1, 0, 0, 1),
                    Ipv4Addr::new(1, 0, 0, 2),
                    src_port,
                    6,
                    b"y",
                )
                .pad_to(64)
                .build(),
            )
        };
        // Two flows around a runt: its parse-error drop must be accounted
        // at its arrival position, which only the record stream shows.
        let frames = || {
            vec![
                frame(5),
                frame(5),
                Packet::anonymous(vec![0xde, 0xad, 0xbe]),
                frame(7),
                frame(5),
            ]
        };
        // Every observable of one run: trace render, drained bytes, metrics.
        let observe = |burst: bool| {
            let mut h: Box<dyn SwitchHarness> = Box::new(EventSwitch::baseline(
                ForwardTo(1),
                2,
                QueueConfig::default(),
            ));
            edp_telemetry::enable(edp_telemetry::TelemetryConfig::default());
            if burst {
                h.receive_burst(SimTime::ZERO, 0, Burst::from_frames(frames()));
            } else {
                for f in frames() {
                    h.receive(SimTime::ZERO, 0, f);
                }
            }
            let mut out = Vec::new();
            while let Some(p) = h.transmit(SimTime::from_nanos(9), 1) {
                out.push(p.bytes().to_vec());
            }
            let trace = edp_telemetry::disable().expect("session").render_trace();
            let mut reg = edp_telemetry::Registry::default();
            h.publish_metrics(&mut reg, "sw0");
            (trace, out, edp_telemetry::to_json(&reg))
        };
        let burst = observe(true);
        assert_eq!(burst, observe(false));
        assert_eq!(burst.1.len(), 4, "all but the runt delivered");
        assert!(burst.0.contains("parse_error"), "runt drop is on the trace");
    }

    #[test]
    fn event_harness_exposes_timers() {
        struct Nop;
        impl EventProgram for Nop {}
        let cfg = EventSwitchConfig {
            n_ports: 3,
            timers: vec![edp_core::TimerSpec {
                id: 0,
                period: edp_evsim::SimDuration::from_micros(7),
                start: edp_evsim::SimDuration::from_micros(7),
            }],
            ..Default::default()
        };
        let mut h: Box<dyn SwitchHarness> = Box::new(EventSwitch::new(Nop, cfg));
        assert_eq!(h.next_timer_due(), Some(SimTime::from_micros(7)));
        h.fire_due_timers(SimTime::from_micros(8));
        assert_eq!(h.next_timer_due(), Some(SimTime::from_micros(14)));
    }
}
