//! §3 experiment — NDP-style trimming from buffer-overflow events.
//!
//! Sweeps burst size through a small buffer and reports how many packets
//! the receiver learns about: with trimming every overflow victim
//! arrives as a high-priority header; with drop-tail the victims vanish.

use crate::Report;
use edp_apps::common::{Dumbbell, Flow, Scenario};
use edp_apps::ndp::NdpTrim;
use edp_core::event::OverflowEvent;
use edp_core::{EventActions, EventProgram, EventSwitch, EventSwitchConfig};
use edp_evsim::SimTime;
use edp_netsim::SwitchHarness;
use edp_packet::{Packet, ParsedPacket};
use edp_pisa::{QueueConfig, QueueDisc, StdMeta};

const CAPACITY: u64 = 20_000;

#[derive(Debug)]
struct NoTrim(NdpTrim);
impl EventProgram for NoTrim {
    fn on_ingress(
        &mut self,
        p: &mut Packet,
        h: &ParsedPacket,
        m: &mut StdMeta,
        t: SimTime,
        a: &mut EventActions,
    ) {
        self.0.on_ingress(p, h, m, t, a)
    }
    fn on_overflow(&mut self, _e: &OverflowEvent, _t: SimTime, _a: &mut EventActions) {
        self.0.overflows += 1;
    }
}

fn simulate(trim: bool, burst: u64) -> (u64, u64, u64) {
    let cfg = EventSwitchConfig {
        n_ports: 2,
        queue: QueueConfig {
            capacity_bytes: CAPACITY,
            disc: QueueDisc::StrictPriority { classes: 2 },
            rank0_headroom: 8_000,
        },
        ..Default::default()
    };
    let sw: Box<dyn SwitchHarness> = if trim {
        Box::new(EventSwitch::new(NdpTrim::new(1), cfg))
    } else {
        Box::new(EventSwitch::new(NoTrim(NdpTrim::new(1)), cfg))
    };
    let sc = Scenario {
        dumbbell: Dumbbell {
            senders: 1,
            bottleneck_bps: 100_000_000,
            seed: 95,
        },
        flows: vec![Flow::burst(0, SimTime::ZERO, burst, 40, 50, 1500)],
        until: SimTime::from_millis(100),
    };
    let net = sc.run(sw);
    let delivered = net.hosts[sc.sink()].stats.rx_pkts;
    let (trimmed, lost) = if trim {
        let c = net.switch_as::<EventSwitch<NdpTrim>>(0).counters();
        (c.trimmed, c.dropped_overflow)
    } else {
        let c = net.switch_as::<EventSwitch<NoTrim>>(0).counters();
        (c.trimmed, c.dropped_overflow)
    };
    (delivered, trimmed, lost)
}

pub fn run() -> Report {
    let mut report = Report::default();
    report.line("20 KB data buffer + 8 KB header reserve; 1500 B bursts into 100 Mb/s");
    let table = report.table(
        "NDP trimming vs drop-tail: what the receiver learns about",
        &[
            ("burst", 6),
            ("droptail rx", 12),
            ("silent losses", 14),
            ("trim rx", 8),
            ("trimmed", 8),
            ("trim losses", 12),
        ],
    );
    for &burst in &[10u64, 20, 50, 100, 200] {
        let (d_rx, _, d_lost) = simulate(false, burst);
        let (t_rx, t_trim, t_lost) = simulate(true, burst);
        table.row(cells![burst, d_rx, d_lost, t_rx, t_trim, t_lost]);
    }
    report.note(
        "the overflow event plus trim_and_requeue turns every would-be \
         silent loss into a high-priority header the receiver can act on \
         (NDP's pull-based retransmit); drop-tail hides the same losses \
         behind timeouts. Header reserve bounds the rescue capacity: \
         oversized bursts overflow even the header queue eventually.",
    )
}
