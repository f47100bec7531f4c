//! NDP-style packet trimming from the buffer-overflow event.
//!
//! A burst overruns a small switch buffer. With drop-tail, the victims
//! vanish and the receiver learns nothing. With the event-driven program
//! (one line in `on_overflow`!), every victim is trimmed to its headers
//! and forwarded at high priority, so the receiver knows exactly which
//! packets to pull again.
//!
//! ```sh
//! cargo run --example ndp_trimming
//! ```

use edp_apps::common::{addr, dumbbell, run_until, sink_addr};
use edp_apps::ndp::NdpTrim;
use edp_core::event::OverflowEvent;
use edp_core::{EventActions, EventProgram, EventSwitch, EventSwitchConfig};
use edp_evsim::{Sim, SimTime};
use edp_netsim::traffic::start_burst;
use edp_netsim::Network;
use edp_packet::{Packet, PacketBuilder, ParsedPacket, TRIMMED_DSCP};
use edp_pisa::{QueueConfig, QueueDisc, StdMeta};

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

fn cfg() -> EventSwitchConfig {
    EventSwitchConfig {
        n_ports: 2,
        queue: QueueConfig {
            capacity_bytes: 20_000,
            disc: QueueDisc::StrictPriority { classes: 2 },
            rank0_headroom: 8_000,
        },
        ..Default::default()
    }
}

fn blast(net: &mut Network, sim: &mut Sim<Network>, sender: usize) {
    let src = addr(1);
    start_burst(sim, sender, SimTime::ZERO, 100, move |i| {
        PacketBuilder::udp(src, sink_addr(), 40, 50, &[])
            .ident(i as u16)
            .pad_to(1500)
            .build()
    });
    run_until(net, sim, SimTime::from_millis(50));
}

fn main() {
    println!("=== NDP packet trimming (buffer overflow events) ===");
    println!("burst: 100 x 1500 B into a 20 KB buffer, 100 Mb/s drain\n");

    let (mut net, senders, sink, _) = dumbbell(
        Box::new(EventSwitch::new(NoTrim(NdpTrim::new(1)), cfg())),
        1,
        100_000_000,
        7,
    );
    let mut sim: Sim<Network> = Sim::new();
    blast(&mut net, &mut sim, senders[0]);
    let d_rx = net.hosts[sink].stats.rx_pkts;
    println!(
        "drop-tail  : {d_rx}/100 arrive, {} silent losses",
        100 - d_rx
    );

    let (mut net, senders, sink, _) = dumbbell(
        Box::new(EventSwitch::new(NdpTrim::new(1), cfg())),
        1,
        100_000_000,
        7,
    );
    let mut sim: Sim<Network> = Sim::new();
    net.tracer.enabled = true;
    blast(&mut net, &mut sim, senders[0]);
    let t_rx = net.hosts[sink].stats.rx_pkts;
    let c = net.switch_as::<EventSwitch<NdpTrim>>(0).counters();
    println!(
        "with trim  : {t_rx}/100 arrive ({} full + {} trimmed headers), {} lost",
        t_rx - c.trimmed,
        c.trimmed,
        c.dropped_overflow
    );
    println!("\nfirst trimmed frame on the wire (DSCP {TRIMMED_DSCP} = trim marker):");
    for e in net.tracer.entries() {
        if matches!(e.kind, edp_netsim::TraceKind::Rx { len: 42, .. }) {
            println!("  {}", e.render());
            break;
        }
    }
}
