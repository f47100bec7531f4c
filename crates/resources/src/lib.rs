//! # edp-resources — FPGA resource-cost model (Table 3)
//!
//! The paper demonstrates hardware feasibility by synthesizing the SUME
//! Event Switch for a Xilinx Virtex-7 and reporting that event support
//! costs at most 2% additional device resources (Table 3: +0.5% LUTs,
//! +0.4% flip-flops, +2.0% block RAM). We cannot run Vivado, so this
//! crate reproduces the *accounting*: a per-block price list (calibrated
//! against public P4→NetFPGA reference-switch utilization numbers and the
//! paper's deltas), two switch configurations that differ exactly by the
//! event-machinery blocks of Figure 4, and a report of the percentage
//! increase per resource class.
//!
//! What the model preserves from the paper: the *relative* sizes (BRAM is
//! the dominant cost because event metadata queues and aggregation
//! registers are memories; LUT/FF overhead is small because the event
//! merger and timers are thin shims around an existing pipeline), and the
//! headline "≤ 2% of a Virtex-7" shape. What it does not do: predict
//! synthesis results for arbitrary programs.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use serde::{Deserialize, Serialize};

/// A bundle of FPGA resources.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceVec {
    /// Lookup tables.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// Block RAMs (36 Kb blocks).
    pub brams: u64,
}

impl ResourceVec {
    /// Component-wise sum.
    pub fn plus(self, other: ResourceVec) -> ResourceVec {
        ResourceVec {
            luts: self.luts + other.luts,
            ffs: self.ffs + other.ffs,
            brams: self.brams + other.brams,
        }
    }

    /// Scales by an integer count.
    pub fn times(self, n: u64) -> ResourceVec {
        ResourceVec {
            luts: self.luts * n,
            ffs: self.ffs * n,
            brams: self.brams * n,
        }
    }
}

/// A target FPGA device.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Device {
    /// Device name.
    pub name: &'static str,
    /// Total available resources.
    pub totals: ResourceVec,
}

/// The NetFPGA SUME's FPGA: Virtex-7 XC7V690T.
pub const VIRTEX7_690T: Device = Device {
    name: "Xilinx Virtex-7 XC7V690T",
    totals: ResourceVec {
        luts: 433_200,
        ffs: 866_400,
        brams: 1_470,
    },
};

/// A synthesizable block of the switch datapath.
///
/// Costs are the model's price list. Fixed-infrastructure prices follow
/// the published P4→NetFPGA reference-switch utilization (the reference
/// design uses roughly a third of the device); event-block prices are
/// calibrated so the *delta* between the two shipped configurations
/// reproduces Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Block {
    /// 10G Ethernet MAC + PHY interface (per port).
    TenGigPort,
    /// PCIe/DMA engine for the host path.
    DmaEngine,
    /// Input arbiter merging ports into the pipeline.
    InputArbiter,
    /// Programmable parser.
    Parser,
    /// One match-action stage (tables + ALUs).
    MatchActionStage,
    /// Deparser.
    Deparser,
    /// Output queueing (BRAM-backed packet buffer, per port).
    OutputQueue,
    /// The event merger: gathers events, injects carrier frames.
    EventMerger,
    /// Enqueue/dequeue/drop event taps on the output queues.
    QueueEventTaps,
    /// The timer block (period registers + comparators).
    TimerBlock,
    /// The configurable packet generator.
    PacketGenerator,
    /// Link status monitor (per-port status edge detectors).
    LinkStatusMonitor,
    /// Event metadata bus widening through the pipeline (per stage).
    EventMetadataBus,
    /// Event metadata queues + aggregation register arrays (BRAM).
    EventStateMemory,
}

impl Block {
    /// The price of one instance.
    pub fn cost(self) -> ResourceVec {
        match self {
            Block::TenGigPort => ResourceVec {
                luts: 9_000,
                ffs: 14_000,
                brams: 12,
            },
            Block::DmaEngine => ResourceVec {
                luts: 20_000,
                ffs: 30_000,
                brams: 32,
            },
            Block::InputArbiter => ResourceVec {
                luts: 4_000,
                ffs: 6_000,
                brams: 8,
            },
            Block::Parser => ResourceVec {
                luts: 12_000,
                ffs: 20_000,
                brams: 12,
            },
            Block::MatchActionStage => ResourceVec {
                luts: 14_000,
                ffs: 24_000,
                brams: 48,
            },
            Block::Deparser => ResourceVec {
                luts: 10_000,
                ffs: 16_000,
                brams: 10,
            },
            Block::OutputQueue => ResourceVec {
                luts: 2_500,
                ffs: 5_000,
                brams: 24,
            },
            Block::EventMerger => ResourceVec {
                luts: 550,
                ffs: 700,
                brams: 2,
            },
            Block::QueueEventTaps => ResourceVec {
                luts: 70,
                ffs: 135,
                brams: 0,
            },
            Block::TimerBlock => ResourceVec {
                luts: 150,
                ffs: 250,
                brams: 0,
            },
            Block::PacketGenerator => ResourceVec {
                luts: 260,
                ffs: 330,
                brams: 2,
            },
            Block::LinkStatusMonitor => ResourceVec {
                luts: 40,
                ffs: 60,
                brams: 0,
            },
            Block::EventMetadataBus => ResourceVec {
                luts: 50,
                ffs: 70,
                brams: 0,
            },
            Block::EventStateMemory => ResourceVec {
                luts: 90,
                ffs: 155,
                brams: 5,
            },
        }
    }
}

/// A switch configuration: a bag of blocks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Design {
    /// Configuration name.
    pub name: String,
    blocks: Vec<(Block, u64)>,
}

impl Design {
    /// Creates an empty design.
    pub fn new(name: impl Into<String>) -> Self {
        Design {
            name: name.into(),
            blocks: Vec::new(),
        }
    }

    /// Adds `count` instances of `block`.
    pub fn with(mut self, block: Block, count: u64) -> Self {
        self.blocks.push((block, count));
        self
    }

    /// Total resource cost.
    pub fn total(&self) -> ResourceVec {
        self.blocks
            .iter()
            .fold(ResourceVec::default(), |acc, &(b, n)| {
                acc.plus(b.cost().times(n))
            })
    }

    /// Utilization percentages against a device: (lut%, ff%, bram%).
    pub fn utilization(&self, dev: Device) -> (f64, f64, f64) {
        let t = self.total();
        (
            100.0 * t.luts as f64 / dev.totals.luts as f64,
            100.0 * t.ffs as f64 / dev.totals.ffs as f64,
            100.0 * t.brams as f64 / dev.totals.brams as f64,
        )
    }
}

/// The baseline SUME switch configuration (PSA-shaped, Figure 1): 4×10G
/// ports + DMA, parser, 4 match-action stages, deparser, output queues.
pub fn baseline_sume_switch() -> Design {
    Design::new("SUME baseline switch")
        .with(Block::TenGigPort, 4)
        .with(Block::DmaEngine, 1)
        .with(Block::InputArbiter, 1)
        .with(Block::Parser, 1)
        .with(Block::MatchActionStage, 4)
        .with(Block::Deparser, 1)
        .with(Block::OutputQueue, 5)
}

/// The SUME Event Switch (Figure 4): the baseline plus the event
/// machinery — merger, queue taps, timer, packet generator, link monitor,
/// metadata bus widening per stage, and event state memory.
pub fn sume_event_switch() -> Design {
    let mut d = baseline_sume_switch();
    d.name = "SUME Event Switch".into();
    d.with(Block::EventMerger, 1)
        .with(Block::QueueEventTaps, 5)
        .with(Block::TimerBlock, 1)
        .with(Block::PacketGenerator, 1)
        .with(Block::LinkStatusMonitor, 4)
        .with(Block::EventMetadataBus, 6)
        .with(Block::EventStateMemory, 5)
}

/// One row of the Table 3 report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    /// Resource class name.
    pub resource: &'static str,
    /// Percent of the device the baseline uses.
    pub baseline_pct: f64,
    /// Percent of the device the event switch uses.
    pub event_pct: f64,
    /// The Table 3 quantity: increase as % of total device resources.
    pub increase_pct: f64,
    /// The value the paper reports.
    pub paper_pct: f64,
}

/// Reproduces Table 3 for a device.
pub fn table3(dev: Device) -> Vec<Table3Row> {
    let base = baseline_sume_switch().utilization(dev);
    let event = sume_event_switch().utilization(dev);
    vec![
        Table3Row {
            resource: "Lookup Tables",
            baseline_pct: base.0,
            event_pct: event.0,
            increase_pct: event.0 - base.0,
            paper_pct: 0.5,
        },
        Table3Row {
            resource: "Flip Flops",
            baseline_pct: base.1,
            event_pct: event.1,
            increase_pct: event.1 - base.1,
            paper_pct: 0.4,
        },
        Table3Row {
            resource: "Block RAM",
            baseline_pct: base.2,
            event_pct: event.2,
            increase_pct: event.2 - base.2,
            paper_pct: 2.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_vec_algebra() {
        let a = ResourceVec {
            luts: 1,
            ffs: 2,
            brams: 3,
        };
        let b = ResourceVec {
            luts: 10,
            ffs: 20,
            brams: 30,
        };
        assert_eq!(
            a.plus(b),
            ResourceVec {
                luts: 11,
                ffs: 22,
                brams: 33
            }
        );
        assert_eq!(
            a.times(4),
            ResourceVec {
                luts: 4,
                ffs: 8,
                brams: 12
            }
        );
    }

    #[test]
    fn event_switch_is_superset_of_baseline() {
        let b = baseline_sume_switch().total();
        let e = sume_event_switch().total();
        assert!(e.luts > b.luts);
        assert!(e.ffs > b.ffs);
        assert!(e.brams > b.brams);
    }

    #[test]
    fn table3_shape_matches_paper() {
        // The reproduction target: every increase ≤ ~2.2%, BRAM largest,
        // LUT/FF well under 1%.
        let rows = table3(VIRTEX7_690T);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                r.increase_pct > 0.0 && r.increase_pct <= 2.2,
                "{}: {:.2}%",
                r.resource,
                r.increase_pct
            );
            assert!(
                r.increase_pct <= r.paper_pct * 2.0 && r.increase_pct >= r.paper_pct * 0.3,
                "{}: got {:.2}%, paper {:.2}%",
                r.resource,
                r.increase_pct,
                r.paper_pct
            );
        }
        let bram = &rows[2];
        assert!(
            bram.increase_pct > rows[0].increase_pct && bram.increase_pct > rows[1].increase_pct,
            "BRAM must dominate the event cost"
        );
    }

    #[test]
    fn baseline_uses_plausible_fraction_of_device() {
        let (lut, ff, bram) = baseline_sume_switch().utilization(VIRTEX7_690T);
        assert!((15.0..60.0).contains(&lut), "LUT {lut}%");
        assert!((10.0..60.0).contains(&ff), "FF {ff}%");
        assert!((10.0..60.0).contains(&bram), "BRAM {bram}%");
    }
}
