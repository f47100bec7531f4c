//! Table 3 — FPGA cost of event support on a Virtex-7.
//!
//! Prints the resource-model reproduction next to the paper's reported
//! numbers. The target is the *shape*: every class ≤ ~2%, BRAM dominant.

use crate::{f2, footnote, table_header};
use edp_resources::{baseline_sume_switch, sume_event_switch, table3, VIRTEX7_690T};

pub fn run() {
    let dev = VIRTEX7_690T;
    println!("device: {}", dev.name);
    println!(
        "  totals: {} LUTs, {} FFs, {} BRAM blocks",
        dev.totals.luts, dev.totals.ffs, dev.totals.brams
    );

    let base = baseline_sume_switch();
    let event = sume_event_switch();
    println!("\nconfigurations:");
    for d in [&base, &event] {
        let t = d.total();
        let (l, f, b) = d.utilization(dev);
        println!(
            "  {:<24} {:>8} LUT ({:>5.1}%)  {:>8} FF ({:>5.1}%)  {:>5} BRAM ({:>5.1}%)",
            d.name, t.luts, l, t.ffs, f, t.brams, b
        );
    }

    table_header(
        "Table 3: cost of adding event support (% of total device)",
        &[("FPGA resource", 16), ("this model", 11), ("paper", 7)],
    );
    for row in table3(dev) {
        println!(
            "{:>16} {:>11} {:>7}",
            row.resource,
            f2(row.increase_pct),
            f2(row.paper_pct)
        );
    }
    footnote(
        "block prices are calibrated to public P4->NetFPGA reference \
         utilization; the reproduced quantity is the delta between the \
         two configurations, which stays ≤ ~2% with BRAM dominant, as \
         in the paper.",
    );
}
