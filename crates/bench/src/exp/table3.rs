//! Table 3 — FPGA cost of event support on a Virtex-7.
//!
//! Prints the resource-model reproduction next to the paper's reported
//! numbers. The target is the *shape*: every class ≤ ~2%, BRAM dominant.

use crate::{f2, Report};
use edp_resources::{baseline_sume_switch, sume_event_switch, table3, ResourceVec, VIRTEX7_690T};

pub fn run() -> Report {
    let dev = VIRTEX7_690T;
    let mut report = Report::default();
    report.line(format!("device: {}", dev.name));
    let ResourceVec { luts, ffs, brams } = dev.totals;
    report.line(format!(
        "  totals: {luts} LUTs, {ffs} FFs, {brams} BRAM blocks"
    ));

    report.blank();
    report.line("configurations:");
    for d in [&baseline_sume_switch(), &sume_event_switch()] {
        let (name, ResourceVec { luts, ffs, brams }) = (&d.name, d.total());
        let (l, f, b) = d.utilization(dev);
        report.line(format!(
            "  {name:<24} {luts:>8} LUT ({l:>5.1}%)  {ffs:>8} FF ({f:>5.1}%)  {brams:>5} BRAM ({b:>5.1}%)"
        ));
    }

    let table = report.table(
        "Table 3: cost of adding event support (% of total device)",
        &[("FPGA resource", 16), ("this model", 11), ("paper", 7)],
    );
    for row in table3(dev) {
        table.row(cells![
            row.resource,
            f2(row.increase_pct),
            f2(row.paper_pct)
        ]);
    }
    report.note(
        "block prices are calibrated to public P4->NetFPGA reference \
         utilization; the reproduced quantity is the delta between the \
         two configurations, which stays ≤ ~2% with BRAM dominant, as \
         in the paper.",
    )
}
