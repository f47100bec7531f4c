//! # edp-bench — table/figure regeneration binaries and benches
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! index) plus Criterion micro/system benches. This library holds the
//! small shared pieces: fixed-width table printing and experiment-scale
//! defaults.
//!
//! Run everything with:
//!
//! ```sh
//! for b in table1 table2 table3 fig2_microburst fig3_staleness \
//!          fig4_pipeline exp_microburst exp_hula exp_cms_reset \
//!          exp_liveness exp_timewindow exp_aqm exp_frr exp_policer \
//!          exp_netcache exp_scheduler exp_ndp exp_int_reduce exp_emulation \
//!          ablation_cms; do
//!   cargo run --release -p edp-bench --bin $b
//! done
//! ```
//!
//! Performance is not measured here: the repo's one benchmark is the
//! standalone package under `benchmark/` (`bash benchmark/run.sh`, with
//! `--smoke`, `--workload W` and `compare A B`; see its README).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod top;

/// Prints a table header: a rule, the column names, another rule.
pub fn table_header(title: &str, cols: &[(&str, usize)]) {
    let width: usize = cols.iter().map(|(_, w)| w + 1).sum();
    println!("\n=== {title} ===");
    println!("{}", "-".repeat(width));
    let mut line = String::new();
    for (name, w) in cols {
        line.push_str(&format!("{name:>w$} ", w = w));
    }
    println!("{line}");
    println!("{}", "-".repeat(width));
}

/// Formats a float cell with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a rate in Mb/s with one decimal.
pub fn mbps(x: f64) -> String {
    format!("{:.1}", x / 1e6)
}

/// A standard footer stating the reproduction target.
pub fn footnote(text: &str) {
    println!("\n  note: {text}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(mbps(12_340_000.0), "12.3");
    }
}
