//! # edp-bench — the paper-reproduction driver, `edp_top` and `pcap_gen`
//!
//! [`exp`] holds one module per table, figure and §5 experiment of the
//! paper (see DESIGN.md §4 for the index) and the one table naming
//! them; the `edp_exp` binary runs them. This library also holds the
//! small shared pieces (fixed-width table printing) and [`top`].
//!
//! ```sh
//! cargo run --release -p edp-bench --bin edp_exp -- all       # docs/experiment_output.txt
//! cargo run --release -p edp-bench --bin edp_exp -- exp_ndp   # one report
//! ```
//!
//! Performance is not measured here: the repo's one benchmark is the
//! standalone package under `benchmark/` (`bash benchmark/run.sh`, with
//! `--smoke`, `--workload W` and `compare A B`; see its README).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exp;
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
