//! The paper reproduction: one module per table, figure and §5 experiment,
//! registered in [`EXPERIMENTS`] and run by the `edp_exp` binary.
//!
//! Every experiment returns a deterministic [`Report`] and prints
//! nothing: `edp_exp` renders the reports, `docs/experiment_output.txt`
//! is `edp_exp all`, byte for byte, `tests/reproduction.rs` pins each
//! section of it, and `tests/claims.rs` reads their cells.

#![deny(clippy::print_stdout, clippy::print_stderr)]

use crate::Report;

mod ablation_cms;
mod exp_aqm;
mod exp_cms_reset;
mod exp_emulation;
mod exp_frr;
mod exp_hula;
mod exp_int_reduce;
mod exp_liveness;
mod exp_microburst;
mod exp_ndp;
mod exp_netcache;
mod exp_policer;
mod exp_scheduler;
mod exp_timewindow;
mod fig2_microburst;
mod fig3_staleness;
mod fig4_pipeline;
mod table1;
mod table2;
mod table3;

/// `(name, entry point)` of each module named, the name being the
/// module's: each name is written once.
macro_rules! registry {
    ($($name:ident)*) => { &[$((stringify!($name), $name::run)),*] };
}

/// An experiment's entry point.
pub type Run = fn() -> Report;

/// Every experiment as `(name, entry point)`, in the order of the
/// sections of `docs/experiment_output.txt`.
pub const EXPERIMENTS: &[(&str, Run)] = registry![
    table1 table2 table3 fig2_microburst fig3_staleness fig4_pipeline
    exp_microburst exp_hula exp_cms_reset exp_liveness exp_timewindow
    exp_aqm exp_frr exp_policer exp_netcache exp_scheduler exp_ndp
    exp_int_reduce exp_emulation ablation_cms
];
