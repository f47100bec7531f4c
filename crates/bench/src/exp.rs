//! The paper reproduction: one module per table, figure and §5 experiment,
//! registered in [`EXPERIMENTS`] and run by the `edp_exp` binary.
//!
//! Every experiment prints a deterministic report to stdout;
//! `docs/experiment_output.txt` is `edp_exp all`, byte for byte, and
//! `tests/reproduction.rs` pins each section of it.

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

/// Every experiment as `(name, entry point)`, in the order of the
/// sections of `docs/experiment_output.txt`.
pub const EXPERIMENTS: &[(&str, fn())] = &[
    ("table1", table1::run),
    ("table2", table2::run),
    ("table3", table3::run),
    ("fig2_microburst", fig2_microburst::run),
    ("fig3_staleness", fig3_staleness::run),
    ("fig4_pipeline", fig4_pipeline::run),
    ("exp_microburst", exp_microburst::run),
    ("exp_hula", exp_hula::run),
    ("exp_cms_reset", exp_cms_reset::run),
    ("exp_liveness", exp_liveness::run),
    ("exp_timewindow", exp_timewindow::run),
    ("exp_aqm", exp_aqm::run),
    ("exp_frr", exp_frr::run),
    ("exp_policer", exp_policer::run),
    ("exp_netcache", exp_netcache::run),
    ("exp_scheduler", exp_scheduler::run),
    ("exp_ndp", exp_ndp::run),
    ("exp_int_reduce", exp_int_reduce::run),
    ("exp_emulation", exp_emulation::run),
    ("ablation_cms", ablation_cms::run),
];
