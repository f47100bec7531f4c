//! The paper reproduction, pinned: every experiment returns a `Report`,
//! `edp_exp` renders it, and every `## <name>` section of
//! `docs/experiment_output.txt` is, byte for byte, what `edp_exp <name>`
//! prints. The reports are modelled results (no wall-clock), identical in
//! debug and release and for every `EDP_SWEEP_THREADS`, so
//! a diff here means a change moved the paper's numbers. If it was meant
//! to, regenerate the archive — never hand-edit it — and explain the
//! diff in CHANGES.md:
//!
//! ```sh
//! cargo run --release -p edp-bench --bin edp_exp -- all > docs/experiment_output.txt
//! ```

use edp_bench::exp::EXPERIMENTS;
use std::process::Command;

const EDP_EXP: &str = env!("CARGO_BIN_EXE_edp_exp");
const ARCHIVE: &str = include_str!("../../../docs/experiment_output.txt");

/// `(name, report)` for every `## name` section of the archive, in file
/// order, without the blank line `edp_exp all` puts after each report.
fn sections() -> Vec<(&'static str, String)> {
    let mut out: Vec<(&str, String)> = Vec::new();
    for line in ARCHIVE.lines() {
        match line.strip_prefix("## ") {
            Some(name) => out.push((name, String::new())),
            None => {
                let report = &mut out.last_mut().expect("archive starts with `## <name>`").1;
                report.push_str(line);
                report.push('\n');
            }
        }
    }
    for (name, report) in &mut out {
        assert_eq!(report.pop(), Some('\n'), "{name}: section is empty");
    }
    out
}

fn pin(name: &str) {
    let (_, want) = sections()
        .into_iter()
        .find(|(section, _)| *section == name)
        .unwrap_or_else(|| panic!("no `## {name}` section in docs/experiment_output.txt"));
    let out = Command::new(EDP_EXP)
        .arg(name)
        .output()
        .expect("spawn edp_exp");
    assert!(
        out.status.success(),
        "edp_exp {name}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("reports are UTF-8");
    if got == want {
        return;
    }
    let same = got.lines().zip(want.lines()).take_while(|(g, w)| g == w);
    let line = same.count();
    panic!(
        "{name}: report differs from docs/experiment_output.txt at line {} of the section\n  \
         archive: {:?}\n  edp_exp: {:?}\n\
         if intended: `cargo run --release -p edp-bench --bin edp_exp -- all > \
         docs/experiment_output.txt` and explain the diff in CHANGES.md",
        line + 1,
        want.lines().nth(line),
        got.lines().nth(line),
    );
}

/// One `#[test]` per experiment (the harness runs them in parallel), and
/// the list of them for the coverage check below.
macro_rules! pins {
    ($($name:ident)*) => {
        const PINNED: &[&str] = &[$(stringify!($name)),*];
        $(
            #[test]
            fn $name() {
                pin(stringify!($name));
            }
        )*
    };
}

pins! {
    table1 table2 table3 fig2_microburst fig3_staleness fig4_pipeline
    exp_microburst exp_hula exp_cms_reset exp_liveness exp_timewindow
    exp_aqm exp_frr exp_policer exp_netcache exp_scheduler exp_ndp
    exp_int_reduce exp_emulation ablation_cms
}

#[test]
fn archive_sections_are_exactly_the_registered_experiments() {
    let registered: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let headers: Vec<&str> = sections().iter().map(|(name, _)| *name).collect();
    assert_eq!(
        headers, registered,
        "archive sections must be the registered experiments, in order"
    );
    assert_eq!(
        PINNED, registered,
        "every registered experiment needs its pin in this file"
    );
}

#[test]
fn unknown_experiment_exits_2_and_lists_names() {
    for args in [&[][..], &["no_such_experiment"], &["table1", "all"]] {
        let out = Command::new(EDP_EXP)
            .args(args)
            .output()
            .expect("spawn edp_exp");
        assert_eq!(out.status.code(), Some(2), "edp_exp {args:?}");
        assert!(out.stdout.is_empty(), "edp_exp {args:?} ran something");
        let usage = String::from_utf8_lossy(&out.stderr);
        for (name, _) in EXPERIMENTS {
            assert!(usage.contains(name), "edp_exp {args:?}: {name} not listed");
        }
    }
}
