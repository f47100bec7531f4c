//! `edp_exp` — regenerate the paper's tables, figures and experiments.
//!
//! ```sh
//! edp_exp all                 # every experiment, as docs/experiment_output.txt
//! edp_exp table1 exp_ndp      # just the named reports
//! ```

use edp_bench::exp::EXPERIMENTS;

fn fail(msg: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "edp_exp: {msg}\nusage: edp_exp all | edp_exp <name>...\nnames: {}",
        names.join(" ")
    );
    std::process::exit(2);
}

fn lookup(arg: &str) -> fn() {
    match EXPERIMENTS.iter().find(|(name, _)| *name == arg) {
        Some(&(_, run)) => run,
        None => fail(&format!("unknown experiment `{arg}`")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["all"] {
        for (name, run) in EXPERIMENTS {
            println!("## {name}");
            run();
            println!();
        }
        return;
    }
    // Resolve every name before running any, so a typo prints no report.
    let picked: Vec<fn()> = args.iter().map(|arg| lookup(arg)).collect();
    if picked.is_empty() {
        fail("no experiment named");
    }
    for run in picked {
        run();
    }
}
