//! `edp-benchmark` — the repo's one benchmark (see `../BENCHMARK.json`
//! and `README.md`). `run.sh` builds this binary and forwards to it:
//!
//! ```text
//! edp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! edp-benchmark all [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
//! edp-benchmark compare <base.json> <new.json>
//! ```
//!
//! The first form measures one workload in this process and ends its
//! stdout with one JSON result line (`--trace 0`: end-to-end metrics,
//! `--trace 1`: per-layer metrics). `all` runs that form once per
//! workload and mode, each in its own child process. The exit code is
//! non-zero when a correctness check failed — after everything has been
//! printed.

mod digest;
mod host;
mod json;
mod layers;
mod measure;
mod probe;
mod report;
mod spec;
mod stats;
mod worlds;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

const USAGE: &str = "usage:
  edp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  edp-benchmark all [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
  edp-benchmark compare <base.json> <new.json>";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<u8>,
    smoke: bool,
    out: Option<String>,
    words: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => 0,
                    "1" => 1,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                })
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value("a path")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => a.words.push(arg),
        }
    }
    Ok(a)
}

/// One workload, one mode, in this process. Returns whether it was correct.
fn measure_one(name: &str, a: &Args) -> Result<bool, String> {
    let spec = spec::Spec::load()?;
    let w = worlds::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload `{name}`"))?;
    let seed = a.seed.unwrap_or(1);
    let seconds = a.seconds.unwrap_or(spec.run_seconds);
    let (result, specs) = match a.trace.unwrap_or(0) {
        0 => {
            let (scale, min_reps) = if a.smoke { (w.smoke, 2) } else { (w.full, 3) };
            (
                measure::end_to_end(w, seed, seconds, scale, min_reps),
                &spec.end_to_end,
            )
        }
        _ => {
            let scale = if a.smoke { w.smoke } else { w.traced };
            (layers::per_layer(w, seed, seconds, scale)?, &spec.per_layer)
        }
    };
    let line = result.line(specs)?;
    println!("detail {}", result.detail.render());
    println!("{}", line.render());
    Ok(result.failed == 0)
}

fn main() {
    let outcome = parse_args().and_then(|a| {
        let words: Vec<&str> = a.words.iter().map(String::as_str).collect();
        match (a.workload.as_deref(), words.as_slice()) {
            (Some(name), []) => measure_one(name, &a),
            (None, ["all"]) => {
                report::run_all(a.seed.unwrap_or(1), a.seconds, a.smoke, a.out.clone())
            }
            (None, ["compare", base, new]) => report::compare(base, new),
            _ => Err(USAGE.into()),
        }
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("edp-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
