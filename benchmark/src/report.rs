//! The whole-benchmark driver and the result-file tools: run every
//! workload in its own child process, check each result line against
//! `BENCHMARK.json`, write one result file, print every metric by name;
//! and compare two result files using only the bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::spec::{validate_line, MetricSpec, Spec, DIR};
use crate::{host, stats};
use std::process::Command;

/// Runs one measurement in a child process and returns
/// `(result line, detail)`.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: u8,
    smoke: bool,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", &trace.to_string()])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let line = lines
        .next()
        .ok_or(format!(
            "{workload}: no output: {}",
            String::from_utf8_lossy(&out.stderr)
        ))
        .and_then(|l| Json::parse(l).map_err(|e| format!("{workload}: bad result line: {e}")))?;
    let detail = lines
        .find_map(|l| l.strip_prefix("detail "))
        .and_then(|d| Json::parse(d).ok())
        .unwrap_or(Json::Null);
    Ok((line, detail))
}

fn metric_value(line: &Json, name: &str) -> f64 {
    line.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// Runs the whole benchmark. Returns `Ok(true)` when every workload was
/// correct; the result file and the printed tables are complete either
/// way.
pub fn run_all(
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
    out: Option<String>,
) -> Result<bool, String> {
    let spec = Spec::load()?;
    let seconds = seconds.unwrap_or(if smoke { 0.2 } else { spec.run_seconds });
    let load_before = host::loadavg();
    let mut noisy = load_before > host::cores() as f64 - 0.5;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    let mut layer_rows: Vec<Vec<f64>> = vec![Vec::new(); spec.per_layer.len()];
    for w in &spec.workloads {
        let (e2e, e2e_detail) = child(w, seed, seconds, 0, smoke)?;
        validate_line(&e2e, &spec.end_to_end).map_err(|e| format!("{w} end-to-end: {e}"))?;
        let (layers, layers_detail) = child(w, seed, seconds, 1, smoke)?;
        validate_line(&layers, &spec.per_layer).map_err(|e| format!("{w} per-layer: {e}"))?;
        for side in [&e2e, &layers] {
            all_correct &= side.get("correct") == Some(&Json::Bool(true));
        }
        println!(
            "{w}  (seed {seed}, {} repetitions, sim_digest {})",
            e2e_detail
                .get("repetitions")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            e2e_detail
                .get("sim_digest")
                .and_then(Json::as_str)
                .unwrap_or("?"),
        );
        for m in &spec.end_to_end {
            let d = e2e_detail.get(&m.name);
            let stat = |k: &str| d.and_then(|d| d.get(k)).and_then(Json::as_f64);
            print!(
                "  {:<14} {:>16.6} {:<6}",
                m.name,
                metric_value(&e2e, &m.name),
                m.unit
            );
            if let (Some(med), Some(min), Some(max), Some(mad), Some(n)) = (
                stat("median"),
                stat("min"),
                stat("max"),
                stat("mad"),
                stat("n"),
            ) {
                print!("  median {med:.6}  min {min:.6}  max {max:.6}  MAD {mad:.6}  n {n}");
                noisy |= mad / med > m.bound.unwrap_or(f64::INFINITY);
            }
            println!();
        }
        let failed = e2e.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let attempted = e2e
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        println!(
            "  {:<14} {:>16.6} (failed {failed} of {attempted} packets)",
            "failed_frac",
            failed / attempted
        );
        for (row, m) in layer_rows.iter_mut().zip(&spec.per_layer) {
            row.push(metric_value(&layers, &m.name));
        }
        let with_detail = |line: Json, detail: Json| match line {
            Json::Obj(mut m) => {
                m.push(("detail".into(), detail));
                Json::Obj(m)
            }
            other => other,
        };
        workloads.push((
            w.clone(),
            Json::obj([
                ("end_to_end", with_detail(e2e, e2e_detail)),
                ("per_layer", with_detail(layers, layers_detail)),
            ]),
        ));
    }
    println!("\nper-layer metrics (0 = layer not exercised by that workload)");
    print!("{:<36}{:<7}", "", "unit");
    for w in &spec.workloads {
        print!("{w:>18}");
    }
    println!();
    for (row, m) in layer_rows.iter().zip(&spec.per_layer) {
        print!("{:<36}{:<7}", m.name, m.unit);
        for v in row {
            print!("{v:>18.4}");
        }
        println!();
    }
    println!("\nshare of netsim.hop_ns by crate (the ladder regrouped; see README)");
    print!("{:<43}", "");
    for w in &spec.workloads {
        print!("{w:>18}");
    }
    for layer in ["evsim", "netsim", "core", "pisa", "packet"] {
        print!("\n{layer:<43}");
        for (_, w) in &workloads {
            let v = ["per_layer", "detail", "layer_share", layer]
                .iter()
                .try_fold(w, |j, k| j.get(k))
                .and_then(Json::as_f64);
            print!("{:>18.3}", v.unwrap_or(f64::NAN));
        }
    }
    println!();
    let mut fingerprint = host::fingerprint(load_before);
    if let Json::Obj(m) = &mut fingerprint {
        m.push(("noisy".into(), Json::Bool(noisy)));
    }
    let result = Json::obj([
        ("benchmark", Json::str("edp-benchmark")),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("host", fingerprint),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = out.unwrap_or_else(|| {
        let name = if smoke { "smoke" } else { "result" };
        format!("{DIR}/out/{name}.json")
    });
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, result.pretty()).map_err(|e| format!("{path}: {e}"))?;
    println!("\nhost.noisy = {noisy}; wrote {path}; traces in {DIR}/out/");
    Ok(all_correct)
}

/// The verdict on one (workload, metric) pair of two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the base by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// The run-to-run spread of either side exceeds the bound and the
    /// two sides' samples overlap: the data cannot tell.
    Unresolved,
    /// Worse than the base by more than the bound.
    Regressed,
}

/// Judges `new` against `base` (the reported values; `*_samples` are the
/// repetitions behind them, possibly empty) using the metric's bound.
pub fn judge(
    m: &MetricSpec,
    base: f64,
    new: f64,
    base_samples: &[f64],
    new_samples: &[f64],
) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    // Signed gain as a share of the base: positive = better.
    let gain = if m.higher_better {
        (new - base) / base
    } else {
        (base - new) / base
    };
    let spread = |s: &[f64]| if s.len() < 2 { 0.0 } else { stats::iqr_frac(s) };
    if spread(base_samples).max(spread(new_samples)) > bound {
        // Too noisy to resolve, unless every run of one side beats
        // every run of the other.
        let (b_lo, b_hi) = (stats::min(base_samples), stats::max(base_samples));
        let (n_lo, n_hi) = (stats::min(new_samples), stats::max(new_samples));
        let separated = n_lo > b_hi || n_hi < b_lo;
        if !separated {
            return Verdict::Unresolved;
        }
    }
    if gain > bound {
        Verdict::Improved
    } else if gain < -bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// Prints one row per (workload, end-to-end metric) of two result files.
/// Returns `Ok(false)` if any row regressed.
pub fn compare(base_path: &str, new_path: &str) -> Result<bool, String> {
    let spec = Spec::load()?;
    let read = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (base, new) = (read(base_path)?, read(new_path)?);
    println!("base = {base_path}\nnew  = {new_path}");
    println!(
        "{:<18}{:<13}{:>16}{:>16}{:>10}  {:<11}verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    let mut ok = true;
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let side = |doc: &Json| -> Option<(f64, Vec<f64>)> {
                let e2e = doc.get("workloads")?.get(w)?.get("end_to_end")?;
                let value = e2e.get("metrics")?.get(&m.name)?.get("value")?.as_f64()?;
                let samples = e2e
                    .get("detail")
                    .and_then(|d| d.get(&m.name))
                    .and_then(|d| d.get("samples"))
                    .map(|s| s.items().iter().filter_map(Json::as_f64).collect())
                    .unwrap_or_default();
                Some((value, samples))
            };
            let (Some((b, bs)), Some((n, ns))) = (side(&base), side(&new)) else {
                return Err(format!("{w}/{}: missing from a result file", m.name));
            };
            let verdict = judge(m, b, n, &bs, &ns);
            ok &= verdict != Verdict::Regressed;
            println!(
                "{w:<18}{:<13}{b:>16.6}{n:>16.6}{:>10.4}  {:<11}{}",
                m.name,
                n / b,
                format!(
                    "{:.0}% {}",
                    m.bound.unwrap_or(0.0) * 100.0,
                    if m.higher_better { "higher" } else { "lower" }
                ),
                format!("{verdict:?}").to_lowercase(),
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            higher_better: higher,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let tight = [100.0, 100.5, 99.5, 100.2];
        let m = metric(false);
        assert_eq!(judge(&m, 100.0, 105.0, &tight, &tight), Verdict::Unchanged);
        assert_eq!(judge(&m, 100.0, 115.0, &tight, &tight), Verdict::Regressed);
        assert_eq!(judge(&m, 100.0, 85.0, &tight, &tight), Verdict::Improved);
        let m = metric(true);
        assert_eq!(judge(&m, 100.0, 115.0, &tight, &tight), Verdict::Improved);
        assert_eq!(judge(&m, 100.0, 85.0, &tight, &tight), Verdict::Regressed);
        // No samples (a single-valued metric) means no spread.
        assert_eq!(judge(&m, 100.0, 101.0, &[], &[]), Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sides_separate() {
        let m = metric(false);
        let wide = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&m, 100.0, 130.0, &wide, &wide), Verdict::Unresolved);
        let far = [200.0, 220.0, 240.0, 210.0, 230.0];
        assert_eq!(judge(&m, 100.0, 220.0, &wide, &far), Verdict::Regressed);
    }
}
