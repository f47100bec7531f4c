//! `edp_lint` — run the static hazard/lint catalog over every built-in
//! app and report structured diagnostics.
//!
//! ```text
//! edp_lint [--json] [--sarif] [--effects] [--deny warnings] [--seed N]
//! ```
//!
//! Exit status: `0` when the gate passes, `1` when lints are denied
//! (any error-severity diagnostic, or active warnings under
//! `--deny warnings` — the CI configuration), `2` on internal failure
//! (bad arguments, malformed invocation). Allowed findings are always
//! printed with their recorded reason — suppression is visible, never
//! silent.

use edp_analyze::{effect_report, lint_app, LintCode, Report, Severity, DEFAULT_SEED};
use edp_apps::registry::builtin_apps;
use edp_telemetry::json;

const HELP: &str = "\
usage: edp_lint [--json] [--sarif] [--effects] [--deny warnings] [--seed N]

Runs the full static analysis catalog (EDP-W001..W008, EDP-E001..E007)
over every registered app.

  --json            structured report on stdout
  --sarif           SARIF 2.1.0 report on stdout (for code-scanning UIs)
  --effects         per-app effect-summary report: observed vs declared
                    vs closure emission footprints, and whether the
                    app's timers certify as emission-free
  --deny warnings   fail (exit 1) on active warnings, not just errors
  --seed N          seed for the randomized merge-op sweep

exit codes:
  0  gate passed
  1  lints denied (errors, or warnings under --deny warnings)
  2  internal failure (bad arguments)";

struct Options {
    json: bool,
    sarif: bool,
    effects: bool,
    deny_warnings: bool,
    seed: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        sarif: false,
        effects: false,
        deny_warnings: false,
        seed: DEFAULT_SEED,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--sarif" => opts.sarif = true,
            "--effects" => opts.effects = true,
            "--deny" => match args.next().as_deref() {
                Some("warnings") => opts.deny_warnings = true,
                other => {
                    return Err(format!(
                        "--deny takes `warnings`, got {}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            "--seed" => {
                let v = args.next().ok_or("--seed takes a number")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

struct AppResult {
    name: String,
    source: Option<&'static str>,
    report: Report,
}

fn print_json(results: &[AppResult]) {
    let apps = json::array(results.iter().map(|r| {
        let diagnostics = json::array(r.report.diagnostics.iter().map(|d| {
            format!(
                "{{\"code\":{},\"name\":{},\"severity\":{},\"subject\":{},\"message\":{}}}",
                json::string(d.code.code()),
                json::string(d.code.name()),
                json::string(d.code.severity().name()),
                json::string(&d.subject),
                json::string(&d.message),
            )
        }));
        let allowed = json::array(r.report.allowed.iter().map(|(d, reason)| {
            format!(
                "{{\"code\":{},\"subject\":{},\"reason\":{}}}",
                json::string(d.code.code()),
                json::string(&d.subject),
                json::string(reason),
            )
        }));
        format!(
            "{{\"name\":{},\"diagnostics\":{diagnostics},\"allowed\":{allowed}}}",
            json::string(&r.name)
        )
    }));
    let errors: usize = results.iter().map(|r| r.report.errors()).sum();
    let warnings: usize = results.iter().map(|r| r.report.warnings()).sum();
    let allowed: usize = results.iter().map(|r| r.report.allowed.len()).sum();
    println!(
        "{{\"apps\":{apps},\"summary\":{{\"errors\":{errors},\"warnings\":{warnings},\"allowed\":{allowed}}}}}"
    );
}

/// SARIF 2.1.0: one run, one rule per catalogued lint code, one result
/// per active diagnostic. Allowed findings are emitted as notes with an
/// `"inSource"` suppression carrying the reason, so scanning UIs show the
/// acknowledged hazards without failing on them.
fn print_sarif(results: &[AppResult]) {
    let rules = json::array(LintCode::ALL.iter().map(|code| {
        format!(
            "{{\"id\":{},\"name\":{},\"defaultConfiguration\":{{\"level\":{}}}}}",
            json::string(code.code()),
            json::string(code.name()),
            json::string(code.severity().name()),
        )
    }));
    // One result object; `rest` is rendered members after the location.
    let result = |code: LintCode, level: &str, text: String, uri: &str, rest: String| {
        format!(
            "{{\"ruleId\":{},\"level\":{},\"message\":{{\"text\":{}}},\"locations\":\
             [{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":{}}}}}}}]{rest}}}",
            json::string(code.code()),
            json::string(level),
            json::string(&text),
            json::string(uri),
        )
    };
    let findings = json::array(results.iter().flat_map(|r| {
        let uri = r.source.unwrap_or("crates/apps/src/registry.rs");
        let active = r.report.diagnostics.iter().map(move |d| {
            let text = format!("{}: {}: {}", d.app, d.subject, d.message);
            result(d.code, d.code.severity().name(), text, uri, String::new())
        });
        let allowed = r.report.allowed.iter().map(move |(d, reason)| {
            let text = format!("{}: {}: allowed", d.app, d.subject);
            let suppression = format!(
                ",\"suppressions\":[{{\"kind\":\"inSource\",\"justification\":{}}}]",
                json::string(reason)
            );
            result(d.code, "note", text, uri, suppression)
        });
        active.chain(allowed)
    }));
    println!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"version\":\"2.1.0\",\
         \"runs\":[{{\"tool\":{{\"driver\":{{\"name\":\"edp_lint\",\"informationUri\":\"DESIGN.md\",\
         \"rules\":{rules}}}}},\"results\":{findings}}}]}}"
    );
}

fn print_human(results: &[AppResult]) {
    for r in results {
        if r.report.diagnostics.is_empty() && r.report.allowed.is_empty() {
            continue;
        }
        println!("{}:", r.name);
        for d in &r.report.diagnostics {
            println!("  {d}");
        }
        for (d, reason) in &r.report.allowed {
            println!(
                "  allowed [{} {}] {}: {}",
                d.code.code(),
                d.code.name(),
                d.subject,
                reason
            );
        }
    }
}

/// The `--effects` view: observed vs declared vs closure footprints per
/// kind, per app, plus whether the app's timer cascade certifies as
/// emission-free (`timers certified local`; no engine reads it).
fn print_effects() {
    for mut app in builtin_apps() {
        let rep = effect_report(app.program.as_mut(), &app.manifest);
        let world = if rep.closed_world {
            "closed world"
        } else {
            "open world"
        };
        let timer = if rep.timer_local {
            "timers certified local"
        } else {
            "timers horizon-bound"
        };
        println!("{} ({world}, {timer}):", rep.app);
        println!(
            "  {:<16} {:<12} {:<12} {:<12}",
            "event", "observed", "declared", "closure"
        );
        for row in &rep.rows {
            println!(
                "  {:<16} {:<12} {:<12} {:<12}",
                row.kind.name(),
                row.observed.to_string(),
                row.declared.to_string(),
                row.closure.to_string(),
            );
        }
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("edp_lint: {e}");
            std::process::exit(2);
        }
    };

    if opts.effects {
        print_effects();
        return;
    }

    let mut results: Vec<AppResult> = Vec::new();
    for mut app in builtin_apps() {
        let report = lint_app(app.program.as_mut(), &app.manifest, opts.seed);
        results.push(AppResult {
            name: app.manifest.name.to_string(),
            source: app.manifest.source,
            report,
        });
    }

    let errors: usize = results.iter().map(|r| r.report.errors()).sum();
    let warnings: usize = results.iter().map(|r| r.report.warnings()).sum();
    let allowed: usize = results.iter().map(|r| r.report.allowed.len()).sum();

    if opts.sarif {
        print_sarif(&results);
    } else if opts.json {
        print_json(&results);
    } else {
        print_human(&results);
        let worst = results
            .iter()
            .flat_map(|r| r.report.diagnostics.iter())
            .map(|d| d.code.severity())
            .max();
        let verdict = match worst {
            Some(Severity::Error) => "FAIL",
            Some(Severity::Warning) if opts.deny_warnings => "FAIL (denied warnings)",
            _ => "ok",
        };
        println!(
            "edp_lint: {} apps analyzed, {errors} errors, {warnings} warnings, \
             {allowed} allowed — {verdict}",
            results.len()
        );
    }

    if errors > 0 || (opts.deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
}
