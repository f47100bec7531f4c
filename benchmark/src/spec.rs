//! `BENCHMARK.json` as the program sees it, and the result line every
//! measurement prints. The file is the single source of metric names,
//! units, directions and bounds; nothing here repeats them.

use crate::json::Json;

/// Directory of this package (`benchmark/`): the repo root is its parent,
/// outputs go to its `out/`.
pub const DIR: &str = env!("CARGO_MANIFEST_DIR");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// True when larger is better.
    pub higher_better: bool,
    /// Share of the baseline median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the program uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
    /// Seconds one run measures.
    pub run_seconds: f64,
}

impl Spec {
    /// Reads `BENCHMARK.json` from the repo root.
    pub fn load() -> Result<Spec, String> {
        let path = format!("{DIR}/../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        Spec::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Parses the file's text.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            doc.get(key)
                .ok_or(format!("missing `{key}`"))?
                .items()
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("{key}: metric without `{k}`"))
                    };
                    Ok(MetricSpec {
                        name: s("name")?,
                        unit: s("unit")?,
                        higher_better: s("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: doc
                .get("workloads")
                .ok_or("missing `workloads`")?
                .items()
                .iter()
                .filter_map(|w| w.get("name")?.as_str().map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing `run_seconds`")?,
        })
    }
}

/// What one measurement (one workload, one `--trace` mode) produced.
#[derive(Debug)]
pub struct RunResult {
    /// Packets injected over all measured repetitions.
    pub attempted: u64,
    /// Packets conservation cannot account for, plus every packet of a
    /// repetition whose `sim_digest` was wrong.
    pub failed: u64,
    /// `(name, value)` of every reported metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// Everything else worth keeping: samples, dispersion, digests,
    /// fingerprint. Goes to the result file, not the result line.
    pub detail: Json,
}

impl RunResult {
    /// The run's final stdout line, in the driver's schema (units looked
    /// up in `specs`), checked by [`validate_line`] before it is returned.
    pub fn line(&self, specs: &[MetricSpec]) -> Result<Json, String> {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let spec = specs
                    .iter()
                    .find(|s| s.name == *name)
                    .ok_or(format!("metric `{name}` is not in BENCHMARK.json"))?;
                Ok((
                    name.to_string(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(spec.unit.as_str())),
                    ]),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let line = Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]);
        validate_line(&line, specs)?;
        Ok(line)
    }
}

/// Checks a result line against the metrics it must carry: exactly the
/// four top-level keys, `attempted` at least 1, every named metric
/// present with its declared unit and a finite value, no unnamed extras.
pub fn validate_line(line: &Json, specs: &[MetricSpec]) -> Result<(), String> {
    let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    if line.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) < 1.0 {
        return Err("`attempted` is below 1".into());
    }
    let metrics = line.get("metrics").map(Json::members).unwrap_or_default();
    for spec in specs {
        let m = line
            .get("metrics")
            .and_then(|m| m.get(&spec.name))
            .ok_or(format!("metric `{}` is missing", spec.name))?;
        if m.get("unit").and_then(Json::as_str) != Some(&spec.unit) {
            return Err(format!("metric `{}` has the wrong unit", spec.name));
        }
        if !m
            .get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite)
        {
            return Err(format!("metric `{}` has no finite value", spec.name));
        }
        if m.members().len() != 2 {
            return Err(format!("metric `{}` has extra keys", spec.name));
        }
    }
    match metrics
        .iter()
        .find(|(k, _)| !specs.iter().any(|s| s.name == *k))
    {
        Some((extra, _)) => Err(format!("metric `{extra}` is not in BENCHMARK.json")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_parses_and_names_every_workload() {
        let spec = Spec::load().expect("BENCHMARK.json");
        let names: Vec<&str> = crate::worlds::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn result_line_rejects_unknown_missing_and_non_finite_metrics() {
        let specs = vec![MetricSpec {
            name: "wall_s".into(),
            unit: "s".into(),
            higher_better: false,
            bound: Some(0.1),
        }];
        let mut r = RunResult {
            attempted: 10,
            failed: 0,
            metrics: vec![("wall_s", 1.5)],
            detail: Json::Null,
        };
        let line = r.line(&specs).expect("line").render();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}"#
        );
        r.metrics[0].1 = f64::NAN;
        assert!(r.line(&specs).is_err());
        r.metrics = vec![("other", 1.0)];
        assert!(r.line(&specs).is_err());
        r.metrics.clear();
        assert!(r.line(&specs).is_err());
    }

    #[test]
    fn validation_catches_schema_drift() {
        let specs = vec![MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            higher_better: true,
            bound: Some(0.1),
        }];
        let good = Json::parse(
            r#"{"correct":true,"attempted":5,"failed":0,"metrics":{"m":{"value":1.5,"unit":"u"}}}"#,
        )
        .expect("json");
        assert_eq!(validate_line(&good, &specs), Ok(()));
        for bad in [
            r#"{"correct":true,"attempted":5,"failed":0,"metrics":{}}"#,
            r#"{"correct":true,"attempted":5,"failed":0,"metrics":{"m":{"value":1.5,"unit":"x"}}}"#,
            r#"{"correct":true,"attempted":5,"failed":0,"metrics":{"m":{"value":1.5,"unit":"u"},"n":{"value":1,"unit":"u"}}}"#,
            r#"{"correct":true,"attempted":0,"failed":0,"metrics":{"m":{"value":1.5,"unit":"u"}}}"#,
            r#"{"correct":true,"attempted":5,"failed":0,"metrics":{"m":{"value":1.5,"unit":"u","n":3}}}"#,
            r#"{"correct":true,"attempted":5,"failed":0,"metrics":{"m":{"value":1.5,"unit":"u"}},"extra":1}"#,
        ] {
            assert!(
                validate_line(&Json::parse(bad).expect("json"), &specs).is_err(),
                "{bad}"
            );
        }
    }
}
