//! Exporters: Prometheus text exposition and flat JSON.
//!
//! Both walk the registry's `BTreeMap`s, so output is byte-deterministic
//! for a given registry state. JSON goes through the crate's one writer
//! ([`crate::json`]); names and scopes are escaped, values are integers
//! except histogram means.

use crate::json;
use crate::metrics::Registry;

/// Maps a metric name to a Prometheus-legal name: `edp_` prefix plus the
/// name with every non-`[a-zA-Z0-9_]` byte replaced by `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("edp_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders the registry in Prometheus text exposition format.
pub fn to_prometheus_text(reg: &Registry) -> String {
    let mut out = String::new();
    let mut last_type_line = String::new();
    let mut type_line = |out: &mut String, name: &str, kind: &str| {
        let line = format!("# TYPE {name} {kind}\n");
        if line != last_type_line {
            out.push_str(&line);
            last_type_line = line;
        }
    };
    for (name, scope, v) in reg.counters() {
        let pname = prom_name(name);
        type_line(&mut out, &pname, "counter");
        out.push_str(&format!("{pname}{{scope=\"{scope}\"}} {v}\n"));
    }
    for (name, scope, v) in reg.gauges() {
        let pname = prom_name(name);
        type_line(&mut out, &pname, "gauge");
        out.push_str(&format!("{pname}{{scope=\"{scope}\"}} {v}\n"));
    }
    for (name, scope, h) in reg.histograms() {
        let pname = prom_name(name);
        type_line(&mut out, &pname, "summary");
        for (q, v) in [(0.5, h.p50()), (0.99, h.p99()), (1.0, h.max())] {
            out.push_str(&format!(
                "{pname}{{scope=\"{scope}\",quantile=\"{q}\"}} {v}\n"
            ));
        }
        out.push_str(&format!("{pname}_sum{{scope=\"{scope}\"}} {}\n", h.sum()));
        out.push_str(&format!(
            "{pname}_count{{scope=\"{scope}\"}} {}\n",
            h.count()
        ));
    }
    out
}

/// Renders the registry as one JSON object:
/// `{"counters": [...], "gauges": [...], "histograms": [...]}` with
/// entries sorted by `(name, scope)`.
pub fn to_json(reg: &Registry) -> String {
    let histograms = json::array(reg.histograms().map(|(name, scope, h)| {
        format!(
            "{{\"name\":{},\"scope\":{},\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\"max\":{},\"mean\":{:.3}}}",
            json::string(name),
            json::string(scope),
            h.count(),
            h.sum(),
            h.p50(),
            h.p99(),
            h.max(),
            h.mean()
        )
    }));
    format!(
        "{{\"counters\":{},\"gauges\":{},\"histograms\":{histograms}}}",
        scalars(reg.counters()),
        scalars(reg.gauges())
    )
}

/// Counter or gauge entries as a JSON array of `{name, scope, value}`.
fn scalars<'a, V: std::fmt::Display>(
    entries: impl Iterator<Item = (&'a str, &'a str, V)>,
) -> String {
    json::array(entries.map(|(name, scope, v)| {
        format!(
            "{{\"name\":{},\"scope\":{},\"value\":{v}}}",
            json::string(name),
            json::string(scope)
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Registry {
        let mut r = Registry::new();
        r.add_counter("rx", "sw1", 4);
        r.add_counter("rx", "sw0", 9);
        r.set_gauge("occ_bytes", "sw0:p1", 1500);
        r.observe("sojourn_ns", "sw0:p1", 100);
        r.observe("sojourn_ns", "sw0:p1", 200);
        r
    }

    #[test]
    fn prometheus_text_sorted_and_typed() {
        let text = to_prometheus_text(&sample());
        let sw0 = text.find("edp_rx{scope=\"sw0\"} 9").expect("sw0 counter");
        let sw1 = text.find("edp_rx{scope=\"sw1\"} 4").expect("sw1 counter");
        assert!(sw0 < sw1, "scopes must export in sorted order");
        assert!(text.contains("# TYPE edp_rx counter"));
        assert!(text.contains("# TYPE edp_occ_bytes gauge"));
        assert!(text.contains("# TYPE edp_sojourn_ns summary"));
        assert!(text.contains("edp_sojourn_ns_count{scope=\"sw0:p1\"} 2"));
        assert!(text.contains("edp_sojourn_ns_sum{scope=\"sw0:p1\"} 300"));
    }

    #[test]
    fn json_deterministic_and_parsable_shape() {
        let a = to_json(&sample());
        let b = to_json(&sample());
        assert_eq!(a, b, "export must be deterministic");
        assert!(a.starts_with("{\"counters\":["));
        assert!(a.contains("{\"name\":\"rx\",\"scope\":\"sw0\",\"value\":9}"));
        assert!(a.contains("\"count\":2"));
        assert!(a.contains("\"mean\":150.000"));
        assert!(a.ends_with("]}"));
    }

    #[test]
    fn json_escapes_quotes() {
        let mut r = Registry::new();
        r.add_counter("we\"ird", "s\\cope", 1);
        r.add_counter("l\ni\tne\u{1}", "sw\u{e9}\u{2192}0", 2);
        let j = to_json(&r);
        assert!(j.contains("we\\\"ird"));
        assert!(j.contains("s\\\\cope"));
        // Control characters are spelled `\u00xx` (the bytes `edp_top
        // --json` has always printed); non-ASCII passes through as UTF-8.
        assert!(j.contains(r#"{"name":"l\u000ai\u0009ne\u0001","scope":"swé→0","value":2}"#));
    }
}
