//! Exposition formats: Prometheus text format and a JSON snapshot.
//!
//! Both walk the registry once under its lock and render from the same
//! collected values, so a JSON snapshot and a Prometheus exposition taken
//! back-to-back describe the same instant per metric. Ordering is the
//! registry's deterministic `(name, label)` sort, which makes the output
//! suitable for golden tests.

use crate::histogram::{bucket_le, BUCKET_COUNT};
use crate::registry::Registry;

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn escape_json(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders `registry` in the Prometheus text exposition format
/// (`# HELP` / `# TYPE` comments, one sample per line, histograms as
/// cumulative `_bucket{le=...}` series plus `_sum` and `_count`).
pub fn prometheus_text(registry: &Registry) -> String {
    let collected = registry.collect();
    let mut out = String::new();
    let mut last_name = None;
    for &(name, help, label, value) in &collected.counters {
        // One header per metric, above its first series.
        if last_name.replace(name) != Some(name) {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
        }
        match label {
            None => out.push_str(&format!("{name} {value}\n")),
            Some((k, v)) => {
                out.push_str(&format!("{name}{{{k}=\"{}\"}} {value}\n", escape_label(v)))
            }
        }
    }
    for (name, help, value) in &collected.gauges {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
        ));
    }
    for (name, help, buckets, snap) in &collected.histograms {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
        let mut cum = 0u64;
        for (i, c) in buckets.iter().enumerate().take(BUCKET_COUNT) {
            cum += c;
            match bucket_le(i) {
                Some(le) => out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n")),
                None => out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cum}\n")),
            }
        }
        out.push_str(&format!("{name}_sum {}\n", snap.sum));
        out.push_str(&format!("{name}_count {}\n", snap.count));
    }
    out
}

/// Renders `registry` as a pretty-printed JSON object:
///
/// ```json
/// {
///   "counters": { "name{label=\"v\"}": 3, ... },
///   "gauges": { "name": 7, ... },
///   "histograms": {
///     "name": { "count": 2, "sum_ns": 10, "max_ns": 8,
///               "p50_ns": 8, "p90_ns": 8, "p99_ns": 8 }, ...
///   }
/// }
/// ```
///
/// Keys use the Prometheus series notation (`name{label="value"}`) so
/// the two expositions line up one-to-one.
pub fn json_snapshot(registry: &Registry) -> String {
    let collected = registry.collect();
    let series_key = |name: &str, label: Option<(&str, &str)>| match label {
        None => name.to_string(),
        Some((k, v)) => format!("{name}{{{k}=\"{}\"}}", escape_label(v)),
    };
    let mut out = String::from("{\n  \"counters\": {");
    let mut first = true;
    for (name, _, label, value) in &collected.counters {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    \"{}\": {value}",
            escape_json(&series_key(name, *label))
        ));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });
    out.push_str("  \"gauges\": {");
    first = true;
    for (name, _, value) in &collected.gauges {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {value}", escape_json(name)));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });
    out.push_str("  \"histograms\": {");
    first = true;
    for (name, _, _, snap) in &collected.histograms {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    \"{}\": {{ \"count\": {}, \"sum_ns\": {}, \"max_ns\": {}, \
             \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {} }}",
            escape_json(name),
            snap.count,
            snap.sum,
            snap.max,
            snap.p50,
            snap.p90,
            snap.p99,
        ));
    }
    out.push_str(if first { "}\n" } else { "\n  }\n" });
    out.push('}');
    out.push('\n');
    out
}

/// Renders the global registry in the Prometheus text format.
pub fn global_prometheus_text() -> String {
    prometheus_text(crate::registry::global())
}

/// Renders the global registry as a JSON snapshot.
pub fn global_json_snapshot() -> String {
    json_snapshot(crate::registry::global())
}

/// Checks a Prometheus text exposition against the line grammar: every
/// line is either a `# HELP name text` / `# TYPE name counter|gauge|histogram`
/// comment or a `name[{labels}] value` sample with a valid metric name and
/// an integer or float value. Returns the first offending line.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    for (no, line) in text.lines().enumerate() {
        let err = |why: &str| Err(format!("line {}: {}: {:?}", no + 1, why, line));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let kind = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            match kind {
                "HELP" if valid_name(name) => continue,
                "TYPE" if valid_name(name) => match parts.next() {
                    Some("counter") | Some("gauge") | Some("histogram") | Some("summary")
                    | Some("untyped") => continue,
                    _ => return err("bad TYPE"),
                },
                _ => return err("bad comment"),
            }
        }
        // Sample line: name[{labels}] value
        let (series, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => return err("no value"),
        };
        if value.parse::<f64>().is_err() && value != "+Inf" && value != "-Inf" && value != "NaN" {
            return err("bad value");
        }
        let name = match series.split_once('{') {
            None => series,
            Some((name, labels)) => {
                let labels = match labels.strip_suffix('}') {
                    Some(l) => l,
                    None => return err("unclosed label braces"),
                };
                // label grammar: key="escaped", comma-separated.
                let mut rest = labels;
                while !rest.is_empty() {
                    let (key, after) = match rest.split_once("=\"") {
                        Some(pair) => pair,
                        None => return err("bad label pair"),
                    };
                    if !valid_name(key) {
                        return err("bad label key");
                    }
                    // Find the closing unescaped quote.
                    let mut end = None;
                    let bytes = after.as_bytes();
                    let mut i = 0;
                    while i < bytes.len() {
                        match bytes[i] {
                            b'\\' => i += 2,
                            b'"' => {
                                end = Some(i);
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    let end = match end {
                        Some(e) => e,
                        None => return err("unterminated label value"),
                    };
                    rest = &after[end + 1..];
                    rest = rest.strip_prefix(',').unwrap_or(rest);
                }
                name
            }
        };
        if !valid_name(name) {
            return err("bad metric name");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Gauge, Histogram};

    #[test]
    fn validator_accepts_well_formed_lines() {
        let text = "# HELP pqfs_q_total queries\n# TYPE pqfs_q_total counter\n\
                    pqfs_q_total 3\npqfs_q{site=\"a.b\"} 1\n\
                    pqfs_lat_bucket{le=\"+Inf\"} 9\npqfs_lat_sum 12.5\n";
        assert_eq!(validate_prometheus(text), Ok(()));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_prometheus("no_value_here\n").is_err());
        assert!(validate_prometheus("bad name 1\n").is_err());
        assert!(validate_prometheus("m{unclosed=\"x} 1\n").is_err());
        assert!(validate_prometheus("m 1x\n").is_err());
        assert!(validate_prometheus("# TYPE m weird\n").is_err());
    }

    /// Fresh metrics per call: the two tests below run concurrently.
    fn sample_registry() -> Registry {
        fn leak<T>(metric: T) -> &'static T {
            Box::leak(Box::new(metric))
        }
        let reg = Registry::new();
        let a = leak(Counter::new("pqfs_a_total", "count of a"));
        let bx = leak(Counter::labeled("pqfs_b_total", "count of b", "kind", "x"));
        let by = leak(Counter::labeled("pqfs_b_total", "count of b", "kind", "y"));
        let depth = leak(Gauge::new("pqfs_depth", "depth gauge"));
        let h = leak(Histogram::new("pqfs_lat_ns", "latency"));
        // Registered in reverse order: the exposition sorts by series.
        h.register(&reg);
        depth.register(&reg);
        by.register(&reg);
        bx.register(&reg);
        a.register(&reg);
        a.add(3);
        bx.add(1);
        by.add(2);
        depth.set(7);
        h.observe_ns(3);
        h.observe_ns(1000);
        reg
    }

    #[test]
    fn prometheus_output_is_stable_and_valid() {
        let text = prometheus_text(&sample_registry());
        assert_eq!(validate_prometheus(&text), Ok(()));
        // Deterministic shape (golden): headers once per metric, labeled
        // series sorted by label value, histogram cumulative buckets.
        assert!(text.starts_with(
            "# HELP pqfs_a_total count of a\n# TYPE pqfs_a_total counter\npqfs_a_total 3\n\
             # HELP pqfs_b_total count of b\n# TYPE pqfs_b_total counter\n\
             pqfs_b_total{kind=\"x\"} 1\npqfs_b_total{kind=\"y\"} 2\n"
        ));
        assert!(text.contains("# TYPE pqfs_lat_ns histogram\n"));
        assert!(text.contains("pqfs_lat_ns_bucket{le=\"4\"} 1\n"));
        assert!(text.contains("pqfs_lat_ns_bucket{le=\"1024\"} 2\n"));
        assert!(text.contains("pqfs_lat_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("pqfs_lat_ns_sum 1003\n"));
        assert!(text.ends_with("pqfs_lat_ns_count 2\n"));
    }

    #[test]
    fn json_snapshot_is_stable_and_parseable() {
        let json = json_snapshot(&sample_registry());
        let v = crate::jsonv::parse(&json).expect("snapshot must be valid JSON");
        let counters = v.get("counters").expect("counters object");
        assert_eq!(
            counters.get("pqfs_a_total").and_then(|n| n.as_u64()),
            Some(3)
        );
        assert_eq!(
            counters
                .get("pqfs_b_total{kind=\"y\"}")
                .and_then(|n| n.as_u64()),
            Some(2)
        );
        assert_eq!(
            v.get("gauges")
                .and_then(|g| g.get("pqfs_depth"))
                .and_then(|n| n.as_u64()),
            Some(7)
        );
        let hist = v
            .get("histograms")
            .and_then(|h| h.get("pqfs_lat_ns"))
            .expect("histogram entry");
        assert_eq!(hist.get("count").and_then(|n| n.as_u64()), Some(2));
        assert_eq!(hist.get("sum_ns").and_then(|n| n.as_u64()), Some(1003));
        assert_eq!(hist.get("max_ns").and_then(|n| n.as_u64()), Some(1000));
    }

    #[test]
    fn empty_registry_renders_empty_but_valid_output() {
        let reg = Registry::new();
        assert_eq!(prometheus_text(&reg), "");
        let json = json_snapshot(&reg);
        let v = crate::jsonv::parse(&json).expect("valid JSON");
        assert!(v.get("counters").is_some());
        assert!(v.get("histograms").is_some());
    }
}
