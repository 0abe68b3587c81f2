//! The exposition format: one JSON snapshot of the registry.
//!
//! It walks the registry once under its lock, so each metric's values are
//! read at one instant. Ordering is the registry's deterministic
//! `(name, label)` sort, which makes the output suitable for golden tests.

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
/// A labeled counter's key is its series, `name{key="value"}`, with `\`,
/// `"` and newlines in the value escaped before the key is JSON-escaped.
pub fn json_snapshot(registry: &Registry) -> String {
    let collected = registry.collect();
    let series_key = |name: &str, label: Option<(&str, &str)>| match label {
        None => name.to_string(),
        Some((k, v)) => format!("{name}{{{k}=\"{}\"}}", escape_label(v)),
    };
    let mut out = String::from("{\n  \"counters\": {");
    let mut first = true;
    for (name, label, value) in &collected.counters {
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
    for (name, value) in &collected.gauges {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {value}", escape_json(name)));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });
    out.push_str("  \"histograms\": {");
    first = true;
    for (name, snap) in &collected.histograms {
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

/// Renders the global registry as a JSON snapshot.
pub fn global_json_snapshot() -> String {
    json_snapshot(crate::registry::global())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Gauge, Histogram};

    /// Fresh metrics per call: the tests run concurrently.
    fn sample_registry() -> Registry {
        fn leak<T>(metric: T) -> &'static T {
            Box::leak(Box::new(metric))
        }
        let reg = Registry::new();
        let a = leak(Counter::new("pqfs_a_total"));
        let bx = leak(Counter::labeled("pqfs_b_total", "kind", "x"));
        let by = leak(Counter::labeled("pqfs_b_total", "kind", "y"));
        let quoted = leak(Counter::labeled("pqfs_b_total", "kind", "q\"\\\n"));
        let depth = leak(Gauge::new("pqfs_depth"));
        let h = leak(Histogram::new("pqfs_lat_ns"));
        // Registered in reverse order: the exposition sorts by series.
        h.register(&reg);
        depth.register(&reg);
        quoted.register(&reg);
        by.register(&reg);
        bx.register(&reg);
        a.register(&reg);
        a.add(3);
        bx.add(1);
        by.add(2);
        quoted.add(4);
        depth.set(7);
        h.observe_ns(3);
        h.observe_ns(1000);
        reg
    }

    /// The whole rendered text, byte for byte: the server's stats frame and
    /// `pqfs --metrics-out` carry exactly this format.
    #[test]
    fn json_snapshot_is_stable_and_parseable() {
        let json = json_snapshot(&sample_registry());
        let golden = r#"{
  "counters": {
    "pqfs_a_total": 3,
    "pqfs_b_total{kind=\"q\\\"\\\\\\n\"}": 4,
    "pqfs_b_total{kind=\"x\"}": 1,
    "pqfs_b_total{kind=\"y\"}": 2
  },
  "gauges": {
    "pqfs_depth": 7
  },
  "histograms": {
    "pqfs_lat_ns": { "count": 2, "sum_ns": 1003, "max_ns": 1000, "p50_ns": 4, "p90_ns": 1024, "p99_ns": 1024 }
  }
}
"#;
        assert_eq!(json, golden);
        let v = crate::jsonv::parse(&json).expect("snapshot must be valid JSON");
        let key = "pqfs_b_total{kind=\"q\\\"\\\\\\n\"}";
        let quoted = v.get("counters").and_then(|c| c.get(key));
        assert_eq!(quoted.and_then(|n| n.as_u64()), Some(4));
    }

    #[test]
    fn empty_registry_renders_empty_but_valid_output() {
        let json = json_snapshot(&Registry::new());
        assert_eq!(
            json,
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}\n"
        );
        let v = crate::jsonv::parse(&json).expect("valid JSON");
        assert!(v.get("counters").is_some());
        assert!(v.get("histograms").is_some());
    }
}
