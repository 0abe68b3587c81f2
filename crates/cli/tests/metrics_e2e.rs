//! End-to-end telemetry test: a full `gen → build → query` run must
//! produce a JSON metrics snapshot matching `metrics.schema.json`, a
//! Prometheus exposition that parses, and a `--trace` waterfall whose
//! stage sum accounts for the query wall time.
#![cfg(feature = "telemetry")]

use pqfs_obs::jsonv::{self, Value};
use std::path::PathBuf;
use std::process::{Command, Output};

/// Scratch directory for one test, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("pqfs-metrics-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().unwrap().to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the `pqfs` binary with `args` and extra environment variables.
fn pqfs(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pqfs"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("pqfs binary runs")
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Builds a small index and returns (dir, index path, queries path).
fn build_fixture(tag: &str) -> (TempDir, String, String) {
    let dir = TempDir::new(tag);
    let base = dir.path("base.fvecs");
    let queries = dir.path("q.fvecs");
    let index = dir.path("ix.pqiv");
    assert_success(
        &pqfs(
            &[
                "gen", "--out", &base, "--n", "2000", "--dim", "16", "--seed", "1",
            ],
            &[],
        ),
        "gen base",
    );
    assert_success(
        &pqfs(
            &[
                "gen", "--out", &queries, "--n", "3", "--dim", "16", "--seed", "2",
            ],
            &[],
        ),
        "gen queries",
    );
    assert_success(
        &pqfs(
            &[
                "build",
                "--base",
                &base,
                "--out",
                &index,
                "--partitions",
                "4",
                "--threads",
                "2",
            ],
            &[],
        ),
        "build",
    );
    (dir, index, queries)
}

/// Validates `value` against the JSON Schema subset used by
/// `metrics.schema.json`: `type` (object/integer), `required`,
/// `properties`, `additionalProperties` (false or a schema), `minimum`.
fn validate_schema(value: &Value, schema: &Value, path: &str) -> Result<(), String> {
    let kind = schema
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{path}: schema node lacks a 'type'"))?;
    match kind {
        "object" => {
            let obj = value
                .as_object()
                .ok_or_else(|| format!("{path}: expected an object"))?;
            if let Some(required) = schema.get("required").and_then(Value::as_array) {
                for name in required {
                    let name = name.as_str().unwrap();
                    if !obj.contains_key(name) {
                        return Err(format!("{path}: missing required key '{name}'"));
                    }
                }
            }
            let properties = schema.get("properties").and_then(Value::as_object);
            let additional = schema.get("additionalProperties");
            for (key, member) in obj {
                let child_path = format!("{path}/{key}");
                if let Some(prop) = properties.and_then(|p| p.get(key)) {
                    validate_schema(member, prop, &child_path)?;
                } else {
                    match additional {
                        Some(Value::Bool(false)) => {
                            return Err(format!("{path}: unexpected key '{key}'"));
                        }
                        Some(extra @ Value::Object(_)) => {
                            validate_schema(member, extra, &child_path)?;
                        }
                        _ => {}
                    }
                }
            }
            Ok(())
        }
        "integer" => {
            let n = value
                .as_u64()
                .ok_or_else(|| format!("{path}: expected a non-negative integer"))?;
            if let Some(min) = schema.get("minimum").and_then(Value::as_u64) {
                if n < min {
                    return Err(format!("{path}: {n} is below the minimum {min}"));
                }
            }
            Ok(())
        }
        other => Err(format!("{path}: unsupported schema type '{other}'")),
    }
}

/// A counter from the snapshot, summed over every labeled series of `name`.
fn counter_sum(snapshot: &Value, name: &str) -> u64 {
    snapshot
        .get("counters")
        .and_then(Value::as_object)
        .map(|counters| {
            counters
                .iter()
                .filter(|(k, _)| *k == name || k.starts_with(&format!("{name}{{")))
                .map(|(_, v)| v.as_u64().unwrap())
                .sum()
        })
        .unwrap_or(0)
}

#[test]
fn query_run_emits_schema_valid_json_metrics() {
    let (dir, index, queries) = build_fixture("json");
    let metrics = dir.path("metrics.json");
    // Multi-probe query with a fault injected into one partition's scan:
    // the run degrades (exit 3) and the snapshot must show pool, scan,
    // probe-outcome, and fault-site activity all at once.
    let out = pqfs(
        &[
            "query",
            "--index",
            &index,
            "--queries",
            &queries,
            "--topk",
            "5",
            "--nprobe",
            "4",
            "--metrics-out",
            &metrics,
        ],
        &[
            ("PQFS_THREADS", "2"),
            ("PQFS_FAILPOINTS", "ivf.search.scan.0=err"),
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(3),
        "a faulted probe must degrade the run: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&metrics).unwrap();
    let snapshot = jsonv::parse(&text).expect("metrics snapshot parses as JSON");
    let schema_text = include_str!("metrics.schema.json");
    let schema = jsonv::parse(schema_text).expect("checked-in schema parses");
    validate_schema(&snapshot, &schema, "$").expect("snapshot matches metrics.schema.json");

    for name in [
        "pqfs_pool_tasks_total",
        "pqfs_scan_vectors_scanned_total",
        "pqfs_ivf_queries_total",
        "pqfs_ivf_tables_built_total",
    ] {
        assert!(counter_sum(&snapshot, name) > 0, "{name} must be nonzero");
    }
    assert_eq!(
        counter_sum(&snapshot, "pqfs_ivf_probes_total{outcome=\"ok\"}"),
        9
    );
    assert_eq!(
        counter_sum(&snapshot, "pqfs_ivf_probes_total{outcome=\"failed\"}"),
        3
    );
    assert_eq!(
        counter_sum(
            &snapshot,
            "pqfs_fault_injected_total{site=\"ivf.search.scan.0\"}"
        ),
        3
    );
    // Latency histograms observed every query and probe stage.
    let histograms = snapshot
        .get("histograms")
        .and_then(Value::as_object)
        .unwrap();
    let count_of = |name: &str| {
        histograms
            .get(name)
            .and_then(|h| h.get("count"))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    assert_eq!(count_of("pqfs_ivf_query_ns"), 3);
    assert_eq!(count_of("pqfs_ivf_scan_ns"), 9);
}

#[test]
fn query_run_emits_parseable_prometheus_text() {
    let (dir, index, queries) = build_fixture("prom");
    let metrics = dir.path("metrics.prom");
    let out = pqfs(
        &[
            "query",
            "--index",
            &index,
            "--queries",
            &queries,
            "--topk",
            "5",
            "--nprobe",
            "2",
            "--metrics-out",
            &metrics,
        ],
        &[("PQFS_THREADS", "2")],
    );
    assert_success(&out, "query with --metrics-out");
    let text = std::fs::read_to_string(&metrics).unwrap();
    pqfs_obs::validate_prometheus(&text).expect("exposition passes the line-grammar check");
    assert!(text.contains("# TYPE pqfs_ivf_queries_total counter"));
    assert!(text.contains("# TYPE pqfs_ivf_query_ns histogram"));
    assert!(text.contains("pqfs_ivf_query_ns_bucket{le=\"+Inf\"} 3"));
}

#[test]
fn traced_query_waterfall_accounts_for_the_wall_time() {
    let (dir, index, _) = build_fixture("trace");
    // Enough queries for a median: one waterfall that a descheduled process
    // leaves short of its wall time says nothing about the accounting.
    const QUERIES: usize = 21;
    let queries = dir.path("many.fvecs");
    let n = QUERIES.to_string();
    assert_success(
        &pqfs(
            &[
                "gen", "--out", &queries, "--n", &n, "--dim", "16", "--seed", "3",
            ],
            &[],
        ),
        "gen queries",
    );
    // Serial pool: every stage is a disjoint slice of the wall clock, so
    // the reported stage sum must account for (almost) all of it.
    let out = pqfs(
        &[
            "query",
            "--index",
            &index,
            "--queries",
            &queries,
            "--topk",
            "5",
            "--nprobe",
            "4",
            "--trace",
            "true",
        ],
        &[("PQFS_THREADS", "1")],
    );
    assert_success(&out, "query --trace true");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let mut covered: Vec<f64> = stderr
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("stage sum "))
        .map(|rest| {
            rest.split_once('(')
                .and_then(|(_, tail)| tail.strip_suffix("% of wall)"))
                .expect("stage-sum line has a percent-of-wall suffix")
                .parse()
                .expect("percent parses")
        })
        .collect();
    assert_eq!(covered.len(), QUERIES, "one waterfall per query:\n{stderr}");
    // Stages are disjoint, so no waterfall can exceed its wall time by more
    // than rounding. Below it, sequential stages lose time only to
    // inter-stage overhead (closure dispatch, trace bookkeeping) — a fixed
    // few microseconds, a larger share the faster the scans get — and to
    // the scheduler taking the CPU between two stages, which hits single
    // queries hard and the median not at all.
    covered.sort_by(f64::total_cmp);
    let (median, most) = (covered[QUERIES / 2], covered[QUERIES - 1]);
    assert!(
        median >= 85.0 && most <= 110.0,
        "stage sums cover {median}% of wall in the median (floor 85%) and at most {most}% \
         (ceiling 110%):\n{stderr}"
    );
    drop(dir);
}
