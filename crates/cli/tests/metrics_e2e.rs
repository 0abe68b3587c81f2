//! End-to-end telemetry test: a full `gen → build → query` run must
//! produce a JSON metrics snapshot with the pipeline's counts in it,
//! whatever the `--metrics-out` file is called, and a `--trace` waterfall
//! whose stage sum accounts for the query wall time.

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

/// The file's name picks no format: `.prom` and `.txt` get the same JSON.
#[test]
fn metrics_out_is_json_whatever_the_extension() {
    let dir = TempDir::new("ext");
    let base = dir.path("base.fvecs");
    for name in ["m.json", "m.prom", "m.txt"] {
        let metrics = dir.path(name);
        let args = ["gen", "--out", &base, "--n", "10", "--dim", "8"];
        assert_success(
            &pqfs(&[&args[..], &["--metrics-out", &metrics]].concat(), &[]),
            name,
        );
        let text = std::fs::read_to_string(&metrics).unwrap();
        let snapshot = jsonv::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}\n{text}"));
        assert!(snapshot.get("counters").is_some(), "{name}: {text}");
    }
}

#[test]
fn traced_query_waterfall_accounts_for_the_wall_time() {
    let (dir, index, _) = build_fixture("trace");
    // Cold and warm queries alike: the first one pays first allocations.
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
    // Serial pool, so no two stages overlap.
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
    // The stages tile the wall clock: each starts at the instant the one
    // before it ended, and `dispatch` is the probe phase's time outside every
    // probe's own stages. So every waterfall sums to its wall time, whatever
    // the scheduler does between two stages; an untimed gap of a few
    // microseconds in a query of about a hundred fails the floor.
    covered.sort_by(f64::total_cmp);
    let (least, most) = (covered[0], covered[QUERIES - 1]);
    assert!(
        least >= 97.0 && most <= 100.0,
        "stage sums cover {least}% to {most}% of wall (floor 97%, ceiling 100%):\n{stderr}"
    );
    drop(dir);
}
