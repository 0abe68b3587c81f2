//! Results: what a run reports, how it is printed and stored, the host
//! fingerprint stored with it, and the comparison of two result files.

use crate::spec::{Better, MetricDef, END_TO_END, OPEN_LOOP_RATE, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};
use pqfs_obs::jsonv::{self, Value};
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

/// The contract this benchmark is written to, bounds included.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One measured value; `None` when its source (a registry key, a field of
/// the stats frame) was missing, which is reported as `null`, not a failure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub def: MetricDef,
    pub value: Option<f64>,
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<(String, String)>,
}

fn json_number(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl RunResult {
    /// An empty result holding every metric of the pass, in the order of
    /// `BENCHMARK.json`, each unset.
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
        RunResult {
            workload,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            metrics: defs
                .iter()
                .map(|&def| Metric { def, value: None })
                .collect(),
            notes: Vec::new(),
        }
    }

    pub fn set_opt(&mut self, name: &str, value: Option<f64>) {
        match self.metrics.iter_mut().find(|m| m.def.name == name) {
            Some(m) => m.value = value,
            None => unreachable!("metric {name} is not in the spec of this pass"),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.set_opt(name, Some(value));
    }

    pub fn note(&mut self, key: &str, value: impl Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(m.def.name),
                    json_number(m.value),
                    json_string(m.def.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The one-line result the driver reads from the end of standard output.
    pub fn driver_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    fn to_json(&self) -> String {
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"metrics\": {}, \"notes\": {{{}}}}}",
            json_string(self.workload),
            self.seed,
            u8::from(self.traced),
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(),
            notes.join(", ")
        )
    }

    /// Every metric by name and unit, for a reader.
    pub fn print(&self) {
        println!(
            "== {} (seed {}, {}) attempted {} failed {}",
            self.workload,
            self.seed,
            if self.traced {
                "traced: per-layer"
            } else {
                "untraced: end-to-end"
            },
            self.attempted,
            self.failed
        );
        for m in &self.metrics {
            println!(
                "{:<32} {:>16} {}",
                m.def.name,
                json_number(m.value),
                m.def.unit
            );
        }
        for (k, v) in &self.notes {
            println!("  ({k}: {v})");
        }
    }
}

fn first_line_after(text: &str, key: &str) -> Option<String> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        if std::arch::is_x86_feature_detected!("ssse3") {
            return "ssse3";
        }
    }
    "portable"
}

/// The commit of the checkout the benchmark runs in, when it is one.
fn git_commit(repo_root: &std::path::Path) -> Option<String> {
    let head = std::fs::read_to_string(repo_root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(repo_root.join(".git").join(reference))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// Resident set size of this process in MB, when the kernel reports it.
pub fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = first_line_after(&status, "VmRSS")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Host fingerprint and run settings, stored with every result file.
pub fn header_json(opts: &crate::suite::Options, repo_root: &std::path::Path) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| first_line_after(&t, "model name"));
    let opt_string = |v: Option<String>| v.map_or("null".to_string(), |s| json_string(&s));
    let fixtures: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let f = opts.fixture(w);
            format!(
                "{}: {{\"fixture\": {}, \"vectors\": {}, \"partitions\": {}, \"topk\": {}, \"nprobe\": {}}}",
                json_string(w.name),
                json_string(f.name),
                f.vectors,
                f.partitions,
                w.topk,
                w.nprobe
            )
        })
        .collect();
    format!(
        "{{\"cpu_model\": {}, \"nproc\": {}, \"simd\": {}, \"pool_threads\": {}, \
         \"PQFS_THREADS\": {}, \"git_commit\": {}, \"seed\": {}, \"seconds\": {}, \"quick\": {}, \
         \"open_loop_rate_qps\": {}, \"workloads\": {{{}}}}}",
        opt_string(cpu),
        crate::workload::connections(),
        json_string(simd_level()),
        pqfs_pool::ThreadPool::global().threads(),
        opt_string(std::env::var("PQFS_THREADS").ok()),
        opt_string(git_commit(repo_root)),
        opts.seed,
        opts.seconds,
        opts.quick,
        OPEN_LOOP_RATE,
        fixtures.join(", ")
    )
}

pub fn result_file_json(header: &str, runs: &[RunResult]) -> String {
    let runs: Vec<String> = runs
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    format!(
        "{{\n  \"header\": {header},\n  \"runs\": [\n{}\n  ]\n}}\n",
        runs.join(",\n")
    )
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

/// What comparing one metric on one workload concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so "no worse than the
    /// bound" cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the quartiles as a share of the median; 0 for one run.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub base: f64,
    pub new: f64,
    /// By what share of `base` the new median is worse (negative: better).
    pub worse_by: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

pub fn compare_metric(base: &[f64], new: &[f64], better: Better, bound: f64) -> Comparison {
    let (b, n) = (median(base), median(new));
    let worse_by = match (better, b != 0.0) {
        (_, false) => 0.0,
        (Better::Lower, true) => (n - b) / b.abs(),
        (Better::Higher, true) => (b - n) / b.abs(),
    };
    let spread = spread(base).max(spread(new));
    let verdict = if worse_by > bound.max(spread) {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Comparison {
        base: b,
        new: n,
        worse_by,
        spread,
        verdict,
    }
}

/// workload → metric → the values of every untraced run in the file.
type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn end_to_end_values(text: &str) -> Result<Values, String> {
    let doc = jsonv::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("no \"runs\" list")?;
    let mut values = Values::new();
    for run in runs {
        if run.get("trace").and_then(Value::as_u64) != Some(0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without workload")?;
        let metrics = run
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("run without metrics")?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                values
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(values)
}

fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let doc = jsonv::parse(BENCHMARK_JSON)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Compares two result files, prints one row per workload and metric, and
/// returns how many rows regressed.
pub fn compare_files(base_text: &str, new_text: &str) -> Result<usize, String> {
    let (base, new) = (end_to_end_values(base_text)?, end_to_end_values(new_text)?);
    let bounds = bounds()?;
    println!(
        "{:<20} {:<14} {:>12} {:>12} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "base", "new", "worse by", "bound", "spread"
    );
    let mut regressed = 0;
    for w in &WORKLOADS {
        for def in &END_TO_END {
            let side = |v: &Values| v.get(w.name).and_then(|m| m.get(def.name)).cloned();
            let (Some(b), Some(n)) = (side(&base), side(&new)) else {
                println!(
                    "{:<20} {:<14} missing from one of the files",
                    w.name, def.name
                );
                continue;
            };
            let bound = *bounds
                .get(def.name)
                .ok_or(format!("no bound for {}", def.name))?;
            let c = compare_metric(&b, &n, def.better, bound);
            regressed += usize::from(c.verdict == Verdict::Regressed);
            println!(
                "{:<20} {:<14} {:>12.4} {:>12.4} {:>+8.2}% {:>6.1}% {:>7.2}%  {}",
                w.name,
                def.name,
                c.base,
                c.new,
                c.worse_by * 100.0,
                bound * 100.0,
                c.spread * 100.0,
                c.verdict.as_str()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [100.0, 100.5, 99.5, 100.0];
        // Lower is better: 5 % slower is inside a 10 % bound, 20 % is not.
        let slower = |by: f64| steady.map(|v| v * (1.0 + by));
        assert_eq!(
            compare_metric(&steady, &slower(0.05), Better::Lower, 0.1).verdict,
            Verdict::Ok
        );
        assert_eq!(
            compare_metric(&steady, &slower(0.20), Better::Lower, 0.1).verdict,
            Verdict::Regressed
        );
        // Higher is better: the same 20 % rise is an improvement.
        let up = compare_metric(&steady, &slower(0.20), Better::Higher, 0.1);
        assert_eq!(up.verdict, Verdict::Ok);
        assert!(up.worse_by < 0.0);
        // A spread wider than the bound cannot confirm "unchanged" ...
        let noisy = [80.0, 120.0, 90.0, 110.0, 100.0];
        assert_eq!(
            compare_metric(&noisy, &noisy, Better::Lower, 0.1).verdict,
            Verdict::Unresolved
        );
        // ... but a loss larger than that spread is still a regression.
        assert_eq!(
            compare_metric(&noisy, &noisy.map(|v| v * 2.0), Better::Lower, 0.1).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn a_single_run_has_no_spread_and_ratios_keep_their_base() {
        let c = compare_metric(&[200.0], &[150.0], Better::Higher, 0.1);
        assert_eq!((c.base, c.new, c.spread), (200.0, 150.0, 0.0));
        assert_eq!(c.worse_by, 0.25);
        assert_eq!(c.verdict, Verdict::Regressed);
    }

    #[test]
    fn result_files_round_trip_through_compare() {
        let mut run = RunResult::new("serve_single", 7, false);
        run.attempted = 10;
        for def in &END_TO_END {
            run.set(def.name, 2.5);
        }
        run.note("late_share", 0.0);
        let text = result_file_json("{\"seed\": 7}", &[run.clone(), run.clone()]);
        let values = end_to_end_values(&text).unwrap();
        assert_eq!(values["serve_single"]["p50_ms"], vec![2.5, 2.5]);
        assert_eq!(compare_files(&text, &text), Ok(0));
        // The driver line is one JSON object with exactly the contract's keys.
        let line = jsonv::parse(&run.driver_line()).unwrap();
        let keys: Vec<&String> = line.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics").unwrap().as_object().unwrap().len(),
            END_TO_END.len()
        );
    }

    #[test]
    fn missing_values_are_null_not_errors() {
        let run = RunResult::new("serve_single", 1, true);
        assert!(run
            .driver_line()
            .contains("\"server.shed\": {\"value\": null"));
        assert!(!run.correct(), "nothing attempted is not a correct run");
    }
}
