//! Alternating runs of two builds of the repository benchmark, summarized per
//! workload and end-to-end metric: each side's values, median and quartiles,
//! and how many pairs the second build won.
//!
//! ```sh
//! cargo run --release -p pqfs_bench --bin pairs -- \
//!     PARENT/benchmark/target/release/benchmark \
//!     CHANGE/benchmark/target/release/benchmark \
//!     --pairs 10 --seed0 3401 --out BENCH.json [-- --workload probe_small_parts]
//! ```
//!
//! Pair `i` runs `benchmark run --seed S` (`S = seed0 + i`, plus the arguments
//! after `--`) on both binaries, the change first when `i` is even. "Won" is
//! strictly better in the metric's direction of `BENCHMARK.json`; quartiles
//! interpolate linearly between the sorted values.

#![forbid(unsafe_code)]

use pqfs_bench::Summary;
use pqfs_obs::jsonv::{self, Value};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");
const USAGE: &str = "usage: pairs PARENT_BIN CHANGE_BIN [--pairs N] [--seed0 S] [--out FILE] \
                     [-- BENCHMARK_RUN_ARGS...]";
const SIDES: [&str; 2] = ["parent", "change"];

struct Args {
    bins: Vec<String>,
    pairs: u64,
    seed0: u64,
    out: String,
    extra: Vec<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|args| pairs(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pairs: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let at = args.iter().position(|a| a == "--").unwrap_or(args.len());
    let mut parsed = Args {
        bins: Vec::new(),
        pairs: 10,
        seed0: 1,
        out: "pairs.json".into(),
        extra: args.get(at + 1..).unwrap_or_default().to_vec(),
    };
    let mut it = args[..at].iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        let number = |v: &String| v.parse().map_err(|_| format!("bad value {v:?} for {arg}"));
        match arg.as_str() {
            "--pairs" => parsed.pairs = number(value()?)?,
            "--seed0" => parsed.seed0 = number(value()?)?,
            "--out" => parsed.out = value()?.clone(),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            bin => parsed.bins.push(bin.into()),
        }
    }
    match (parsed.bins.len(), parsed.pairs) {
        (2, 1..) => Ok(parsed),
        _ => Err("need two benchmark binaries and at least one pair".into()),
    }
}

/// One `benchmark run`, parsed from its result file. Exit status 1 (a wrong
/// answer) still leaves a result file, whose `failed` counts say so.
fn run(bin: &str, seed: u64, extra: &[String], file: &str) -> Result<Value, String> {
    let status = Command::new(bin)
        .args(["run", "--seed", &seed.to_string(), "--out", file])
        .args(extra)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("{bin}: {e}"))?;
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("{bin} run --seed {seed}: {status}"));
    }
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let _ = std::fs::remove_file(file);
    jsonv::parse(&text)
}

fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(BTreeMap::from(fields.map(|(k, v)| (k.to_string(), v))))
}

fn numbers(values: impl IntoIterator<Item = f64>) -> Value {
    Value::Array(values.into_iter().map(Value::Number).collect())
}

/// One side of one metric: median, quartiles and the values in pair order.
fn summary(values: &[f64]) -> Value {
    let s = Summary::from_values(values);
    object([
        ("median", Value::Number(s.median())),
        ("q1", Value::Number(s.percentile(25.0))),
        ("q3", Value::Number(s.percentile(75.0))),
        ("values", numbers(values.iter().copied())),
    ])
}

/// The run of `workload` in each result file of one side.
fn runs_of(files: &[Value], workload: &str) -> Vec<Value> {
    let is = |r: &&Value| r.get("workload").and_then(Value::as_str) == Some(workload);
    let find = |file: &Value| file.get("runs")?.as_array()?.iter().find(is).cloned();
    files.iter().filter_map(find).collect()
}

fn pairs(args: &Args) -> Result<(), String> {
    let spec = jsonv::parse(BENCHMARK_JSON)?;
    let list = |key: &str| {
        spec.get(key)
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .to_vec()
    };
    let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_string();
    let seeds: Vec<u64> = (args.seed0..args.seed0 + args.pairs).collect();
    // files[side][pair]: the parsed result file.
    let mut files: [Vec<Value>; 2] = Default::default();
    for (i, &seed) in seeds.iter().enumerate() {
        for side in if i % 2 == 0 { [1, 0] } else { [0, 1] } {
            eprintln!("pair {}/{}: {} seed {seed}", i + 1, args.pairs, SIDES[side]);
            let file = format!("{}.{}.{seed}.json", args.out, SIDES[side]);
            files[side].push(run(&args.bins[side], seed, &args.extra, &file)?);
        }
    }

    let mut workloads = BTreeMap::new();
    for workload in list("workloads").iter().map(|w| field(w, "name")) {
        let runs = [0, 1].map(|side| runs_of(&files[side], &workload));
        if runs.iter().any(|r| r.len() != seeds.len()) {
            continue;
        }
        let total = |side: usize, key: &str| {
            let counts = runs[side].iter().filter_map(|r| r.get(key)?.as_u64());
            Value::Number(counts.sum::<u64>() as f64)
        };
        let count = |key| object([("parent", total(0, key)), ("change", total(1, key))]);
        let mut entry = BTreeMap::new();
        entry.insert("seeds".into(), numbers(seeds.iter().map(|&s| s as f64)));
        entry.insert("failed_operations".into(), count("failed"));
        entry.insert("attempted_operations".into(), count("attempted"));
        for metric in list("end_to_end") {
            let name = field(&metric, "name");
            let higher = field(&metric, "better") == "higher";
            let value = |r: &Value| r.get("metrics")?.get(&name)?.get("value")?.as_f64();
            let side = |side: usize| runs[side].iter().map(value).collect::<Option<Vec<f64>>>();
            let (Some(parent), Some(change)) = (side(0), side(1)) else {
                continue;
            };
            let better = |a: f64, b: f64| if higher { a > b } else { a < b };
            let wins =
                |a: &[f64], b: &[f64]| a.iter().zip(b).filter(|(x, y)| better(**x, **y)).count();
            let ratio =
                Summary::from_values(&change).median() / Summary::from_values(&parent).median();
            let summary = object([
                ("better", Value::String(field(&metric, "better"))),
                ("parent", summary(&parent)),
                ("change", summary(&change)),
                ("change_over_parent_medians", Value::Number(ratio)),
                ("pairs_won", Value::Number(wins(&change, &parent) as f64)),
                ("pairs_lost", Value::Number(wins(&parent, &change) as f64)),
            ]);
            entry.insert(name, summary);
        }
        workloads.insert(workload, Value::Object(entry));
    }

    let get = |v: &Value, key: &str| v.get(key).cloned().unwrap_or(Value::Null);
    let header = |side: usize| get(&files[side][0], "header");
    let host = ["cpu_model", "nproc", "simd", "pool_threads", "PQFS_THREADS"]
        .map(|key| (key, get(&header(0), key)));
    let binary = |side: usize| Value::String(args.bins[side].clone());
    let build = |side| {
        object([
            ("binary", binary(side)),
            ("git_commit", get(&header(side), "git_commit")),
        ])
    };
    let extra: String = args.extra.iter().map(|a| format!(" {a}")).collect();
    let method = format!(
        "{} alternating pairs, the change first in pairs 1, 3, ...; each run `benchmark run \
         --seed S{extra}`, seeds {}..{}; quartiles by inclusive linear interpolation",
        args.pairs,
        args.seed0,
        args.seed0 + args.pairs,
    );
    let doc = object([
        ("method", Value::String(method)),
        ("host", object(host)),
        ("parent", build(0)),
        ("change", build(1)),
        ("end_to_end", Value::Object(workloads)),
    ]);
    let mut text = String::new();
    write_json(&doc, 0, &mut text);
    std::fs::write(&args.out, text + "\n").map_err(|e| format!("{}: {e}", args.out))?;
    eprintln!("wrote {}", args.out);
    Ok(())
}

/// Objects one member a line, arrays on one line.
fn write_json(v: &Value, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(&b.to_string()),
        Value::Number(n) if n.is_finite() => out.push_str(&n.to_string()),
        Value::Number(_) => out.push_str("null"),
        Value::String(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' | '\\' => out.extend(['\\', c]),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i == 0 { "" } else { ", " });
                write_json(item, depth, out);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&" ".repeat(depth + 1));
                write_json(&Value::String(key.clone()), depth + 1, out);
                out.push_str(": ");
                write_json(value, depth + 1, out);
            }
            out.push_str(&format!("\n{}}}", " ".repeat(depth)));
        }
    }
}
