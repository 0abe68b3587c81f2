//! The repository's benchmark: five workloads from a kernel-bound partition
//! scan to loopback serving, measured end to end with tracing off and layer
//! by layer in a separate traced pass. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!               [--runs K] [--quick] [--out FILE]
//! benchmark compare BASE.json NEW.json
//! ```

#![forbid(unsafe_code)]

mod calibrate;
mod fixture;
mod layers;
mod report;
mod spec;
mod stats;
mod suite;
mod trace;
mod workload;

use report::RunResult;
use spec::{Workload, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use suite::{Options, Res};

const USAGE: &str = "\
usage:
  benchmark run [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                [--runs K] [--quick] [--out FILE]
      Runs the named workloads (default: all five) and prints every metric
      by name and unit; the last line of output is one JSON object.
      --seed N     which queries are asked, in which order (default 42)
      --seconds S  length of the measured window (default: run_seconds of
                   BENCHMARK.json; 1 with --quick)
      --trace 1    the traced pass: per-layer metrics and
                   benchmark/out/trace_<workload>.jsonl, no end-to-end ones
      --runs K     repeat the whole set K times on seeds N, N+1, ...
      --quick      smoke mode: a tenth of the data, not for claims
      --out FILE   result file (default benchmark/out/result.json, or
                   result_traced.json with --trace 1)
  benchmark compare BASE.json NEW.json
      Per workload and end-to-end metric: ok, regressed or unresolved under
      the bounds of BENCHMARK.json. Exits 1 if any row regressed.";

struct RunArgs {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    runs: u64,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: 42,
        seconds: None,
        traced: false,
        runs: 1,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = spec::workload(name).ok_or(format!("unknown workload {name:?}"))?;
                parsed.workloads.push(w);
            }
            "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                let seconds: f64 = v.parse().map_err(|_| bad(v))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad(v));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--runs" => parsed.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = WORKLOADS.iter().collect();
    }
    Ok(parsed)
}

/// The benchmark's own directory: where `cargo run` says the manifest is,
/// else where it was when the program was built.
fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn run(args: RunArgs) -> Res<bool> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with `cargo run --release`".into());
    }
    let dir = benchmark_dir();
    let out_dir = dir.join("out");
    std::fs::create_dir_all(&out_dir)?;
    let mut opts = Options {
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if args.quick { 1.0 } else { RUN_SECONDS }),
        quick: args.quick,
        out_dir: out_dir.clone(),
    };
    let header = report::header_json(&opts, &dir.join(".."));
    println!("{header}");
    let mut results: Vec<RunResult> = Vec::new();
    for round in 0..args.runs {
        opts.seed = args.seed + round;
        for w in &args.workloads {
            let result = if args.traced {
                layers::run_traced(w, &opts)?
            } else {
                suite::run_untraced(w, &opts)?
            };
            result.print();
            results.push(result);
        }
    }
    let default_name = if args.traced {
        "result_traced.json"
    } else {
        "result.json"
    };
    let out = args.out.unwrap_or_else(|| out_dir.join(default_name));
    std::fs::write(&out, report::result_file_json(&header, &results))?;
    println!("results written to {}", out.display());
    let correct = results.iter().all(RunResult::correct);
    // The driver reads the last line; with several runs it is the last one's.
    if let Some(last) = results.last() {
        println!("{}", last.driver_line());
    }
    Ok(correct)
}

fn compare(base: &str, new: &str) -> Res<bool> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let regressed = report::compare_files(&read(base)?, &read(new)?)?;
    Ok(regressed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).map_err(Into::into).and_then(run),
        Some((cmd, [base, new])) if cmd == "compare" => compare(base, new),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
