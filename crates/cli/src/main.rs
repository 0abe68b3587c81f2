//! `pqfs` — command-line front end for the PQ Fast Scan reproduction.
//!
//! ```text
//! pqfs gen     --out base.fvecs --n 100000 [--dim 128] [--seed 0]
//! pqfs build   --base base.fvecs --out index.pqiv [--train train.fvecs]
//!              [--partitions 8] [--seed 0] [--threads N]
//! pqfs info    --index index.pqiv
//! pqfs query   --index index.pqiv --queries q.fvecs [--topk 100]
//!              [--backend <name>] [--keep 0.005] [--nprobe 1]
//!              [--batch true] [--threads N] [--trace true]
//! pqfs serve   --index index.pqiv [--addr 127.0.0.1:7071] [--queue 256]
//!              [--threads N]
//! pqfs bench-client --addr 127.0.0.1:7071 [--n 1000] [--batch 1]
//!              [--connections 1] [--topk 10] [--nprobe 1] [--keep 0.005]
//!              [--deadline-ms N]
//! ```
//!
//! `--backend` accepts any name from the scan registry (`pqfs query` run
//! with an unknown name lists them); every index answers every one of them,
//! `fastscan` from its resident codes and the others through the slow oracle
//! path (rows rebuilt per scan). `--threads` caps the shared worker
//! pool that build encoding, multi-probe search, and `--batch true` query
//! execution run on (default: all cores, or `PQFS_THREADS`).
//!
//! Every command accepts `--metrics-out FILE`: on exit the process-wide
//! telemetry registry is written there as a JSON snapshot, whatever the
//! file's extension. `query --trace true` additionally prints a per-query
//! stage waterfall (coarse quantization, per-probe table build + scan,
//! merge) to stderr.
//!
//! Vector files are TEXMEX `.fvecs` (32-bit floats), the only vector format
//! in the workspace. ANN_SIFT1B ships its vectors as `.bvecs` (bytes) and
//! its ground truth as `.ivecs`; neither is read here, so its vectors must
//! be converted to `.fvecs` before `pqfs` can use them.

use pqfs_data::{read_fvecs, write_fvecs, SyntheticConfig, SyntheticDataset};
use pqfs_ivf::{IvfadcConfig, IvfadcIndex, SearchBackend, SearchRequest};
use std::process::ExitCode;
use std::time::{Duration, Instant};

mod args;
mod bench_client;
mod serve;
use args::Args;

/// Exit code 1: usage mistakes, bad arguments, search/config failures.
const EXIT_ERROR: u8 = 1;
/// Exit code 2: an artifact (index or vector file) failed to load —
/// corruption, truncation, checksum mismatch, IO failure.
const EXIT_LOAD_ERROR: u8 = 2;
/// Exit code 3: queries answered, but degraded — some probes failed or
/// were skipped by the deadline budget, so result sets may be incomplete.
const EXIT_DEGRADED: u8 = 3;

/// What a successful command run produced.
enum Outcome {
    /// Everything ran at full fidelity.
    Clean,
    /// Queries answered with reduced probe coverage.
    Degraded,
}

/// Command failures, split by exit code.
enum CliError {
    /// An on-disk artifact could not be loaded (exit 2).
    Load(String),
    /// Anything else (exit 1).
    Other(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Other(msg)
    }
}

/// Shorthand for mapping artifact-load failures onto [`CliError::Load`].
fn load_err(context: &str, e: impl std::fmt::Display) -> CliError {
    CliError::Load(format!("{context}: {e}"))
}

/// Formats a count with thousands separators (e.g. `25_000_000`).
fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(ch);
    }
    out
}

/// Linear-interpolation percentile, `p ∈ [0, 100]`: the rule of the figure
/// harness's `Summary`, so the latencies printed here read as they do
/// there. Sorts `sample` first; `None` when it is empty.
fn percentile(sample: &mut [f64], p: f64) -> Option<f64> {
    sample.sort_by(f64::total_cmp);
    let last = sample.len().checked_sub(1)?;
    let rank = p / 100.0 * last as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    let frac = rank - lo as f64;
    Some(sample[lo] * (1.0 - frac) + sample[hi] * frac)
}

fn main() -> ExitCode {
    let usage = usage();
    let mut raw = std::env::args().skip(1);
    let Some(command) = raw.next() else {
        eprintln!("{usage}");
        return ExitCode::from(EXIT_ERROR);
    };
    let args = match Args::parse(raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{usage}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    if let Err(e) = apply_threads(&args) {
        eprintln!("error: {e}");
        return ExitCode::from(EXIT_ERROR);
    }
    let result = match command.as_str() {
        "gen" => cmd_gen(&args),
        "build" => cmd_build(&args),
        "info" => cmd_info(&args),
        "query" => cmd_query(&args),
        "serve" => serve::cmd_serve(&args),
        "bench-client" => bench_client::cmd_bench_client(&args),
        "help" | "--help" | "-h" => {
            println!("{usage}");
            Ok(Outcome::Clean)
        }
        other => Err(CliError::Other(format!("unknown command '{other}'"))),
    };
    // Metrics are written even for failed/degraded runs: that is exactly
    // when the counters are most interesting.
    if let Some(path) = args.get("metrics-out") {
        if let Err(e) = write_metrics(path) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::from(EXIT_ERROR);
        }
    }
    match result {
        Ok(Outcome::Clean) => ExitCode::SUCCESS,
        Ok(Outcome::Degraded) => {
            eprintln!("warning: degraded results (probe failures or deadline skips)");
            ExitCode::from(EXIT_DEGRADED)
        }
        Err(CliError::Load(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(EXIT_LOAD_ERROR)
        }
        Err(CliError::Other(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}

/// Writes the global telemetry registry to `path` as a JSON snapshot.
fn write_metrics(path: &str) -> std::io::Result<()> {
    std::fs::write(path, pqfs_obs::global_json_snapshot())
}

/// The usage text, with the backend list pulled from the scan registry so
/// new kernels show up here automatically.
fn usage() -> String {
    format!(
        "pqfs — product-quantization fast scan toolbox

USAGE:
  pqfs gen    --out <file.fvecs> --n <count> [--dim 128] [--seed 0]
  pqfs build  --base <file.fvecs> --out <index.pqiv>
              [--train <file.fvecs>] [--partitions 8] [--seed 0]
              [--threads N]
  pqfs info   --index <index.pqiv>
  pqfs query  --index <index.pqiv> --queries <file.fvecs> [--topk 100]
              [--backend <name>] [--keep 0.005] [--nprobe 1]
              [--deadline-ms N] [--batch true] [--threads N]
              [--trace true]
  pqfs serve  --index <index.pqiv> [--addr 127.0.0.1:7071]
              [--queue 256] [--threads N]
  pqfs bench-client
              --addr <host:port> [--n 1000] [--batch 1] [--connections 1]
              [--topk 10] [--nprobe 1] [--keep 0.005] [--deadline-ms N]
              [--seed 0]

  --threads N  size of the shared worker pool used by build encoding,
               multi-probe (--nprobe > 1) and batch (--batch true) queries.
               1 to {}; defaults to all cores. The PQFS_THREADS
               environment variable sets the same limit.
  --batch true answer all queries as one parallel batch and report
               aggregate throughput instead of per-query latency.
  --deadline-ms N
               per-query time budget for multi-probe search: the nearest
               probe always runs, further probes are skipped once the
               budget is spent (skips are reported and exit code 3 flags
               the degraded run).
  --trace true print a per-query stage waterfall (coarse quantization,
               per-probe tables + scan, merge) to stderr. Not available
               with --batch true.
  --metrics-out <file>
               write the telemetry registry on exit as a JSON snapshot
               (any command, including serve's drain-then-exit; the same
               JSON whatever the file's extension).

  serve keeps the index hot in memory and answers the binary protocol
  (see docs/SERVING.md) until SIGTERM/ctrl-c, then drains in-flight
  requests and exits 0. It prints 'listening on <addr>' once ready.
  Each connection's thread runs its own request to completion (a batch
  frame fans out over the --threads pool); there is no queue and no
  timer to tune. --queue caps the requests admitted and not yet
  answered (overflow is shed with a typed Overloaded response, never
  queued unboundedly).

  bench-client sends synthetic load at a running serve and prints one
  JSON line: queries, answered, qps (answered queries per second),
  p50/p90/p99 latency (ms; null when none was answered), errors, shed.
  It exits 1 if any request failed or none was answered (shed responses
  are counted separately).

EXIT CODES: 0 success | 1 error (including a flag the command does not
            read, and any bench-client request failure) |
            2 artifact load failure | 3 degraded results
            (probe failures or deadline skips; query command only —
            serve reports degradation per response, not via its exit
            code)

The PQFS_FAILPOINTS environment variable arms deterministic fault
injection at named IO/search sites (testing; see the pqfs_fault crate).

BACKENDS: {}",
        pqfs_pool::MAX_THREADS,
        SearchBackend::names()
    )
}

/// Applies `--threads N` by exporting `PQFS_THREADS` before the lazily
/// created global pool first reads it (nothing touches the pool before
/// command dispatch).
fn apply_threads(args: &Args) -> Result<(), String> {
    if let Some(v) = args.get("threads") {
        let n = pqfs_pool::parse_threads(v).ok_or_else(|| {
            let max = pqfs_pool::MAX_THREADS;
            format!("--threads expects an integer in 1..={max}, got '{v}'")
        })?;
        std::env::set_var("PQFS_THREADS", n.to_string());
    }
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<Outcome, CliError> {
    args.allow_only(&["out", "n", "dim", "seed"])?;
    let out = args.require("out")?;
    let n = args.usize("n", 0)?;
    if n == 0 {
        return Err(CliError::Other("--n must be positive".into()));
    }
    let dim = args.usize("dim", 128)?;
    if dim == 0 {
        return Err(CliError::Other("--dim must be positive".into()));
    }
    let seed = args.u64("seed", 0)?;
    let cfg = SyntheticConfig::sift_like().with_dim(dim).with_seed(seed);
    let data = SyntheticDataset::new(&cfg).sample(n);
    write_fvecs(&out, &data, dim).map_err(|e| CliError::Other(e.to_string()))?;
    println!(
        "wrote {} vectors of dim {dim} to {out}",
        fmt_count(n as u64)
    );
    Ok(Outcome::Clean)
}

fn cmd_build(args: &Args) -> Result<Outcome, CliError> {
    args.allow_only(&["base", "out", "train", "partitions", "seed"])?;
    let base_path = args.require("base")?;
    let out = args.require("out")?;
    let partitions = args.usize("partitions", 8)?;
    let seed = args.u64("seed", 0)?;

    let base = read_fvecs(&base_path).map_err(|e| load_err(&format!("reading {base_path}"), e))?;
    if base.is_empty() {
        return Err(CliError::Other("base file holds no vectors".into()));
    }
    let dim = base.dim;
    if dim % 8 != 0 {
        return Err(CliError::Other(format!(
            "dim {dim} is not a multiple of 8 (PQ 8x8 requires it)"
        )));
    }

    // Training set: explicit file, or a sample of the base.
    let train: Vec<f32> = match args.get("train") {
        Some(path) => {
            let t = read_fvecs(path).map_err(|e| load_err(&format!("reading {path}"), e))?;
            if t.dim != dim {
                return Err(CliError::Other(format!(
                    "train dim {} != base dim {dim}",
                    t.dim
                )));
            }
            t.data
        }
        None => {
            let want = 20_000.min(base.len());
            let stride = (base.len() / want).max(1);
            let mut sample = Vec::with_capacity(want * dim);
            for i in (0..base.len()).step_by(stride) {
                sample.extend_from_slice(&base.data[i * dim..(i + 1) * dim]);
            }
            sample
        }
    };

    println!(
        "building: {} base vectors, dim {dim}, {partitions} partitions, {} threads",
        fmt_count(base.len() as u64),
        pqfs_pool::ThreadPool::global().threads()
    );
    let config = IvfadcConfig::new(dim, partitions).with_seed(seed);
    let start = Instant::now();
    let index = IvfadcIndex::build(&train, &base.data, &config)
        .map_err(|e| CliError::Other(e.to_string()))?;
    println!("built in {:.1} s", start.elapsed().as_secs_f64());
    index
        .save_file(&out)
        .map_err(|e| CliError::Other(e.to_string()))?;
    println!("saved to {out}");
    Ok(Outcome::Clean)
}

fn cmd_info(args: &Args) -> Result<Outcome, CliError> {
    args.allow_only(&["index"])?;
    let path = args.require("index")?;
    let index =
        IvfadcIndex::load_file(&path).map_err(|e| load_err(&format!("loading {path}"), e))?;
    let sizes = index.partition_sizes();
    println!("index: {path}");
    println!("  vectors     : {}", fmt_count(index.len() as u64));
    println!("  dim         : {}", index.coarse().dim());
    println!("  pq          : {}", index.pq().config());
    println!("  partitions  : {}", index.num_partitions());
    println!(
        "  sizes       : min {} / avg {} / max {}",
        sizes.iter().min().unwrap_or(&0),
        if sizes.is_empty() {
            0
        } else {
            sizes.iter().sum::<usize>() / sizes.len()
        },
        sizes.iter().max().unwrap_or(&0)
    );
    println!(
        "  code memory : {} bytes (row-major) / {} bytes (grouped)",
        fmt_count(8 * index.len() as u64),
        fmt_count(index.code_memory_bytes(SearchBackend::FastScan) as u64)
    );
    Ok(Outcome::Clean)
}

fn cmd_query(args: &Args) -> Result<Outcome, CliError> {
    args.allow_only(&[
        "index",
        "queries",
        "topk",
        "keep",
        "nprobe",
        "deadline-ms",
        "backend",
        "batch",
        "trace",
    ])?;
    let index_path = args.require("index")?;
    let query_path = args.require("queries")?;
    let topk = args.usize("topk", 100)?;
    let keep = SearchRequest::valid_keep(args.f64("keep", 0.005)?).map_err(CliError::Other)?;
    let nprobe = args.usize("nprobe", 1)?;
    let deadline = match args.get("deadline-ms") {
        Some(v) => {
            let ms: u64 = v.parse().map_err(|_| {
                CliError::Other(format!("--deadline-ms expects milliseconds, got '{v}'"))
            })?;
            Some(Duration::from_millis(ms))
        }
        None => None,
    };
    // Backend names come straight from the scan registry: every kernel the
    // workspace knows is selectable here with no CLI changes.
    let backend: SearchBackend = args
        .get("backend")
        .map(String::as_str)
        .unwrap_or("fastscan")
        .parse()
        .map_err(CliError::Other)?;

    let request = SearchRequest {
        topk,
        backend,
        keep,
        nprobe,
        deadline,
    };

    let index = IvfadcIndex::load_file(&index_path)
        .map_err(|e| load_err(&format!("loading {index_path}"), e))?;
    let queries =
        read_fvecs(&query_path).map_err(|e| load_err(&format!("reading {query_path}"), e))?;
    if queries.dim != index.coarse().dim() {
        return Err(CliError::Other(format!(
            "query dim {} != index dim {}",
            queries.dim,
            index.coarse().dim()
        )));
    }

    let tracing = args.get("trace").map(String::as_str) == Some("true");
    if args.get("batch").map(String::as_str) == Some("true") {
        if tracing {
            return Err(CliError::Other(
                "--trace is per-query; it is not available with --batch true".into(),
            ));
        }
        return query_batch(&index, &queries.data, &request);
    }

    let mut times = Vec::new();
    let mut degraded = false;
    // One trace reused across queries (reset keeps its allocation).
    let mut trace = pqfs_obs::QueryTrace::new();
    for (qi, q) in queries.data.chunks_exact(queries.dim).enumerate() {
        let start = Instant::now();
        let trace_out = tracing.then_some(&mut trace);
        let outcome = index.search(q, &request, pqfs_pool::ThreadPool::global(), trace_out);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let outcome = outcome.map_err(|e| CliError::Other(e.to_string()))?;
        if tracing {
            eprint!("query {qi} {}", trace.render_waterfall());
        }
        times.push(ms);
        let preview: Vec<String> = outcome
            .neighbors
            .iter()
            .take(5)
            .map(|n| format!("{}:{:.1}", n.id, n.dist))
            .collect();
        let health = outcome.health;
        let health_note = if health.degraded() {
            degraded = true;
            format!(
                " | probes ok {} failed {} skipped {}",
                health.probes_ok, health.probes_failed, health.probes_skipped
            )
        } else {
            String::new()
        };
        println!(
            "query {qi}: partition {} | {:.2} ms | pruned {:.1}%{health_note} | top: {}",
            outcome.partition,
            ms,
            100.0 * outcome.stats.pruned_fraction(),
            preview.join(" ")
        );
    }
    let n = times.len();
    let (median, p95) = (percentile(&mut times, 50.0), percentile(&mut times, 95.0));
    if let (true, Some(median), Some(p95)) = (n > 1, median, p95) {
        // `times` is sorted now: summed in that order, as `Summary::mean` sums.
        let mean = times.iter().sum::<f64>() / n as f64;
        println!("\n{n} queries: mean {mean:.2} ms | median {median:.2} ms | p95 {p95:.2} ms");
    }
    Ok(if degraded {
        Outcome::Degraded
    } else {
        Outcome::Clean
    })
}

/// `pqfs query --batch true`: answer every query as one parallel batch on
/// the shared pool (paper §3.1: one query per core, each query's probes
/// inline) and report aggregate throughput.
fn query_batch(
    index: &IvfadcIndex,
    queries: &[f32],
    request: &SearchRequest,
) -> Result<Outcome, CliError> {
    let rows: Vec<&[f32]> = queries.chunks_exact(index.coarse().dim()).collect();
    let n = rows.len();
    let pool = pqfs_pool::ThreadPool::global();
    let inline = pqfs_pool::ThreadPool::new(1);
    let start = Instant::now();
    let outcomes = pool.parallel_map(&rows, |_, q| index.search(q, request, &inline, None));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    // The first error in query order, whatever the pool size.
    let outcomes: Vec<_> = outcomes
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| CliError::Other(e.to_string()))?;
    let mut stats = pqfs_scan::ScanStats::default();
    let mut failed = 0usize;
    let mut skipped = 0usize;
    for o in &outcomes {
        stats.merge(&o.stats);
        failed += o.health.probes_failed;
        skipped += o.health.probes_skipped;
    }
    println!(
        "batch: {} queries | {} threads | {:.1} ms total | {:.0} queries/s | pruned {:.1}%",
        fmt_count(n as u64),
        pool.threads(),
        ms,
        n as f64 / (ms / 1e3),
        100.0 * stats.pruned_fraction()
    );
    if failed + skipped > 0 {
        println!("degraded: {failed} probe scans failed, {skipped} skipped by deadline");
        return Ok(Outcome::Degraded);
    }
    Ok(Outcome::Clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Summary`'s own percentile cases, so `query`'s summary line prints
    /// what `Summary` would.
    #[test]
    fn percentile_interpolates_like_summary() {
        let at = |mut sample: Vec<f64>, p| percentile(&mut sample, p);
        for (p, want) in [(0.0, 0.0), (25.0, 2.5), (50.0, 5.0), (100.0, 10.0)] {
            assert_eq!(at(vec![0.0, 10.0], p), Some(want));
        }
        assert_eq!(at(vec![7.0], 95.0), Some(7.0));
        assert_eq!(at(vec![5.0, 1.0, 3.0, 2.0, 4.0], 50.0), Some(3.0));
        assert_eq!(at(vec![], 50.0), None);
    }

    #[test]
    fn fmt_count_groups_thousands() {
        let counts = [0, 999, 1_234, 25_000_000].map(fmt_count);
        assert_eq!(counts, ["0", "999", "1_234", "25_000_000"]);
    }
}
