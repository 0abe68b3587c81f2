//! `pqfs bench-client`: a load generator for a running `pqfs serve`,
//! emitting JSON QPS and latency percentiles on stdout.

use crate::args::Args;
use crate::{CliError, Outcome};
use pqfs_data::{SyntheticConfig, SyntheticDataset};
use pqfs_metrics::Summary;
use pqfs_server::proto::{QueryParams, Response};
use pqfs_server::Client;
use std::time::{Duration, Instant};

/// One worker's tally.
#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    queries: usize,
    errors: usize,
    shed: usize,
}

pub fn cmd_bench_client(args: &Args) -> Result<Outcome, CliError> {
    args.allow_only(&[
        "addr",
        "n",
        "batch",
        "connections",
        "topk",
        "nprobe",
        "keep",
        "deadline-ms",
        "seed",
    ])?;
    let addr = args.require("addr")?;
    let n = args.usize("n", 1000)?;
    let batch = args.usize("batch", 1)?.max(1);
    let connections = args.usize("connections", 1)?.max(1);
    let topk = args.usize("topk", 10)?;
    let nprobe = args.usize("nprobe", 1)?;
    let keep = args.f64("keep", 0.05)?;
    let deadline_ms = args.u64("deadline-ms", 0)?;
    let seed = args.u64("seed", 0)?;
    if n == 0 {
        return Err(CliError::Other("--n must be positive".into()));
    }

    // The served dimensionality comes from the health frame, so the
    // generator always matches the index.
    let dim = {
        let mut probe = Client::connect_with(&*addr, Some(Duration::from_secs(10)))
            .map_err(|e| CliError::Other(format!("connecting to {addr}: {e}")))?;
        let health = probe
            .health()
            .map_err(|e| CliError::Other(format!("health check: {e}")))?;
        health.dim as usize
    };
    if dim == 0 {
        return Err(CliError::Other("server reports dim 0".into()));
    }

    let params = QueryParams {
        topk: u32::try_from(topk).unwrap_or(u32::MAX),
        nprobe: u32::try_from(nprobe).unwrap_or(u32::MAX).max(1),
        keep,
        deadline_us: deadline_ms.saturating_mul(1000),
        backend: String::new(), // server default
    };

    // Frames per worker: n queries split across connections, then into
    // batch-sized frames (the tail frame may be smaller).
    let per_conn = n.div_ceil(connections);
    let started = Instant::now();
    let workers: Vec<_> = (0..connections)
        .map(|c| {
            let addr = addr.clone();
            let params = params.clone();
            let count = per_conn.min(n.saturating_sub(c * per_conn));
            let worker_seed = seed.wrapping_add(c as u64).wrapping_mul(0x9E3779B9);
            std::thread::spawn(move || run_worker(&addr, dim, count, batch, &params, worker_seed))
        })
        .collect();

    let mut all = Tally::default();
    for w in workers {
        let tally = w
            .join()
            .map_err(|_| CliError::Other("bench worker panicked".into()))??;
        all.latencies_ms.extend(tally.latencies_ms);
        all.queries += tally.queries;
        all.errors += tally.errors;
        all.shed += tally.shed;
    }
    let seconds = started.elapsed().as_secs_f64();

    let s = Summary::from_values(&all.latencies_ms);
    let qps = if seconds > 0.0 {
        all.queries as f64 / seconds
    } else {
        0.0
    };
    println!(
        "{{\"queries\": {}, \"batch\": {}, \"connections\": {}, \"seconds\": {:.3}, \
         \"qps\": {:.1}, \"p50_ms\": {:.3}, \"p90_ms\": {:.3}, \"p99_ms\": {:.3}, \
         \"errors\": {}, \"shed\": {}}}",
        all.queries,
        batch,
        connections,
        seconds,
        qps,
        s.percentile(50.0),
        s.percentile(90.0),
        s.percentile(99.0),
        all.errors,
        all.shed
    );
    if all.errors > 0 {
        return Err(CliError::Other(format!(
            "{} of {} requests failed",
            all.errors, all.queries
        )));
    }
    Ok(Outcome::Clean)
}

/// Sends `count` queries over one connection in `batch`-sized frames.
fn run_worker(
    addr: &str,
    dim: usize,
    count: usize,
    batch: usize,
    params: &QueryParams,
    seed: u64,
) -> Result<Tally, CliError> {
    let mut tally = Tally::default();
    if count == 0 {
        return Ok(tally);
    }
    let config = SyntheticConfig::sift_like().with_dim(dim).with_seed(seed);
    let queries = SyntheticDataset::new(&config).sample(count);
    let mut client = Client::connect_with(addr, Some(Duration::from_secs(30)))
        .map_err(|e| CliError::Other(format!("connecting to {addr}: {e}")))?;

    let mut sent = 0usize;
    while sent < count {
        let take = batch.min(count - sent);
        let slice = &queries[sent * dim..(sent + take) * dim];
        let t0 = Instant::now();
        let outcome = if take == 1 {
            client.query(slice, params.clone())
        } else {
            client.batch(slice, dim as u32, params.clone())
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tally.queries += take;
        match outcome {
            Ok(Response::Query(_)) | Ok(Response::Batch(_)) => tally.latencies_ms.push(ms),
            Ok(Response::Overloaded { .. }) => tally.shed += take,
            Ok(_) | Err(_) => tally.errors += take,
        }
        sent += take;
    }
    Ok(tally)
}
