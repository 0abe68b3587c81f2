//! `pqfs bench-client`: a load generator for a running `pqfs serve`,
//! emitting JSON QPS and latency percentiles on stdout.

use crate::args::Args;
use crate::{percentile, CliError, Outcome};
use pqfs_data::{SyntheticConfig, SyntheticDataset};
use pqfs_ivf::SearchRequest;
use pqfs_server::proto::{QueryParams, Response};
use pqfs_server::Client;
use std::time::{Duration, Instant};

/// One worker's tally.
#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    answered: usize,
    errors: usize,
    shed: usize,
    /// Why the first failed request failed: the server's error code and
    /// message, else the client's error.
    cause: Option<String>,
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
    let params = query_params(args)?;
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
        all.answered += tally.answered;
        all.errors += tally.errors;
        all.shed += tally.shed;
        all.cause = all.cause.or(tally.cause);
    }
    let seconds = started.elapsed().as_secs_f64();
    let queries = all.answered + all.errors + all.shed;

    // Throughput counts answered queries only: a shed or failed frame took
    // no search. Latencies are per answered frame; none answered is `null`.
    let qps = if seconds > 0.0 {
        all.answered as f64 / seconds
    } else {
        0.0
    };
    let mut latencies = all.latencies_ms;
    let mut ms_at =
        |p| percentile(&mut latencies, p).map_or("null".into(), |ms| format!("{ms:.3}"));
    println!(
        "{{\"queries\": {}, \"answered\": {}, \"batch\": {}, \"connections\": {}, \
         \"seconds\": {:.3}, \"qps\": {:.1}, \"p50_ms\": {}, \"p90_ms\": {}, \
         \"p99_ms\": {}, \"errors\": {}, \"shed\": {}}}",
        queries,
        all.answered,
        batch,
        connections,
        seconds,
        qps,
        ms_at(50.0),
        ms_at(90.0),
        ms_at(99.0),
        all.errors,
        all.shed
    );
    if all.errors > 0 || all.answered == 0 {
        let cause = all.cause.map_or(String::new(), |c| format!("; first: {c}"));
        return Err(CliError::Other(format!(
            "{} of {} requests failed, {} shed{cause}",
            all.errors, queries, all.shed
        )));
    }
    Ok(Outcome::Clean)
}

/// The parameters every request carries. A flag left out takes its value
/// from [`QueryParams::default()`], so a run without flags measures what a
/// client that sets nothing gets.
fn query_params(args: &Args) -> Result<QueryParams, String> {
    let default = QueryParams::default();
    let topk = args.usize("topk", default.topk as usize)?;
    if topk == 0 {
        return Err("--topk must be positive".into());
    }
    let nprobe = args.usize("nprobe", default.nprobe as usize)?;
    Ok(QueryParams {
        topk: u32::try_from(topk).unwrap_or(u32::MAX),
        nprobe: u32::try_from(nprobe).unwrap_or(u32::MAX).max(1),
        keep: SearchRequest::valid_keep(args.f64("keep", default.keep)?)?,
        deadline_us: args.u64("deadline-ms", 0)?.saturating_mul(1000),
        ..default // backend: empty, which the server reads as fastscan
    })
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
        match outcome {
            Ok(Response::Query(_)) | Ok(Response::Batch(_)) => {
                tally.answered += take;
                tally.latencies_ms.push(ms);
            }
            Ok(Response::Overloaded { .. }) => tally.shed += take,
            failed => {
                tally.errors += take;
                tally.cause.get_or_insert_with(|| match failed {
                    Ok(Response::Error { code, message }) => format!("{code}: {message}"),
                    Ok(other) => format!("unexpected response {other:?}"),
                    Err(e) => e.to_string(),
                });
            }
        }
        sent += take;
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(str::to_string)).unwrap()
    }

    #[test]
    fn unset_flags_take_the_protocol_defaults() {
        assert_eq!(query_params(&args("")).unwrap(), QueryParams::default());
        let flags = args("--topk 100 --nprobe 0 --keep 0.05 --deadline-ms 3");
        let set = query_params(&flags).unwrap();
        assert_eq!(
            (set.topk, set.nprobe, set.keep, set.deadline_us),
            (100, 1, 0.05, 3_000)
        );
        // The server rejects a frame asking for no neighbours, so the
        // client refuses it before it connects.
        let refused = query_params(&args("--topk 0")).unwrap_err();
        assert!(refused.contains("--topk"), "{refused}");
    }
}
