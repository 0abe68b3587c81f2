//! Loopback serving throughput: how much QPS does request batching buy?
//!
//! Starts an in-process `pqfs_server` on an ephemeral loopback port, then
//! drives the same query stream through it at client batch sizes 1, 8 and
//! 32. Larger frames amortize both the wire round-trip and the wave's
//! fixed costs, so QPS must rise with batch size; the binary exits 1 if
//! the largest batch does not beat batch=1. A last point sends
//! single-query frames over 8 connections: the server has no timer to
//! wait for company, so its `queries_per_wave` shows how much batching
//! accumulation alone buys when clients do not batch.
//!
//! Environment: `PQFS_N` base vectors (default 20 000), `PQFS_QUERIES`
//! per measurement point (default 512), `PQFS_CONNECTIONS` concurrent
//! client connections of the batch-size points (default 2).
//!
//! Output: one JSON line per point (`queries_per_wave` is null when
//! telemetry is compiled out) plus a summary line with the batch=max over
//! batch=1 speedup.

#![forbid(unsafe_code)]

use pqfs_bench::{env_usize, header, synthetic_index};
use pqfs_metrics::Summary;
use pqfs_server::proto::{QueryParams, Response};
use pqfs_server::server::{Server, ServerConfig};
use pqfs_server::Client;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH_SIZES: [usize; 3] = [1, 8, 32];
/// Connections of the closing single-query-frame point.
const ACCUMULATION_CONNECTIONS: usize = 8;
const WAVES: &str = "pqfs_server_batches_total";

fn main() {
    let n = env_usize("PQFS_N", 20_000);
    let queries_per_point = env_usize("PQFS_QUERIES", 512);
    let connections = env_usize("PQFS_CONNECTIONS", 2).max(1);
    header(
        "serve_qps",
        "serving layer (not in paper)",
        &format!("n={n} queries={queries_per_point} connections={connections}"),
    );

    let (index, queries) = synthetic_index(n, 8, queries_per_point, 42);
    let dim = index.dim();
    let handle = Server::start(
        Arc::new(index),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = handle.local_addr().to_string();

    let mut qps_by_batch = Vec::new();
    let points = BATCH_SIZES
        .map(|batch| (batch, connections))
        .into_iter()
        .chain([(1, ACCUMULATION_CONNECTIONS)]);
    for (batch, connections) in points {
        let waves_before = pqfs_obs::counter_value(WAVES, None);
        let (qps, p50_ms, seconds) =
            run_point(&addr, &queries, dim, queries_per_point, batch, connections);
        let waves = pqfs_obs::counter_value(WAVES, None) - waves_before;
        let queries_per_wave = if waves > 0 {
            format!("{:.2}", queries_per_point as f64 / waves as f64)
        } else {
            "null".to_string()
        };
        qps_by_batch.push(qps);
        println!(
            "{{\"batch\": {batch}, \"connections\": {connections}, \
             \"queries\": {queries_per_point}, \"seconds\": {seconds:.3}, \
             \"qps\": {qps:.1}, \"p50_ms\": {p50_ms:.3}, \
             \"queries_per_wave\": {queries_per_wave}}}"
        );
    }
    handle.shutdown_and_join();

    let speedup = qps_by_batch[BATCH_SIZES.len() - 1] / qps_by_batch[0].max(f64::MIN_POSITIVE);
    println!(
        "{{\"speedup_batch{}_vs_1\": {speedup:.2}}}",
        BATCH_SIZES[BATCH_SIZES.len() - 1]
    );
    if speedup <= 1.0 {
        eprintln!("error: batching did not improve QPS (speedup {speedup:.2}x)");
        std::process::exit(1);
    }
}

/// Sends `total` queries at one batch size and returns (qps, p50 ms, s).
fn run_point(
    addr: &str,
    queries: &[f32],
    dim: usize,
    total: usize,
    batch: usize,
    connections: usize,
) -> (f64, f64, f64) {
    let per_conn = total.div_ceil(connections);
    let started = Instant::now();
    let workers: Vec<_> = (0..connections)
        .map(|c| {
            let addr = addr.to_string();
            let lo = (c * per_conn).min(total);
            let hi = ((c + 1) * per_conn).min(total);
            let slice = queries[lo * dim..hi * dim].to_vec();
            std::thread::spawn(move || run_worker(&addr, &slice, dim, batch))
        })
        .collect();
    let mut latencies_ms = Vec::new();
    let mut answered = 0usize;
    for w in workers {
        let (count, lat) = w.join().expect("worker");
        answered += count;
        latencies_ms.extend(lat);
    }
    let seconds = started.elapsed().as_secs_f64();
    assert_eq!(answered, total, "every query answered");
    let p50 = Summary::from_values(&latencies_ms).percentile(50.0);
    (total as f64 / seconds.max(1e-9), p50, seconds)
}

/// One connection's share of the stream; returns (queries answered,
/// per-frame latencies in ms).
fn run_worker(addr: &str, queries: &[f32], dim: usize, batch: usize) -> (usize, Vec<f64>) {
    let count = queries.len() / dim;
    if count == 0 {
        return (0, Vec::new());
    }
    let params = QueryParams {
        topk: 10,
        nprobe: 1,
        keep: 0.05,
        deadline_us: 0,
        backend: String::new(),
    };
    let mut client =
        Client::connect_with(addr, Some(Duration::from_secs(30))).expect("client connect");
    let mut answered = 0usize;
    let mut latencies_ms = Vec::new();
    let mut sent = 0usize;
    while sent < count {
        let take = batch.min(count - sent);
        let slice = &queries[sent * dim..(sent + take) * dim];
        let t0 = Instant::now();
        let response = if take == 1 {
            client.query(slice, params.clone())
        } else {
            client.batch(slice, dim as u32, params.clone())
        }
        .expect("roundtrip");
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match response {
            Response::Query(a) => {
                assert!(!a.neighbors.is_empty(), "non-empty answer");
                answered += 1;
            }
            Response::Batch(answers) => {
                assert_eq!(answers.len(), take, "one answer per query");
                answered += answers.len();
            }
            other => panic!("unexpected response {other:?}"),
        }
        sent += take;
    }
    (answered, latencies_ms)
}
