//! Client↔server integration over a real loopback socket: single and
//! batch answers match direct index calls, deadlines degrade instead of
//! failing, overload sheds with a typed response, concurrent requests
//! coalesce into waves without a timer, the per-stage histograms add up
//! to the request latency, and shutdown drains in-flight work.
//!
//! Every test takes [`pqfs_fault::exclusive`]: the failpoint registry is
//! process-global, so fault-arming tests must not interleave.

use pqfs_fault::{scoped, FaultAction};
use pqfs_ivf::{IvfadcConfig, IvfadcIndex, SearchBackend, SearchRequest};
use pqfs_server::proto::{ErrorCode, QueryParams, Response};
use pqfs_server::server::{Server, ServerConfig, ServerHandle};
use pqfs_server::Client;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

const DIM: usize = 16;
const PARTITIONS: usize = 4;

fn fixture_index() -> Arc<IvfadcIndex> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut gen =
        |n: usize| -> Vec<f32> { (0..n * DIM).map(|_| rng.gen_range(0.0f32..255.0)).collect() };
    let train = gen(1200);
    let base = gen(400);
    let config = IvfadcConfig::new(DIM, PARTITIONS);
    Arc::new(IvfadcIndex::build(&train, &base, &config).expect("fixture index builds"))
}

fn start(config: ServerConfig) -> (Arc<IvfadcIndex>, ServerHandle) {
    let index = fixture_index();
    let handle = Server::start(Arc::clone(&index), config).expect("bind loopback");
    (index, handle)
}

fn query_vec(seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..DIM).map(|_| rng.gen_range(0.0f32..255.0)).collect()
}

#[test]
fn single_query_matches_direct_search() {
    let _lock = pqfs_fault::exclusive();
    let (index, handle) = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let health = client.health().expect("health");
    assert_eq!(health.dim as usize, DIM);
    assert_eq!(health.partitions as usize, PARTITIONS);
    assert_eq!(health.vectors as usize, index.len());

    for seed in 0..5 {
        let q = query_vec(seed);
        let params = QueryParams {
            topk: 10,
            nprobe: 1,
            keep: 0.05,
            ..QueryParams::default()
        };
        let response = client.query(&q, params).expect("transport ok");
        let Response::Query(answer) = response else {
            panic!("expected a query answer, got {response:?}");
        };
        let direct = index
            .search_probes(&q, 10, SearchBackend::FastScan, 0.05, 1)
            .expect("direct search");
        let got: Vec<u64> = answer.neighbors.iter().map(|n| n.id).collect();
        let want: Vec<u64> = direct.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(got, want, "served ids equal direct search (seed {seed})");
        assert!(!answer.degraded());
    }
    handle.shutdown_and_join();
}

#[test]
fn batch_query_matches_per_query_search() {
    let _lock = pqfs_fault::exclusive();
    let (index, handle) = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let count = 6usize;
    let mut queries = Vec::with_capacity(count * DIM);
    for seed in 100..100 + count as u64 {
        queries.extend(query_vec(seed));
    }
    let params = QueryParams {
        topk: 5,
        nprobe: 1,
        keep: 0.05,
        ..QueryParams::default()
    };
    let response = client
        .batch(&queries, DIM as u32, params)
        .expect("transport ok");
    let Response::Batch(answers) = response else {
        panic!("expected batch answers, got {response:?}");
    };
    assert_eq!(answers.len(), count);
    for (i, (answer, q)) in answers.iter().zip(queries.chunks_exact(DIM)).enumerate() {
        let outcome = index
            .search_probes(q, 5, SearchBackend::FastScan, 0.05, 1)
            .expect("direct search");
        let got: Vec<u64> = answer.neighbors.iter().map(|n| n.id).collect();
        let want: Vec<u64> = outcome.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(got, want, "batch member {i}");
    }
    handle.shutdown_and_join();
}

#[test]
fn expired_deadline_degrades_instead_of_failing() {
    let _lock = pqfs_fault::exclusive();
    let (_index, handle) = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let q = query_vec(55);
    let params = QueryParams {
        topk: 10,
        nprobe: PARTITIONS as u32,
        keep: 0.05,
        deadline_us: 1, // expires in the queue; only the nearest probe runs
        ..QueryParams::default()
    };
    let response = client.query(&q, params).expect("transport ok");
    let Response::Query(answer) = response else {
        panic!("expected a query answer, got {response:?}");
    };
    assert!(
        answer.probes_skipped > 0,
        "deadline must shed probes: {answer:?}"
    );
    assert!(
        answer.probes_ok >= 1,
        "the nearest probe always runs: {answer:?}"
    );
    assert!(!answer.neighbors.is_empty(), "degraded, not empty");
    handle.shutdown_and_join();
}

#[test]
fn overload_sheds_with_typed_response() {
    let _lock = pqfs_fault::exclusive();
    let config = ServerConfig {
        queue_capacity: 1,
        max_batch: 1,
        ..ServerConfig::default()
    };
    let (_index, handle) = start(config);
    // Every batch execution stalls 150 ms, so concurrent requests pile
    // into the 1-slot queue and the rest must shed.
    let _stall = scoped("server.batch.execute", FaultAction::Delay(150));

    let addr = handle.local_addr();
    let workers: Vec<_> = (0..6)
        .map(|seed| {
            thread::spawn(move || {
                let mut client =
                    Client::connect_with(addr, Some(Duration::from_secs(10))).expect("connect");
                let q = query_vec(seed);
                let params = QueryParams {
                    topk: 3,
                    nprobe: 1,
                    keep: 0.05,
                    ..QueryParams::default()
                };
                client.query(&q, params).expect("transport ok")
            })
        })
        .collect();

    let mut answered = 0usize;
    let mut shed = 0usize;
    for w in workers {
        match w.join().expect("worker thread") {
            Response::Query(_) => answered += 1,
            Response::Overloaded { capacity, depth } => {
                assert_eq!(capacity, 1);
                assert!(depth >= 1);
                shed += 1;
            }
            other => panic!("unexpected response under overload: {other:?}"),
        }
    }
    assert!(answered >= 1, "some requests must still be served");
    assert!(shed >= 1, "a full queue must shed, not stack up");
    #[cfg(feature = "telemetry")]
    assert!(
        pqfs_obs::counter_value("pqfs_server_shed_total", None) >= shed as u64,
        "shed counter records admission rejections"
    );
    handle.shutdown_and_join();
}

#[test]
fn concurrent_requests_coalesce_into_waves_by_accumulation() {
    let _lock = pqfs_fault::exclusive();
    let (index, handle) = start(ServerConfig::default());
    // Every wave stalls 50 ms: whatever arrives meanwhile is queued when
    // it ends, and must leave as one wave — there is no timer to wait out.
    let _stall = scoped("server.batch.execute", FaultAction::Delay(50));
    #[cfg(feature = "telemetry")]
    let waves_before = pqfs_obs::counter_value("pqfs_server_batches_total", None);

    const CLIENTS: u64 = 8;
    let addr = handle.local_addr();
    let connected = Arc::new(Barrier::new(CLIENTS as usize));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|seed| {
            let connected = Arc::clone(&connected);
            thread::spawn(move || {
                let mut client =
                    Client::connect_with(addr, Some(Duration::from_secs(10))).expect("connect");
                connected.wait();
                let params = QueryParams {
                    topk: 5,
                    nprobe: 2,
                    keep: 0.05,
                    ..QueryParams::default()
                };
                client
                    .query(&query_vec(seed), params)
                    .expect("transport ok")
            })
        })
        .collect();

    let inline = pqfs_pool::ThreadPool::new(1);
    for (seed, worker) in (0..CLIENTS).zip(workers) {
        let response = worker.join().expect("client thread");
        let Response::Query(answer) = response else {
            panic!("expected a query answer, got {response:?}");
        };
        let request = SearchRequest::new(5, SearchBackend::FastScan, 0.05, 2);
        let direct = index
            .search(&query_vec(seed), &request, &inline, None)
            .expect("direct search");
        let bits = |ns: &[pqfs_core::Neighbor]| -> Vec<(u64, u32)> {
            ns.iter().map(|n| (n.id, n.dist.to_bits())).collect()
        };
        assert_eq!(
            bits(&answer.neighbors),
            bits(&direct.neighbors),
            "a coalesced answer is bit-identical to the direct one (seed {seed})"
        );
    }
    #[cfg(feature = "telemetry")]
    {
        let waves = pqfs_obs::counter_value("pqfs_server_batches_total", None) - waves_before;
        assert!(
            (1..CLIENTS).contains(&waves),
            "{CLIENTS} concurrent requests must share waves, ran {waves}"
        );
    }
    handle.shutdown_and_join();
}

/// `(sum_ns, count)` of one histogram in a stats-frame snapshot.
#[cfg(feature = "telemetry")]
fn histogram_totals(snapshot: &pqfs_obs::jsonv::Value, name: &str) -> (f64, f64) {
    let field = |field: &str| {
        snapshot
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get(field))
            .and_then(pqfs_obs::jsonv::Value::as_f64)
            .unwrap_or(0.0)
    };
    (field("sum_ns"), field("count"))
}

#[cfg(feature = "telemetry")]
#[test]
fn stage_histograms_reconcile_with_request_latency() {
    let _lock = pqfs_fault::exclusive();
    let (_index, handle) = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let snapshot = |client: &mut Client| {
        pqfs_obs::jsonv::parse(&client.stats().expect("stats frame")).expect("JSON")
    };

    const REQUESTS: u64 = 300;
    let before = snapshot(&mut client);
    for seed in 0..REQUESTS {
        let params = QueryParams {
            topk: 10,
            nprobe: PARTITIONS as u32,
            keep: 0.05,
            ..QueryParams::default()
        };
        let response = client.query(&query_vec(seed), params).expect("transport");
        assert!(matches!(response, Response::Query(_)), "{response:?}");
    }
    let after = snapshot(&mut client);

    let delta = |name: &str| {
        let (sum_then, count_then) = histogram_totals(&before, name);
        let (sum_now, count_now) = histogram_totals(&after, name);
        (sum_now - sum_then, count_now - count_then)
    };
    let (total_ns, total_count) = delta("pqfs_server_request_ns");
    // The window also holds the first stats request (observed after its
    // own snapshot was rendered): one request, no queue wait or execute.
    assert_eq!(total_count, (REQUESTS + 1) as f64);
    let mut stages_ns = 0.0;
    for (stage, count) in [
        ("pqfs_server_queue_wait_ns", REQUESTS),
        ("pqfs_server_execute_ns", REQUESTS),
        ("pqfs_server_write_ns", REQUESTS + 1),
    ] {
        let (ns, observed) = delta(stage);
        assert_eq!(
            observed, count as f64,
            "{stage} is observed once per request"
        );
        stages_ns += ns;
    }
    // The stages are disjoint intervals inside each request, so they can
    // never exceed it; what they leave out (payload decode, validation,
    // handing the answer over) is a few microseconds per request —
    // about 1 % here when measured, so 20 % is slack for a noisy host.
    assert!(
        stages_ns <= total_ns,
        "stages {stages_ns} ns exceed requests {total_ns} ns"
    );
    assert!(
        stages_ns >= 0.8 * total_ns,
        "stages {stages_ns} ns explain too little of requests {total_ns} ns"
    );
    handle.shutdown_and_join();
}

#[test]
fn stats_frame_returns_parseable_json() {
    let _lock = pqfs_fault::exclusive();
    let (_index, handle) = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let _ = client
        .query(
            &query_vec(9),
            QueryParams {
                topk: 3,
                nprobe: 1,
                keep: 0.05,
                ..QueryParams::default()
            },
        )
        .expect("transport ok");
    let json = client.stats().expect("stats frame");
    #[cfg(feature = "telemetry")]
    {
        let _value = pqfs_obs::jsonv::parse(&json).expect("stats snapshot parses as JSON");
        assert!(
            json.contains("pqfs_server_requests_total"),
            "snapshot carries server metrics: {json}"
        );
    }
    #[cfg(not(feature = "telemetry"))]
    assert!(!json.is_empty());
    handle.shutdown_and_join();
}

#[test]
fn bad_requests_get_typed_errors_and_connection_survives() {
    let _lock = pqfs_fault::exclusive();
    let (_index, handle) = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Wrong dimensionality.
    let response = client
        .query(&[1.0f32; 3], QueryParams::default())
        .expect("transport ok");
    let Response::Error { code, message } = response else {
        panic!("expected an error, got {response:?}");
    };
    assert_eq!(code, ErrorCode::BadRequest);
    assert!(message.contains("dim"), "{message}");

    // Unknown backend names, including the scans the paper only measures,
    // and one the encoder cuts at its 64-byte cap inside a two-byte char:
    // the cut lands on the char boundary, so it is still an unknown name
    // and not a payload that fails to decode.
    let long = format!("{}é", "a".repeat(63));
    for backend in ["warp-drive", "avx", "gather", "quantize-only", &long] {
        let response = client
            .query(
                &query_vec(1),
                QueryParams {
                    backend: backend.to_string(),
                    ..QueryParams::default()
                },
            )
            .expect("transport ok");
        assert!(
            matches!(
                response,
                Response::Error {
                    code: ErrorCode::BadRequest,
                    ..
                }
            ),
            "unknown backend {backend} rejected: {response:?}"
        );
    }

    // Bad keep fraction.
    let response = client
        .query(
            &query_vec(2),
            QueryParams {
                keep: 0.0,
                ..QueryParams::default()
            },
        )
        .expect("transport ok");
    assert!(
        matches!(
            response,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "keep=0 rejected: {response:?}"
    );

    // The connection is still usable after request-level errors.
    let health = client.health().expect("connection survived");
    assert_eq!(health.dim as usize, DIM);
    handle.shutdown_and_join();
}

#[test]
fn shutdown_answers_in_flight_work_then_drains() {
    let _lock = pqfs_fault::exclusive();
    let (_index, handle) = start(ServerConfig::default());
    // Stall execution long enough that shutdown fires while the request
    // is in flight.
    let _stall = scoped("server.batch.execute", FaultAction::Delay(150));

    let addr = handle.local_addr();
    let inflight = thread::spawn(move || {
        let mut client =
            Client::connect_with(addr, Some(Duration::from_secs(10))).expect("connect");
        client
            .query(
                &query_vec(3),
                QueryParams {
                    topk: 3,
                    nprobe: 1,
                    keep: 0.05,
                    ..QueryParams::default()
                },
            )
            .expect("transport ok")
    });
    // Let the request start its wave, then start draining.
    thread::sleep(Duration::from_millis(40));
    handle.trigger_shutdown();

    let response = inflight.join().expect("in-flight worker");
    assert!(
        matches!(response, Response::Query(_)),
        "in-flight request answered during drain: {response:?}"
    );

    // After the queue closed, fresh work is refused with a typed error
    // (as long as the connection is admitted before the acceptor stops).
    if let Ok(mut late) = Client::connect_with(addr, Some(Duration::from_secs(2))) {
        if let Ok(response) = late.query(&query_vec(4), QueryParams::default()) {
            assert!(
                matches!(
                    response,
                    Response::Error {
                        code: ErrorCode::ShuttingDown,
                        ..
                    }
                ),
                "late request refused: {response:?}"
            );
        }
    }
    handle.shutdown_and_join();
    assert!(handle.is_shutting_down());
    assert_eq!(handle.queue_depth(), 0, "queue fully drained");
}
