//! The traced pass: one run of one workload that times each crate's public
//! calls from the outside and reports the per-layer metrics.
//!
//! Every metric is measured on the workload's own fixture with its own
//! `topk` and `nprobe`, so the same metric name reads differently from one
//! workload to the next; that difference is the point of the breakdown.

use crate::fixture::{build_index, ids, index_config, Data, Expected, Shadow};
use crate::report::{rss_mb, RunResult};
use crate::spec::{Driver, Workload, BACKEND, DIM, KEEP, QUERY_POOL};
use crate::stats::percentile;
use crate::suite::{expected_count, file_mb, secs, timed, Options, Res, System};
use crate::trace::{write_jsonl, Tracer};
use crate::workload::{self, query_params, Timing};
use pqfs_core::{DistanceTables, Neighbor, ProductQuantizer, TopK};
use pqfs_ivf::{CoarseQuantizer, IvfadcIndex, SearchBackend};
use pqfs_obs::jsonv::{self, Value};
use pqfs_pool::ThreadPool;
use pqfs_scan::{PreparedScanner, ScanParams, ScanScratch, ScanStats};
use pqfs_server::{Client, QueryAnswer, QueryRequest, Request, Response};
use std::time::{Duration, Instant};

/// Queries replayed stage by stage and sent one by one to the server.
const REPLAY_QUERIES: usize = 256;
/// Queries each backend scans for the kernel rates.
const KERNEL_QUERIES: usize = 64;
/// Repetitions of the small fixed-cost probes (dispatch, codec, health).
const MICRO_REPEATS: usize = 2000;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn p50(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// `kmeans.*` and `core.encode_mvps`: the public training calls that
/// `IvfadcIndex::build` makes, each timed on the run's training set.
fn training(data: &Data, opts: &Options, w: &Workload, out: &mut RunResult) -> Res<()> {
    let cfg = index_config(opts.fixture(w));
    let (coarse, took) =
        timed(|| CoarseQuantizer::train(&data.train, DIM, cfg.partitions, cfg.seed));
    let coarse = coarse?;
    out.set("kmeans.coarse_train_s", secs(took));
    let mut residuals = vec![0f32; data.train.len()];
    for (v, r) in data
        .train
        .chunks_exact(DIM)
        .zip(residuals.chunks_exact_mut(DIM))
    {
        coarse.residual_into(v, coarse.assign(v), r);
    }
    let (pq, took) = timed(|| ProductQuantizer::train(&residuals, &cfg.pq, cfg.seed));
    out.set("kmeans.pq_train_s", secs(took));
    let (codes, took) = timed(|| pq?.encode_batch(&residuals));
    out.set("core.encode_mvps", codes?.len() as f64 / secs(took) / 1e6);
    Ok(())
}

/// Replays `search_probes` stage by stage through the public calls it is
/// made of — coarse assignment, one table build and one scan per probe on
/// the shadow partitions, the top-k merge — with a span around each.
struct Replay<'a> {
    index: &'a IvfadcIndex,
    shadow: &'a Shadow,
    w: &'a Workload,
    tables: DistanceTables,
    scratch: ScanScratch,
    residual: Vec<f32>,
    /// Per-query stage times in µs; a query's probes are summed.
    coarse_us: Vec<f64>,
    tables_us: Vec<f64>,
    scan_us: Vec<f64>,
    merge_us: Vec<f64>,
    stats: ScanStats,
}

impl<'a> Replay<'a> {
    fn new(index: &'a IvfadcIndex, shadow: &'a Shadow, w: &'a Workload) -> Self {
        Replay {
            index,
            shadow,
            w,
            tables: DistanceTables::placeholder(),
            scratch: ScanScratch::default(),
            residual: vec![0f32; w.nprobe * DIM],
            coarse_us: Vec::new(),
            tables_us: Vec::new(),
            scan_us: Vec::new(),
            merge_us: Vec::new(),
            stats: ScanStats::default(),
        }
    }

    /// Replays one query and returns its merged neighbours.
    fn query(&mut self, id: u64, query: &[f32], tracer: &mut Tracer) -> Res<Vec<Neighbor>> {
        let (coarse, pq, w) = (self.index.coarse(), self.index.pq(), self.w);
        let params = ScanParams::new(w.topk).with_keep(KEEP);
        let root = tracer.begin(0, id, "loadgen", "replay");
        let residual = &mut self.residual;
        let (probes, took) = tracer.call(root, id, "ivf", "coarse.assign_multi+residual", || {
            let probes = coarse.assign_multi(query, w.nprobe);
            for (&p, r) in probes.iter().zip(residual.chunks_exact_mut(DIM)) {
                coarse.residual_into(query, p, r);
            }
            probes
        });
        self.coarse_us.push(us(took));
        let (mut tables_us, mut scan_us) = (0.0, 0.0);
        let mut lists = Vec::with_capacity(probes.len());
        for (&p, r) in probes.iter().zip(self.residual.chunks_exact(DIM)) {
            let part = &self.shadow.partitions[p];
            if part.ids.is_empty() {
                continue;
            }
            let tables = &mut self.tables;
            let (built, took) = tracer.call(root, id, "core", "tables.recompute", || {
                tables.recompute(pq, r)
            });
            built?;
            tables_us += us(took);
            let scratch = &mut self.scratch;
            let (result, took) = tracer.call(root, id, "scan", "prepared.scan_with", || {
                part.fastscan.scan_with(tables, &params, scratch)
            });
            scan_us += us(took);
            let result = result?;
            self.stats.merge(&result.stats);
            lists.push((&part.ids, result.neighbors));
        }
        self.tables_us.push(tables_us);
        self.scan_us.push(scan_us);
        let (merged, took) = tracer.call(root, id, "core", "topk.merge", || {
            let mut merged = TopK::new(w.topk);
            for (ids, list) in &lists {
                for n in list {
                    merged.push(n.dist, ids[n.id as usize]);
                }
            }
            merged.into_sorted()
        });
        self.merge_us.push(us(took));
        tracer.end(root);
        Ok(merged)
    }

    /// Reports the stage medians and returns their sum in µs.
    fn report(mut self, out: &mut RunResult) -> f64 {
        let queries = self.coarse_us.len().max(1) as f64;
        let coarse_us = p50(&mut self.coarse_us);
        let tables_us = p50(&mut self.tables_us);
        let scan_us = p50(&mut self.scan_us);
        let merge_us = p50(&mut self.merge_us);
        out.set("ivf.coarse_us", coarse_us);
        out.set("core.tables_us", tables_us);
        out.set("scan.scan_us", scan_us);
        out.set("core.merge_us", merge_us);
        out.set("scan.pruned_share", self.stats.pruned_fraction());
        out.set(
            "scan.verified_per_query",
            self.stats.verified as f64 / queries,
        );
        coarse_us + tables_us + scan_us + merge_us
    }
}

/// `scan.*_mvps`: vectors per second of each prepared backend scanning the
/// nearest shadow partition of each query, tables built beforehand.
fn kernel_rates(
    index: &IvfadcIndex,
    shadow: &Shadow,
    w: &Workload,
    data: &Data,
    out: &mut RunResult,
) -> Res<()> {
    let params = ScanParams::new(w.topk).with_keep(KEEP);
    let mut scratch = ScanScratch::default();
    let mut residual = vec![0f32; DIM];
    let mut vectors = 0usize;
    let mut spent = [Duration::ZERO; 3];
    for qi in 0..KERNEL_QUERIES {
        let query = data.query(qi);
        let p = index.coarse().assign(query);
        let part = &shadow.partitions[p];
        index.coarse().residual_into(query, p, &mut residual);
        let tables = DistanceTables::compute(index.pq(), &residual)?;
        vectors += part.ids.len();
        let backends: [&dyn PreparedScanner; 3] = [
            part.fastscan.as_ref(),
            part.libpq.as_ref(),
            part.naive.as_ref(),
        ];
        for (slot, backend) in backends.into_iter().enumerate() {
            let (result, took) = timed(|| backend.scan_with(&tables, &params, &mut scratch));
            std::hint::black_box(result?);
            spent[slot] += took;
        }
    }
    let rate = |slot: usize| vectors as f64 / secs(spent[slot]) / 1e6;
    out.set("scan.fastscan_mvps", rate(0));
    out.set("scan.libpq_mvps", rate(1));
    out.set("scan.naive_mvps", rate(2));
    out.set("scan.fastscan_vs_libpq", rate(0) / rate(1));
    Ok(())
}

/// `pool.dispatch_us.N`: what fanning `N` empty tasks over the global pool
/// and collecting them costs.
fn pool_dispatch(tasks: usize) -> f64 {
    let pool = ThreadPool::global();
    let items = vec![0u8; tasks];
    let mut times: Vec<f64> = (0..MICRO_REPEATS)
        .map(|_| us(timed(|| std::hint::black_box(pool.parallel_map(&items, |_, _| ()))).1))
        .collect();
    p50(&mut times)
}

/// `server.codec_us`: request and response of one query through
/// `to_frame`/`from_frame` and back, with no socket involved.
fn codec_us(w: &Workload, data: &Data, expected: &Expected) -> f64 {
    let request = Request::Query(QueryRequest {
        params: query_params(w),
        dim: DIM as u32,
        queries: data.query(0).to_vec(),
    });
    let response = Response::Query(QueryAnswer {
        probes_ok: w.nprobe as u32,
        neighbors: expected.answers[0].clone(),
        ..QueryAnswer::default()
    });
    let mut times: Vec<f64> = (0..MICRO_REPEATS)
        .map(|_| {
            let (_, took) = timed(|| {
                let decoded = Request::from_frame(&request.to_frame());
                let answered = Response::from_frame(&response.to_frame());
                std::hint::black_box((decoded.is_ok(), answered.is_ok()))
            });
            us(took)
        })
        .collect();
    p50(&mut times)
}

/// The server's own counters, read from its stats frame.
struct ServerStats(Option<Value>);

impl ServerStats {
    fn fetch(client: &mut Client) -> ServerStats {
        ServerStats(
            client
                .stats()
                .ok()
                .and_then(|text| jsonv::parse(&text).ok()),
        )
    }

    fn number(&self, section: &str, key: &str, field: Option<&str>) -> Option<f64> {
        let entry = self.0.as_ref()?.get(section)?.get(key)?;
        match field {
            Some(field) => entry.get(field)?.as_f64(),
            None => entry.as_f64(),
        }
    }

    /// Mean of a histogram's observations since `earlier`.
    fn mean_since(&self, earlier: &ServerStats, histogram: &str) -> Option<f64> {
        let delta = |field| {
            Some(
                self.number("histograms", histogram, Some(field))?
                    - earlier
                        .number("histograms", histogram, Some(field))
                        .unwrap_or(0.0),
            )
        };
        let (sum, count) = (delta("sum_ns")?, delta("count")?);
        (count > 0.0).then(|| sum / count)
    }

    /// A counter's value; counters register on first use, so one that never
    /// fired is absent and reads 0 as long as the stats frame itself arrived.
    fn counter(&self, name: &str) -> Option<f64> {
        self.0.as_ref()?;
        Some(self.number("counters", name, None).unwrap_or(0.0))
    }

    /// `server.*` stats metrics: what the server counted since `earlier`.
    fn report_since(&self, earlier: &ServerStats, out: &mut RunResult) {
        out.set_opt(
            "server.queue_wait_mean_us",
            self.mean_since(earlier, "pqfs_server_queue_wait_ns")
                .map(|ns| ns / 1e3),
        );
        out.set_opt(
            "server.batch_queries_mean",
            self.mean_since(earlier, "pqfs_server_batch_queries"),
        );
        out.set_opt(
            "server.queue_depth_hwm",
            self.number("gauges", "pqfs_server_queue_depth_hwm", None),
        );
        const SHED: &str = "pqfs_server_shed_total";
        out.set_opt(
            "server.shed",
            self.counter(SHED)
                .zip(earlier.counter(SHED))
                .map(|(now, then)| now - then),
        );
    }
}

pub fn run_traced(w: &Workload, opts: &Options) -> Res<RunResult> {
    let fixture = opts.fixture(w);
    let data = Data::generate(fixture, opts.seed);
    let path = opts.index_path(w);
    let mut out = RunResult::new(w.name, opts.seed, true);
    let epoch = Instant::now();

    // Build, persist, load: the write side, one timed call each.
    training(&data, opts, w, &mut out)?;
    let (built, took) = timed(|| build_index(&data, fixture));
    let built = built?;
    out.set("ivf.build_s", secs(took));
    let (saved, took) = timed(|| built.save_file(&path));
    saved?;
    out.set("ivf.save_s", secs(took));
    out.note("index_file_mb", file_mb(&path)?);
    drop(built);
    let (loaded, took) = timed(|| IvfadcIndex::load_file(&path));
    out.set("ivf.load_s", secs(took));
    drop(loaded?);
    let system = System::serve(&path)?;
    std::fs::remove_file(&path)?;
    let index = &*system.index;
    out.set_opt("rss_after_load_mb", rss_mb());
    for backend in [
        SearchBackend::FastScan,
        SearchBackend::Libpq,
        SearchBackend::Naive,
    ] {
        let name = format!("ivf.code_memory_mb.{}", backend.name());
        out.set(&name, index.code_memory_bytes(backend) as f64 / 1e6);
    }
    let shadow = Shadow::build(index, &data.base)?;
    out.set("ivf.prepare_s", secs(shadow.prepare));

    let expected_n = expected_count(w, fixture).max(REPLAY_QUERIES.min(QUERY_POOL));
    let expected = Expected::compute(index, w, &data, expected_n);
    out.attempted += expected.attempted;
    out.failed += expected.failed;
    kernel_rates(index, &shadow, w, &data, &mut out)?;
    out.set("pool.dispatch_us.8", pool_dispatch(8));
    out.set("pool.dispatch_us.32", pool_dispatch(32));
    let addr = system.addr().ok_or("the traced pass always serves")?;
    let mut client = Client::connect(addr)?;
    let mut floor_ms = Vec::with_capacity(MICRO_REPEATS);
    for _ in 0..MICRO_REPEATS {
        let (health, took) = timed(|| client.health());
        health?;
        floor_ms.push(us(took) / 1e3);
    }
    out.set("server.rtt_floor_ms", p50(&mut floor_ms));
    out.set("server.codec_us", codec_us(w, &data, &expected));

    // One query at a time, three ways in a row, so that the host's speed is
    // the same for all three: the whole library call untraced, its stages
    // replayed one by one, and the round trip through the server. The
    // replayed ids and the server's answer must be the library's own.
    let stats_before = ServerStats::fetch(&mut client);
    let replayed = REPLAY_QUERIES.min(expected.answers.len());
    let mut tracer = Tracer::new(epoch, 1 << 10);
    let mut replay = Replay::new(index, &shadow, w);
    let (mut library_us, mut rtt_ms) = (Vec::new(), Vec::new());
    for qi in 0..replayed {
        let query = data.query(qi);
        let (answer, took) = timed(|| index.search_probes(query, w.topk, BACKEND, KEEP, w.nprobe));
        library_us.push(us(took));
        let replayed_ids = ids(&replay.query(qi as u64, query, &mut tracer)?);
        let (response, took) = timed(|| client.query(query, query_params(w)));
        rtt_ms.push(us(took) / 1e3);
        let wanted = &expected.answers[qi];
        let ok = matches!(&answer, Ok(a) if a.neighbors == *wanted)
            && replayed_ids == ids(wanted)
            && matches!(&response, Ok(Response::Query(a)) if a.neighbors == *wanted);
        out.attempted += 1;
        out.failed += u64::from(!ok);
    }
    let library_p50_us = p50(&mut library_us);
    let stage_sum_us = replay.report(&mut out);
    out.set("trace.reconcile_ratio", stage_sum_us / library_p50_us);
    out.set("pool.fanout_gap_us", library_p50_us - stage_sum_us);
    out.set(
        "server.overhead_ms",
        p50(&mut rtt_ms) - library_p50_us / 1e3,
    );
    out.note("library_p50_us", library_p50_us);

    // The workload itself: the traced window between two short untraced
    // ones for reference, with the pool's counters read on both sides of it.
    let timing = opts.timing();
    let reference = Timing {
        window: timing.window / 4,
        ..timing
    };
    let run_plain = || {
        workload::run(w, &system, &data, &expected, reference, None)
            .summary(w, reference)
            .scaled
    };
    let before = run_plain();
    let counter = |name| pqfs_obs::counter_value(name, None) as f64;
    let (steals, busy_ns) = (
        counter("pqfs_pool_steals_total"),
        counter("pqfs_pool_busy_ns_total"),
    );
    let (window, wall) = timed(|| workload::run(w, &system, &data, &expected, timing, Some(epoch)));
    out.set("pool.steals", counter("pqfs_pool_steals_total") - steals);
    out.set(
        "pool.busy_share",
        (counter("pqfs_pool_busy_ns_total") - busy_ns)
            / (wall.as_nanos() as f64 * ThreadPool::global().threads() as f64),
    );
    let stats_after = ServerStats::fetch(&mut client);
    let after = run_plain();
    let plain_qps = (before.qps + after.qps) / 2.0;
    let plain_p50_ms = (before.p50_ms + after.p50_ms) / 2.0;
    let traced = window.summary(w, timing);
    out.set("host.speed", traced.host_speed);
    let traced = traced.scaled;
    out.attempted += window.attempted;
    out.failed += window.failed;
    // An open loop's rate is fixed by its schedule, so there the cost of
    // tracing shows in the latency instead.
    out.set(
        "trace.overhead_share",
        if w.driver == Driver::ServeOpenLoop {
            traced.p50_ms / plain_p50_ms - 1.0
        } else {
            1.0 - traced.qps / plain_qps
        },
    );
    out.set("loadgen.late_share", window.late_share());
    out.set("loadgen.max_lag_ms", window.max_lag_ms());
    out.set("loadgen.p99_ms", traced.p99_ms);
    stats_after.report_since(&stats_before, &mut out);
    out.note("traced_qps", traced.qps);
    out.note("untraced_reference_qps", plain_qps);
    out.note("traced_p50_ms", traced.p50_ms);
    out.note("stage_sum_us", stage_sum_us);
    drop(client);
    drop(system);

    let mut spans = tracer.into_spans();
    spans.extend(window.spans);
    let trace_path = opts.out_dir.join(format!("trace_{}.jsonl", w.name));
    write_jsonl(&trace_path, w.name, &spans)?;
    out.note("spans", spans.len());
    out.note("trace_file", trace_path.display());
    Ok(out)
}
