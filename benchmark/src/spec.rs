//! What the benchmark measures: fixtures, workloads and metric names.
//!
//! `BENCHMARK.json` at the repository root repeats the workload and metric
//! names with their bounds; the `benchmark_json_matches_the_code` test keeps
//! the two in step.

use pqfs_ivf::SearchBackend;

/// Vector dimensionality of every fixture (`SyntheticConfig::sift_like`).
pub const DIM: usize = 128;
/// Fast Scan warm-up fraction: the shipped default of `ScanParams`,
/// `ScanOpts`, the CLI and the wire protocol.
pub const KEEP: f64 = 0.005;
/// The backend every workload queries with (the shipped default).
pub const BACKEND: SearchBackend = SearchBackend::FastScan;
/// Seed of the corpus and of index training. Like ANN_SIFT1B in the paper,
/// the corpus is one fixed set: `--seed` draws the queries, not the data,
/// because a new corpus moves every metric by more than any bound (k-means
/// cuts other partitions, pruning changes) and says nothing about the code.
pub const CORPUS_SEED: u64 = 42;
/// Distinct queries a workload cycles through.
pub const QUERY_POOL: usize = 1024;
/// Query vectors drawn after the corpus; `--seed` picks `QUERY_POOL` of
/// them and their order.
pub const QUERY_RESERVOIR: usize = 16 * QUERY_POOL;
/// Leading pool queries whose answers are compared with
/// `SearchBackend::Naive` at the same nprobe (the paper's exactness claim).
pub const NAIVE_CHECKED: usize = 64;
/// Total request rate of the open-loop workload, in queries per second.
pub const OPEN_LOOP_RATE: f64 = 400.0;
/// Queries per frame of the batch serving workload.
pub const BATCH_FRAME: usize = 32;
/// A request is late when it is sent this long after it was due.
pub const LATE_AFTER_MS: f64 = 1.0;
/// Segments the measured window is cut into; rate and percentile metrics
/// are the median of the per-segment values.
pub const SEGMENTS: usize = 8;
/// Default length of the measured window in seconds: `run_seconds` of
/// `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 6.0;
/// Warm-up before the measured window, in seconds.
pub const WARMUP_S: f64 = 1.0;
/// True neighbours per recall query that must show up in the answer.
pub const RECALL_DEPTH: usize = 10;

/// An index fixture: how many vectors, cut into how many partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fixture {
    pub name: &'static str,
    pub vectors: usize,
    pub partitions: usize,
    pub train: usize,
    /// Queries the recall ground truth is computed for (sized so both
    /// fixtures pay about the same brute-force cost).
    pub recall_queries: usize,
}

/// Large partitions (~250 k each, grouped on 3 components like any partition
/// from 204 800 vectors up): the paper's regime, where Fast Scan prunes most
/// of a partition and the scan kernel is nearly all of a query. At 150 k per
/// partition Fast Scan already loses to libpq at topk 100.
pub const LARGE: Fixture = Fixture {
    name: "L",
    vectors: 500_000,
    partitions: 2,
    train: 10_000,
    recall_queries: 384,
};

/// Small partitions (a few hundred to ~9 000 each): the regime of the
/// server fixtures, where per-query overhead outweighs the kernel.
pub const SMALL: Fixture = Fixture {
    name: "S",
    vectors: 100_000,
    partitions: 32,
    train: 10_000,
    recall_queries: 1024,
};

impl Fixture {
    /// The fixture at one tenth of its size (`--quick`; not for claims).
    pub fn quick(self) -> Fixture {
        Fixture {
            vectors: self.vectors / 10,
            train: self.train / 2,
            recall_queries: self.recall_queries / 4,
            ..self
        }
    }
}

/// How a workload reaches the system and how its load is generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// One caller thread calling `IvfadcIndex::search_probes`, closed loop.
    Library,
    /// `nproc` connections sending single-query frames on a fixed schedule.
    ServeOpenLoop,
    /// `nproc` connections sending batch frames, each waiting for its reply.
    ServeBatchClosedLoop,
}

/// What a workload's `setup_s` times. The system has no online writes: its
/// write side is index build and persistence, and every workload pays one
/// part of it as set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setup {
    /// `IvfadcIndex::build` from raw vectors.
    Build,
    /// `save_file` then `load_file` of an index built beforehand.
    Reload,
    /// `load_file`, `Server::start`, and the first `health()` reply.
    Serve,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub fixture: Fixture,
    pub driver: Driver,
    pub setup: Setup,
    pub topk: usize,
    pub nprobe: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "scan_large_top100",
        fixture: LARGE,
        driver: Driver::Library,
        setup: Setup::Reload,
        topk: 100,
        nprobe: 1,
    },
    Workload {
        name: "scan_large_top1000",
        fixture: LARGE,
        driver: Driver::Library,
        setup: Setup::Reload,
        topk: 1000,
        nprobe: 1,
    },
    Workload {
        name: "probe_small_parts",
        fixture: SMALL,
        driver: Driver::Library,
        setup: Setup::Build,
        topk: 10,
        nprobe: 8,
    },
    Workload {
        name: "serve_single",
        fixture: SMALL,
        driver: Driver::ServeOpenLoop,
        setup: Setup::Serve,
        topk: 10,
        nprobe: 1,
    },
    Workload {
        name: "serve_batch32",
        fixture: LARGE,
        driver: Driver::ServeBatchClosedLoop,
        setup: Setup::Serve,
        topk: 10,
        nprobe: 1,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Whether a larger or a smaller value of a metric is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    def("qps", "1/s", Better::Higher),
    def("p50_ms", "ms", Better::Lower),
    def("recall_at_k", "share", Better::Higher),
    def("setup_s", "s", Better::Lower),
    def("index_file_mb", "MB", Better::Lower),
];

/// Per-layer metrics, measured by the traced pass.
pub const PER_LAYER: [MetricDef; 39] = [
    def("scan.fastscan_mvps", "Mvec/s", Better::Higher),
    def("scan.libpq_mvps", "Mvec/s", Better::Higher),
    def("scan.naive_mvps", "Mvec/s", Better::Higher),
    def("scan.fastscan_vs_libpq", "ratio", Better::Higher),
    def("scan.pruned_share", "share", Better::Higher),
    def("scan.verified_per_query", "count", Better::Lower),
    def("scan.scan_us", "us", Better::Lower),
    def("core.tables_us", "us", Better::Lower),
    def("core.merge_us", "us", Better::Lower),
    def("core.encode_mvps", "Mvec/s", Better::Higher),
    def("ivf.coarse_us", "us", Better::Lower),
    def("ivf.build_s", "s", Better::Lower),
    def("ivf.prepare_s", "s", Better::Lower),
    def("ivf.save_s", "s", Better::Lower),
    def("ivf.load_s", "s", Better::Lower),
    def("ivf.code_memory_mb.fastscan", "MB", Better::Lower),
    def("ivf.code_memory_mb.libpq", "MB", Better::Lower),
    def("ivf.code_memory_mb.naive", "MB", Better::Lower),
    def("kmeans.coarse_train_s", "s", Better::Lower),
    def("kmeans.pq_train_s", "s", Better::Lower),
    def("pool.dispatch_us.8", "us", Better::Lower),
    def("pool.dispatch_us.32", "us", Better::Lower),
    def("pool.steals", "count", Better::Lower),
    def("pool.busy_share", "share", Better::Higher),
    def("pool.fanout_gap_us", "us", Better::Lower),
    def("server.rtt_floor_ms", "ms", Better::Lower),
    def("server.overhead_ms", "ms", Better::Lower),
    def("server.codec_us", "us", Better::Lower),
    def("server.queue_wait_mean_us", "us", Better::Lower),
    def("server.batch_queries_mean", "count", Better::Higher),
    def("server.queue_depth_hwm", "count", Better::Lower),
    def("server.shed", "count", Better::Lower),
    def("loadgen.late_share", "share", Better::Lower),
    def("loadgen.max_lag_ms", "ms", Better::Lower),
    def("loadgen.p99_ms", "ms", Better::Lower),
    def("trace.overhead_share", "share", Better::Lower),
    def("trace.reconcile_ratio", "ratio", Better::Higher),
    def("rss_after_load_mb", "MB", Better::Lower),
    def("host.speed", "ratio", Better::Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use pqfs_obs::jsonv::{self, Value};

    fn names(list: &Value) -> Vec<String> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = jsonv::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let code = |defs: &[MetricDef]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(
            names(doc.get("workloads").unwrap()),
            WORKLOADS
                .iter()
                .map(|w| w.name.to_string())
                .collect::<Vec<_>>()
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
        assert_eq!(names(doc.get("end_to_end").unwrap()), code(&END_TO_END));
        assert_eq!(names(doc.get("per_layer").unwrap()), code(&PER_LAYER));
        for (list, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for (m, d) in doc.get(list).unwrap().as_array().unwrap().iter().zip(defs) {
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                let better = match d.better {
                    Better::Higher => "higher",
                    Better::Lower => "lower",
                };
                assert_eq!(
                    m.get("better").and_then(Value::as_str),
                    Some(better),
                    "{}",
                    d.name
                );
            }
        }
    }

    #[test]
    fn quick_fixtures_keep_their_shape() {
        let q = LARGE.quick();
        assert_eq!((q.vectors, q.partitions), (50_000, 2));
        assert_eq!(SMALL.quick().partitions, 32);
    }
}
