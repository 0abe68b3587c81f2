//! The IVFADC index: inverted lists of residual PQ codes and the three-step
//! query pipeline of the paper's Algorithm 1.

use crate::coarse::CoarseQuantizer;
use crate::IvfError;
use pqfs_core::{DistanceTables, Neighbor, PqConfig, ProductQuantizer, RowMajorCodes};
use pqfs_obs::{LazyCounter, LazyHistogram, ProbeOutcome, ProbeTrace, QueryTrace};
use pqfs_pool::ThreadPool;
use pqfs_scan::{
    FastScanIndex, ScanError, ScanOpts, ScanParams, ScanResult, ScanScratch, ScanStats,
};
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

static QUERIES: LazyCounter = LazyCounter::new("pqfs_ivf_queries_total", "IVF queries served");
static PROBES_OK: LazyCounter = LazyCounter::labeled(
    "pqfs_ivf_probes_total",
    "Probed partitions by outcome",
    "outcome",
    "ok",
);
static PROBES_FAILED: LazyCounter = LazyCounter::labeled(
    "pqfs_ivf_probes_total",
    "Probed partitions by outcome",
    "outcome",
    "failed",
);
static PROBES_SKIPPED: LazyCounter = LazyCounter::labeled(
    "pqfs_ivf_probes_total",
    "Probed partitions by outcome",
    "outcome",
    "skipped",
);
static PROBES_DEADLINE: LazyCounter = LazyCounter::labeled(
    "pqfs_ivf_probes_total",
    "Probed partitions by outcome",
    "outcome",
    "deadline",
);
static PROBES_BOUNDED_OUT: LazyCounter = LazyCounter::new(
    "pqfs_ivf_probes_bounded_out_total",
    "Probes answered from the entry bound alone: it was below the sum of the table minima",
);
static TABLES_BUILT: LazyCounter = LazyCounter::new(
    "pqfs_ivf_tables_built_total",
    "Distance-table computations (Algorithm 1 step 2)",
);
static TABLES_WASTED: LazyCounter = LazyCounter::new(
    "pqfs_ivf_tables_wasted_total",
    "Table computations short-circuited because the query deadline had already expired",
);
static COARSE_NS: LazyHistogram = LazyHistogram::new(
    "pqfs_ivf_coarse_ns",
    "Coarse quantization (partition selection) latency",
);
static TABLES_NS: LazyHistogram = LazyHistogram::new(
    "pqfs_ivf_tables_ns",
    "Per-probe distance-table build latency",
);
static SCAN_NS: LazyHistogram =
    LazyHistogram::new("pqfs_ivf_scan_ns", "Per-probe partition scan latency");
static MERGE_NS: LazyHistogram = LazyHistogram::new("pqfs_ivf_merge_ns", "Result merge latency");
static TOTAL_NS: LazyHistogram = LazyHistogram::new("pqfs_ivf_query_ns", "Whole-query latency");

const SCANNED_HELP: &str = "Vectors scanned, by backend";
const PRUNED_HELP: &str = "Vectors pruned by the lower-bound test, by backend";
/// Per-backend scanned/pruned counters, indexed by the backend's position
/// in [`SearchBackend::ALL`] (see [`backend_slot`]).
static SCANNED_BY_BACKEND: [LazyCounter; 3] = [
    LazyCounter::labeled(
        "pqfs_scan_vectors_scanned_total",
        SCANNED_HELP,
        "backend",
        "naive",
    ),
    LazyCounter::labeled(
        "pqfs_scan_vectors_scanned_total",
        SCANNED_HELP,
        "backend",
        "libpq",
    ),
    LazyCounter::labeled(
        "pqfs_scan_vectors_scanned_total",
        SCANNED_HELP,
        "backend",
        "fastscan",
    ),
];
static PRUNED_BY_BACKEND: [LazyCounter; 3] = [
    LazyCounter::labeled(
        "pqfs_scan_vectors_pruned_total",
        PRUNED_HELP,
        "backend",
        "naive",
    ),
    LazyCounter::labeled(
        "pqfs_scan_vectors_pruned_total",
        PRUNED_HELP,
        "backend",
        "libpq",
    ),
    LazyCounter::labeled(
        "pqfs_scan_vectors_pruned_total",
        PRUNED_HELP,
        "backend",
        "fastscan",
    ),
];
// The counter arrays above are positional over SearchBackend::ALL.
const _: () = assert!(pqfs_scan::Backend::ALL.len() == 3);

/// Index of `backend` in [`SearchBackend::ALL`] (the per-backend counter
/// arrays are positional over it).
fn backend_slot(backend: SearchBackend) -> usize {
    SearchBackend::ALL
        .iter()
        .position(|&b| b == backend)
        .unwrap_or_else(|| unreachable!("SearchBackend::ALL covers every variant"))
}

/// Records one completed scan's counters for `backend`.
fn record_scan_counters(backend: SearchBackend, stats: &ScanStats) {
    let slot = backend_slot(backend);
    SCANNED_BY_BACKEND[slot].add(stats.scanned);
    PRUNED_BY_BACKEND[slot].add(stats.pruned);
}

/// Per-thread query state reused across queries: the residual buffer, the
/// distance tables of Algorithm 1's step 2, and the Fast Scan quantized
/// table buffers. One instance lives in each pool worker (and the caller),
/// so steady-state query execution performs no table/buffer allocation.
struct QueryScratch {
    residual: Vec<f32>,
    tables: DistanceTables,
    scan: ScanScratch,
}

thread_local! {
    static SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch {
        residual: Vec::new(),
        tables: DistanceTables::placeholder(),
        scan: ScanScratch::default(),
    });
}

/// Which scan implementation answers queries: the `pqfs-scan` backend
/// registry, re-exported. Every index answers every [`SearchBackend::ALL`]
/// member: [`SearchBackend::FastScan`] from the resident grouped codes, the
/// others through the oracle path of [`IvfadcIndex::search`].
pub use pqfs_scan::Backend as SearchBackend;

/// Build configuration.
#[derive(Debug, Clone)]
pub struct IvfadcConfig {
    /// Number of coarse partitions (the paper uses 8 for ANN_SIFT100M1 and
    /// 128 for ANN_SIFT1B).
    pub partitions: usize,
    /// Product-quantizer shape; must be [`PqConfig::pq8x8`], the shape the
    /// index's grouped code storage is defined for.
    pub pq: PqConfig,
    /// Seed for every training stage.
    pub seed: u64,
    /// Apply the §4.3 optimized centroid-index assignment after PQ
    /// training (required for tight Fast Scan minimum tables).
    pub optimize_assignment: bool,
    /// Scanner options: the partitions are grouped under them, and the
    /// oracle path hands them to [`SearchBackend::scanner`] (quantization
    /// bins, grouping, kernel choice).
    pub scan: ScanOpts,
}

impl IvfadcConfig {
    /// The paper's configuration: `PQ 8×8` and optimized assignment.
    pub fn new(dim: usize, partitions: usize) -> Self {
        IvfadcConfig {
            partitions,
            pq: PqConfig::pq8x8(dim),
            seed: 0,
            optimize_assignment: true,
            scan: ScanOpts::default(),
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the scanner options.
    pub fn with_scan_opts(mut self, scan: ScanOpts) -> Self {
        self.scan = scan;
        self
    }
}

/// One inverted list: the global ids and the residual codes in the grouped
/// Fast Scan layout (paper §4.2) — the only copy of the codes the index holds.
#[derive(Debug, Clone)]
struct Partition {
    ids: Vec<u64>,
    index: FastScanIndex,
}

impl Partition {
    fn build(ids: Vec<u64>, codes: &RowMajorCodes, opts: &ScanOpts) -> Result<Self, IvfError> {
        let index = FastScanIndex::build(codes, &opts.fastscan_options())?;
        Ok(Partition { ids, index })
    }
}

/// The grouped layout is defined for `PQ 8×8` only, so that is the one
/// quantizer shape an index is built or loaded over.
fn require_pq8x8(pq: &PqConfig) -> Result<(), IvfError> {
    if pq.m() != 8 || pq.ksub() != 256 {
        return Err(IvfError::Scan(ScanError::NeedsPq8x8 {
            m: pq.m(),
            ksub: pq.ksub(),
        }));
    }
    Ok(())
}

/// What one query asks of [`IvfadcIndex::search`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchRequest {
    /// Number of neighbors to return (positive).
    pub topk: usize,
    /// The scan implementation. Anything but [`SearchBackend::FastScan`]
    /// rebuilds the probed partitions' rows first (the oracle path).
    pub backend: SearchBackend,
    /// Warm-up fraction handed to the scan ([`ScanParams::with_keep`]).
    pub keep: f64,
    /// Number of nearest partitions to scan (positive).
    pub nprobe: usize,
    /// Budget after which probes beyond the nearest are skipped.
    pub deadline: Option<Duration>,
}

impl SearchRequest {
    /// A request with no deadline.
    pub fn new(topk: usize, backend: SearchBackend, keep: f64, nprobe: usize) -> Self {
        SearchRequest {
            topk,
            backend,
            keep,
            nprobe,
            deadline: None,
        }
    }
}

/// Per-query health report: how many probed partitions contributed to the
/// result set. Multi-probe search degrades gracefully — a failing partition
/// scan (injected fault, caught panic, backend failure) or a probe skipped
/// by the deadline budget reduces coverage instead of failing the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchHealth {
    /// Probes whose scan completed and contributed candidates.
    pub probes_ok: usize,
    /// Probes whose scan failed (the result set misses their candidates).
    pub probes_failed: usize,
    /// Probes skipped because the deadline budget was exhausted.
    pub probes_skipped: usize,
}

impl SearchHealth {
    /// A fully healthy report over `probes` partitions.
    #[cfg(test)]
    fn healthy(probes: usize) -> Self {
        SearchHealth {
            probes_ok: probes,
            probes_failed: 0,
            probes_skipped: 0,
        }
    }

    /// True when the result set may be missing candidates: some probe
    /// failed or was skipped.
    pub fn degraded(&self) -> bool {
        self.probes_failed > 0 || self.probes_skipped > 0
    }
}

/// Result of one ANN query.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Nearest neighbors with **global** base-set ids, ascending by
    /// `(distance, id)`.
    pub neighbors: Vec<Neighbor>,
    /// Scan statistics of step 3.
    pub stats: ScanStats,
    /// The partition that was scanned.
    pub partition: usize,
    /// Probe coverage (check [`SearchHealth::degraded`] before trusting
    /// the result set to be complete).
    pub health: SearchHealth,
}

/// One probe's completed scan, with per-stage timings when requested
/// (`tables_ns`/`scan_ns` stay 0 when timing is off).
#[derive(Default)]
struct ProbeSuccess {
    neighbors: Vec<Neighbor>,
    stats: ScanStats,
    /// The entry bound the probe scanned under (`+∞`: none).
    bound: f32,
    /// The entry bound was below every distance the probe's tables can
    /// produce, so the scan answered without reading a code.
    bounded_out: bool,
    tables_ns: u64,
    scan_ns: u64,
}

/// One probe's contribution to a multi-probe query.
enum ProbeScan {
    Ok(ProbeSuccess),
    Failed(IvfError),
    /// Skipped before starting: the deadline budget was already exhausted.
    Skipped,
    /// Started, but the deadline expired before the table build — the
    /// probe short-circuited instead of computing tables it cannot use.
    Expired,
}

/// Best-effort description of a caught scan panic.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "partition scan panicked".to_string()
    }
}

/// The IVFADC index (paper §2.2, \[14\]).
#[derive(Debug, Clone)]
pub struct IvfadcIndex {
    coarse: CoarseQuantizer,
    pq: ProductQuantizer,
    partitions: Vec<Partition>,
    dim: usize,
    /// The scanner options the partitions were prepared with (persisted so
    /// a save/load roundtrip rebuilds identical scan state).
    scan: ScanOpts,
}

impl IvfadcIndex {
    /// Builds the index: trains the coarse quantizer and the (residual)
    /// product quantizer on `train`, then encodes and distributes `base`.
    ///
    /// # Errors
    ///
    /// Training/encoding failures ([`IvfError::Coarse`], [`IvfError::Pq`]),
    /// [`IvfError::Config`]/[`IvfError::DimMismatch`] for shape problems, or
    /// [`IvfError::Scan`] for a quantizer shape other than `PQ 8×8`.
    pub fn build(train: &[f32], base: &[f32], config: &IvfadcConfig) -> Result<Self, IvfError> {
        require_pq8x8(&config.pq)?;
        let dim = config.pq.dim();
        if config.partitions == 0 {
            return Err(IvfError::Config("partitions must be positive".into()));
        }
        if train.is_empty() || !train.len().is_multiple_of(dim) {
            return Err(IvfError::DimMismatch {
                expected: dim,
                actual: train.len(),
            });
        }
        if !base.len().is_multiple_of(dim) {
            return Err(IvfError::DimMismatch {
                expected: dim,
                actual: base.len(),
            });
        }

        // Stage 1: coarse quantizer over the raw training vectors.
        let coarse = CoarseQuantizer::train(train, dim, config.partitions, config.seed)?;

        // Stage 2: product quantizer over training residuals.
        let mut residuals = vec![0f32; train.len()];
        for (v, r) in train.chunks_exact(dim).zip(residuals.chunks_exact_mut(dim)) {
            let p = coarse.assign(v);
            coarse.residual_into(v, p, r);
        }
        let mut pq = ProductQuantizer::train(&residuals, &config.pq, config.seed ^ 0x9E37)?;
        if config.optimize_assignment {
            pq.optimize_assignment(16, config.seed ^ 0x79B9)?;
        }

        // Stage 3: encode the base set into inverted lists, on the shared
        // pool. Coarse assignment is row-independent; list membership is
        // derived from it serially (cheap) so insertion order — and with it
        // the stored ids — is identical to a sequential build.
        let pool = ThreadPool::global();
        let rows: Vec<&[f32]> = base.chunks_exact(dim).collect();
        let assignment = pool.parallel_map(&rows, |_, v| coarse.assign(v));
        let mut members: Vec<Vec<u64>> = vec![Vec::new(); config.partitions];
        for (i, &p) in assignment.iter().enumerate() {
            members[p].push(i as u64);
        }
        let m = config.pq.m();
        // Each partition encodes its residuals and groups them as one task;
        // partitions are mutually independent.
        let mut member_lists: Vec<(usize, Vec<u64>)> = members.into_iter().enumerate().collect();
        let built = pool.parallel_map_mut(&mut member_lists, |_, entry| {
            let (p, ids) = entry;
            let ids = std::mem::take(ids);
            let mut residual = vec![0f32; dim];
            let mut codes = vec![0u8; ids.len() * m];
            for (slot, &id) in ids.iter().enumerate() {
                let v = &base[id as usize * dim..(id as usize + 1) * dim];
                coarse.residual_into(v, *p, &mut residual);
                pq.encode_into(&residual, &mut codes[slot * m..(slot + 1) * m]);
            }
            Partition::build(ids, &RowMajorCodes::new(codes, m), &config.scan)
        });
        let mut partitions = Vec::with_capacity(config.partitions);
        for partition in built {
            partitions.push(partition?);
        }

        Ok(IvfadcIndex {
            coarse,
            pq,
            partitions,
            dim,
            scan: config.scan.clone(),
        })
    }

    /// Answers an ANN query — the paper's Algorithm 1: pick the `nprobe`
    /// cells nearest to the query (step 1), build the residual distance
    /// tables of each (step 2), scan them (step 3) and merge. Probing more
    /// than one cell is the `w`-cell visiting strategy of the original
    /// IVFADC \[14\], which trades scan time for recall when a neighbor
    /// falls just across a Voronoi boundary.
    ///
    /// The query runs in two steps. The nearest partition is scanned first,
    /// on the calling thread — for `nprobe = 1` that is the whole query. If
    /// it returned `topk` neighbors, its k-th distance becomes the **entry
    /// bound** ([`ScanParams::bound`]) of every further probe: a vector
    /// farther than that cannot be in the merged top-k, so those probes
    /// start pruning at a threshold no warm-up sample of a small cell would
    /// find, and a probe whose tables cannot produce so small a distance
    /// answers without reading a code (docs/FASTSCAN.md §5). The further
    /// probes fan out across `pool` (intra-query parallelism; a 1-thread
    /// pool runs them inline), all under that same bound, and the per-probe
    /// result lists are merged in probe order — so neighbors, stats and
    /// health are bit-identical to a sequential probe loop for any pool
    /// size, and the neighbors are exactly those of independent unbounded
    /// scans.
    ///
    /// `SearchOutcome::partition` reports the nearest (first) probed cell;
    /// `stats` accumulates over all probed cells.
    ///
    /// **Backends:** [`SearchBackend::FastScan`] scans the resident grouped
    /// codes. Every other backend is an *oracle path* for exactness checks
    /// and baselines: each probe first rebuilds its partition's rows
    /// ([`partition_rows`](Self::partition_rows), ~6 ms per 250 k vectors),
    /// prepares the backend over them, scans under the same
    /// [`ScanParams`], and drops them — exact, never fast.
    ///
    /// **Deadline:** the nearest probe always runs, outside the budget — a
    /// query never returns an empty best-so-far just because the budget was
    /// tight. Each further probe checks the elapsed time before scanning
    /// and is *skipped* (recorded in [`SearchOutcome::health`]) once
    /// [`SearchRequest::deadline`] has passed. Without a deadline the
    /// schedule is deterministic; with one, which probes get skipped
    /// depends on measured time.
    ///
    /// **Graceful degradation:** a probe whose scan fails (injected fault,
    /// caught panic, backend failure) is recorded in
    /// [`SearchOutcome::health`] and its candidates are simply missing from
    /// the merged result; when it is the nearest probe that failed, there
    /// is no bound to inherit and the others scan unbounded. The query only
    /// errors when *every* probe failed (the first failure is returned) or
    /// on input validation.
    ///
    /// **Tracing:** a `trace` is [reset](QueryTrace::reset) (so one can be
    /// reused across queries without reallocating) and filled with stage
    /// timings (coarse quantization, per-probe table build and scan, merge)
    /// and one [`ProbeTrace`] per probe with its backend, outcome, entry
    /// bound and pruning counters. Tracing forces per-stage timestamps on,
    /// so a traced query is slightly slower; results are unaffected.
    ///
    /// # Errors
    ///
    /// [`IvfError::DimMismatch`] for bad queries, [`IvfError::Config`] for
    /// a zero `topk` or `nprobe`, and the first probe failure when no probe
    /// succeeded.
    pub fn search(
        &self,
        query: &[f32],
        request: &SearchRequest,
        pool: &ThreadPool,
        mut trace: Option<&mut QueryTrace>,
    ) -> Result<SearchOutcome, IvfError> {
        let &SearchRequest {
            topk,
            backend,
            keep,
            nprobe,
            deadline,
        } = request;
        if query.len() != self.dim {
            return Err(IvfError::DimMismatch {
                expected: self.dim,
                actual: query.len(),
            });
        }
        if topk == 0 || nprobe == 0 {
            return Err(IvfError::Config("topk and nprobe must be positive".into()));
        }
        if let Some(t) = trace.as_deref_mut() {
            t.reset();
        }
        let want_timing = trace.is_some() || pqfs_obs::enabled();
        let t_begin = want_timing.then(Instant::now);
        let probes = self.coarse.assign_multi(query, nprobe);
        let coarse_ns = t_begin.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let start = Instant::now();
        // One relaxed load when no failpoint is armed anywhere; the
        // per-probe site string is only built under an armed registry.
        let faults_armed = pqfs_fault::armed();
        let run_probe = |p: usize, bound: f32, deadline: Option<(Instant, Duration)>| {
            if faults_armed {
                let site = format!("ivf.search.scan.{p}");
                if let Err(e) =
                    pqfs_fault::check("ivf.search.scan").and_then(|()| pqfs_fault::check(&site))
                {
                    return ProbeScan::Failed(IvfError::Probe {
                        partition: p,
                        message: e.to_string(),
                    });
                }
            }
            match panic::catch_unwind(AssertUnwindSafe(|| {
                self.scan_probe(
                    query,
                    p,
                    &ScanParams::new(topk).with_keep(keep).with_bound(bound),
                    backend,
                    want_timing,
                    deadline,
                )
            })) {
                Ok(Ok(Some(success))) => ProbeScan::Ok(success),
                Ok(Ok(None)) => ProbeScan::Expired,
                Ok(Err(e)) => ProbeScan::Failed(e),
                Err(payload) => ProbeScan::Failed(IvfError::Probe {
                    partition: p,
                    message: panic_message(payload.as_ref()),
                }),
            }
        };

        // Step one — all of an nprobe-1 query: the nearest probe, on this
        // thread, with no bound and no deadline, so a query always returns a
        // best-so-far answer even under a zero budget.
        let nearest = run_probe(probes[0], f32::INFINITY, None);
        // Step two: every further probe inherits the nearest probe's k-th
        // distance as its entry bound. A vector it drops is farther than
        // the bound, which is already no less than the final k-th distance;
        // ties at the bound are kept and the merge settles them on the id.
        // Each of them gets the same bound, whatever the order they run in,
        // so neighbors and stats do not depend on the pool size.
        let bound = match &nearest {
            ProbeScan::Ok(success) if success.neighbors.len() == topk => {
                success.neighbors[topk - 1].dist
            }
            _ => f32::INFINITY,
        };
        let later = pool.parallel_map(&probes[1..], |_, &p| match deadline {
            Some(budget) if start.elapsed() >= budget => ProbeScan::Skipped,
            _ => run_probe(p, bound, deadline.map(|budget| (start, budget))),
        });
        let scans = std::iter::once(nearest).chain(later);

        // Merge in probe order (determinism), collecting health as we go.
        let merge_t0 = want_timing.then(Instant::now);
        let mut lists: Vec<Vec<Neighbor>> = Vec::with_capacity(probes.len());
        let mut stats = ScanStats::default();
        let mut health = SearchHealth::default();
        let mut first_failure: Option<IvfError> = None;
        for (scan, &p) in scans.zip(&probes) {
            let probe_trace = match scan {
                ProbeScan::Ok(success) => {
                    let ProbeSuccess {
                        neighbors,
                        stats: s,
                        bound,
                        bounded_out,
                        tables_ns,
                        scan_ns,
                    } = success;
                    health.probes_ok += 1;
                    PROBES_OK.inc();
                    if !neighbors.is_empty() {
                        lists.push(neighbors);
                    }
                    stats.merge(&s);
                    record_scan_counters(backend, &s);
                    TABLES_NS.observe_ns(tables_ns);
                    SCAN_NS.observe_ns(scan_ns);
                    if bounded_out {
                        PROBES_BOUNDED_OUT.inc();
                    }
                    ProbeTrace {
                        scanned: s.scanned,
                        pruned: s.pruned,
                        warmup: s.warmup,
                        verified: s.verified,
                        accepted: s.accepted,
                        skipped: s.skipped,
                        bound: bound.is_finite().then_some(bound),
                        tables_ns,
                        scan_ns,
                        ..ProbeTrace::outcome_only(p, backend.name(), ProbeOutcome::Ok)
                    }
                }
                ProbeScan::Failed(e) => {
                    health.probes_failed += 1;
                    PROBES_FAILED.inc();
                    first_failure.get_or_insert(e);
                    ProbeTrace::outcome_only(p, backend.name(), ProbeOutcome::Failed)
                }
                ProbeScan::Skipped => {
                    health.probes_skipped += 1;
                    PROBES_SKIPPED.inc();
                    ProbeTrace::outcome_only(p, backend.name(), ProbeOutcome::Skipped)
                }
                // An expired probe contributed nothing, like a skip; the
                // distinct trace outcome records that it *started* and was
                // cut off at the table-build short-circuit.
                ProbeScan::Expired => {
                    health.probes_skipped += 1;
                    PROBES_DEADLINE.inc();
                    ProbeTrace::outcome_only(p, backend.name(), ProbeOutcome::Deadline)
                }
            };
            if let Some(t) = trace.as_deref_mut() {
                t.probes.push(probe_trace);
            }
        }
        if health.probes_ok == 0 {
            if let Some(e) = first_failure {
                return Err(e);
            }
        }
        let neighbors = match lists.len() {
            // One probe answered — every nprobe-1 query: its list is the
            // answer, ascending by (distance, position in the cell), which is
            // the merged order unless the cell stores its ids out of order
            // (a loaded index might). Sorting a sorted list is one pass.
            1 => {
                let mut sole = lists.swap_remove(0);
                sole.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
                sole
            }
            _ => {
                let mut merged = pqfs_core::TopK::new(topk);
                for n in lists.iter().flatten() {
                    merged.push(n.dist, n.id);
                }
                merged.into_sorted()
            }
        };
        QUERIES.inc();
        COARSE_NS.observe_ns(coarse_ns);
        let merge_ns = merge_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let total_ns = t_begin.map_or(0, |t| t.elapsed().as_nanos() as u64);
        MERGE_NS.observe_ns(merge_ns);
        TOTAL_NS.observe_ns(total_ns);
        if let Some(t) = trace {
            t.coarse_ns = coarse_ns;
            t.merge_ns = merge_ns;
            t.total_ns = total_ns;
        }
        Ok(SearchOutcome {
            neighbors,
            stats,
            partition: probes[0],
            health,
        })
    }

    /// [`search`](Self::search) on the global [`pqfs_pool::ThreadPool`]
    /// with no deadline and no trace.
    ///
    /// # Errors
    ///
    /// As [`search`](Self::search).
    pub fn search_probes(
        &self,
        query: &[f32],
        topk: usize,
        backend: SearchBackend,
        keep: f64,
        nprobe: usize,
    ) -> Result<SearchOutcome, IvfError> {
        let request = SearchRequest::new(topk, backend, keep, nprobe);
        self.search(query, &request, ThreadPool::global(), None)
    }

    /// Scans partition `p` for `query` and returns global-id neighbors,
    /// with optional stage timing and deadline short-circuiting.
    ///
    /// Runs on the calling thread using its [`QueryScratch`]: the residual
    /// buffer, distance tables and Fast Scan table buffers are reused
    /// across queries, so repeated scans allocate only the result vector.
    ///
    /// Returns `Ok(None)` when `deadline` had already expired on entry: the
    /// probe gives up *before* computing distance tables (the most
    /// expensive per-probe fixed cost), so a blown budget does not waste
    /// table work whose scan would be skipped anyway. Wasted builds avoided
    /// this way are counted in `pqfs_ivf_tables_wasted_total`.
    fn scan_probe(
        &self,
        query: &[f32],
        p: usize,
        params: &ScanParams,
        backend: SearchBackend,
        want_timing: bool,
        deadline: Option<(Instant, Duration)>,
    ) -> Result<Option<ProbeSuccess>, IvfError> {
        let partition = &self.partitions[p];
        if partition.ids.is_empty() {
            return Ok(Some(ProbeSuccess {
                bound: params.bound,
                ..ProbeSuccess::default()
            }));
        }

        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();

            // Re-check the budget at the last moment before the table
            // build: the probe may have queued behind slower siblings since
            // the pre-dispatch check.
            if let Some((start, budget)) = deadline {
                if start.elapsed() >= budget {
                    TABLES_WASTED.inc();
                    return Ok(None);
                }
            }

            // Step 2: distance tables on the query residual.
            let t0 = want_timing.then(Instant::now);
            scratch.residual.resize(self.dim, 0.0);
            self.coarse.residual_into(query, p, &mut scratch.residual);
            scratch.tables.recompute(&self.pq, &scratch.residual)?;
            TABLES_BUILT.inc();
            let t1 = want_timing.then(Instant::now);

            // Step 3: scan. Fast Scan reads the resident grouped codes; any
            // other backend is an oracle, answered exactly — and slowly, on
            // purpose — over rows rebuilt for this one scan, so no second
            // layout ever stays resident.
            let result: ScanResult = if backend == SearchBackend::FastScan {
                partition
                    .index
                    .scan_with(&scratch.tables, params, &mut scratch.scan)?
            } else {
                let rows = Arc::new(self.partition_rows(p).1);
                let oracle = backend.scanner(&self.scan).prepare(rows)?;
                oracle.scan(&scratch.tables, params)?
            };
            let t2 = want_timing.then(Instant::now);

            // Translate partition positions to global ids.
            let neighbors = result
                .neighbors
                .into_iter()
                .map(|n| Neighbor {
                    dist: n.dist,
                    id: partition.ids[n.id as usize],
                })
                .collect();
            let stage_ns = |a: Option<Instant>, b: Option<Instant>| match (a, b) {
                (Some(a), Some(b)) => b.duration_since(a).as_nanos() as u64,
                _ => 0,
            };
            Ok(Some(ProbeSuccess {
                neighbors,
                stats: result.stats,
                bound: params.bound,
                bounded_out: params.bound.is_finite()
                    && params.bound < scratch.tables.sum_of_mins(),
                tables_ns: stage_ns(t0, t1),
                scan_ns: stage_ns(t1, t2),
            }))
        })
    }

    /// Rebuilds an index from stored parts (used by persistence).
    ///
    /// `partitions` holds `(global ids, row-major code bytes)` per cell,
    /// regrouped here under `opts` (grouping is deterministic).
    ///
    /// # Errors
    ///
    /// [`IvfError::Config`] when shapes disagree, [`IvfError::Scan`] for a
    /// quantizer that is not `PQ 8×8` or unusable `opts`.
    pub(crate) fn from_parts(
        coarse: CoarseQuantizer,
        pq: ProductQuantizer,
        partitions: Vec<(Vec<u64>, Vec<u8>)>,
        opts: ScanOpts,
    ) -> Result<Self, IvfError> {
        require_pq8x8(pq.config())?;
        if coarse.partitions() != partitions.len() {
            return Err(IvfError::Config(format!(
                "coarse quantizer has {} cells but {} partitions were provided",
                coarse.partitions(),
                partitions.len()
            )));
        }
        let dim = pq.config().dim();
        if coarse.dim() != dim {
            return Err(IvfError::Config("coarse/pq dimensionality mismatch".into()));
        }
        let m = pq.config().m();
        let mut built = Vec::with_capacity(partitions.len());
        for (ids, bytes) in partitions {
            if bytes.len() != ids.len() * m {
                return Err(IvfError::Config("partition code length mismatch".into()));
            }
            built.push(Partition::build(ids, &RowMajorCodes::new(bytes, m), &opts)?);
        }
        Ok(IvfadcIndex {
            coarse,
            pq,
            partitions: built,
            dim,
            scan: opts,
        })
    }

    /// The global ids of partition `p` and its codes rebuilt row-major, in
    /// partition-position order: what [`save`](Self::save) writes, what the
    /// oracle path scans, and what a caller timing a row-major baseline
    /// prepares its own scanner from.
    ///
    /// # Panics
    ///
    /// Panics if `p >= num_partitions()`.
    pub fn partition_rows(&self, p: usize) -> (&[u64], RowMajorCodes) {
        let partition = &self.partitions[p];
        (&partition.ids, partition.index.grouped().to_row_major())
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Vectors per partition (the paper's Table 3).
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.partitions.iter().map(|p| p.ids.len()).collect()
    }

    /// Total indexed vectors.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|p| p.ids.len()).sum()
    }

    /// True when no vectors are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scanner options the index's partitions were grouped under.
    pub fn scan_opts(&self) -> &ScanOpts {
        &self.scan
    }

    /// Dimensionality of the vectors this index serves.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The trained product quantizer.
    pub fn pq(&self) -> &ProductQuantizer {
        &self.pq
    }

    /// The trained coarse quantizer.
    pub fn coarse(&self) -> &CoarseQuantizer {
        &self.coarse
    }

    /// The partition a query would be routed to.
    pub fn select_partition(&self, query: &[f32]) -> usize {
        self.coarse.assign(query)
    }

    /// Code storage bytes resident for `backend`: the grouped layout for
    /// [`SearchBackend::FastScan`] (the paper's Figure 20 compares it with
    /// the `8 × len()` bytes of row-major codes, ~25 % more), and 0 for every
    /// other backend — their rows exist only while an oracle scan runs.
    pub fn code_memory_bytes(&self, backend: SearchBackend) -> usize {
        if backend != SearchBackend::FastScan {
            return 0;
        }
        let grouped = self.partitions.iter().map(|p| p.index.code_memory_bytes());
        grouped.sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DIM: usize = 16;

    fn clustered(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..12)
            .map(|_| (0..DIM).map(|_| rng.gen_range(0.0f32..255.0)).collect())
            .collect();
        let mut data = Vec::with_capacity(n * DIM);
        for _ in 0..n {
            let c = &centers[rng.gen_range(0..centers.len())];
            data.extend(
                c.iter()
                    .map(|&x| (x + rng.gen_range(-10.0f32..10.0)).clamp(0.0, 255.0)),
            );
        }
        data
    }

    fn build_index(n: usize) -> (IvfadcIndex, Vec<f32>) {
        build_cells(n, 4)
    }

    /// `n` base vectors over `partitions` cells, default configuration.
    fn build_cells(n: usize, partitions: usize) -> (IvfadcIndex, Vec<f32>) {
        let train = clustered(1200, 7);
        let base = clustered(n, 8);
        let config = IvfadcConfig::new(DIM, partitions);
        let index = IvfadcIndex::build(&train, &base, &config).unwrap();
        (index, base)
    }

    #[test]
    fn partitions_cover_the_base_exactly() {
        let (index, base) = build_index(800);
        assert_eq!(index.len(), 800);
        assert_eq!(index.num_partitions(), 4);
        assert_eq!(
            index.partition_sizes().iter().sum::<usize>(),
            base.len() / DIM
        );
    }

    #[test]
    fn backends_return_identical_results() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_index(600);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..10 {
            let qi = rng.gen_range(0..600);
            let query = &base[qi * DIM..(qi + 1) * DIM];
            let a = index
                .search_probes(query, 10, SearchBackend::Naive, 0.01, 1)
                .unwrap();
            let b = index
                .search_probes(query, 10, SearchBackend::Libpq, 0.01, 1)
                .unwrap();
            let c = index
                .search_probes(query, 10, SearchBackend::FastScan, 0.01, 1)
                .unwrap();
            let ids = |o: &SearchOutcome| o.neighbors.iter().map(|n| n.id).collect::<Vec<_>>();
            assert_eq!(ids(&a), ids(&b));
            assert_eq!(ids(&a), ids(&c));
            assert_eq!(a.partition, c.partition);
        }
    }

    #[test]
    fn searching_a_base_vector_finds_itself() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_index(500);
        let mut hits = 0;
        for qi in (0..500).step_by(25) {
            let query = &base[qi * DIM..(qi + 1) * DIM];
            let outcome = index
                .search_probes(query, 5, SearchBackend::Naive, 0.0, 1)
                .unwrap();
            if outcome.neighbors.iter().any(|n| n.id == qi as u64) {
                hits += 1;
            }
        }
        // PQ is lossy but a vector should almost always be in its own top-5.
        assert!(hits >= 16, "only {hits}/20 self-hits");
    }

    #[test]
    fn global_ids_match_partition_membership() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_index(300);
        let query = &base[..DIM];
        let outcome = index
            .search_probes(query, 20, SearchBackend::Naive, 0.0, 1)
            .unwrap();
        for n in &outcome.neighbors {
            let v = &base[n.id as usize * DIM..(n.id as usize + 1) * DIM];
            assert_eq!(
                index.select_partition(v),
                outcome.partition,
                "result id {} is not in the scanned partition",
                n.id
            );
        }
    }

    #[test]
    fn multiprobe_improves_or_preserves_recall() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_index(800);
        let mut improved_or_equal = true;
        for qi in (0..800).step_by(40) {
            let query = &base[qi * DIM..(qi + 1) * DIM];
            let single = index
                .search_probes(query, 10, SearchBackend::Naive, 0.0, 1)
                .unwrap();
            let multi = index
                .search_probes(query, 10, SearchBackend::Naive, 0.0, 3)
                .unwrap();
            // Multi-probe sees a superset of candidates, so its k-th
            // distance can only be <= the single-probe k-th distance.
            let kth = |o: &SearchOutcome| o.neighbors.last().map(|n| n.dist);
            if let (Some(s), Some(m)) = (kth(&single), kth(&multi)) {
                if m > s {
                    improved_or_equal = false;
                }
            }
            // All single-probe results must appear in the multi-probe set.
            let multi_ids: std::collections::HashSet<u64> =
                multi.neighbors.iter().map(|n| n.id).collect();
            for n in &single.neighbors {
                assert!(multi_ids.contains(&n.id) || multi.neighbors.len() == 10);
            }
        }
        assert!(
            improved_or_equal,
            "multi-probe must not worsen the k-th distance"
        );
    }

    #[test]
    fn multiprobe_with_all_cells_is_exhaustive() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_index(400);
        let query = &base[..DIM];
        // Probing every partition = a full (residual-quantized) scan.
        let all = index
            .search_probes(query, 5, SearchBackend::Naive, 0.0, 4)
            .unwrap();
        assert_eq!(all.neighbors.len(), 5);
        assert_eq!(all.stats.scanned, 400);
    }

    /// Everything a query answers with, distances by bit pattern.
    fn key(o: &SearchOutcome) -> (Vec<(u32, u64)>, ScanStats, usize, SearchHealth) {
        (bits(&o.neighbors), o.stats, o.partition, o.health)
    }

    /// The two entry points are one path: `search_probes` is `search` on
    /// the global pool, and a trace changes nothing but the trace.
    #[test]
    fn search_probes_and_search_are_bit_identical_with_or_without_a_trace() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_cells(600, 4);
        let mut trace = QueryTrace::new();
        for backend in SearchBackend::ALL {
            for nprobe in [1usize, 4] {
                for q in base[..DIM * 10].chunks_exact(DIM) {
                    let req = SearchRequest::new(8, backend, 0.01, nprobe);
                    let short = index.search_probes(q, 8, backend, 0.01, nprobe).unwrap();
                    let full = index.search(q, &req, ThreadPool::global(), None).unwrap();
                    let traced = index
                        .search(q, &req, ThreadPool::global(), Some(&mut trace))
                        .unwrap();
                    assert_eq!(key(&short), key(&full), "{backend} nprobe {nprobe}");
                    assert_eq!(key(&traced), key(&full), "{backend} nprobe {nprobe} traced");
                    assert_eq!(trace.probes.len(), nprobe);
                }
            }
        }
    }

    /// The executor determinism guarantee, end to end: queries fanned out
    /// over a pool with their probes inline (the serving wave's shape) and
    /// one query fanning its probes out are both bit-identical to serial
    /// execution (a 1-thread pool runs everything inline on the caller) for
    /// every backend and pool size.
    #[test]
    fn parallel_search_is_bit_identical_to_serial_for_every_backend() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_cells(600, 4);
        let queries: Vec<&[f32]> = base[..DIM * 10].chunks_exact(DIM).collect();
        let serial = ThreadPool::new(1);
        for backend in SearchBackend::ALL {
            for nprobe in [1usize, 3] {
                let req = SearchRequest::new(8, backend, 0.01, nprobe);
                let want: Vec<_> = queries
                    .iter()
                    .map(|q| key(&index.search(q, &req, &serial, None).unwrap()))
                    .collect();
                for threads in [2usize, 8] {
                    let pool = ThreadPool::new(threads);
                    let at = format!("{backend} nprobe {nprobe} @ {threads} threads");
                    let wave = pool.parallel_map(&queries, |_, q| {
                        key(&index.search(q, &req, &serial, None).unwrap())
                    });
                    assert_eq!(wave, want, "{at}, queries fanned out");
                    for (q, w) in queries.iter().zip(&want) {
                        let out = index.search(q, &req, &pool, None).unwrap();
                        assert_eq!(&key(&out), w, "{at}, probes fanned out");
                    }
                }
            }
        }
    }

    /// The distance tables probe `p` builds for `query`.
    fn probe_tables(index: &IvfadcIndex, query: &[f32], p: usize) -> DistanceTables {
        let mut residual = vec![0f32; DIM];
        index.coarse().residual_into(query, p, &mut residual);
        DistanceTables::compute(index.pq(), &residual).unwrap()
    }

    /// Multi-probe search as it was before probes inherited a bound, kept
    /// as the oracle: an independent unbounded scan per probe, merged in
    /// probe order. Returns `(distance bits, id)` pairs.
    fn unbounded_merge(
        index: &IvfadcIndex,
        query: &[f32],
        topk: usize,
        backend: SearchBackend,
        keep: f64,
        probes: &[usize],
    ) -> Vec<(u32, u64)> {
        let mut merged = pqfs_core::TopK::new(topk);
        let params = ScanParams::new(topk).with_keep(keep);
        for &p in probes {
            let scan = index.scan_probe(query, p, &params, backend, false, None);
            for n in scan.unwrap().expect("no deadline to expire").neighbors {
                merged.push(n.dist, n.id);
            }
        }
        bits(&merged.into_sorted())
    }

    fn bits(neighbors: &[Neighbor]) -> Vec<(u32, u64)> {
        neighbors.iter().map(|n| (n.dist.to_bits(), n.id)).collect()
    }

    /// Exactness of the inherited bound: whatever nprobe, topk, backend and
    /// pool size, the answer is the unbounded algorithm's, and `stats` do
    /// not depend on the pool.
    #[test]
    fn bounded_probes_answer_exactly_like_independent_unbounded_scans() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_cells(900, 8);
        let pools = [1usize, 2, 8].map(ThreadPool::new);
        let mut rng = StdRng::seed_from_u64(15);
        let (mut bounded, mut unbounded) = (0, 0);
        for case in 0..24 {
            let qi = rng.gen_range(0..900);
            let query = &base[qi * DIM..(qi + 1) * DIM];
            let nprobe = rng.gen_range(1..=8);
            // Small topk: the nearest cell fills it and the bound engages.
            // Large topk: it cannot, and the bound stays +inf.
            let topk = if case % 2 == 0 {
                rng.gen_range(1..=10)
            } else {
                rng.gen_range(1..=1000)
            };
            let probes = index.coarse().assign_multi(query, nprobe);
            if index.partition_sizes()[probes[0]] >= topk {
                bounded += 1;
            } else {
                unbounded += 1;
            }
            for backend in SearchBackend::ALL {
                let want = unbounded_merge(&index, query, topk, backend, 0.01, &probes);
                let outcomes: Vec<SearchOutcome> = pools
                    .iter()
                    .map(|pool| {
                        let req = SearchRequest::new(topk, backend, 0.01, nprobe);
                        index.search(query, &req, pool, None).unwrap()
                    })
                    .collect();
                for out in &outcomes {
                    let at = format!("case {case} nprobe {nprobe} topk {topk} {backend}");
                    assert_eq!(bits(&out.neighbors), want, "{at}");
                    assert_eq!(out.stats, outcomes[0].stats, "{at}");
                    assert_eq!(out.health, SearchHealth::healthy(nprobe), "{at}");
                }
            }
        }
        assert!(bounded >= 6 && unbounded >= 6, "{bounded} / {unbounded}");
    }

    /// A query one probe answered returns that probe's list without a
    /// second heap — and it is, bit for bit, what merging would return: for
    /// every backend, and for cells whose ids do not ascend with position,
    /// where ties come back from the scan in another order than the merge
    /// would put them in.
    #[test]
    fn a_sole_answering_probe_is_returned_as_the_merge_would_order_it() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_cells(600, 4);
        // The same cells with every code equal to the cell's first — all
        // distances tie — under ids that descend with position.
        let all_ties = {
            let m = index.pq().config().m();
            let parts = (0..index.num_partitions())
                .map(|p| {
                    let (ids, codes) = index.partition_rows(p);
                    let ids = ids.iter().map(|id| 10_000 - id).collect();
                    let first = &codes.as_bytes()[..m.min(codes.as_bytes().len())];
                    (ids, first.repeat(codes.len()))
                })
                .collect();
            IvfadcIndex::from_parts(
                index.coarse().clone(),
                index.pq().clone(),
                parts,
                index.scan_opts().clone(),
            )
            .unwrap()
        };
        for (name, index) in [("built", &index), ("all ties", &all_ties)] {
            for backend in SearchBackend::ALL {
                for topk in [1usize, 8, 1000] {
                    for q in base[..DIM * 6].chunks_exact(DIM) {
                        let probes = index.coarse().assign_multi(q, 1);
                        let got = index.search_probes(q, topk, backend, 0.01, 1).unwrap();
                        assert_eq!(
                            bits(&got.neighbors),
                            unbounded_merge(index, q, topk, backend, 0.01, &probes),
                            "{name} {backend} topk {topk}"
                        );
                    }
                }
            }
        }
        let descending = all_ties
            .search_probes(&base[..DIM], 8, SearchBackend::Naive, 0.01, 1)
            .unwrap();
        assert!(descending.neighbors.windows(2).all(|w| w[0].id < w[1].id));
    }

    /// The nearest-first traversal through the whole search path, on cells
    /// regrouped on every component count: the answer is the exhaustive
    /// scan's, and `stats` — what was passed over and what the heap took
    /// included — are the same at every pool size and under the portable
    /// and the SSSE3 kernel. Under the refining kernel, which verifies
    /// fewer, they are the same at every pool size too.
    #[test]
    fn traversal_stats_depend_on_neither_the_pool_nor_the_kernel() {
        use pqfs_scan::Kernel;
        let _lock = pqfs_fault::exclusive();
        let (built, base) = build_index(3_000);
        let regrouped = |c: usize, kernel: Kernel| {
            let parts = (0..built.num_partitions())
                .map(|p| {
                    let (ids, codes) = built.partition_rows(p);
                    (ids.to_vec(), codes.as_bytes().to_vec())
                })
                .collect();
            let opts = built.scan_opts().clone();
            let opts = opts.with_group_components(c).with_kernel(kernel);
            let (coarse, pq) = (built.coarse().clone(), built.pq().clone());
            IvfadcIndex::from_parts(coarse, pq, parts, opts).unwrap()
        };
        let pools = [1usize, 2, 8].map(ThreadPool::new);
        // Neither in a build without the `avx2` feature (the portable-only
        // CI step).
        let has_ssse3 = Kernel::Ssse3.resolved().is_ok();
        let has_refining = Kernel::Avx512Vbmi.resolved().is_ok();
        let mut passed_over = 0;
        for c in 0..=4usize {
            let portable = regrouped(c, Kernel::Portable);
            let ssse3 = regrouped(c, Kernel::Ssse3);
            let refining = regrouped(c, Kernel::Avx512Vbmi);
            for (nprobe, topk) in [(1usize, 1usize), (1, 100), (1, 1000), (4, 10), (4, 100)] {
                for q in base[..DIM * 4].chunks_exact(DIM) {
                    let at = format!("c={c} nprobe={nprobe} topk={topk}");
                    let fast = SearchRequest::new(topk, SearchBackend::FastScan, 0.005, nprobe);
                    let want = portable.search(q, &fast, &pools[0], None).unwrap();
                    let naive = SearchRequest::new(topk, SearchBackend::Naive, 0.005, nprobe);
                    let exhaustive = portable.search(q, &naive, &pools[0], None).unwrap();
                    assert_eq!(bits(&want.neighbors), bits(&exhaustive.neighbors), "{at}");
                    let s = want.stats;
                    assert_eq!(s.warmup + s.pruned + s.verified, s.scanned, "{at}");
                    assert!(s.skipped <= s.pruned, "{at}");
                    assert!(s.accepted <= s.warmup + s.verified, "{at}");
                    passed_over += s.skipped;
                    for pool in &pools {
                        let got = portable.search(q, &fast, pool, None).unwrap();
                        assert_eq!(key(&got), key(&want), "{at} @ {}", pool.threads());
                    }
                    if has_ssse3 {
                        let got = ssse3.search(q, &fast, &pools[1], None).unwrap();
                        assert_eq!(key(&got), key(&want), "{at} SSSE3");
                    }
                    if !has_refining {
                        continue;
                    }
                    let refined = refining.search(q, &fast, &pools[0], None).unwrap();
                    assert_eq!(bits(&refined.neighbors), bits(&want.neighbors), "{at}");
                    assert_eq!(
                        (refined.stats.skipped, refined.stats.accepted),
                        (s.skipped, s.accepted),
                        "{at}"
                    );
                    for pool in &pools[1..] {
                        let got = refining.search(q, &fast, pool, None).unwrap();
                        assert_eq!(
                            key(&got),
                            key(&refined),
                            "{at} refined @ {}",
                            pool.threads()
                        );
                    }
                }
            }
        }
        assert!(passed_over > 0, "the fixture must exercise the pass-over");
    }

    /// When the nearest probe fails there is nothing to inherit: the other
    /// probes scan unbounded and the degraded answer is their merge.
    #[cfg(feature = "failpoints")]
    #[test]
    fn a_failed_nearest_probe_leaves_the_others_unbounded() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_index(600);
        let q = &base[..DIM];
        let probes = index.coarse().assign_multi(q, 4);
        let _g = pqfs_fault::scoped(
            format!("ivf.search.scan.{}", probes[0]),
            pqfs_fault::FaultAction::Error,
        );
        for backend in [SearchBackend::Naive, SearchBackend::FastScan] {
            let mut trace = QueryTrace::new();
            let pool = ThreadPool::new(2);
            let req = SearchRequest::new(5, backend, 0.01, 4);
            let out = index.search(q, &req, &pool, Some(&mut trace)).unwrap();
            assert_eq!(out.health.probes_failed, 1);
            assert_eq!(out.health.probes_ok, 3);
            assert!(trace.probes.iter().all(|p| p.bound.is_none()));
            assert_eq!(
                bits(&out.neighbors),
                unbounded_merge(&index, q, 5, backend, 0.01, &probes[1..]),
                "{backend}"
            );
        }
    }

    #[test]
    fn healthy_queries_report_full_probe_coverage() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_index(400);
        let q = &base[..DIM];
        let single = index
            .search_probes(q, 5, SearchBackend::Naive, 0.0, 1)
            .unwrap();
        assert_eq!(single.health, SearchHealth::healthy(1));
        assert!(!single.health.degraded());
        let multi = index
            .search_probes(q, 5, SearchBackend::Naive, 0.0, 4)
            .unwrap();
        assert_eq!(multi.health, SearchHealth::healthy(4));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn injected_probe_failure_degrades_instead_of_erroring() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_index(600);
        let q = &base[..DIM];
        let full = index
            .search_probes(q, 10, SearchBackend::Naive, 0.0, 4)
            .unwrap();
        assert_eq!(full.health, SearchHealth::healthy(4));
        let victim_ids: std::collections::HashSet<u64> = index
            .search_probes(q, 10, SearchBackend::Naive, 0.0, 1)
            .unwrap()
            .neighbors
            .iter()
            .map(|n| n.id)
            .collect();

        // Fail exactly the nearest partition's scan: the query still
        // answers from the remaining probes and reports the gap.
        let victim = full.partition;
        let site = format!("ivf.search.scan.{victim}");
        let _g = pqfs_fault::scoped(&site, pqfs_fault::FaultAction::Error);
        let degraded = index
            .search_probes(q, 10, SearchBackend::Naive, 0.0, 4)
            .unwrap();
        assert_eq!(degraded.health.probes_ok, 3);
        assert_eq!(degraded.health.probes_failed, 1);
        assert!(degraded.health.degraded());
        // The surviving candidates are exactly the full result minus the
        // victim partition's contribution.
        assert!(degraded
            .neighbors
            .iter()
            .all(|n| !victim_ids.contains(&n.id)));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn all_probes_failing_returns_the_first_error() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_index(300);
        let q = &base[..DIM];
        let _g = pqfs_fault::scoped("ivf.search.scan", pqfs_fault::FaultAction::Error);
        assert!(matches!(
            index.search_probes(q, 5, SearchBackend::Naive, 0.0, 4),
            Err(IvfError::Probe { .. })
        ));
    }

    #[test]
    fn zero_deadline_still_answers_from_the_nearest_probe() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_index(500);
        let q = &base[..DIM];
        let req = SearchRequest {
            deadline: Some(Duration::ZERO),
            ..SearchRequest::new(8, SearchBackend::Naive, 0.0, 4)
        };
        let out = index.search(q, &req, ThreadPool::global(), None).unwrap();
        // Probe 0 always runs; an exhausted budget skips the rest.
        assert_eq!(out.health.probes_ok, 1);
        assert_eq!(out.health.probes_skipped, 3);
        assert!(out.health.degraded());
        let single = index
            .search_probes(q, 8, SearchBackend::Naive, 0.0, 1)
            .unwrap();
        let ids = |o: &SearchOutcome| o.neighbors.iter().map(|n| n.id).collect::<Vec<_>>();
        assert_eq!(ids(&out), ids(&single));
        assert_eq!(out.partition, single.partition);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn expired_probe_short_circuits_before_the_table_build() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_index(500);
        let q = &base[..DIM];
        let probes = index.coarse().assign_multi(q, 4);
        // Serial pool, delay injected on the fault site of the first
        // later probe with a non-empty partition (empty partitions have no
        // table build to short-circuit): the earlier probes complete, the
        // victim stalls past the deadline inside its fault check and must
        // short-circuit at the table-build re-check, and every probe after
        // it is skipped by the pre-dispatch check.
        let sizes = index.partition_sizes();
        let victim = (1..probes.len())
            .find(|&i| sizes[probes[i]] > 0)
            .expect("some later probe has a non-empty partition");
        let pool = ThreadPool::new(1);
        let _g = pqfs_fault::scoped(
            format!("ivf.search.scan.{}", probes[victim]),
            pqfs_fault::FaultAction::Delay(300),
        );
        #[cfg(feature = "telemetry")]
        let wasted_before = pqfs_obs::counter_value("pqfs_ivf_tables_wasted_total", None);
        let mut trace = QueryTrace::new();
        let req = SearchRequest {
            deadline: Some(Duration::from_millis(150)),
            ..SearchRequest::new(8, SearchBackend::Naive, 0.0, 4)
        };
        let out = index.search(q, &req, &pool, Some(&mut trace)).unwrap();
        assert_eq!(out.health.probes_ok, victim);
        assert_eq!(out.health.probes_skipped, probes.len() - victim);
        let outcomes: Vec<ProbeOutcome> = trace.probes.iter().map(|p| p.outcome).collect();
        let expected: Vec<ProbeOutcome> = (0..probes.len())
            .map(|i| match i.cmp(&victim) {
                std::cmp::Ordering::Less => ProbeOutcome::Ok,
                std::cmp::Ordering::Equal => ProbeOutcome::Deadline,
                std::cmp::Ordering::Greater => ProbeOutcome::Skipped,
            })
            .collect();
        assert_eq!(outcomes, expected);
        #[cfg(feature = "telemetry")]
        assert_eq!(
            pqfs_obs::counter_value("pqfs_ivf_tables_wasted_total", None),
            wasted_before + 1,
            "the expired probe must count exactly one avoided table build"
        );
    }

    #[test]
    fn traced_search_records_every_stage_and_probe() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_index(500);
        let q = &base[..DIM];
        let pool = ThreadPool::new(1);
        let mut trace = QueryTrace::new();
        #[cfg(feature = "telemetry")]
        let bounded_out_before = pqfs_obs::counter_value("pqfs_ivf_probes_bounded_out_total", None);
        let req = SearchRequest::new(8, SearchBackend::FastScan, 0.01, 4);
        let out = index.search(q, &req, &pool, Some(&mut trace)).unwrap();
        assert_eq!(trace.probes.len(), 4);
        assert!(trace.probes.iter().all(|p| p.outcome == ProbeOutcome::Ok));
        assert!(trace.probes.iter().all(|p| p.backend == "fastscan"));
        assert_eq!(
            trace.probes.iter().map(|p| p.scanned).sum::<u64>(),
            out.stats.scanned
        );
        assert!(trace.total_ns > 0);
        // On a serial pool every stage is a disjoint slice of the wall time.
        assert!(trace.stage_sum_ns() <= trace.total_ns);
        let waterfall = trace.render_waterfall();
        assert!(waterfall.contains("coarse_quantize"));
        assert!(waterfall.contains("fastscan"));

        // The nearest probe scans under no bound; the others inherit its
        // k-th distance, and the ones it rules out from their tables alone
        // are counted.
        let nearest = index
            .search_probes(q, 8, SearchBackend::FastScan, 0.01, 1)
            .unwrap();
        let kth = nearest.neighbors[7].dist;
        assert_eq!(trace.probes[0].bound, None);
        assert!(trace.probes[1..].iter().all(|p| p.bound == Some(kth)));
        assert!(waterfall.contains(&format!("bound={kth:.1}")));
        // Only the unbounded probe warms up, and every probe accounts for
        // each vector it scanned.
        assert!(trace.probes[0].warmup > 0);
        assert!(trace.probes[1..].iter().all(|p| p.warmup == 0));
        for p in &trace.probes {
            assert_eq!(p.warmup + p.pruned + p.verified, p.scanned);
            assert!(p.skipped <= p.pruned);
            assert!(p.accepted <= p.warmup + p.verified);
        }
        let summed = |field: fn(&ProbeTrace) -> u64| trace.probes.iter().map(field).sum::<u64>();
        assert_eq!(summed(|p| p.verified), out.stats.verified);
        assert_eq!(summed(|p| p.accepted), out.stats.accepted);
        assert_eq!(summed(|p| p.skipped), out.stats.skipped);
        let nearest_probe = &trace.probes[0];
        assert!(nearest_probe.accepted >= 8, "the warm-up fills the heap");
        assert!(waterfall.contains(&format!(
            "skipped={} warmup={} verified={} accepted={} bound=-",
            nearest_probe.skipped,
            nearest_probe.warmup,
            nearest_probe.verified,
            nearest_probe.accepted
        )));
        let ruled_out = trace.probes[1..]
            .iter()
            .filter(|p| p.scanned > 0 && kth < probe_tables(&index, q, p.partition).sum_of_mins())
            .inspect(|p| assert_eq!(p.pruned, p.scanned))
            .count() as u64;
        assert!(ruled_out > 0, "the fixture must exercise the shortcut");
        #[cfg(feature = "telemetry")]
        assert_eq!(
            pqfs_obs::counter_value("pqfs_ivf_probes_bounded_out_total", None),
            bounded_out_before + ruled_out
        );

        // The trace resets cleanly for reuse on a second query.
        let probes_cap = trace.probes.capacity();
        let req = SearchRequest::new(8, SearchBackend::Naive, 0.0, 2);
        index.search(q, &req, &pool, Some(&mut trace)).unwrap();
        assert_eq!(trace.probes.len(), 2);
        assert!(trace.probes.capacity() >= probes_cap.min(2));
        assert!(trace.probes.iter().all(|p| p.backend == "naive"));
    }

    #[test]
    fn generous_deadline_matches_unbudgeted_search() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_index(500);
        let q = &base[..DIM];
        let req = SearchRequest {
            deadline: Some(Duration::from_secs(3600)),
            ..SearchRequest::new(8, SearchBackend::Naive, 0.0, 4)
        };
        let budgeted = index.search(q, &req, ThreadPool::global(), None).unwrap();
        let unbudgeted = index
            .search_probes(q, 8, SearchBackend::Naive, 0.0, 4)
            .unwrap();
        let ids = |o: &SearchOutcome| o.neighbors.iter().map(|n| n.id).collect::<Vec<_>>();
        assert_eq!(ids(&budgeted), ids(&unbudgeted));
        assert_eq!(budgeted.health, SearchHealth::healthy(4));
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let _lock = pqfs_fault::exclusive();
        let (index, _) = build_index(100);
        assert!(matches!(
            index.search_probes(&[0.0; 3], 5, SearchBackend::Naive, 0.0, 1),
            Err(IvfError::DimMismatch { .. })
        ));
        assert!(matches!(
            index.search_probes(&[0.0; DIM], 0, SearchBackend::Naive, 0.0, 1),
            Err(IvfError::Config(_))
        ));
        let train = clustered(100, 1);
        assert!(matches!(
            IvfadcIndex::build(
                &train,
                &train,
                &IvfadcConfig {
                    partitions: 0,
                    ..IvfadcConfig::new(DIM, 1)
                }
            ),
            Err(IvfError::Config(_))
        ));
        // An index is PQ 8x8: another shape is refused before any training.
        assert!(matches!(
            IvfadcIndex::build(
                &train,
                &train,
                &IvfadcConfig {
                    pq: PqConfig::pq16x4(DIM),
                    ..IvfadcConfig::new(DIM, 1)
                }
            ),
            Err(IvfError::Scan(ScanError::NeedsPq8x8 { m: 16, ksub: 16 }))
        ));
    }

    #[test]
    fn fastscan_code_memory_is_bounded_by_row_major_plus_padding() {
        // The §4.2 25 % saving requires partitions large enough to group on
        // 4 components (verified at scale by the fig20 harness and the
        // layout unit tests: 6 bytes/vector). At test sizes the auto-tuner
        // picks c = 0, where packed storage equals row-major plus at most
        // one padded block per group.
        let (index, _) = build_index(2000);
        let row = 8 * index.len();
        let packed = index.code_memory_bytes(SearchBackend::FastScan);
        // The grouped layout is all that is resident.
        assert_eq!(index.code_memory_bytes(SearchBackend::Naive), 0);
        // Loose bound: per group at most one padded 16-vector block of at
        // most 8 bytes/vector; uneven clustered partitions may reach c = 1
        // (16 groups each).
        let max_padding: usize = 4 * 16 * 16 * 8;
        assert!(
            packed <= row + max_padding,
            "packed {packed} >> row-major {row}"
        );
    }
}
