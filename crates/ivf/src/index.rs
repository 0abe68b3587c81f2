//! The IVFADC index: inverted lists of residual PQ codes and the three-step
//! query pipeline of the paper's Algorithm 1.

use crate::coarse::CoarseQuantizer;
use crate::IvfError;
use pqfs_core::{DistanceTables, Neighbor, PqConfig, ProductQuantizer, RowMajorCodes};
use pqfs_kmeans::distance::l2_sq;
use pqfs_obs::{Counter, Histogram, ProbeOutcome, ProbeTrace, QueryTrace};
use pqfs_pool::ThreadPool;
use pqfs_scan::{
    scan_libpq, scan_naive, FastScanIndex, Kernel, ScanError, ScanOpts, ScanParams, ScanResult,
    ScanScratch, ScanStats,
};
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

static QUERIES: Counter = Counter::new("pqfs_ivf_queries_total");
static PROBES_OK: Counter = Counter::labeled("pqfs_ivf_probes_total", "outcome", "ok");
static PROBES_FAILED: Counter = Counter::labeled("pqfs_ivf_probes_total", "outcome", "failed");
static PROBES_SKIPPED: Counter = Counter::labeled("pqfs_ivf_probes_total", "outcome", "skipped");
static PROBES_BOUNDED_OUT: Counter = Counter::new("pqfs_ivf_probes_bounded_out_total");
static TABLES_BUILT: Counter = Counter::new("pqfs_ivf_tables_built_total");
static COARSE_NS: Histogram = Histogram::new("pqfs_ivf_coarse_ns");
static TABLES_NS: Histogram = Histogram::new("pqfs_ivf_tables_ns");
static SCAN_NS: Histogram = Histogram::new("pqfs_ivf_scan_ns");
static MERGE_NS: Histogram = Histogram::new("pqfs_ivf_merge_ns");
static TOTAL_NS: Histogram = Histogram::new("pqfs_ivf_query_ns");

/// Per-backend scanned/pruned counters, indexed by the backend's position
/// in [`SearchBackend::ALL`] (see [`backend_slot`]).
static SCANNED_BY_BACKEND: [Counter; 3] = [
    Counter::labeled("pqfs_scan_vectors_scanned_total", "backend", "naive"),
    Counter::labeled("pqfs_scan_vectors_scanned_total", "backend", "libpq"),
    Counter::labeled("pqfs_scan_vectors_scanned_total", "backend", "fastscan"),
];
static PRUNED_BY_BACKEND: [Counter; 3] = [
    Counter::labeled("pqfs_scan_vectors_pruned_total", "backend", "naive"),
    Counter::labeled("pqfs_scan_vectors_pruned_total", "backend", "libpq"),
    Counter::labeled("pqfs_scan_vectors_pruned_total", "backend", "fastscan"),
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

impl Default for QueryScratch {
    fn default() -> Self {
        QueryScratch {
            residual: Vec::new(),
            tables: DistanceTables::placeholder(),
            scan: ScanScratch::default(),
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::default());
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
    /// index's grouped code storage is defined for. `build` always applies
    /// the §4.3 optimized centroid-index assignment after PQ training (it
    /// keeps Fast Scan's minimum tables tight).
    pub pq: PqConfig,
    /// Seed for every training stage.
    pub seed: u64,
}

impl IvfadcConfig {
    /// The paper's configuration: `PQ 8×8` and optimized assignment.
    pub fn new(dim: usize, partitions: usize) -> Self {
        IvfadcConfig {
            partitions,
            pq: PqConfig::pq8x8(dim),
            seed: 0,
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The options every partition is grouped under: components chosen from
/// the partition's size, the kernel from the running CPU (docs/FASTSCAN.md
/// §10).
static SCAN_OPTS: ScanOpts = ScanOpts {
    group_components: None,
    kernel: Kernel::Auto,
};

/// One inverted list: the global ids and the residual codes in the grouped
/// Fast Scan layout (paper §4.2) — the only copy of the codes the index holds.
#[derive(Debug, Clone)]
struct Partition {
    ids: Vec<u64>,
    index: FastScanIndex,
}

impl Partition {
    fn build(ids: Vec<u64>, codes: &RowMajorCodes) -> Result<Self, IvfError> {
        let index = FastScanIndex::build(codes, &SCAN_OPTS)?;
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

/// The most cells an index is built or loaded with: each cell's expansion
/// terms ([`cell_terms`]) take `m × ksub` floats, 8 KiB under `PQ 8×8`, so
/// they stay within 1 GiB.
pub(crate) const MAX_PARTITIONS: usize = 1 << 17;

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

    /// `keep` when it is a warm-up fraction a caller outside the library may
    /// ask for: finite and in `(0, 1]`. The scan clamps any value; the CLI
    /// and the server reject the others with this message.
    pub fn valid_keep(keep: f64) -> Result<f64, String> {
        if keep.is_finite() && keep > 0.0 && keep <= 1.0 {
            Ok(keep)
        } else {
            Err(format!("keep fraction {keep} outside (0, 1]"))
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

/// Nanoseconds from `a` to `b`.
fn stage_ns(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

/// One probe's completed scan and its per-stage timings (an empty
/// partition scans nothing: its scan time is 0).
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
    /// The shards its Fast Scan ran in (0: it did not scan).
    shards: usize,
}

/// Which probe a scan is, in the query's two steps.
#[derive(Clone, Copy)]
enum Step<'a> {
    /// The nearest probe: its tables are built before it starts, and its
    /// Fast Scan may split on the pool, idle until the later probes.
    Nearest(&'a ThreadPool),
    /// A later probe: its tables expand from the query's term.
    Later(&'a [f32]),
}

/// One probe's contribution to a multi-probe query.
enum ProbeScan {
    Ok(ProbeSuccess),
    Failed(IvfError),
    /// Skipped before its table build: the deadline budget was exhausted.
    Skipped,
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
    /// The per-cell terms of the IVFADC table expansion ([`cell_terms`]),
    /// derived at build and load, never persisted.
    cell_terms: Vec<f32>,
}

/// `‖y_ji‖² + 2⟨c_pj, y_ji⟩` per (cell `p`, subspace `j`, sub-centroid `i`),
/// row-major: the bracket of the IVFADC expansion (Jégou et al.;
/// docs/FASTSCAN.md §8), `c_pj` being sub-vector `j` of cell `p`'s centroid:
///
/// ```text
/// ‖x_j − c_pj − y_ji‖² = ‖x_j − c_pj‖² + (‖y_ji‖² + 2⟨c_pj, y_ji⟩) − 2⟨x_j, y_ji⟩
/// ```
fn cell_terms(coarse: &CoarseQuantizer, pq: &ProductQuantizer) -> Vec<f32> {
    let (m, ksub, dsub) = (pq.config().m(), pq.config().ksub(), pq.config().dsub());
    let (zero, mut norms) = (vec![0f32; dsub], vec![0f32; ksub]);
    let mut terms = vec![0f32; coarse.partitions() * m * ksub];
    for j in 0..m {
        // ‖0 − y‖² = ‖y‖², bit for bit, from the table kernel.
        pq.codebook(j).distances(&zero, &mut norms);
        for (p, cell) in terms.chunks_exact_mut(m * ksub).enumerate() {
            let row = &mut cell[j * ksub..(j + 1) * ksub];
            let c = &coarse.centroid(p)[j * dsub..(j + 1) * dsub];
            pq.codebook(j).dots(c, row);
            for (t, &n) in row.iter_mut().zip(&norms) {
                *t = n + 2.0 * *t;
            }
        }
    }
    terms
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
        if config.partitions == 0 || config.partitions > MAX_PARTITIONS {
            let range = format!("partitions must be in 1..={MAX_PARTITIONS}");
            return Err(IvfError::Config(range));
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
        pq.optimize_assignment(16, config.seed ^ 0x79B9)?;

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
            Partition::build(ids, &RowMajorCodes::new(codes, m))
        });
        let mut partitions = Vec::with_capacity(config.partitions);
        for partition in built {
            partitions.push(partition?);
        }

        Ok(IvfadcIndex {
            cell_terms: cell_terms(&coarse, &pq),
            coarse,
            pq,
            partitions,
            dim,
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
    /// result lists are merged in probe order — so neighbors and health are
    /// bit-identical to a sequential probe loop for any pool size, and the
    /// neighbors are exactly those of independent unbounded scans. The
    /// stats are equal on every pool of two or more threads and, on one
    /// thread, equal to the unsplit scan's: a nearest cell of at least
    /// [`SPLIT_MIN`](pqfs_scan::SPLIT_MIN) vectors scans as two shards on a
    /// pool of two or more threads, and the shards verify more than one
    /// scan would (docs/FASTSCAN.md §9).
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
    /// tight. Each further probe checks the elapsed time once, just before
    /// its table build, and is *skipped* (recorded in [`SearchOutcome::health`]) once
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
    /// bound and pruning counters; results are unaffected.
    ///
    /// **Tables** are those of [`probe_tables`](Self::probe_tables): the
    /// nearest probe scores its cell bit for bit as at `nprobe = 1`, so
    /// more probes never make the k-th distance worse. Reading the query's
    /// term off its tables counts in its `tables` time.
    ///
    /// # Errors
    ///
    /// [`IvfError::DimMismatch`] and [`IvfError::NonFiniteQuery`] for bad
    /// queries (before any table is built), [`IvfError::Config`] for a zero
    /// `topk` or `nprobe`, and the first probe failure when no probe
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
        self.check_query(query)?;
        if topk == 0 || nprobe == 0 {
            return Err(IvfError::Config("topk and nprobe must be positive".into()));
        }
        if let Some(t) = trace.as_deref_mut() {
            t.reset();
        }
        // Each stage starts at the instant the one before it ended, so on a
        // serial pool `coarse | probes and dispatch | merge` tile the wall.
        let t_begin = Instant::now();
        let probes = self.coarse.assign_multi(query, nprobe);
        let start = Instant::now();
        let coarse_ns = stage_ns(t_begin, start);
        // Step 2 of the nearest probe, here on this thread's scratch: its
        // direct tables, and off them the query's term that every further
        // probe expands its tables from. They count in its tables stage.
        let mut term = Vec::new();
        SCRATCH.with(|cell| {
            let QueryScratch {
                residual, tables, ..
            } = &mut *cell.borrow_mut();
            self.direct_into(query, probes[0], residual, tables)?;
            TABLES_BUILT.inc();
            if probes.len() > 1 {
                self.query_term(query, probes[0], tables, &mut term);
            }
            Ok::<_, IvfError>(())
        })?;
        // One relaxed load when no failpoint is armed anywhere; the
        // per-probe site string is only built under an armed registry.
        let faults_armed = pqfs_fault::armed();
        // A probe's tables stage starts at `entry`, so its fault check counts
        // in it.
        let run_probe = |p: usize,
                         step: Step<'_>,
                         bound: f32,
                         deadline: Option<(Instant, Duration)>,
                         entry: Instant| {
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
            // The deadline's one check, just before the table build, so a
            // blown budget costs no table work.
            if deadline.is_some_and(|(start, budget)| start.elapsed() >= budget) {
                return ProbeScan::Skipped;
            }
            match panic::catch_unwind(AssertUnwindSafe(|| {
                self.scan_probe(
                    query,
                    p,
                    step,
                    &ScanParams::new(topk).with_keep(keep).with_bound(bound),
                    backend,
                    entry,
                )
            })) {
                Ok(Ok(success)) => ProbeScan::Ok(success),
                Ok(Err(e)) => ProbeScan::Failed(e),
                Err(payload) => ProbeScan::Failed(IvfError::Probe {
                    partition: p,
                    message: panic_message(payload.as_ref()),
                }),
            }
        };

        // Step one — all of an nprobe-1 query: the nearest probe, on this
        // thread, with no bound and no deadline, so a query always returns a
        // best-so-far answer even under a zero budget. Only it may split its
        // scan on the pool, which is otherwise idle now.
        let nearest = run_probe(probes[0], Step::Nearest(pool), f32::INFINITY, None, start);
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
        let deadline = deadline.map(|budget| (start, budget));
        let later = pool.parallel_map(&probes[1..], |_, &p| {
            run_probe(p, Step::Later(&term), bound, deadline, Instant::now())
        });
        let scans = std::iter::once(nearest).chain(later);

        // Merge in probe order (determinism), collecting health as we go.
        let merge_t0 = Instant::now();
        let mut probe_stages_ns = 0;
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
                        shards,
                    } = success;
                    health.probes_ok += 1;
                    PROBES_OK.inc();
                    if !neighbors.is_empty() {
                        lists.push(neighbors);
                    }
                    stats.merge(&s);
                    record_scan_counters(backend, &s);
                    probe_stages_ns += tables_ns + scan_ns;
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
                        shards,
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
        let end = Instant::now();
        let merge_ns = stage_ns(merge_t0, end);
        let total_ns = stage_ns(t_begin, end);
        QUERIES.inc();
        COARSE_NS.observe_ns(coarse_ns);
        MERGE_NS.observe_ns(merge_ns);
        TOTAL_NS.observe_ns(total_ns);
        if let Some(t) = trace {
            t.coarse_ns = coarse_ns;
            // The probe phase outside every probe's own stages: handing the
            // later probes to the pool and waiting for them.
            t.dispatch_ns = stage_ns(start, merge_t0).saturating_sub(probe_stages_ns);
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

    /// The probes `search` visits for `query` at `nprobe`, nearest first,
    /// each with the distance tables it scans — what oracles and baselines
    /// build their tables by. The nearest probe's are
    /// [`DistanceTables::compute`] on the residual, at any `nprobe`, so it
    /// scores its cell exactly as a sole probe would; every further probe's
    /// are the IVFADC expansion over a query term read off them
    /// (docs/FASTSCAN.md §8).
    ///
    /// # Errors
    ///
    /// As [`search`](Self::search) for a bad query or a zero `nprobe`.
    pub fn probe_tables(
        &self,
        query: &[f32],
        nprobe: usize,
    ) -> Result<Vec<(usize, DistanceTables)>, IvfError> {
        self.check_query(query)?;
        if nprobe == 0 {
            return Err(IvfError::Config("nprobe must be positive".into()));
        }
        let probes = self.coarse.assign_multi(query, nprobe);
        let (mut residual, mut term) = (Vec::new(), Vec::new());
        let mut nearest = DistanceTables::placeholder();
        self.direct_into(query, probes[0], &mut residual, &mut nearest)?;
        self.query_term(query, probes[0], &nearest, &mut term);
        let mut out = vec![(probes[0], nearest)];
        for &p in &probes[1..] {
            let mut tables = DistanceTables::placeholder();
            self.expand_into(query, p, &term, &mut tables);
            out.push((p, tables));
        }
        Ok(out)
    }

    /// Rejects a query of the wrong length or with a NaN or infinite
    /// coordinate (the expansion's clamp would turn a NaN entry into 0).
    fn check_query(&self, query: &[f32]) -> Result<(), IvfError> {
        if query.len() != self.dim {
            return Err(IvfError::DimMismatch {
                expected: self.dim,
                actual: query.len(),
            });
        }
        let Some(coordinate) = query.iter().position(|x| !x.is_finite()) else {
            return Ok(());
        };
        let value = query[coordinate];
        Err(IvfError::NonFiniteQuery { coordinate, value })
    }

    /// The residual norm `‖x_j − c_pj‖²` of `query` in cell `p`, and the
    /// cell's row `j` of [`cell_terms`].
    fn cell_row(&self, query: &[f32], p: usize, j: usize) -> (f32, &[f32]) {
        let config = self.pq.config();
        let (m, ksub, dsub) = (config.m(), config.ksub(), config.dsub());
        let sub = j * dsub..(j + 1) * dsub;
        let norm = l2_sq(&query[sub.clone()], &self.coarse.centroid(p)[sub]);
        let at = (p * m + j) * ksub;
        (norm, &self.cell_terms[at..at + ksub])
    }

    /// The query's term `−2⟨x_j, y_ji⟩` of the expansion, row-major in
    /// `buf`, read off cell `p`'s direct `tables` as `D_j[i] − ‖x_j − c_pj‖²
    /// − (‖y_ji‖² + 2⟨c_pj, y_ji⟩)`: `m` norms and two subtractions per
    /// entry instead of a second pass over the codebooks.
    fn query_term(&self, query: &[f32], p: usize, tables: &DistanceTables, buf: &mut Vec<f32>) {
        buf.clear();
        for j in 0..self.pq.config().m() {
            let (norm, cell) = self.cell_row(query, p, j);
            let direct = tables.table(j).iter().zip(cell);
            buf.extend(direct.map(|(&d, &c)| (d - norm) - c));
        }
    }

    /// Step 2 for probe `p` into `tables`, directly on the residual.
    fn direct_into(
        &self,
        query: &[f32],
        p: usize,
        residual: &mut Vec<f32>,
        tables: &mut DistanceTables,
    ) -> Result<(), IvfError> {
        residual.resize(self.dim, 0.0);
        self.coarse.residual_into(query, p, residual);
        Ok(tables.recompute(&self.pq, residual)?)
    }

    /// Step 2 for probe `p` into `tables` from the query's `term`: `m`
    /// residual norms and one add-and-clamp per entry over the cell's terms.
    fn expand_into(&self, query: &[f32], p: usize, term: &[f32], tables: &mut DistanceTables) {
        let ksub = self.pq.config().ksub();
        tables.fill_with(self.pq.config().m(), ksub, |j, row| {
            let (norm, cell) = self.cell_row(query, p, j);
            let term = &term[j * ksub..(j + 1) * ksub];
            for ((d, &c), &t) in row.iter_mut().zip(cell).zip(term) {
                // The cell and query terms cancel: add them first. Rounding
                // can leave a tiny negative; scans need entries ≥ 0. A NaN
                // or ∞ from an overflowing coordinate stays as it is.
                let v = norm + (c + t);
                *d = if v < 0.0 { 0.0 } else { v };
            }
        });
    }

    /// Scans partition `p` for `query` and returns global-id neighbors,
    /// with its stage timings.
    ///
    /// Runs on the calling thread using its [`QueryScratch`]: the residual
    /// buffer, distance tables and Fast Scan table buffers are reused
    /// across queries, so repeated scans allocate only the result vector.
    /// The scratch leaves the thread-local for the scan: a split scan waits
    /// for its shards, and a waiting thread runs queued jobs, another
    /// query's probe among them, which takes the thread's scratch in turn.
    ///
    /// The tables stage runs from `entry` to the scan; the scan stage ends
    /// once the neighbors carry global ids.
    fn scan_probe(
        &self,
        query: &[f32],
        p: usize,
        step: Step<'_>,
        params: &ScanParams,
        backend: SearchBackend,
        entry: Instant,
    ) -> Result<ProbeSuccess, IvfError> {
        let partition = &self.partitions[p];
        if partition.ids.is_empty() {
            return Ok(ProbeSuccess {
                bound: params.bound,
                tables_ns: stage_ns(entry, Instant::now()),
                ..ProbeSuccess::default()
            });
        }
        let QueryScratch {
            residual,
            mut tables,
            mut scan,
        } = SCRATCH.take();

        // Step 2: distance tables, expanded from the query's term (the
        // nearest probe's were built directly before it started).
        if let Step::Later(term) = step {
            self.expand_into(query, p, term, &mut tables);
            TABLES_BUILT.inc();
        }
        let t1 = Instant::now();

        // Step 3: scan. Fast Scan reads the resident grouped codes; any
        // other backend is an oracle, answered exactly — and slowly, on
        // purpose — over rows rebuilt for this one scan, so no second
        // layout ever stays resident. The oracles cannot fail: an index is
        // `PQ 8×8` ([`require_pq8x8`]).
        let index = &partition.index;
        let rows = || self.partition_rows(p).1;
        let (result, shards) = match (backend, step) {
            (SearchBackend::FastScan, Step::Nearest(pool)) => (
                index.scan_on(&tables, params, &mut scan, pool),
                index.shards(pool),
            ),
            (SearchBackend::FastScan, Step::Later(_)) => {
                (index.scan_with(&tables, params, &mut scan), 1)
            }
            (SearchBackend::Naive, _) => (Ok(scan_naive(&tables, &rows(), params)), 1),
            (SearchBackend::Libpq, _) => (Ok(scan_libpq(&tables, &rows(), params)), 1),
        };
        let bounded_out = params.bound.is_finite() && params.bound < tables.sum_of_mins();
        SCRATCH.set(QueryScratch {
            residual,
            tables,
            scan,
        });
        let result: ScanResult = result?;

        // Translate partition positions to global ids.
        let neighbors = result
            .neighbors
            .into_iter()
            .map(|n| Neighbor {
                dist: n.dist,
                id: partition.ids[n.id as usize],
            })
            .collect();
        Ok(ProbeSuccess {
            neighbors,
            stats: result.stats,
            bound: params.bound,
            bounded_out,
            tables_ns: stage_ns(entry, t1),
            scan_ns: stage_ns(t1, Instant::now()),
            shards,
        })
    }

    /// Rebuilds an index from stored parts (used by persistence).
    ///
    /// `partitions` holds `(global ids, row-major code bytes)` per cell,
    /// regrouped here as [`build`](Self::build) groups them (grouping is
    /// deterministic). The loader makes `pq` `PQ 8×8` from the stored
    /// dimension.
    ///
    /// # Errors
    ///
    /// [`IvfError::Config`] when shapes disagree.
    pub(crate) fn from_parts(
        coarse: CoarseQuantizer,
        pq: ProductQuantizer,
        partitions: Vec<(Vec<u64>, Vec<u8>)>,
    ) -> Result<Self, IvfError> {
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
            built.push(Partition::build(ids, &RowMajorCodes::new(bytes, m))?);
        }
        Ok(IvfadcIndex {
            cell_terms: cell_terms(&coarse, &pq),
            coarse,
            pq,
            partitions: built,
            dim,
        })
    }

    /// The global ids of partition `p` and its codes rebuilt row-major, in
    /// partition-position order: what [`save`](Self::save) writes, what the
    /// oracle path scans, and what a caller timing a row-major baseline
    /// passes to `scan_naive` or `scan_libpq`.
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

    /// The scanner options every index's partitions are grouped under:
    /// always [`ScanOpts::default`] (automatic components, `Kernel::Auto`),
    /// for a caller that builds its own `FastScanIndex` over
    /// [`partition_rows`](Self::partition_rows).
    pub fn scan_opts(&self) -> &'static ScanOpts {
        &SCAN_OPTS
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
    use std::sync::OnceLock;

    const DIM: usize = 16;

    fn clustered(n: usize, seed: u64) -> Vec<f32> {
        clustered_in(DIM, n, seed)
    }

    /// `n` vectors of `dim` coordinates in `[0, 255]` around 12 centers.
    fn clustered_in(dim: usize, n: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..12)
            .map(|_| (0..dim).map(|_| rng.gen_range(0.0f32..255.0)).collect())
            .collect();
        let mut data = Vec::with_capacity(n * dim);
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
    /// over a pool with their probes inline (a served batch frame's shape) and
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

    /// Two cells either side of the auto grouping rule's boundary at 32 768
    /// vectors (docs/FASTSCAN.md §10), one on one component and one on two,
    /// both probed: the Fast Scan answer is the naive scan's, bit for bit,
    /// on a 1- and a 2-thread pool. Synthetic codes on a trained quantizer.
    #[test]
    fn cells_either_side_of_the_grouping_boundary_answer_exactly() {
        let _lock = pqfs_fault::exclusive();
        let (built, base) = build_cells(600, 2);
        let sizes = [32_767usize, 32_768];
        let mut next_id = 0u64;
        let parts = sizes
            .iter()
            .map(|&n| {
                let ids: Vec<u64> = (next_id..next_id + n as u64).collect();
                next_id += n as u64;
                let bytes = (0..n * 8)
                    .map(|i| ((i as u32 ^ n as u32).wrapping_mul(40_503) >> 8) as u8)
                    .collect();
                (ids, bytes)
            })
            .collect();
        let (coarse, pq) = (built.coarse().clone(), built.pq().clone());
        let index = IvfadcIndex::from_parts(coarse, pq, parts).unwrap();
        let c: Vec<usize> = index
            .partitions
            .iter()
            .map(|p| p.index.group_components())
            .collect();
        assert_eq!(c, [1, 2]);
        for pool in [1, 2].map(ThreadPool::new) {
            for q in base[..DIM * 4].chunks_exact(DIM) {
                for topk in [10, 1_000] {
                    let at = format!("topk {topk} @ {} threads", pool.threads());
                    let fast = SearchRequest::new(topk, SearchBackend::FastScan, 0.005, 2);
                    let naive = SearchRequest::new(topk, SearchBackend::Naive, 0.005, 2);
                    let got = index.search(q, &fast, &pool, None).unwrap();
                    let want = index.search(q, &naive, &pool, None).unwrap();
                    assert_eq!(got.health, SearchHealth::healthy(2), "{at}");
                    assert_eq!(bits(&got.neighbors), bits(&want.neighbors), "{at}");
                }
            }
        }
    }

    /// Three cells, the largest with at least `SPLIT_MIN` vectors, and
    /// base vectors as queries: `split` of them whose nearest cell is the
    /// largest, then two whose nearest is another.
    fn split_fixture(split: usize) -> (&'static IvfadcIndex, Vec<Vec<f32>>) {
        static CELLS: OnceLock<(IvfadcIndex, Vec<f32>)> = OnceLock::new();
        let (index, base) = CELLS.get_or_init(|| build_cells(3 * pqfs_scan::SPLIT_MIN, 3));
        let sizes = index.partition_sizes();
        let large = (0..3).max_by_key(|&p| sizes[p]).unwrap();
        assert!(sizes[large] >= pqfs_scan::SPLIT_MIN, "{sizes:?}");
        let nearest = |q: &[f32]| index.coarse.assign_multi(q, 1)[0];
        let rows = base.chunks_exact(DIM).step_by(997);
        let (mut queries, mut others): (Vec<_>, Vec<_>) = rows.partition(|q| nearest(q) == large);
        queries.truncate(split);
        others.truncate(2);
        assert_eq!((queries.len(), others.len()), (split, 2));
        let queries = queries.into_iter().chain(others).map(<[f32]>::to_vec);
        (index, queries.collect())
    }

    /// A nearest probe of at least `SPLIT_MIN` vectors splits its scan on a
    /// pool of 2 or 8 threads: the answer is the 1-thread pool's, bit for
    /// bit, the stats are equal at 2 and 8 threads, and on one thread the
    /// probe scans unsplit. Later probes never split.
    #[test]
    fn split_nearest_probe_answers_as_the_unsplit_search() {
        let _lock = pqfs_fault::exclusive();
        let (index, queries) = split_fixture(4);
        let pools = [1, 2, 8].map(ThreadPool::new);
        let mut trace = QueryTrace::new();
        for (qi, q) in queries.iter().enumerate() {
            let large = qi < 4;
            for (topk, nprobe) in [(10, 1), (100, 1), (1_000, 1), (100, 3)] {
                let req = SearchRequest::new(topk, SearchBackend::FastScan, 0.005, nprobe);
                let mut split_stats = None;
                let mut want = None;
                for pool in &pools {
                    let case = format!(
                        "query {qi} topk {topk} nprobe {nprobe} @ {}",
                        pool.threads()
                    );
                    let out = index.search(q, &req, pool, Some(&mut trace)).unwrap();
                    assert_eq!(out.health, SearchHealth::healthy(nprobe), "{case}");
                    let shards = if large && pool.threads() > 1 { 2 } else { 1 };
                    assert_eq!(trace.probes[0].shards, shards, "{case}");
                    assert!(trace.probes[1..].iter().all(|p| p.shards <= 1), "{case}");
                    for p in &trace.probes {
                        assert_eq!(p.warmup + p.pruned + p.verified, p.scanned, "{case}");
                        assert!(p.accepted <= p.warmup + p.verified, "{case}");
                        assert!(p.skipped <= p.pruned, "{case}");
                    }
                    if nprobe == 1 {
                        // One probe: the stages tile the wall, split or not.
                        assert_eq!(trace.stage_sum_ns(), trace.total_ns, "{case}");
                    }
                    let want = want.get_or_insert_with(|| bits(&out.neighbors));
                    assert_eq!(&bits(&out.neighbors), want, "{case}");
                    if pool.threads() > 1 {
                        assert_eq!(*split_stats.get_or_insert(out.stats), out.stats, "{case}");
                    }
                }
            }
        }
    }

    /// A search that splits inside a job of its own pool, with other
    /// queries' jobs queued behind it: while the thread waits for its
    /// shards it runs those jobs, and their probes take the thread's scratch
    /// too. No probe may fail and every answer is the unsplit one.
    #[test]
    fn split_search_inside_a_job_of_its_pool_fails_no_probe() {
        let _lock = pqfs_fault::exclusive();
        let (index, queries) = split_fixture(10);
        let req = SearchRequest::new(100, SearchBackend::FastScan, 0.005, 1);
        let serial = ThreadPool::new(1);
        let want: Vec<_> = queries
            .iter()
            .map(|q| bits(&index.search(q, &req, &serial, None).unwrap().neighbors))
            .collect();
        let pool = ThreadPool::new(2);
        let got = pool.parallel_map(&queries, |_, q| index.search(q, &req, &pool, None));
        for (qi, (got, want)) in got.into_iter().zip(&want).enumerate() {
            let got = got.unwrap_or_else(|e| panic!("query {qi}: {e}"));
            assert_eq!(got.health.probes_failed, 0, "query {qi}");
            assert_eq!(&bits(&got.neighbors), want, "query {qi}");
        }
    }

    /// Multi-probe search as it was before probes inherited a bound, kept
    /// as the oracle: an independent unbounded scan of each probe over its
    /// [`IvfadcIndex::probe_tables`] (Fast Scan over codes regrouped for it),
    /// merged in probe order. Returns `(distance bits, id)` pairs.
    fn unbounded_merge(
        index: &IvfadcIndex,
        topk: usize,
        backend: SearchBackend,
        keep: f64,
        probes: &[(usize, DistanceTables)],
    ) -> Vec<(u32, u64)> {
        let mut merged = pqfs_core::TopK::new(topk);
        let params = ScanParams::new(topk).with_keep(keep);
        for (p, tables) in probes {
            let (ids, rows) = index.partition_rows(*p);
            let result = match backend {
                SearchBackend::Naive => scan_naive(tables, &rows, &params),
                SearchBackend::Libpq => scan_libpq(tables, &rows, &params),
                SearchBackend::FastScan => {
                    let fast = FastScanIndex::build(&rows, index.scan_opts());
                    fast.unwrap().scan(tables, &params).unwrap()
                }
            };
            for n in result.neighbors {
                merged.push(n.dist, ids[n.id as usize]);
            }
        }
        bits(&merged.into_sorted())
    }

    fn bits(neighbors: &[Neighbor]) -> Vec<(u32, u64)> {
        neighbors.iter().map(|n| (n.dist.to_bits(), n.id)).collect()
    }

    /// Exactness of the inherited bound over the tables `search` builds:
    /// at nprobe 1 (direct tables), 2 and 8 (expanded tables), whatever
    /// topk, backend and pool size, the answer is that of independent
    /// unbounded scans of [`IvfadcIndex::probe_tables`], and `stats` do not
    /// depend on the pool.
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
            let nprobe = [1usize, 2, 8][case % 3];
            // Small topk: the nearest cell fills it and the bound engages.
            // Large topk: it cannot, and the bound stays +inf.
            let topk = if case % 2 == 0 {
                rng.gen_range(1..=10)
            } else {
                rng.gen_range(1..=1000)
            };
            let probes = index.probe_tables(query, nprobe).unwrap();
            if index.partition_sizes()[probes[0].0] >= topk {
                bounded += 1;
            } else {
                unbounded += 1;
            }
            for backend in SearchBackend::ALL {
                let want = unbounded_merge(&index, topk, backend, 0.01, &probes);
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

    const WIDE: usize = 128;

    /// An index over 128-d vectors: `dsub` 16, the benchmark's shape and
    /// the one where the expansion's large terms cancel the most.
    fn build_wide(partitions: usize) -> (IvfadcIndex, Vec<f32>) {
        let train = clustered_in(WIDE, 1200, 7);
        let base = clustered_in(WIDE, 600, 8);
        let config = IvfadcConfig::new(WIDE, partitions);
        (IvfadcIndex::build(&train, &base, &config).unwrap(), base)
    }

    /// The factor `k` of docs/FASTSCAN.md §8's bound `k·ε·S` on the
    /// distance between an expanded entry and the direct one.
    fn rounding_factor(dsub: usize) -> f64 {
        let h = dsub.div_ceil(4) + 3;
        (3 * h + 11) as f64 / 2.0
    }

    /// docs/FASTSCAN.md §8's `S` for subspace `j` of `query`, probe `p`
    /// expanded from the term read off `nearest`, in `f64`:
    /// `‖r_p‖² + ‖r_0‖² + ‖r_0 − y‖² + 2‖y‖² + 2⟨|c_p|, |y|⟩ + 2⟨|c_0|, |y|⟩`.
    fn rounding_scale(
        index: &IvfadcIndex,
        query: &[f32],
        p: usize,
        nearest: usize,
        j: usize,
        y: &[f32],
    ) -> f64 {
        let dsub = y.len();
        let sub = j * dsub..(j + 1) * dsub;
        let (x, coarse) = (&query[sub.clone()], index.coarse());
        let (cp, c0) = (
            &coarse.centroid(p)[sub.clone()],
            &coarse.centroid(nearest)[sub],
        );
        let f = f64::from;
        let sq = |a: &[f32], b: &[f32]| {
            a.iter()
                .zip(b)
                .map(|(&a, &b)| (f(a) - f(b)).powi(2))
                .sum::<f64>()
        };
        let abs_dot = |c: &[f32]| {
            c.iter()
                .zip(y)
                .map(|(&c, &y)| (f(c) * f(y)).abs())
                .sum::<f64>()
        };
        let r0: Vec<f32> = x.iter().zip(c0).map(|(x, c)| x - c).collect();
        let zero = vec![0f32; dsub];
        sq(x, cp)
            + sq(x, c0)
            + sq(&r0, y)
            + 2.0 * sq(y, &zero)
            + 2.0 * abs_dot(cp)
            + 2.0 * abs_dot(c0)
    }

    /// The expansion against the direct build, for every cell of a
    /// `dsub`-16 index as a probe: the nearest probe's tables are the
    /// direct build, and every other entry is ≥ 0 and within `k·ε·S` of the
    /// direct entry (docs/FASTSCAN.md §8).
    #[test]
    fn expanded_tables_are_non_negative_and_within_the_rounding_bound() {
        let (index, base) = build_wide(8);
        let pq = index.pq();
        let (m, ksub, dsub) = (pq.config().m(), pq.config().ksub(), pq.config().dsub());
        let k = rounding_factor(dsub);
        let mut residual = vec![0f32; WIDE];
        let mut worst = 0f64;
        for q in base.chunks_exact(WIDE).step_by(20) {
            let probes = index.probe_tables(q, index.num_partitions()).unwrap();
            assert_eq!(probes.len(), 8);
            let nearest = probes[0].0;
            for (p, tables) in &probes {
                index.coarse().residual_into(q, *p, &mut residual);
                let direct = DistanceTables::compute(pq, &residual).unwrap();
                if *p == nearest {
                    assert_eq!(tables.raw(), direct.raw(), "the nearest probe is direct");
                    continue;
                }
                for j in 0..m {
                    for i in 0..ksub {
                        let y = pq.codebook(j).centroid(i);
                        let (e, d) = (tables.table(j)[i], direct.table(j)[i]);
                        let scale = rounding_scale(&index, q, *p, nearest, j, y);
                        let bound = k * f64::from(f32::EPSILON) * scale;
                        let gap = f64::from(e - d).abs();
                        assert!(e >= 0.0, "cell {p} table {j} entry {i}: {e}");
                        assert!(
                            gap <= bound,
                            "cell {p} ({j}, {i}): {e} vs {d}, bound {bound}"
                        );
                        worst = worst.max(gap / bound);
                    }
                }
            }
        }
        assert!(worst > 0.0, "the expansion must round somewhere");
    }

    /// A query at `c_p + decode(code)` has residual `decode(code)` in cell
    /// `p`, so the direct entry of `code[j]` is exactly 0 in every table;
    /// expanded from the term read off any other cell's direct tables, the
    /// entry, which cancels large terms to get there, lands in
    /// `[0, k·ε·S]`. Centroids on a coarse grid make the query and its
    /// residual exact in `f32`.
    #[test]
    fn a_query_on_a_reconstruction_has_zero_entries_up_to_the_bound() {
        use pqfs_core::Codebook;
        let (trained, _) = build_wide(4);
        let grid = |v: &f32, step: f32| (v / step).round() * step;
        let pq = trained.pq();
        let (m, dsub) = (pq.config().m(), pq.config().dsub());
        let codebooks = (0..m)
            .map(|j| {
                let cb = pq.codebook(j).centroids().iter();
                Codebook::new(cb.map(|v| grid(v, 1.0 / 1024.0)).collect(), dsub)
            })
            .collect();
        let pq = ProductQuantizer::from_codebooks(*pq.config(), codebooks);
        let centroids = (0..trained.num_partitions())
            .flat_map(|p| trained.coarse().centroid(p).iter().map(|v| grid(v, 1.0)))
            .collect();
        let coarse = CoarseQuantizer::from_centroids(centroids, WIDE);
        let parts = (0..trained.num_partitions())
            .map(|p| {
                let (ids, codes) = trained.partition_rows(p);
                (ids.to_vec(), codes.as_bytes().to_vec())
            })
            .collect();
        let index = IvfadcIndex::from_parts(coarse, pq, parts).unwrap();
        let k = rounding_factor(dsub);
        let mut residual = vec![0f32; WIDE];
        let (mut term, mut tables) = (Vec::new(), DistanceTables::placeholder());
        for p in 0..index.num_partitions() {
            for seed in 0..4usize {
                let code: Vec<u8> = (0..m).map(|j| (seed * 67 + j * 29 + p) as u8).collect();
                let y = index.pq().decode(&code).unwrap();
                let centroid = index.coarse().centroid(p);
                let q: Vec<f32> = centroid.iter().zip(&y).map(|(c, y)| c + y).collect();
                index.coarse().residual_into(&q, p, &mut residual);
                assert_eq!(residual, y, "the grid keeps the residual exact");
                let direct = DistanceTables::compute(index.pq(), &residual).unwrap();
                for nearest in (0..index.num_partitions()).filter(|&c| c != p) {
                    index.coarse().residual_into(&q, nearest, &mut residual);
                    let from = DistanceTables::compute(index.pq(), &residual).unwrap();
                    index.query_term(&q, nearest, &from, &mut term);
                    index.expand_into(&q, p, &term, &mut tables);
                    for (j, &i) in code.iter().enumerate() {
                        let i = usize::from(i);
                        let y = index.pq().codebook(j).centroid(i);
                        let scale = rounding_scale(&index, &q, p, nearest, j, y);
                        let tol = k * f64::from(f32::EPSILON) * scale;
                        let e = f64::from(tables.table(j)[i]);
                        assert_eq!(direct.table(j)[i], 0.0, "cell {p} table {j}");
                        assert!(
                            (0.0..=tol).contains(&e),
                            "cell {p} from {nearest}, table {j}: {e} outside [0, {tol}]"
                        );
                    }
                }
            }
        }
    }

    /// A sole probe has nothing to share, and a multi-probe query reads
    /// its term off the nearest probe's tables: at any nprobe, those are
    /// the direct build on the residual, bit for bit.
    #[test]
    fn the_nearest_probe_builds_its_tables_directly() {
        let (index, base) = build_wide(4);
        let mut residual = vec![0f32; WIDE];
        for q in base.chunks_exact(WIDE).step_by(50) {
            for nprobe in [1usize, 2, 4] {
                let probes = index.probe_tables(q, nprobe).unwrap();
                assert_eq!(probes.len(), nprobe);
                let (p, tables) = &probes[0];
                index.coarse().residual_into(q, *p, &mut residual);
                let direct = DistanceTables::compute(index.pq(), &residual).unwrap();
                let raw_bits =
                    |t: &DistanceTables| t.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(raw_bits(tables), raw_bits(&direct), "nprobe {nprobe}");
            }
        }
    }

    /// A finite coordinate whose square overflows makes the direct entries
    /// of its subspace `+∞`; the expanded ones must not come out as a
    /// confident 0 or any other finite number.
    #[test]
    fn an_overflowing_coordinate_never_expands_to_a_finite_entry() {
        let (index, base) = build_wide(4);
        let dsub = index.pq().config().dsub();
        for coordinate in [0, WIDE - 1] {
            let mut q = base[..WIDE].to_vec();
            q[coordinate] = 1e37;
            let probes = index.probe_tables(&q, 4).unwrap();
            let j = coordinate / dsub;
            assert!(probes[0].1.table(j).iter().all(|&d| d == f32::INFINITY));
            for (p, tables) in &probes[1..] {
                let finite = tables.table(j).iter().filter(|d| d.is_finite()).count();
                assert_eq!(finite, 0, "cell {p}, coordinate {coordinate}");
            }
        }
    }

    /// A NaN or infinite coordinate is a typed error naming it, raised
    /// before any table is built, at any nprobe.
    #[test]
    fn non_finite_coordinates_are_rejected_before_any_table_is_built() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_index(300);
        let built = || pqfs_obs::counter_value("pqfs_ivf_tables_built_total", None);
        let before = built();
        for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for coordinate in [0, DIM - 1] {
                let mut q = base[..DIM].to_vec();
                q[coordinate] = value;
                for nprobe in [1usize, 4] {
                    let at = format!("{value} at {coordinate}, nprobe {nprobe}");
                    let err = index.search_probes(&q, 5, SearchBackend::FastScan, 0.01, nprobe);
                    let err = err.unwrap_err();
                    let named =
                        format!("query coordinate {coordinate} is {value}, not a finite number");
                    assert_eq!(err.to_string(), named, "{at}");
                    assert!(
                        matches!(err, IvfError::NonFiniteQuery { coordinate: c, .. } if c == coordinate),
                        "{at}"
                    );
                    assert!(
                        matches!(
                            index.probe_tables(&q, nprobe),
                            Err(IvfError::NonFiniteQuery { .. })
                        ),
                        "{at}"
                    );
                }
            }
        }
        assert_eq!(built(), before);
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
            IvfadcIndex::from_parts(index.coarse().clone(), index.pq().clone(), parts).unwrap()
        };
        for (name, index) in [("built", &index), ("all ties", &all_ties)] {
            for backend in SearchBackend::ALL {
                for topk in [1usize, 8, 1000] {
                    for q in base[..DIM * 6].chunks_exact(DIM) {
                        let probes = index.probe_tables(q, 1).unwrap();
                        let got = index.search_probes(q, topk, backend, 0.01, 1).unwrap();
                        assert_eq!(
                            bits(&got.neighbors),
                            unbounded_merge(index, topk, backend, 0.01, &probes),
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
        let _lock = pqfs_fault::exclusive();
        let (built, base) = build_index(3_000);
        let regrouped = |c: usize, kernel: Kernel| {
            let opts = ScanOpts::default()
                .with_group_components(c)
                .with_kernel(kernel);
            let mut index = built.clone();
            for partition in &mut index.partitions {
                let rows = partition.index.grouped().to_row_major();
                partition.index = FastScanIndex::build(&rows, &opts).unwrap();
            }
            index
        };
        let pools = [1usize, 2, 8].map(ThreadPool::new);
        // Each is false on a CPU without that kernel, both off x86-64.
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
    #[test]
    fn a_failed_nearest_probe_leaves_the_others_unbounded() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_index(600);
        let q = &base[..DIM];
        let probes = index.probe_tables(q, 4).unwrap();
        let _g = pqfs_fault::scoped(
            format!("ivf.search.scan.{}", probes[0].0),
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
                unbounded_merge(&index, 5, backend, 0.01, &probes[1..]),
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

    #[test]
    fn expired_probe_short_circuits_before_the_table_build() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_index(500);
        let q = &base[..DIM];
        let probes = index.coarse().assign_multi(q, 4);
        // Serial pool, delay injected on the fault site of the first
        // later probe with a non-empty partition (empty partitions build no
        // tables): the earlier probes complete, the victim stalls past the
        // deadline inside its fault check and is skipped at the check
        // before its table build, and so is every probe after it.
        let sizes = index.partition_sizes();
        let victim = (1..probes.len())
            .find(|&i| sizes[probes[i]] > 0)
            .expect("some later probe has a non-empty partition");
        let pool = ThreadPool::new(1);
        let _g = pqfs_fault::scoped(
            format!("ivf.search.scan.{}", probes[victim]),
            pqfs_fault::FaultAction::Delay(300),
        );
        let built = || pqfs_obs::counter_value("pqfs_ivf_tables_built_total", None);
        let built_before = built();
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
            .map(|i| {
                if i < victim {
                    ProbeOutcome::Ok
                } else {
                    ProbeOutcome::Skipped
                }
            })
            .collect();
        assert_eq!(outcomes, expected);
        // Probes 1..victim hold empty partitions: only the nearest probe
        // built tables.
        assert_eq!(
            built(),
            built_before + 1,
            "a skipped probe must build no tables"
        );
    }

    #[test]
    fn traced_search_records_every_stage_and_probe() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build_index(500);
        let q = &base[..DIM];
        let pool = ThreadPool::new(1);
        let mut trace = QueryTrace::new();
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
        // On a serial pool the stages tile the wall time, to the nanosecond.
        assert_eq!(trace.stage_sum_ns(), trace.total_ns);
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
        let tables = index.probe_tables(q, 4).unwrap();
        let ruled_out = trace.probes[1..]
            .iter()
            .zip(&tables[1..])
            .inspect(|(p, (partition, _))| assert_eq!(p.partition, *partition))
            .filter(|(p, (_, tables))| p.scanned > 0 && kth < tables.sum_of_mins())
            .map(|(p, _)| p)
            .inspect(|p| assert_eq!(p.pruned, p.scanned))
            .count() as u64;
        assert!(ruled_out > 0, "the fixture must exercise the shortcut");
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
