//! The Fast Scan driver: warm-up, quantization, kernel invocation and
//! survivor verification (paper Figure 6; docs/FASTSCAN.md).
//!
//! A scan orders the runs of groups nearest-first ([`run_order`],
//! docs/FASTSCAN.md §6) and is then four steps. **Warm-up** computes exact
//! distances for the shortest head of that order whose runs hold
//! `max(keep · n, topk)` vectors and offers them to the result heap in one
//! batch.
//! **Quantization** derives `qmax` from that heap and fills the 8-bit
//! tables. The **kernel** ([`kernel::scan_all`]) visits the rest of the
//! order, passes over the runs and groups the threshold already excludes,
//! lower-bounds every vector of the others and hands each block with
//! survivors to the [`Verifier`], which computes the exact distances of the
//! masked lanes straight from the block's arrays, in a loop monomorphized
//! on the kernel's `const C`, and feeds the tightened threshold back.
//!
//! A caller that already knows a distance no answer can exceed passes it as
//! [`ScanParams::bound`]: it replaces the warm-up as the source of `qmax`
//! and caps the pruning threshold from the first block on (docs/FASTSCAN.md
//! §5).
//!
//! A split scan runs the fast path as [`SHARDS`] shards on a pool, shard `s`
//! over the runs `s, s + SHARDS, …` of what the warm-up left of the run
//! order, each with its own copy of the warm-up's heap, and merges their
//! two ascending lists in one pass (docs/FASTSCAN.md §9).

use crate::fastscan::grouping::GroupedCodes;
use crate::fastscan::kernel::{self, BlockSink, ScanTables};
use crate::fastscan::layout::{bytes_per_block, lane_distance, FS_BLOCK, FS_M, KSUB, PORTION};
use crate::fastscan::FastScanIndex;
use crate::quantize::{DistanceQuantizer, DEFAULT_BINS};
use crate::result::{ScanResult, ScanStats};
use crate::ScanError;
use pqfs_core::{DistanceTables, Neighbor, TopK};
use pqfs_pool::ThreadPool;
use std::cmp::Ordering;
use std::ops::Range;

/// The fewest vectors a partition holds for [`FastScanIndex::scan_on`] to
/// split its fast path: below it the second shard's extra verification and
/// the hand-off cost more than the second core saves (docs/FASTSCAN.md §9).
pub const SPLIT_MIN: usize = 65_536;

/// The shards of a split scan.
pub(crate) const SHARDS: usize = 2;

/// Per-query scan parameters, with one meaning for every
/// [`Backend`](crate::Backend): the result is the `topk` smallest
/// `(distance, id)` pairs among the vectors with `distance <= bound`.
#[derive(Debug, Clone, Copy)]
pub struct ScanParams {
    /// Number of nearest neighbors to return.
    pub topk: usize,
    /// Fraction of the database scanned with plain PQ Scan to find the
    /// temporary nearest neighbor that sets `qmax` (paper §4.4; `keep`).
    /// The paper recommends 0.1 %–1 %; the default is 0.5 %.
    ///
    /// The paper takes the *first* `keep%` of its (arbitrarily ordered)
    /// database. Our storage is grouped, and the grouping says where the
    /// query's near vectors are, so Fast Scan spends the fraction there: it
    /// scans the nearest runs of groups, in the fast path's order, until
    /// they hold `max(⌈keep · n⌉, topk)` vectors (docs/FASTSCAN.md §2).
    /// `keep` is therefore a floor on the vectors the warm-up holds, not
    /// their number: `0` means no warm-up, `1` (or a partition of one
    /// group) an exact scan of everything.
    pub keep: f64,
    /// Entry bound: vectors farther than this are not part of the answer
    /// (ties at the bound are). `+∞`, the default, admits every vector.
    ///
    /// A caller that merges several scans into one top-k — multi-probe
    /// search — passes the k-th distance it already holds: a dropped vector
    /// has `distance > bound >=` the final k-th distance, so the merged
    /// result is unchanged. The exhaustive backends merely skip the heap for
    /// such vectors; the pruning backends start with `qmax` and the pruning
    /// threshold at the bound, which is where small partitions gain (the
    /// warm-up of a few-hundred-vector partition is a dozen vectors and sets
    /// a threshold that prunes little). Must not be NaN.
    pub bound: f32,
}

impl ScanParams {
    /// Parameters with the paper's default `keep = 0.5 %` and no entry
    /// bound.
    pub fn new(topk: usize) -> Self {
        ScanParams {
            topk,
            keep: 0.005,
            bound: f32::INFINITY,
        }
    }

    /// Replaces the `keep` fraction (clamped to `[0, 1]` at scan time).
    pub fn with_keep(mut self, keep: f64) -> Self {
        self.keep = keep;
        self
    }

    /// Replaces the entry bound.
    pub fn with_bound(mut self, bound: f32) -> Self {
        debug_assert!(!bound.is_nan(), "the entry bound must not be NaN");
        self.bound = bound;
        self
    }
}

/// Reusable per-thread scan state: the quantized table buffers a Fast Scan
/// query fills (one 256-entry byte table per grouped component, or per
/// component under a refining kernel, plus the 16-entry small tables).
///
/// These are the only per-query heap allocations of a prepared Fast Scan
/// query besides the result; batch drivers keep one `ScanScratch` per
/// worker thread so steady-state scanning allocates nothing but the result
/// vector. A default-constructed scratch is always valid — buffers grow on
/// first use and are reused afterwards.
#[derive(Debug, Clone, Default)]
pub struct ScanScratch {
    pub(crate) tables: ScanTables,
}

pub(crate) fn scan(
    index: &FastScanIndex,
    tables: &DistanceTables,
    params: &ScanParams,
) -> Result<ScanResult, ScanError> {
    scan_with(index, tables, params, &mut ScanScratch::default(), None)
}

/// Scans the partition; with a `split` pool, as [`SHARDS`] shards on it.
/// The neighbors are the same either way; the stats are each shard's summed,
/// the warm-up's counted once.
pub(crate) fn scan_with(
    index: &FastScanIndex,
    tables: &DistanceTables,
    params: &ScanParams,
    scratch: &mut ScanScratch,
    split: Option<&ThreadPool>,
) -> Result<ScanResult, ScanError> {
    // The eight float tables as one fixed-size array: `PQ 8×8` is checked
    // here once, and no lookup below needs a bounds check.
    let float_tables: &[f32; FS_M * KSUB] = match tables.raw().try_into() {
        Ok(raw) if tables.m() == FS_M => raw,
        _ => {
            return Err(ScanError::NeedsPq8x8 {
                m: tables.m(),
                ksub: tables.ksub(),
            })
        }
    };
    let kernel = index.kernel().resolve()?;
    let grouped = index.grouped();
    let c = grouped.layout().c();
    let n = grouped.len();
    let mut heap = TopK::new(params.topk.max(1));
    let mut stats = ScanStats {
        scanned: n as u64,
        ..ScanStats::default()
    };
    if n == 0 {
        return Ok(ScanResult {
            neighbors: Vec::new(),
            stats,
        });
    }

    // A finite entry bound is a threshold already, from a better sample
    // than this partition's own: the warm-up is skipped.
    let entry = params.bound;
    if entry < tables.sum_of_mins() {
        // No distance from these tables is below the sum of their minima:
        // the bound excludes the whole partition before a code byte is
        // read. (Left to the kernel, the vectors within a bin of the minima
        // would be verified first.)
        stats.pruned = n as u64;
        return Ok(ScanResult {
            neighbors: Vec::new(),
            stats,
        });
    }
    // What a key nibble adds at least, per component: the portion minima
    // the tables hold. The runs are ordered by those of the grouped
    // components; those of the others, quantized, are the minimum tables
    // (§4.3).
    let minima: [&[f32]; FS_M] = std::array::from_fn(|j| tables.portion_minima(j));
    let mut order = [0u8; MAX_RUNS];
    let order = run_order(grouped, &minima, &mut order);

    // ---- Warm-up: plain PQ Scan over the head of the run order (§4.4;
    // docs/FASTSCAN.md §2). Its vectors are offered to the real heap and
    // its runs left out of the fast path, so the overall result is exactly
    // PQ Scan's.
    let mut head = 0;
    if entry == f32::INFINITY && params.keep > 0.0 {
        let goal = ((params.keep.min(1.0) * n as f64).ceil() as usize).max(params.topk);
        let mut held = 0;
        head = order
            .iter()
            .position(|&r| {
                let run = &grouped.runs()[r as usize];
                held += vectors(grouped, run.start as usize..run.end as usize);
                held >= goal
            })
            .map_or(order.len(), |last| last + 1);
        stats.warmup = held as u64;
        let warm = &order[..head];
        stats.accepted = match c {
            0 => warm_up::<0>(grouped, float_tables, warm, &mut heap),
            1 => warm_up::<1>(grouped, float_tables, warm, &mut heap),
            2 => warm_up::<2>(grouped, float_tables, warm, &mut heap),
            3 => warm_up::<3>(grouped, float_tables, warm, &mut heap),
            _ => warm_up::<4>(grouped, float_tables, warm, &mut heap),
        };
    }

    // ---- Quantization setup (§4.4): qmax = the entry bound, else the
    // distance to the temporary nearest neighbor, falling back to the
    // maximum possible distance.
    let qmax = if entry.is_finite() {
        entry
    } else if heap.is_full() {
        heap.threshold()
    } else {
        tables.max_sum()
    };
    let quantizer = DistanceQuantizer::new(tables, qmax, DEFAULT_BINS);

    // Quantized full tables for the grouped components (their 16-entry
    // portions become S_0..S_{c-1}, selected per group by the kernel) — and
    // for the others too when the kernel bounds a second time with them —
    // written into the reusable scratch buffers...
    let scan_tables = &mut scratch.tables;
    let full = if kernel.refines() { FS_M } else { c };
    scan_tables.full.resize_with(full, Vec::new);
    for (j, buf) in scan_tables.full.iter_mut().enumerate() {
        quantizer.quantize_table_into(j, tables.table(j), buf);
    }
    // ...and the minimum tables S_c..S_7, constant for the whole query
    // (portion minima quantized — monotone, so this equals the minimum of
    // the quantized entries).
    let small = scan_tables.small.iter_mut().zip(minima).enumerate();
    for (j, (small, minima)) in small.skip(c) {
        *small = std::array::from_fn(|p| quantizer.quantize_value(j, minima[p]));
    }

    // ---- Fast path: the kernel walks the rest of the runs nearest-first,
    // passes over what the threshold excludes and hands the rest's
    // survivors over.
    let runs = &order[head..];
    let bound = heap.threshold().min(entry);
    let threshold = quantizer.quantize_threshold(bound);
    let scan_tables = &scratch.tables;
    // The fast path over `runs` from `heap`: its list and its counts.
    let fast_path = |heap: TopK, runs: &[u8]| {
        let mut verifier = Verifier {
            grouped,
            float_tables,
            quantizer: &quantizer,
            heap,
            entry,
            bound,
            threshold,
            verified: 0,
            accepted: 0,
            skipped: 0,
            group: usize::MAX,
            start: 0,
            high: [0; 4],
            blocks: &[],
        };
        kernel::scan_all(kernel, grouped, scan_tables, runs, threshold, &mut verifier);
        let counts = ScanStats {
            verified: verifier.verified,
            accepted: verifier.accepted,
            skipped: verifier.skipped,
            ..ScanStats::default()
        };
        (verifier.heap.into_sorted(), counts)
    };
    let (neighbors, counts) = match split {
        None => fast_path(heap, runs),
        Some(pool) => {
            // Shard `s` takes every `SHARDS`-th run from the `s`-th, so it
            // meets near runs as early as the whole scan does. Each holds
            // the `topk` smallest of the warm-up and its runs, so together
            // they hold the answer; the warm-up's vectors are in every list.
            let shards: [Vec<u8>; SHARDS] =
                std::array::from_fn(|s| runs.iter().skip(s).step_by(SHARDS).copied().collect());
            let lists = pool.parallel_map(&shards, |_, runs| fast_path(heap.clone(), runs));
            let [(a, mut counts), (b, other)] = <[_; SHARDS]>::try_from(lists)
                .unwrap_or_else(|_| unreachable!("one list per shard"));
            counts.merge(&other);
            (merge(&a, &b, heap.k()), counts)
        }
    };
    stats.verified = counts.verified;
    stats.accepted += counts.accepted;
    stats.skipped = counts.skipped;

    // A vector is "pruned" when its exact pqdistance was never computed in
    // the fast path; warm-up members are accounted separately, so the
    // invariant `warmup + pruned + verified == scanned` always holds.
    stats.pruned = n as u64 - stats.warmup - stats.verified;

    Ok(ScanResult { neighbors, stats })
}

/// The most runs a grouped layout has: one per two-nibble key prefix.
const MAX_RUNS: usize = PORTION * PORTION;

/// The order the fast path visits `grouped.runs()` in, as indices at the front
/// of `order`: ascending by the sum of the portion minima the run's key
/// prefix selects (the least it adds to a distance), ties by prefix.
fn run_order<'a>(
    grouped: &GroupedCodes,
    minima: &[&[f32]; FS_M],
    order: &'a mut [u8; MAX_RUNS],
) -> &'a [u8] {
    let (groups, runs) = (grouped.groups(), grouped.runs());
    let prefix = grouped.layout().c().min(2);
    // Per run: the sum's bits — which order as the sums do, table entries
    // being squared distances, never negative; any order scans correctly —
    // over the run's index (runs ascend by prefix, so it settles ties).
    let mut nearest = [0u64; MAX_RUNS];
    let nearest = &mut nearest[..runs.len()];
    for (i, (slot, run)) in nearest.iter_mut().zip(runs).enumerate() {
        let key = &groups[run.start as usize].key;
        let least: f32 = (0..prefix).map(|j| minima[j][key[j] as usize]).sum();
        *slot = (least.to_bits() as u64) << 8 | i as u64;
    }
    nearest.sort_unstable();
    let order = &mut order[..runs.len()];
    for (slot, &key) in order.iter_mut().zip(nearest.iter()) {
        *slot = key as u8;
    }
    order
}

/// The vectors the contiguous `groups` hold: storage positions are
/// contiguous across them.
fn vectors(grouped: &GroupedCodes, groups: Range<usize>) -> usize {
    let all = grouped.groups();
    let (first, last) = (&all[groups.start], &all[groups.end - 1]);
    last.start + last.len - first.start
}

/// Plain PQ Scan over whole runs: every vector of the runs `runs` lists
/// is offered to `heap` with its exact distance, in one
/// [`TopK::batch`]; returns how many of them the batch appended (a
/// superset of those it keeps: the batch's cut lags the heap's threshold
/// between compactions). Monomorphized on the layout's grouping count like
/// the verification loop, which is worth a quarter of the warm-up's time.
/// `C` must equal `grouped.layout().c()`.
fn warm_up<const C: usize>(
    grouped: &GroupedCodes,
    float_tables: &[f32; FS_M * KSUB],
    runs: &[u8],
    heap: &mut TopK,
) -> u64 {
    let all_runs = grouped.runs();
    heap.batch(|batch| {
        let mut accepted = 0;
        for run in runs.iter().map(|&r| &all_runs[r as usize]) {
            for g in &grouped.groups()[run.start as usize..run.end as usize] {
                let high = g.key.map(|k| k << 4);
                let blocks = grouped.group_blocks(g).chunks_exact(bytes_per_block(C));
                let ids = grouped.group_ids(g).chunks(FS_BLOCK);
                for (block, ids) in blocks.zip(ids) {
                    for (lane, &id) in ids.iter().enumerate() {
                        let d = lane_distance(C, float_tables, high, block, lane);
                        accepted += batch.offer(d, id as u64) as u64;
                    }
                }
            }
        }
        accepted
    })
}

/// The `k` smallest of two lists ascending by `(dist, id)`, in that order:
/// one linear merge. A neighbor both lists hold — a warm-up vector, in
/// every shard's heap with the same distance — is taken once.
fn merge(a: &[Neighbor], b: &[Neighbor], k: usize) -> Vec<Neighbor> {
    let mut merged = Vec::with_capacity(k.min(a.len() + b.len()));
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    while merged.len() < k {
        let next = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => match x.dist.total_cmp(&y.dist).then(x.id.cmp(&y.id)) {
                Ordering::Less => a.next(),
                Ordering::Greater => b.next(),
                Ordering::Equal => {
                    b.next();
                    a.next()
                }
            },
            (Some(_), None) => a.next(),
            (None, _) => b.next(),
        };
        match next {
            Some(&n) => merged.push(n),
            None => break,
        }
    }
    merged
}

/// The exact side of the fast path: receives each block's survivors from
/// the kernel and runs PQ Scan's `pqdistance` on them.
struct Verifier<'a> {
    grouped: &'a GroupedCodes,
    /// The float distance tables `D_0 … D_7`, back to back.
    float_tables: &'a [f32; FS_M * KSUB],
    quantizer: &'a DistanceQuantizer<'a>,
    heap: TopK,
    /// The caller's entry bound ([`ScanParams::bound`]).
    entry: f32,
    /// `min(heap.threshold(), entry)`: a survivor above it is not part of
    /// the answer.
    bound: f32,
    /// `bound`, quantized: what the kernel prunes with.
    threshold: u8,
    verified: u64,
    /// Candidates the heap took.
    accepted: u64,
    /// Vectors of the groups passed over.
    skipped: u64,
    /// The group the fields below were hoisted for.
    group: usize,
    /// Storage position of the group's first vector.
    start: usize,
    /// The group key's nibbles, shifted into the high half of a code byte.
    high: [u8; 4],
    /// The group's packed blocks.
    blocks: &'a [u8],
}

impl BlockSink for Verifier<'_> {
    #[inline]
    fn block<const C: usize>(&mut self, group: usize, block: usize, mut mask: u16) -> u8 {
        if group != self.group {
            let g = &self.grouped.groups()[group];
            self.group = group;
            self.start = g.start;
            self.high = g.key.map(|k| k << 4);
            self.blocks = self.grouped.group_blocks(g);
        }
        let first = self.start + block * FS_BLOCK;
        self.verified += mask.count_ones() as u64;

        let bpb = bytes_per_block(C);
        let bytes = &self.blocks[block * bpb..][..bpb];
        // Copies, so they stay in registers across the calls to `push`.
        let (float_tables, high) = (self.float_tables, self.high);
        while mask != 0 {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let d = lane_distance(C, float_tables, high, bytes, lane);
            // Cheap reject first; `push` settles ties on the id.
            if d <= self.bound && self.heap.push(d, self.grouped.id(first + lane) as u64) {
                self.accepted += 1;
                self.bound = self.heap.threshold().min(self.entry);
                self.threshold = self.quantizer.quantize_threshold(self.bound);
            }
        }
        self.threshold
    }

    fn skip(&mut self, groups: Range<usize>) {
        self.skipped += vectors(self.grouped, groups) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastscan::{Kernel, ScanOpts};
    use pqfs_core::RowMajorCodes;
    use std::collections::HashSet;

    /// `n` codes spread over every group, and tables with a few integer
    /// levels (`flat`: one level, so nothing can be pruned).
    fn fixture(n: usize, flat: bool) -> (RowMajorCodes, DistanceTables) {
        let bytes = (0..n * FS_M).map(|i| (i * 89 + i / 7) as u8).collect();
        let levels = if flat { 1 } else { 23 };
        let data = (0..FS_M * KSUB)
            .map(|i| ((i * 131 + i / KSUB) % levels) as f32)
            .collect();
        (
            RowMajorCodes::new(bytes, FS_M),
            DistanceTables::from_raw(data, FS_M, KSUB),
        )
    }

    /// The fixture's index for `c` 0–4 under the portable and the automatic
    /// kernel, over tie-heavy and flat tables, with the vectors each run
    /// holds in the order a scan with those tables visits the runs.
    fn layouts(n: usize) -> Vec<(String, FastScanIndex, DistanceTables, Vec<usize>, bool)> {
        let mut layouts = Vec::new();
        for c in 0..=4usize {
            for kernel in [Kernel::Portable, Kernel::Auto] {
                let opts = ScanOpts::default()
                    .with_group_components(c)
                    .with_kernel(kernel);
                for flat in [false, true] {
                    let (codes, tables) = fixture(n, flat);
                    let index = FastScanIndex::build(&codes, &opts).unwrap();
                    let grouped = index.grouped();
                    let minima = std::array::from_fn(|j| tables.portion_minima(j));
                    let mut order = [0u8; MAX_RUNS];
                    let runs = run_order(grouped, &minima, &mut order).iter();
                    let held = runs.map(|&r| {
                        let run = &grouped.runs()[r as usize];
                        vectors(grouped, run.start as usize..run.end as usize)
                    });
                    let held = held.collect();
                    let name = format!("c={c} {kernel:?} flat={flat}");
                    layouts.push((name, index, tables, held, flat));
                }
            }
        }
        layouts
    }

    /// How many runs at the head of `held` hold `warmup` vectors, if a head
    /// holds exactly that many.
    fn head_holding(held: &[usize], warmup: u64) -> Option<usize> {
        let sums = held.iter().scan(0, |sum, &h| {
            *sum += h;
            Some(*sum)
        });
        let mut heads = std::iter::once(0).chain(sums);
        heads.position(|sum| sum as u64 == warmup)
    }

    #[test]
    fn warm_up_counts_its_groups_and_the_fast_path_leaves_them_out() {
        let n = 3_000;
        let pool = ThreadPool::new(2);
        for (layout, index, tables, held, flat) in layouts(n) {
            let mut scratch = ScanScratch::default();
            for topk in [10, 100, n + 5] {
                let params = ScanParams::new(topk);
                let whole = scan_with(&index, &tables, &params, &mut scratch, None).unwrap();
                let split = scan_with(&index, &tables, &params, &mut scratch, Some(&pool));
                let split = split.unwrap();
                assert_eq!(whole.neighbors, split.neighbors, "{layout} topk={topk}");
                for (got, shards) in [(whole, 1), (split, SHARDS)] {
                    let case = format!("{layout} topk={topk} shards={shards}");
                    let s = got.stats;
                    assert!(head_holding(&held, s.warmup).is_some(), "{case}");
                    assert!(s.warmup >= topk.min(n) as u64, "{case}");
                    assert!(s.accepted <= s.warmup + s.verified, "{case}");
                    // A warm-up vector verified again, or a run neither
                    // warmed up nor handed to a shard, would show here...
                    if flat {
                        assert_eq!(s.verified, n as u64 - s.warmup, "{case}");
                    }
                    // ...and a vector returned twice here.
                    let ids: HashSet<u64> = got.ids().into_iter().collect();
                    assert_eq!(ids.len(), topk.min(n), "{case}");
                }
            }
        }
    }

    #[test]
    fn warm_up_is_the_shortest_head_of_the_run_order_holding_the_goal() {
        let n = 3_000;
        for (layout, index, tables, held, flat) in layouts(n) {
            let some = scan(&index, &tables, &ScanParams::new(40)).unwrap();
            let finite = some.neighbors[39].dist;
            let unbounded = [0.0, 0.005, 1.0]
                .into_iter()
                .flat_map(|keep| [10, 100, n + 5].map(|topk| (keep, topk, f32::INFINITY)));
            for (keep, topk, bound) in unbounded.chain([(0.005, 100, finite)]) {
                let case = format!("{layout} keep={keep} topk={topk} bound={bound}");
                let params = ScanParams::new(topk).with_keep(keep).with_bound(bound);
                let s = scan(&index, &tables, &params).unwrap().stats;
                let goal = match keep > 0.0 && bound == f32::INFINITY {
                    true => ((keep * n as f64).ceil() as usize).max(topk),
                    false => 0,
                };
                let head = head_holding(&held, s.warmup);
                let head = head.unwrap_or_else(|| panic!("not a head of the run order: {case}"));
                assert!(s.warmup >= goal.min(n) as u64, "{case}");
                if head > 0 {
                    let short: usize = held[..head - 1].iter().sum();
                    assert!(short < goal, "{case}: {short} held without the last run");
                }
                if flat {
                    assert_eq!(s.verified, n as u64 - s.warmup, "{case}");
                }
            }
        }
    }
}
