//! The Fast Scan driver: warm-up, quantization, kernel invocation and
//! survivor verification (paper Figure 6; docs/FASTSCAN.md).
//!
//! A scan is four steps. **Warm-up** computes exact distances for the whole
//! groups nearest to the query — those whose key selects, in every grouped
//! component, one of the table's smallest portions ([`choose_warm_groups`])
//! — and pushes them into the result heap. **Quantization** derives `qmax`
//! from that heap and fills the 8-bit tables. The **kernel**
//! ([`kernel::scan_all`]) visits the runs of groups nearest-first
//! ([`run_order`], docs/FASTSCAN.md §6), passes over those the threshold
//! already excludes, lower-bounds every vector of the others and hands each
//! block with survivors to the [`Verifier`], which drops the warm-up's
//! groups, computes the exact distances of the masked lanes straight from
//! the block's arrays, in a loop monomorphized on the kernel's `const C`,
//! and feeds the tightened threshold back.
//!
//! A caller that already knows a distance no answer can exceed passes it as
//! [`ScanParams::bound`]: it replaces the warm-up as the source of `qmax`
//! and caps the pruning threshold from the first block on (docs/FASTSCAN.md
//! §5).

use crate::fastscan::grouping::GroupedCodes;
use crate::fastscan::kernel::{self, BlockSink, ScanTables};
use crate::fastscan::layout::{bytes_per_block, lane_distance, FS_BLOCK, FS_M, KSUB, PORTION};
use crate::fastscan::mintables::portion_minima;
use crate::fastscan::FastScanIndex;
use crate::quantize::DistanceQuantizer;
use crate::result::{ScanResult, ScanStats};
use crate::ScanError;
use pqfs_core::{DistanceTables, TopK};
use std::ops::Range;

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
    /// scans the whole groups whose key names one of the `t` smallest
    /// portions of each grouped table, `t` the smallest count for which
    /// such groups are expected to hold `max(keep · n, topk)` vectors
    /// (docs/FASTSCAN.md §2). `keep` is therefore a floor on the expected
    /// warm-up size, not its size: `0` means no warm-up, `1` (or a partition
    /// of one group) an exact scan of everything.
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
/// component under a refining kernel, plus the 16-entry small tables) and
/// the list of groups its warm-up scanned.
///
/// These are the only per-query heap allocations of a prepared Fast Scan
/// query besides the result; batch drivers keep one `ScanScratch` per
/// worker thread so steady-state scanning allocates nothing but the result
/// vector. A default-constructed scratch is always valid — buffers grow on
/// first use and are reused afterwards.
#[derive(Debug, Clone, Default)]
pub struct ScanScratch {
    pub(crate) tables: ScanTables,
    /// Indices into `GroupedCodes::groups()` of the groups the warm-up
    /// scanned exactly, ascending; the verifier leaves them out.
    pub(crate) warm_groups: Vec<u32>,
}

pub(crate) fn scan(
    index: &FastScanIndex,
    tables: &DistanceTables,
    params: &ScanParams,
) -> Result<ScanResult, ScanError> {
    scan_with(index, tables, params, &mut ScanScratch::default())
}

pub(crate) fn scan_with(
    index: &FastScanIndex,
    tables: &DistanceTables,
    params: &ScanParams,
    scratch: &mut ScanScratch,
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

    // ---- Warm-up: plain PQ Scan over the groups nearest to the query
    // (§4.4; docs/FASTSCAN.md §2). Their vectors are pushed into the real
    // heap and their groups left out of the fast path, so the overall
    // result is exactly PQ Scan's. A finite entry bound is a threshold
    // already, from a better sample than this partition's own: the warm-up
    // is skipped.
    let entry = params.bound;
    // What a key nibble adds at least, per grouped component: the warm-up
    // picks its groups and the fast path orders its runs by these.
    let mut minima = [[0f32; PORTION]; 4];
    for (j, minima) in minima.iter_mut().enumerate().take(c) {
        *minima = portion_minima(&float_tables[j * KSUB..][..KSUB]);
    }
    let warm_groups = &mut scratch.warm_groups;
    warm_groups.clear();
    if entry == f32::INFINITY && params.keep > 0.0 {
        stats.warmup =
            choose_warm_groups(grouped, &minima, params.keep, params.topk, warm_groups) as u64;
        stats.accepted = match c {
            0 => warm_up::<0>(grouped, float_tables, warm_groups, &mut heap),
            1 => warm_up::<1>(grouped, float_tables, warm_groups, &mut heap),
            2 => warm_up::<2>(grouped, float_tables, warm_groups, &mut heap),
            3 => warm_up::<3>(grouped, float_tables, warm_groups, &mut heap),
            _ => warm_up::<4>(grouped, float_tables, warm_groups, &mut heap),
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
    let quantizer = DistanceQuantizer::new(tables, qmax, index.bins());
    if entry < quantizer.bias_sum() {
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
    // (portion minima computed in float domain, then quantized — monotone,
    // so this equals the minimum of quantized entries).
    for j in c..FS_M {
        scan_tables.small[j] =
            portion_minima(tables.table(j)).map(|min| quantizer.quantize_value(j, min));
    }

    // ---- Fast path: the kernel walks the runs nearest-first, passes over
    // what the threshold excludes and hands the rest's survivors over.
    let mut order = [0u8; MAX_RUNS];
    let runs = run_order(grouped, &minima, &mut order);
    let bound = heap.threshold().min(entry);
    let threshold = quantizer.quantize_threshold(bound);
    let mut verifier = Verifier {
        grouped,
        float_tables,
        quantizer: &quantizer,
        heap,
        entry,
        bound,
        threshold,
        verified: 0,
        accepted: stats.accepted,
        skipped: 0,
        warm_groups,
        group: usize::MAX,
        warm: false,
        start: 0,
        high: [0; 4],
        blocks: &[],
    };
    kernel::scan_all(kernel, grouped, scan_tables, runs, threshold, &mut verifier);
    stats.verified = verifier.verified;
    stats.accepted = verifier.accepted;
    stats.skipped = verifier.skipped;

    // A vector is "pruned" when its exact pqdistance was never computed in
    // the fast path; warm-up members are accounted separately, so the
    // invariant `warmup + pruned + verified == scanned` always holds.
    stats.pruned = n as u64 - stats.warmup - stats.verified;

    Ok(ScanResult {
        neighbors: verifier.heap.into_sorted(),
        stats,
    })
}

/// Picks the groups the warm-up scans and returns how many vectors they
/// hold; their indices go to `chosen`, ascending.
///
/// A group's key selects one 16-entry portion of each grouped table
/// `D_0 … D_{c−1}`, and a portion's minimum bounds what its group's vectors
/// add for that component — the lower bound the kernel uses for the other
/// components. The groups whose key names, in every grouped component, one
/// of the table's `t` smallest portion minima are where the query's near
/// vectors are. `t` is the smallest count with `(t/16)^c · n >=
/// max(keep · n, topk)` — as many vectors as the paper's warm-up scans, and
/// enough to fill the heap, if groups were equally large — widened while
/// the groups found hold fewer than `topk` vectors. The `t^c` keys are
/// looked up in the key-sorted group list; absent groups hold nothing.
/// `c = 0` has one group and `t = 16` selects every group: both scan the
/// partition exactly. `minima[j]` are the portion minima of `D_j`, `j < c`.
fn choose_warm_groups(
    grouped: &GroupedCodes,
    minima: &[[f32; PORTION]; 4],
    keep: f64,
    topk: usize,
    chosen: &mut Vec<u32>,
) -> usize {
    let c = grouped.layout().c();
    let (n, groups) = (grouped.len(), grouped.groups());
    // The portions of each grouped table, smallest minimum first.
    let mut nearest = [[0u8; PORTION]; 4];
    for (nearest, minima) in nearest.iter_mut().zip(minima).take(c) {
        *nearest = std::array::from_fn(|p| p as u8);
        nearest.sort_unstable_by(|&a, &b| {
            minima[a as usize]
                .total_cmp(&minima[b as usize])
                .then(a.cmp(&b))
        });
    }
    let target = ((keep.min(1.0) * n as f64).ceil() as u128).max(topk as u128);
    // `t` portions per component select `t^c` of the `16^c` keys.
    let keys = |t: usize| (t as u128).pow(c as u32);
    let mut t = (1..PORTION)
        .find(|&t| keys(t) * n as u128 >= target * keys(PORTION))
        .unwrap_or(PORTION);
    loop {
        // The selected high nibbles of each key entry, as bit sets; the
        // entries of ungrouped components are always 0.
        let mut sets = [1u16; 4];
        for (set, nearest) in sets.iter_mut().zip(&nearest).take(c) {
            *set = nearest[..t].iter().fold(0, |set, &p| set | 1 << p);
        }
        let nibbles = |set: u16| (0..PORTION as u8).filter(move |p| set >> p & 1 == 1);
        chosen.clear();
        let (mut held, mut from) = (0, 0);
        // Keys in ascending order, as the groups are: the search resumes
        // where the previous key was found.
        for k0 in nibbles(sets[0]) {
            for k1 in nibbles(sets[1]) {
                for k2 in nibbles(sets[2]) {
                    for k3 in nibbles(sets[3]) {
                        let key = [k0, k1, k2, k3];
                        from += groups[from..].partition_point(|g| g.key < key);
                        if let Some(g) = groups.get(from).filter(|g| g.key == key) {
                            chosen.push(from as u32);
                            held += g.len;
                        }
                    }
                }
            }
        }
        if held >= topk || t == PORTION {
            return held;
        }
        t += 1;
    }
}

/// The most runs a grouped layout has: one per two-nibble key prefix.
const MAX_RUNS: usize = PORTION * PORTION;

/// The order the fast path visits `grouped.runs()` in, as indices at the front
/// of `order`: ascending by the sum of the portion minima the run's key
/// prefix selects (the least it adds to a distance), ties by prefix.
fn run_order<'a>(
    grouped: &GroupedCodes,
    minima: &[[f32; PORTION]; 4],
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

/// Plain PQ Scan over whole groups: every vector of `groups` goes into
/// `heap` with its exact distance; returns how many of them it accepted.
/// Monomorphized on the layout's grouping count like the verification loop,
/// which is worth a quarter of the warm-up's time. `C` must equal
/// `grouped.layout().c()`.
fn warm_up<const C: usize>(
    grouped: &GroupedCodes,
    float_tables: &[f32; FS_M * KSUB],
    groups: &[u32],
    heap: &mut TopK,
) -> u64 {
    let mut accepted = 0;
    for &gi in groups {
        let g = &grouped.groups()[gi as usize];
        let high = g.key.map(|k| k << 4);
        let blocks = grouped.group_blocks(g).chunks_exact(bytes_per_block(C));
        for (b, block) in blocks.enumerate() {
            let first = b * FS_BLOCK;
            for lane in 0..(g.len - first).min(FS_BLOCK) {
                let d = lane_distance(C, float_tables, high, block, lane);
                accepted += heap.push(d, grouped.id(g.start + first + lane) as u64) as u64;
            }
        }
    }
    accepted
}

/// The exact side of the fast path: receives each block's survivors from
/// the kernel and runs PQ Scan's `pqdistance` on them.
struct Verifier<'a> {
    grouped: &'a GroupedCodes,
    /// The float distance tables `D_0 … D_7`, back to back.
    float_tables: &'a [f32; FS_M * KSUB],
    quantizer: &'a DistanceQuantizer,
    heap: TopK,
    /// The caller's entry bound ([`ScanParams::bound`]).
    entry: f32,
    /// `min(heap.threshold(), entry)`: a survivor above it is not part of
    /// the answer.
    bound: f32,
    /// `bound`, quantized: what the kernel prunes with.
    threshold: u8,
    verified: u64,
    /// Candidates the heap took, the warm-up's included.
    accepted: u64,
    /// Vectors of the groups passed over, the warm-up's (not pruned) excepted.
    skipped: u64,
    /// The warm-up's groups, ascending.
    warm_groups: &'a [u32],
    /// The group the fields below were hoisted for.
    group: usize,
    /// Whether the warm-up already scanned the group: its vectors are in
    /// the heap, so its blocks are dropped.
    warm: bool,
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
            self.warm = self.warm_groups.binary_search(&(group as u32)).is_ok();
        }
        if self.warm {
            return self.threshold;
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
        let all = self.grouped.groups();
        let (first, last) = (&all[groups.start], &all[groups.end - 1]);
        let warm = self.warm_groups;
        let warm = &warm[warm.partition_point(|&g| (g as usize) < groups.start)..];
        let warm_vectors: usize = warm
            .iter()
            .take_while(|&&g| (g as usize) < groups.end)
            .map(|&g| all[g as usize].len)
            .sum();
        self.skipped += (last.start + last.len - first.start - warm_vectors) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastscan::{FastScanOptions, Kernel};
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

    #[test]
    fn warm_up_counts_its_groups_and_the_fast_path_leaves_them_out() {
        let n = 3_000;
        for c in 0..=4usize {
            for kernel in [Kernel::Portable, Kernel::Auto] {
                let opts = FastScanOptions::default()
                    .with_group_components(c)
                    .with_kernel(kernel);
                for flat in [false, true] {
                    let (codes, tables) = fixture(n, flat);
                    let index = FastScanIndex::build(&codes, &opts).unwrap();
                    let groups = index.grouped().groups();
                    let mut scratch = ScanScratch::default();
                    for topk in [10, 100, n + 5] {
                        let case = format!("c={c} {kernel:?} flat={flat} topk={topk}");
                        let got = scan_with(&index, &tables, &ScanParams::new(topk), &mut scratch)
                            .unwrap();
                        let warm = &scratch.warm_groups;
                        assert!(warm.windows(2).all(|w| w[0] < w[1]), "{case}");
                        let held: usize = warm.iter().map(|&g| groups[g as usize].len).sum();
                        assert_eq!(got.stats.warmup, held as u64, "{case}");
                        assert!(held >= topk.min(n), "{case}");
                        // A warm-up vector verified again would be counted
                        // twice here...
                        if flat {
                            assert_eq!(got.stats.verified, (n - held) as u64, "{case}");
                        }
                        // ...and returned twice here.
                        let ids: HashSet<u64> = got.ids().into_iter().collect();
                        assert_eq!(ids.len(), topk.min(n), "{case}");
                    }
                }
            }
        }
    }
}
