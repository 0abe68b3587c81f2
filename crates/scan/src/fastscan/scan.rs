//! The Fast Scan driver: warm-up, quantization, kernel invocation and
//! survivor verification (paper Figure 6; docs/FASTSCAN.md).
//!
//! A scan is four steps. **Warm-up** computes exact distances for a strided
//! `keep` sample and pushes them into the result heap; the sample is walked
//! with a monotone group cursor, so it costs O(sample), not O(groups).
//! **Quantization** derives `qmax` from that heap and fills the 8-bit tables.
//! The **kernel** ([`kernel::scan_all`]) lower-bounds every vector and hands
//! each block with survivors to the [`Verifier`], which computes the exact
//! distances of the masked lanes straight from the block's arrays, in a loop
//! monomorphized on the kernel's `const C`, and feeds the tightened
//! threshold back.
//!
//! A caller that already knows a distance no answer can exceed passes it as
//! [`ScanParams::bound`]: it replaces the warm-up as the source of `qmax`
//! and caps the pruning threshold from the first block on (docs/FASTSCAN.md
//! §5).

use crate::fastscan::grouping::GroupedCodes;
use crate::fastscan::kernel::{self, BlockSink, ScanTables};
use crate::fastscan::layout::{bytes_per_block, lane_distance, FS_BLOCK, FS_M, KSUB, PORTION};
use crate::fastscan::FastScanIndex;
use crate::quantize::DistanceQuantizer;
use crate::result::{ScanResult, ScanStats};
use crate::ScanError;
use pqfs_core::{DistanceTables, TopK};

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
    /// database; our storage is grouped — i.e. sorted by code prefix — so a
    /// prefix would be a maximally biased sample. The warm-up therefore
    /// scans a **strided** sample of the grouped storage, which preserves
    /// the paper's intent (a representative sample of distances) on any
    /// storage order (docs/FASTSCAN.md §2).
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
/// query fills (one 256-entry byte table per grouped component plus the
/// 16-entry small tables).
///
/// Building these tables is the only per-query heap allocation of a
/// prepared Fast Scan query; batch drivers keep one `ScanScratch` per
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

    // ---- Warm-up: plain PQ Scan over a strided keep% sample (§4.4). ----
    // Sampled vectors (storage positions 0, stride, 2·stride, …) are pushed
    // into the real heap and excluded from the fast path, so the overall
    // result is exactly PQ Scan's. Positions only grow, so one cursor over
    // the groups finds each sample's group. A finite entry bound is a
    // threshold already, from a better sample than this partition's own:
    // the warm-up is skipped.
    let entry = params.bound;
    let target = if entry.is_finite() {
        0
    } else {
        (params.keep.clamp(0.0, 1.0) * n as f64).ceil() as usize
    };
    let stride = n.checked_div(target).map_or(0, |s| s.max(1));
    if stride > 0 {
        let groups = grouped.groups();
        let mut gi = 0;
        for pos in (0..n).step_by(stride) {
            while pos >= groups[gi].start + groups[gi].len {
                gi += 1;
            }
            let g = &groups[gi];
            let idx = pos - g.start;
            let block = grouped.block(g, idx / FS_BLOCK);
            let high = g.key.map(|k| k << 4);
            let d = lane_distance(c, float_tables, high, block, idx % FS_BLOCK);
            heap.push(d, grouped.id(pos) as u64);
        }
        stats.warmup = n.div_ceil(stride) as u64;
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
        // read. (Left to the quantizer, `qmax` below the biases would
        // disable pruning instead.)
        stats.pruned = n as u64;
        return Ok(ScanResult {
            neighbors: Vec::new(),
            stats,
        });
    }

    // Quantized full tables for the grouped components (their 16-entry
    // portions become S_0..S_{c-1}, selected per group by the kernel),
    // written into the reusable scratch buffers...
    let scan_tables = &mut scratch.tables;
    scan_tables.grouped.resize_with(c, Vec::new);
    for (j, buf) in scan_tables.grouped.iter_mut().enumerate() {
        quantizer.quantize_table_into(j, tables.table(j), buf);
    }
    // ...and the minimum tables S_c..S_7, constant for the whole query
    // (portion minima computed in float domain as in [`min_table`], then
    // quantized — monotone, so this equals the minimum of quantized
    // entries).
    for j in c..FS_M {
        for (slot, portion) in scan_tables.small[j]
            .iter_mut()
            .zip(tables.table(j).chunks_exact(PORTION))
        {
            let min = portion.iter().copied().fold(f32::INFINITY, f32::min);
            *slot = quantizer.quantize_value(j, min);
        }
    }

    // ---- Fast path: the kernel walks every group/block and hands the
    // survivors to the verifier.
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
        stride,
        next_sample: if stride > 0 { 0 } else { usize::MAX },
        group: usize::MAX,
        start: 0,
        high: [0; 4],
        blocks: &[],
    };
    kernel::scan_all(kernel, grouped, scan_tables, threshold, &mut verifier);
    stats.verified = verifier.verified;

    // A vector is "pruned" when its exact pqdistance was never computed in
    // the fast path; warm-up members are accounted separately, so the
    // invariant `warmup + pruned + verified == scanned` always holds.
    stats.pruned = n as u64 - stats.warmup - stats.verified;

    Ok(ScanResult {
        neighbors: verifier.heap.into_sorted(),
        stats,
    })
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
    /// Warm-up members sit at the multiples of `stride`; blocks arrive in
    /// storage order, so a cursor over those multiples finds the lanes to
    /// skip. `next_sample` is the smallest one not behind the last block
    /// seen (`usize::MAX` when there was no warm-up).
    stride: usize,
    next_sample: usize,
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
        // Warm-up members were already pushed; drop their lanes to avoid
        // duplicates.
        while self.next_sample < first {
            self.next_sample += self.stride;
        }
        let mut sample = self.next_sample;
        while sample < first + FS_BLOCK {
            mask &= !(1 << (sample - first));
            sample += self.stride;
        }
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
                self.bound = self.heap.threshold().min(self.entry);
                self.threshold = self.quantizer.quantize_threshold(self.bound);
            }
        }
        self.threshold
    }
}
