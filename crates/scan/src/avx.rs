//! The "avx" PQ Scan variant (paper §3.2, Figure 4).
//!
//! Computes the `pqdistance` of **8 database vectors at a time** with
//! vertical SIMD additions. The table lookups themselves stay scalar — the
//! looked-up values are not contiguous in memory, so each SIMD way has to be
//! set individually, and that insertion cost offsets the benefit of the
//! SIMD adds. The paper's Figure 3 shows this implementation is only
//! marginally faster than the naive one; our `fig3` harness reproduces that.
//!
//! On x86-64 CPUs with AVX the inner loop uses 256-bit `_mm256_add_ps`; a
//! bit-identical portable fallback (same per-lane accumulation order) runs
//! everywhere else and doubles as the test oracle.

use crate::result::{ScanResult, ScanStats};
use crate::ScanParams;
use pqfs_core::layout::TRANSPOSED_BLOCK;
use pqfs_core::{DistanceTables, TopK, TransposedCodes};

/// Scans transposed codes with vertical-add batches of 8 vectors.
///
/// Returns exactly the same neighbors as [`crate::scan_naive`] on the
/// equivalent row-major layout.
///
/// # Panics
///
/// Panics if `params.topk == 0` or `tables.m() != codes.m()`.
pub fn scan_avx(
    tables: &DistanceTables,
    codes: &TransposedCodes,
    params: &ScanParams,
) -> ScanResult {
    assert_eq!(tables.m(), codes.m(), "tables and codes must share m");
    let mut heap = TopK::new(params.topk);
    let n = codes.len();
    let mut dists = [0f32; TRANSPOSED_BLOCK];

    for b in 0..codes.num_blocks() {
        block_distances(tables, codes, b, &mut dists);
        let base = b * TRANSPOSED_BLOCK;
        for (lane, &d) in dists.iter().enumerate() {
            let i = base + lane;
            if i < n && d <= params.bound {
                heap.push(d, i as u64);
            }
        }
    }

    ScanResult {
        neighbors: heap.into_sorted(),
        stats: ScanStats {
            scanned: n as u64,
            ..ScanStats::default()
        },
    }
}

/// Fills `dists` with the 8 pqdistances of block `b`, using AVX when the CPU
/// has it.
#[inline]
fn block_distances(
    tables: &DistanceTables,
    codes: &TransposedCodes,
    b: usize,
    dists: &mut [f32; TRANSPOSED_BLOCK],
) {
    #[cfg(all(target_arch = "x86_64", feature = "avx2"))]
    {
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX support was just verified at runtime.
            unsafe { block_distances_avx(tables, codes, b, dists) };
            #[cfg(feature = "checked-kernels")]
            if crate::checked::should_check() {
                let mut shadow = [0f32; TRANSPOSED_BLOCK];
                block_distances_portable(tables, codes, b, &mut shadow);
                crate::checked::assert_lanes_match("avx.block_distances", dists, &shadow);
            }
            return;
        }
    }
    block_distances_portable(tables, codes, b, dists);
}

/// Portable fallback with the same per-lane accumulation order as the AVX
/// path (one vertical add per table), so results are bit-identical.
fn block_distances_portable(
    tables: &DistanceTables,
    codes: &TransposedCodes,
    b: usize,
    dists: &mut [f32; TRANSPOSED_BLOCK],
) {
    dists.fill(0.0);
    for j in 0..codes.m() {
        let word = codes.component_word(b, j);
        let table = tables.table(j);
        for (lane, &idx) in word.iter().enumerate() {
            dists[lane] += table[idx as usize];
        }
    }
}

/// # Safety
///
/// The caller must verify AVX support at runtime
/// (`is_x86_feature_detected!("avx")`) before calling.
#[cfg(all(target_arch = "x86_64", feature = "avx2"))]
#[target_feature(enable = "avx")]
unsafe fn block_distances_avx(
    tables: &DistanceTables,
    codes: &TransposedCodes,
    b: usize,
    dists: &mut [f32; TRANSPOSED_BLOCK],
) {
    use std::arch::x86_64::*;
    debug_assert!(b < codes.num_blocks(), "block index out of range");
    let mut acc = _mm256_setzero_ps();
    for j in 0..codes.m() {
        let word = codes.component_word(b, j);
        let table = tables.table(j);
        // The paper's pain point, reproduced faithfully: the 8 looked-up
        // values are scattered, so the SIMD ways are set one by one.
        let vals = _mm256_setr_ps(
            table[word[0] as usize],
            table[word[1] as usize],
            table[word[2] as usize],
            table[word[3] as usize],
            table[word[4] as usize],
            table[word[5] as usize],
            table[word[6] as usize],
            table[word[7] as usize],
        );
        acc = _mm256_add_ps(acc, vals);
    }
    // SAFETY: `dists` is a valid, writable `[f32; 8]` — exactly the 32
    // bytes an unaligned 256-bit store touches.
    unsafe { _mm256_storeu_ps(dists.as_mut_ptr(), acc) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::scan_naive;
    use pqfs_core::RowMajorCodes;

    fn fixture(n: usize) -> (DistanceTables, RowMajorCodes, TransposedCodes) {
        let mut data = Vec::with_capacity(8 * 16);
        for j in 0..8 {
            for i in 0..16 {
                data.push((j as f32 + 0.5) * (i as f32) * 1.25);
            }
        }
        let tables = DistanceTables::from_raw(data, 8, 16);
        let bytes: Vec<u8> = (0..n * 8).map(|i| ((i * 13 + 5) % 16) as u8).collect();
        let row = RowMajorCodes::new(bytes, 8);
        let transposed = TransposedCodes::from_row_major(&row);
        (tables, row, transposed)
    }

    #[test]
    fn matches_naive_including_ragged_tail() {
        for n in [1usize, 7, 8, 9, 100, 123] {
            let (tables, row, transposed) = fixture(n);
            let a = scan_naive(&tables, &row, &ScanParams::new(10.min(n)));
            let b = scan_avx(&tables, &transposed, &ScanParams::new(10.min(n)));
            assert_eq!(a.ids(), b.ids(), "n={n}");
            for (x, y) in a.distances().iter().zip(b.distances()) {
                assert!((x - y).abs() < 1e-4, "n={n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn portable_and_dispatched_paths_agree() {
        let (tables, _, transposed) = fixture(64);
        let mut a = [0f32; TRANSPOSED_BLOCK];
        let mut b = [0f32; TRANSPOSED_BLOCK];
        for blk in 0..transposed.num_blocks() {
            block_distances(&tables, &transposed, blk, &mut a);
            block_distances_portable(&tables, &transposed, blk, &mut b);
            assert_eq!(a, b, "block {blk}");
        }
    }

    #[test]
    fn padding_lanes_never_enter_results() {
        let (tables, _, transposed) = fixture(9); // tail block has 7 pad lanes
        let result = scan_avx(&tables, &transposed, &ScanParams::new(9));
        assert_eq!(result.neighbors.len(), 9);
        assert!(result.ids().iter().all(|&id| id < 9));
    }
}
