//! The "gather" PQ Scan variant (paper §3.2, Figure 5).
//!
//! Haswell's AVX2 `vpgatherdps` looks up 8 table elements addressed by an
//! index register in a single instruction, which seems tailor-made for PQ
//! Scan: transpose the code layout so `a[j] … h[j]` sit in one 64-bit word
//! (one *mem1* load), widen the 8 bytes to 32-bit lanes, gather from `D_j`.
//!
//! The paper measures this implementation as *slower* than the naive scan:
//! the gather still performs one memory access per element, decodes to 34
//! µops and has an 18-cycle latency with a 10-cycle reciprocal throughput
//! (Table 2). Our `fig3`/`table2` harnesses reproduce the effect with the
//! real instruction on AVX2 hosts.

use crate::result::{ScanResult, ScanStats};
use crate::ScanParams;
use pqfs_core::layout::TRANSPOSED_BLOCK;
use pqfs_core::{DistanceTables, TopK, TransposedCodes};

/// Scans transposed codes with gather-style table lookups.
///
/// Returns exactly the same neighbors as [`crate::scan_naive`] on the
/// equivalent row-major layout.
///
/// # Panics
///
/// Panics if `params.topk == 0` or `tables.m() != codes.m()`.
pub fn scan_gather(
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

#[inline]
fn block_distances(
    tables: &DistanceTables,
    codes: &TransposedCodes,
    b: usize,
    dists: &mut [f32; TRANSPOSED_BLOCK],
) {
    #[cfg(all(target_arch = "x86_64", feature = "avx2"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { block_distances_gather(tables, codes, b, dists) };
            #[cfg(feature = "checked-kernels")]
            if crate::checked::should_check() {
                let mut shadow = [0f32; TRANSPOSED_BLOCK];
                block_distances_portable(tables, codes, b, &mut shadow);
                crate::checked::assert_lanes_match("gather.block_distances", dists, &shadow);
            }
            return;
        }
    }
    block_distances_portable(tables, codes, b, dists);
}

/// Portable emulation: one load of the component word, then 8 indexed
/// lookups — the exact memory-access pattern of the hardware gather.
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
/// The caller must verify AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`) before calling. Every byte of every
/// component word must be a valid index into the corresponding distance
/// table (guaranteed by construction: `TransposedCodes` stores 8-bit codes
/// and `DistanceTables` has `ksub() == 256` entries per component).
#[cfg(all(target_arch = "x86_64", feature = "avx2"))]
#[target_feature(enable = "avx2")]
unsafe fn block_distances_gather(
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
        debug_assert!(
            word.iter().all(|&c| (c as usize) < tables.ksub()),
            "code byte out of table range"
        );
        // SAFETY: `word` is a `&[u8; 8]`, so reading its low 64 bits as an
        // unaligned `__m128i` low half stays in bounds.
        let bytes = unsafe { _mm_loadl_epi64(word.as_ptr() as *const __m128i) };
        let indexes = _mm256_cvtepu8_epi32(bytes);
        // mem2: vpgatherdps — 8 table accesses in one instruction.
        let table = tables.table(j);
        // SAFETY: each gathered lane reads `table[word[lane]]`; the codes
        // are u8 and each table holds `k() == 256` f32s, so every scaled
        // offset is in bounds.
        let vals = unsafe { _mm256_i32gather_ps::<4>(table.as_ptr(), indexes) };
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
        let mut data = Vec::with_capacity(8 * 256);
        for j in 0..8 {
            for i in 0..256 {
                data.push(((i * 31 + j * 7) % 997) as f32 * 0.5);
            }
        }
        let tables = DistanceTables::from_raw(data, 8, 256);
        let bytes: Vec<u8> = (0..n * 8).map(|i| ((i * 131 + 17) % 256) as u8).collect();
        let row = RowMajorCodes::new(bytes, 8);
        let transposed = TransposedCodes::from_row_major(&row);
        (tables, row, transposed)
    }

    #[test]
    fn matches_naive_including_ragged_tail() {
        for n in [1usize, 8, 9, 64, 250] {
            let (tables, row, transposed) = fixture(n);
            let a = scan_naive(&tables, &row, &ScanParams::new(10.min(n)));
            let b = scan_gather(&tables, &transposed, &ScanParams::new(10.min(n)));
            assert_eq!(a.ids(), b.ids(), "n={n}");
            for (x, y) in a.distances().iter().zip(b.distances()) {
                assert!((x - y).abs() < 1e-3, "n={n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn hardware_gather_agrees_with_portable_emulation() {
        let (tables, _, transposed) = fixture(128);
        let mut a = [0f32; TRANSPOSED_BLOCK];
        let mut b = [0f32; TRANSPOSED_BLOCK];
        for blk in 0..transposed.num_blocks() {
            block_distances(&tables, &transposed, blk, &mut a);
            block_distances_portable(&tables, &transposed, blk, &mut b);
            assert_eq!(a, b, "block {blk}");
        }
    }
}
