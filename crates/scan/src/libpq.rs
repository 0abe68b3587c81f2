//! The `libpq`-style PQ Scan (paper §3.1).
//!
//! The libpq library distributed by the authors of \[14\] loads the whole
//! 8-byte `PQ 8×8` code as **one 64-bit word** and extracts the 8 centroid
//! indexes with shifts, cutting *mem1* accesses from 8 to 1 per vector
//! (the *mem2* table lookups remain 8). The paper observes it is not
//! actually faster than the naive scan on Haswell — the extra shift
//! instructions offset the saved loads — which our Figure 3 harness
//! reproduces.

use crate::result::{ScanResult, ScanStats};
use crate::ScanParams;
use pqfs_core::{DistanceTables, RowMajorCodes, TopK};

/// Number of components this implementation is specialized for.
pub const LIBPQ_M: usize = 8;

/// Scans `PQ 8×8` codes using one 64-bit load + shifts per vector.
///
/// Returns exactly the same neighbors as [`crate::scan_naive`].
///
/// # Panics
///
/// Panics if `params.topk == 0`, `codes.m() != 8` or `tables.m() != 8`.
pub fn scan_libpq(
    tables: &DistanceTables,
    codes: &RowMajorCodes,
    params: &ScanParams,
) -> ScanResult {
    assert_eq!(codes.m(), LIBPQ_M, "libpq scan is specialized for PQ 8x8");
    assert_eq!(tables.m(), LIBPQ_M, "tables must have m=8");
    let ksub = tables.ksub();
    let raw = tables.raw();
    let bytes = codes.as_bytes();
    let mut heap = TopK::new(params.topk);

    for (i, chunk) in bytes.chunks_exact(LIBPQ_M).enumerate() {
        // mem1: a single 64-bit load.
        let word = u64::from_le_bytes(
            chunk
                .try_into()
                .unwrap_or_else(|_| unreachable!("chunks_exact yields 8 bytes")),
        );
        // mem2: 8 table lookups addressed by shift+mask.
        let mut d = 0f32;
        for j in 0..LIBPQ_M {
            let index = ((word >> (8 * j)) & 0xFF) as usize;
            d += raw[j * ksub + index];
        }
        if d <= params.bound {
            heap.push(d, i as u64);
        }
    }

    ScanResult {
        neighbors: heap.into_sorted(),
        stats: ScanStats {
            scanned: codes.len() as u64,
            ..ScanStats::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::scan_naive;

    fn tables_8x16() -> DistanceTables {
        // 8 tables of 16 entries: D_j[i] = (j + 1) * i as float.
        let mut data = Vec::with_capacity(8 * 16);
        for j in 0..8 {
            for i in 0..16 {
                data.push(((j + 1) * i) as f32);
            }
        }
        DistanceTables::from_raw(data, 8, 16)
    }

    fn codes(n: usize) -> RowMajorCodes {
        let bytes: Vec<u8> = (0..n * 8).map(|i| ((i * 11 + 3) % 16) as u8).collect();
        RowMajorCodes::new(bytes, 8)
    }

    #[test]
    fn matches_naive_exactly() {
        let tables = tables_8x16();
        let codes = codes(100);
        for topk in [1usize, 5, 17, 100] {
            let a = scan_naive(&tables, &codes, &ScanParams::new(topk));
            let b = scan_libpq(&tables, &codes, &ScanParams::new(topk));
            assert_eq!(a.ids(), b.ids(), "topk={topk}");
            assert_eq!(a.distances(), b.distances(), "topk={topk}");
        }
    }

    #[test]
    fn word_extraction_is_little_endian_component_order() {
        let tables = tables_8x16();
        // A single code with distinct components 0..8.
        let codes = RowMajorCodes::new(vec![0, 1, 2, 3, 4, 5, 6, 7], 8);
        let expect: f32 = (0..8).map(|j| ((j + 1) * j) as f32).sum();
        let result = scan_libpq(&tables, &codes, &ScanParams::new(1));
        assert_eq!(result.distances(), vec![expect]);
    }

    #[test]
    #[should_panic(expected = "specialized for PQ 8x8")]
    fn rejects_non_pq8_codes() {
        let tables = tables_8x16();
        let bad = RowMajorCodes::new(vec![0, 0], 2);
        scan_libpq(&tables, &bad, &ScanParams::new(1));
    }
}
