//! The naive PQ Scan (paper Algorithm 1).
//!
//! For every database code: `m` loads of centroid indexes (*mem1*), `m`
//! distance-table lookups (*mem2*), `m` scalar additions, one comparison.
//! This is the reference implementation — every other scan in the crate is
//! tested for result-set equality against it.

use crate::result::{ScanResult, ScanStats};
use crate::ScanParams;
use pqfs_core::{DistanceTables, RowMajorCodes, TopK};

/// Scans `codes` and returns the `params.topk` nearest neighbors by ADC
/// distance among the vectors within `params.bound`.
///
/// Vector ids are positions in `codes` (0-based). The result is the unique
/// set of `topk` smallest `(distance, id)` pairs.
///
/// # Panics
///
/// Panics if `params.topk == 0` or if `tables.m() != codes.m()`.
pub fn scan_naive(
    tables: &DistanceTables,
    codes: &RowMajorCodes,
    params: &ScanParams,
) -> ScanResult {
    assert_eq!(tables.m(), codes.m(), "tables and codes must share m");
    let mut heap = TopK::new(params.topk);
    for (i, code) in codes.iter().enumerate() {
        let d = tables.distance(code);
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

    /// Hand-built 2×4 tables: distances are index-dependent so ordering is
    /// easy to verify by hand.
    fn tiny_tables() -> DistanceTables {
        DistanceTables::from_raw(vec![0.0, 1.0, 2.0, 3.0, 0.0, 10.0, 20.0, 30.0], 2, 4)
    }

    #[test]
    fn finds_exact_nearest() {
        let tables = tiny_tables();
        // Codes: (0,0) => 0, (3,3) => 33, (1,1) => 11
        let codes = RowMajorCodes::new(vec![0, 0, 3, 3, 1, 1], 2);
        let result = scan_naive(&tables, &codes, &ScanParams::new(1));
        assert_eq!(result.ids(), vec![0]);
        assert_eq!(result.distances(), vec![0.0]);
        assert_eq!(result.stats.scanned, 3);
        assert_eq!(result.stats.pruned, 0);
    }

    #[test]
    fn topk_orders_by_distance_then_id() {
        let tables = tiny_tables();
        // Two vectors with identical distance 11, then one with 33.
        let codes = RowMajorCodes::new(vec![1, 1, 1, 1, 3, 3], 2);
        let result = scan_naive(&tables, &codes, &ScanParams::new(2));
        assert_eq!(result.ids(), vec![0, 1], "tie must resolve by id");
    }

    #[test]
    fn topk_larger_than_partition_returns_everything() {
        let tables = tiny_tables();
        let codes = RowMajorCodes::new(vec![0, 0, 1, 0], 2);
        let result = scan_naive(&tables, &codes, &ScanParams::new(10));
        assert_eq!(result.neighbors.len(), 2);
    }

    #[test]
    fn empty_partition_returns_empty() {
        let tables = tiny_tables();
        let codes = RowMajorCodes::new(vec![], 2);
        let result = scan_naive(&tables, &codes, &ScanParams::new(5));
        assert!(result.neighbors.is_empty());
        assert_eq!(result.stats.scanned, 0);
    }
}
