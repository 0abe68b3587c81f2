//! The quantization-only Fast Scan variant (paper §5.5, Figure 17).
//!
//! To separate the pruning-power loss caused by *minimum tables* from the
//! loss caused by *distance quantization*, the paper implements a variant
//! that keeps full 256-entry tables but quantizes their entries to 8 bits.
//! Lower bounds are then exact distances up to quantization, so pruning
//! power is very high (99.9 %+), but the tables no longer fit SIMD registers
//! — this variant "cannot use SIMD and offers no speedup" and is measured
//! for pruning power only.

use crate::quantize::DistanceQuantizer;
use crate::result::{ScanResult, ScanStats};
use crate::ScanParams;
use pqfs_core::{DistanceTables, RowMajorCodes, TopK};

/// Scans with 256-entry quantized tables, counting pruned distance
/// computations. Returns exactly the same neighbors as
/// [`crate::scan_naive`].
///
/// `params.keep` is the warm-up fraction and `params.bound` caps `qmax` and
/// the pruning threshold (as in Fast Scan); `bins` is the quantization bin
/// count.
///
/// # Panics
///
/// Panics if `params.topk == 0` or `tables.m() != codes.m()`.
pub fn scan_quantize_only(
    tables: &DistanceTables,
    codes: &RowMajorCodes,
    params: &ScanParams,
    bins: u16,
) -> ScanResult {
    assert_eq!(tables.m(), codes.m(), "tables and codes must share m");
    let n = codes.len();
    let m = codes.m();
    let ScanParams {
        topk,
        keep,
        bound: entry,
    } = *params;
    let mut heap = TopK::new(topk);
    let mut stats = ScanStats {
        scanned: n as u64,
        ..ScanStats::default()
    };
    if n == 0 {
        return ScanResult {
            neighbors: Vec::new(),
            stats,
        };
    }

    // Warm-up with exact distances.
    let warm = ((keep.clamp(0.0, 1.0) * n as f64).ceil() as usize).min(n);
    for i in 0..warm {
        let d = tables.distance(codes.code(i));
        if d <= entry {
            heap.push(d, i as u64);
        }
    }
    stats.warmup = warm as u64;

    let qmax = if heap.is_full() {
        heap.threshold()
    } else {
        tables.max_sum()
    };
    let quantizer = DistanceQuantizer::new(tables, qmax.min(entry), bins);

    // Full quantized tables: m rows of ksub bytes.
    let ksub = tables.ksub();
    let mut qtables = Vec::with_capacity(m * ksub);
    for j in 0..m {
        qtables.extend(quantizer.quantize_table(j, tables.table(j)));
    }

    let mut threshold = quantizer.quantize_threshold(heap.threshold().min(entry));
    for i in warm..n {
        let code = codes.code(i);
        // Saturating 8-bit lower bound from the full quantized tables.
        let mut bound = 0u8;
        for (j, &idx) in code.iter().enumerate() {
            bound = bound.saturating_add(qtables[j * ksub + idx as usize]);
        }
        if bound > threshold {
            stats.pruned += 1;
            continue;
        }
        stats.verified += 1;
        let d = tables.distance(code);
        if d <= entry && heap.push(d, i as u64) {
            threshold = quantizer.quantize_threshold(heap.threshold().min(entry));
        }
    }

    ScanResult {
        neighbors: heap.into_sorted(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::scan_naive;
    use crate::quantize::DEFAULT_BINS;

    fn fixture(n: usize) -> (DistanceTables, RowMajorCodes) {
        let mut data = Vec::with_capacity(8 * 256);
        for j in 0..8 {
            for i in 0..256 {
                data.push(((i * 29 + j * 113) % 1009) as f32 * 0.75);
            }
        }
        let tables = DistanceTables::from_raw(data, 8, 256);
        let bytes: Vec<u8> = (0..n * 8).map(|i| ((i * 211 + 37) % 256) as u8).collect();
        (tables, RowMajorCodes::new(bytes, 8))
    }

    #[test]
    fn returns_exact_same_results_as_naive() {
        let (tables, codes) = fixture(3000);
        for (topk, keep) in [
            (1usize, 0.01),
            (10, 0.005),
            (100, 0.02),
            (10, 0.0),
            (10, 1.0),
        ] {
            let a = scan_naive(&tables, &codes, &ScanParams::new(topk));
            let b = scan_quantize_only(
                &tables,
                &codes,
                &ScanParams::new(topk).with_keep(keep),
                DEFAULT_BINS,
            );
            assert_eq!(a.ids(), b.ids(), "topk={topk} keep={keep}");
            assert_eq!(a.distances(), b.distances(), "topk={topk} keep={keep}");
        }
    }

    #[test]
    fn prunes_most_distance_computations() {
        let (tables, codes) = fixture(5000);
        let result = scan_quantize_only(
            &tables,
            &codes,
            &ScanParams::new(10).with_keep(0.01),
            DEFAULT_BINS,
        );
        // §5.5: quantization-only pruning power is very high (99.9 % in the
        // paper). Synthetic tables are less favourable; require > 90 %.
        assert!(
            result.stats.pruned_fraction() > 0.9,
            "pruning power {:.4} too low",
            result.stats.pruned_fraction()
        );
    }

    #[test]
    fn accounting_adds_up() {
        let (tables, codes) = fixture(1000);
        let r = scan_quantize_only(
            &tables,
            &codes,
            &ScanParams::new(5).with_keep(0.01),
            DEFAULT_BINS,
        );
        assert_eq!(
            r.stats.warmup + r.stats.pruned + r.stats.verified,
            r.stats.scanned
        );
    }

    #[test]
    fn paper_bins_mode_is_also_exact() {
        let (tables, codes) = fixture(2000);
        let a = scan_naive(&tables, &codes, &ScanParams::new(20));
        let b = scan_quantize_only(
            &tables,
            &codes,
            &ScanParams::new(20).with_keep(0.01),
            crate::quantize::PAPER_BINS,
        );
        assert_eq!(a.ids(), b.ids());
    }

    #[test]
    fn keep_of_one_degenerates_to_naive() {
        let (tables, codes) = fixture(500);
        let r = scan_quantize_only(
            &tables,
            &codes,
            &ScanParams::new(7).with_keep(1.0),
            DEFAULT_BINS,
        );
        assert_eq!(r.stats.warmup, 500);
        assert_eq!(r.stats.pruned, 0);
        assert_eq!(r.stats.verified, 0);
    }
}
