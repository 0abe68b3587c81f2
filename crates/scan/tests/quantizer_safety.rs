//! Property-based verification of the lower-bound safety theorem
//! (docs/FASTSCAN.md §1): with per-table biases and floor rounding, a saturated
//! 8-bit sum exceeding the quantized threshold *proves* the true distance
//! exceeds the float threshold — for any tables, any `qmax`, any bin count,
//! any candidate and any threshold. This is the property that makes PQ Fast
//! Scan exact.

use pqfs_core::DistanceTables;
use pqfs_scan::DistanceQuantizer;
use proptest::prelude::*;

const M: usize = 4;
const KSUB: usize = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Safety with *exact* per-component values (the grouped-components
    /// case: `v_j = D_j[p_j]`).
    #[test]
    fn pruning_with_exact_values_is_safe(
        data in prop::collection::vec(0.0f32..10_000.0, M * KSUB),
        code in prop::collection::vec(0u8..KSUB as u8, M),
        qmax in 0.0f32..50_000.0,
        bins in prop::sample::select(vec![1u16, 17, 126, 254]),
        threshold in 0.0f32..50_000.0,
    ) {
        let tables = DistanceTables::from_raw(data, M, KSUB);
        let quant = DistanceQuantizer::new(&tables, qmax, bins);
        let d = tables.distance(&code);
        let mut sum = 0u8;
        for (j, &idx) in code.iter().enumerate() {
            sum = sum.saturating_add(quant.quantize_value(j, tables.table(j)[idx as usize]));
        }
        let t_q = quant.quantize_threshold(threshold);
        if sum > t_q {
            prop_assert!(
                d > threshold,
                "unsafe prune: d={d}, threshold={threshold}, sum={sum}, t_q={t_q}"
            );
        }
    }

    /// Safety with *under-estimating* per-component values (the
    /// minimum-table case: `v_j <= D_j[p_j]`). We shrink each component by
    /// an arbitrary fraction to model any possible minimum table.
    #[test]
    fn pruning_with_lower_bound_values_is_safe(
        data in prop::collection::vec(0.0f32..10_000.0, M * KSUB),
        code in prop::collection::vec(0u8..KSUB as u8, M),
        shrink in prop::collection::vec(0.0f32..=1.0, M),
        qmax in 0.0f32..50_000.0,
        bins in prop::sample::select(vec![5u16, 126, 254]),
        threshold in 0.0f32..50_000.0,
    ) {
        let tables = DistanceTables::from_raw(data, M, KSUB);
        let quant = DistanceQuantizer::new(&tables, qmax, bins);
        let mins = tables.per_table_min();
        let d = tables.distance(&code);
        let mut sum = 0u8;
        for (j, &idx) in code.iter().enumerate() {
            let exact = tables.table(j)[idx as usize];
            // Any value between the table minimum and the exact entry is a
            // legal small-table value for this component.
            let v = mins[j] + (exact - mins[j]) * shrink[j];
            sum = sum.saturating_add(quant.quantize_value(j, v));
        }
        let t_q = quant.quantize_threshold(threshold);
        if sum > t_q {
            prop_assert!(d > threshold, "unsafe prune with min-table values");
        }
    }

    /// The quantized threshold is monotone in the float threshold, so a
    /// shrinking top-k threshold can only increase pruning, never corrupt
    /// it.
    #[test]
    fn threshold_quantization_is_monotone(
        data in prop::collection::vec(0.0f32..10_000.0, M * KSUB),
        qmax in 1.0f32..50_000.0,
        t1 in 0.0f32..50_000.0,
        t2 in 0.0f32..50_000.0,
    ) {
        let tables = DistanceTables::from_raw(data, M, KSUB);
        let quant = DistanceQuantizer::new(&tables, qmax, 254);
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        prop_assert!(quant.quantize_threshold(lo) <= quant.quantize_threshold(hi));
    }

    /// Value quantization is monotone per table (larger distances never
    /// quantize lower), which minimum tables rely on.
    #[test]
    fn value_quantization_is_monotone(
        data in prop::collection::vec(0.0f32..10_000.0, M * KSUB),
        qmax in 1.0f32..50_000.0,
        j in 0usize..M,
        v1 in 0.0f32..20_000.0,
        v2 in 0.0f32..20_000.0,
    ) {
        let tables = DistanceTables::from_raw(data, M, KSUB);
        let quant = DistanceQuantizer::new(&tables, qmax, 254);
        let (lo, hi) = if v1 <= v2 { (v1, v2) } else { (v2, v1) };
        prop_assert!(quant.quantize_value(j, lo) <= quant.quantize_value(j, hi));
    }
}
