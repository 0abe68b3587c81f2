//! Property-based tests of the §6 compressed-column machinery.

use pqfs_bench::columnar::{approximate_mean, topk_max_fast, CompressedColumn, Dictionary};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fast top-k with maximum-table pruning returns exactly the same
    /// (row, value) list as the exhaustive scan, for arbitrary data,
    /// dictionary sizes and k.
    #[test]
    fn fast_topk_is_exact(
        data in prop::collection::vec(-1000.0f32..1000.0, 1..500),
        dict_size in prop::sample::select(vec![1usize, 3, 16, 17, 100, 256]),
        k in 0usize..40,
    ) {
        let column = CompressedColumn::compress(&data, dict_size);
        let fast = topk_max_fast(&column, k);
        prop_assert_eq!(fast.items, column.topk_max_exact(k));
        if k > 0 {
            prop_assert_eq!(
                fast.pruned + fast.verified,
                // Remainder rows are scanned individually; both paths count.
                column.len() as u64
            );
        }
    }

    /// The approximate mean always lands within its self-reported error
    /// bound.
    #[test]
    fn approximate_mean_respects_bound(
        data in prop::collection::vec(-500.0f32..500.0, 1..2000),
        dict_size in prop::sample::select(vec![2usize, 16, 64, 256]),
    ) {
        let column = CompressedColumn::compress(&data, dict_size);
        let approx = approximate_mean(&column);
        let exact = column.exact_mean();
        prop_assert!(
            (approx.value - exact).abs() <= approx.error_bound + 1e-3,
            "|{} - {exact}| > {}", approx.value, approx.error_bound
        );
    }

    /// Dictionary encoding picks the nearest entry (no closer entry
    /// exists), and decoding is its inverse on dictionary values.
    #[test]
    fn encode_is_nearest_entry(
        values in prop::collection::vec(-100.0f32..100.0, 1..50),
        probe in -150.0f32..150.0,
    ) {
        let dict = Dictionary::new(values);
        let code = dict.encode(probe);
        let chosen = dict.decode(code);
        for i in 0..dict.len() {
            prop_assert!(
                (chosen - probe).abs() <= (dict.decode(i as u8) - probe).abs() + 1e-4
            );
        }
    }

    /// Portion maxima/minima/means are consistent bounds of their portions.
    #[test]
    fn portion_summaries_are_bounds(
        values in prop::collection::vec(-100.0f32..100.0, 1..256),
    ) {
        let dict = Dictionary::new(values);
        let maxima = dict.portion_maxima();
        let minima = dict.portion_minima();
        let means = dict.portion_means();
        for (i, &v) in dict.values().iter().enumerate() {
            let p = i / 16;
            prop_assert!(minima[p] <= v && v <= maxima[p]);
            prop_assert!(minima[p] <= means[p] && means[p] <= maxima[p] + 1e-4);
        }
    }

    /// Compression reconstruction error is bounded by the largest gap
    /// between adjacent dictionary entries (half of it, plus clamp slack
    /// for out-of-range values — quantile dictionaries include min/max so
    /// there is no out-of-range).
    #[test]
    fn reconstruction_error_bounded_by_dictionary_gaps(
        data in prop::collection::vec(0.0f32..1000.0, 2..300),
    ) {
        let column = CompressedColumn::compress(&data, 256);
        let dict = column.dict();
        let max_gap = dict
            .values()
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(0.0f32, f32::max);
        prop_assert!(column.reconstruction_error(&data) <= max_gap / 2.0 + 1e-3);
    }
}
