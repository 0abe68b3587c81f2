//! Property-based tests of the product-quantization core invariants.

use pqfs_core::{Codebook, DistanceTables, PqConfig, ProductQuantizer, TopK};
use proptest::prelude::*;

/// A small trainable configuration plus matching training data.
fn pq_fixture(seed: u64, n: usize) -> (ProductQuantizer, Vec<f32>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let config = PqConfig::new(16, 4, 4).unwrap();
    let data: Vec<f32> = (0..n * 16).map(|_| rng.gen_range(0.0f32..255.0)).collect();
    let pq = ProductQuantizer::train(&data, &config, seed).unwrap();
    (pq, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ADC distance via tables equals the distance to the decoded
    /// reconstruction (paper Eq. 1 == Eq. 3), up to float reassociation.
    #[test]
    fn adc_equals_reconstruction_distance(
        seed in 0u64..1000,
        query in prop::collection::vec(0.0f32..255.0, 16),
    ) {
        let (pq, data) = pq_fixture(seed, 64);
        let tables = DistanceTables::compute(&pq, &query).unwrap();
        for v in data.chunks_exact(16).take(8) {
            let code = pq.encode(v);
            let rec = pq.decode(&code).unwrap();
            let direct: f32 = query
                .iter()
                .zip(&rec)
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            let adc = tables.distance(&code);
            prop_assert!((adc - direct).abs() <= 1e-2 * direct.max(1.0));
        }
    }

    /// Encoding always produces in-range indexes, and decode(encode(x)) is
    /// the nearest-centroid reconstruction per subspace.
    #[test]
    fn encode_produces_per_subspace_optima(
        seed in 0u64..1000,
        v in prop::collection::vec(0.0f32..255.0, 16),
    ) {
        let (pq, _) = pq_fixture(seed, 64);
        let code = pq.encode(&v);
        prop_assert!(code.iter().all(|&i| (i as usize) < 16));
        // No other centroid index can beat the chosen one in its subspace.
        for j in 0..4 {
            let sub = &v[j * 4..(j + 1) * 4];
            let chosen = pq.codebook(j).centroid(code[j] as usize);
            let chosen_d: f32 =
                sub.iter().zip(chosen).map(|(a, b)| (a - b) * (a - b)).sum();
            for i in 0..16 {
                let other = pq.codebook(j).centroid(i);
                let other_d: f32 =
                    sub.iter().zip(other).map(|(a, b)| (a - b) * (a - b)).sum();
                prop_assert!(chosen_d <= other_d + 1e-4);
            }
        }
    }

    /// Codebook permutation is semantically invisible: quantization error
    /// and reconstructions are unchanged by optimize_assignment.
    #[test]
    fn optimized_assignment_is_a_pure_relabeling(
        seed in 0u64..1000,
        v in prop::collection::vec(0.0f32..255.0, 16),
    ) {
        let (mut pq, _) = pq_fixture(seed, 64);
        let before = pq.quantization_error(&v).unwrap();
        let rec_before = pq.decode(&pq.encode(&v)).unwrap();
        pq.optimize_assignment(4, seed ^ 1).unwrap();
        let after = pq.quantization_error(&v).unwrap();
        let rec_after = pq.decode(&pq.encode(&v)).unwrap();
        prop_assert_eq!(before, after);
        prop_assert_eq!(rec_before, rec_after);
    }

    /// TopK returns exactly the k lexicographically-smallest (dist, id)
    /// pairs, matching a sort-based oracle.
    #[test]
    fn topk_matches_sort_oracle(
        dists in prop::collection::vec(-100.0f32..100.0, 1..200),
        k in 1usize..50,
    ) {
        let mut topk = TopK::new(k);
        for (i, &d) in dists.iter().enumerate() {
            topk.push(d, i as u64);
        }
        let got: Vec<(f32, u64)> =
            topk.into_sorted().iter().map(|n| (n.dist, n.id)).collect();
        let mut oracle: Vec<(f32, u64)> =
            dists.iter().enumerate().map(|(i, &d)| (d, i as u64)).collect();
        oracle.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        oracle.truncate(k);
        prop_assert_eq!(got, oracle);
    }

    /// Distance-table summaries bound every achievable distance.
    #[test]
    fn table_summaries_bound_all_distances(
        data in prop::collection::vec(0.0f32..1000.0, 2 * 16),
        c0 in 0u8..16,
        c1 in 0u8..16,
    ) {
        let tables = DistanceTables::from_raw(data, 2, 16);
        let d = tables.distance(&[c0, c1]);
        prop_assert!(d >= tables.sum_of_mins() - 1e-3);
        prop_assert!(d <= tables.max_sum() + 1e-3);
        prop_assert!(tables.global_min() <= tables.per_table_min()[0] + 1e-6);
    }

    /// Codebook permutation composes correctly: permuting by `perm` moves
    /// centroid `perm[i]` to slot `i`.
    #[test]
    fn codebook_permutation_semantics(
        values in prop::collection::vec(0.0f32..10.0, 8 * 2),
        swap_a in 0usize..8,
        swap_b in 0usize..8,
    ) {
        let mut cb = Codebook::new(values, 2);
        let snapshot: Vec<Vec<f32>> = (0..8).map(|i| cb.centroid(i).to_vec()).collect();
        let mut perm: Vec<usize> = (0..8).collect();
        perm.swap(swap_a, swap_b);
        cb.permute(&perm);
        for i in 0..8 {
            prop_assert_eq!(cb.centroid(i), snapshot[perm[i]].as_slice());
        }
    }
}
