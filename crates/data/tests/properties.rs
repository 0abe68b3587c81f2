//! Property-based tests of the dataset substrate: file-format roundtrips
//! and generator invariants.

use pqfs_data::{exact_knn, generate, read_fvecs, write_fvecs, SyntheticConfig};
use proptest::prelude::*;

fn tmp_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    // Unique per process + tag + a counter to survive parallel test runs.
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let c = COUNTER.fetch_add(1, Ordering::Relaxed);
    p.push(format!("pqfs-prop-{}-{tag}-{c}", std::process::id()));
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// fvecs roundtrip preserves every bit of every vector.
    #[test]
    fn fvecs_roundtrip(
        dim in 1usize..16,
        rows in prop::collection::vec(prop::collection::vec(-1e6f32..1e6, 1..16), 0..20),
    ) {
        let data: Vec<f32> = rows.iter().flat_map(|r| r.iter().take(dim).copied()).collect();
        let data = {
            let mut d = data;
            d.truncate(d.len() / dim * dim);
            d
        };
        prop_assume!(!data.is_empty());
        let path = tmp_path("f");
        write_fvecs(&path, &data, dim).unwrap();
        let file = read_fvecs(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(file.dim, dim);
        prop_assert_eq!(file.data, data);
    }

    /// The generator stays in the SIFT byte range and is seed-deterministic
    /// for arbitrary configurations.
    #[test]
    fn generator_invariants(
        dim in prop::sample::select(vec![4usize, 16, 32]),
        clusters in 1usize..32,
        std in 0.0f32..60.0,
        coherence in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let cfg = SyntheticConfig {
            dim,
            clusters,
            cluster_std: std,
            block_dim: 16,
            block_coherence: coherence,
            seed,
        };
        let a = generate(50, &cfg);
        prop_assert_eq!(a.len(), 50 * dim);
        prop_assert!(a.iter().all(|&x| (0.0..=255.0).contains(&x)));
        prop_assert_eq!(&a, &generate(50, &cfg));
    }

    /// Brute-force kNN returns sorted, unique, in-range neighbors.
    #[test]
    fn exact_knn_is_sorted_and_unique(
        base in prop::collection::vec(0.0f32..100.0, 2..200),
        query in prop::collection::vec(0.0f32..100.0, 2),
        k in 1usize..20,
    ) {
        let base = {
            let mut b = base;
            b.truncate(b.len() / 2 * 2);
            b
        };
        prop_assume!(base.len() >= 2);
        let result = exact_knn(&base, 2, &query, k);
        prop_assert_eq!(result.len(), k.min(base.len() / 2));
        for pair in result.windows(2) {
            prop_assert!(
                pair[0].dist < pair[1].dist
                    || (pair[0].dist == pair[1].dist && pair[0].id < pair[1].id)
            );
        }
        prop_assert!(result.iter().all(|n| (n.id as usize) < base.len() / 2));
    }
}
