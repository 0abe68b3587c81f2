//! Property-based verification of the paper's §4 guarantee: **PQ Fast Scan
//! returns exactly the same results as PQ Scan**, for arbitrary distance
//! tables, code sets, `topk`, `keep`, grouping components and kernel
//! back-ends.

use pqfs_core::{DistanceTables, RowMajorCodes};
use pqfs_scan::{scan_libpq, scan_naive, FastScanIndex, Kernel, ScanOpts, ScanParams};
use proptest::prelude::*;

const M: usize = 8;
const KSUB: usize = 256;

fn arb_tables() -> impl Strategy<Value = DistanceTables> {
    prop::collection::vec(0.0f32..1000.0, M * KSUB)
        .prop_map(|data| DistanceTables::from_raw(data, M, KSUB))
}

fn arb_codes(max_n: usize) -> impl Strategy<Value = RowMajorCodes> {
    prop::collection::vec(any::<u8>(), 0..=max_n * M).prop_map(|mut bytes| {
        bytes.truncate(bytes.len() / M * M);
        RowMajorCodes::new(bytes, M)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fast Scan == naive PQ Scan for every configuration.
    #[test]
    fn fastscan_equals_pqscan(
        tables in arb_tables(),
        codes in arb_codes(400),
        topk in 1usize..32,
        keep in 0.0f64..0.2,
        c in 0usize..=4,
        use_portable in any::<bool>(),
    ) {
        let kernel = if use_portable { Kernel::Portable } else { Kernel::Auto };
        let opts = ScanOpts::default()
            .with_group_components(c)
            .with_kernel(kernel);
        let index = FastScanIndex::build(&codes, &opts).unwrap();
        let fast = index.scan(&tables, &ScanParams::new(topk).with_keep(keep)).unwrap();
        let slow = scan_naive(&tables, &codes, &ScanParams::new(topk));

        prop_assert_eq!(fast.ids(), slow.ids());
        prop_assert_eq!(fast.distances(), slow.distances());
        // Accounting: every non-warm-up vector is either pruned or verified.
        prop_assert_eq!(
            fast.stats.warmup + fast.stats.pruned + fast.stats.verified,
            fast.stats.scanned
        );
    }

    /// Every kernel back-end returns the identical result set; the SSSE3
    /// kernel additionally matches the portable kernel's pruning
    /// statistics bit-for-bit (the AVX2 pair kernel may verify a handful
    /// more candidates because a block pair shares one threshold
    /// snapshot, the AVX-512 VBMI kernel far fewer because it bounds twice
    /// — results are still exact).
    #[test]
    fn kernels_agree_exactly(
        tables in arb_tables(),
        codes in arb_codes(300),
        topk in 1usize..16,
        c in 0usize..=4,
    ) {
        let base = ScanOpts::default().with_group_components(c);
        let portable = FastScanIndex::build(&codes, &base.clone().with_kernel(Kernel::Portable))
            .unwrap()
            .scan(&tables, &ScanParams::new(topk))
            .unwrap();
        for kernel in [Kernel::Auto, Kernel::Ssse3, Kernel::Avx2, Kernel::Avx512Vbmi] {
            let index =
                FastScanIndex::build(&codes, &base.clone().with_kernel(kernel)).unwrap();
            match index.scan(&tables, &ScanParams::new(topk)) {
                Ok(result) => {
                    prop_assert_eq!(portable.ids(), result.ids());
                    prop_assert_eq!(portable.distances(), result.distances());
                    if kernel == Kernel::Ssse3 {
                        prop_assert_eq!(portable.stats.pruned, result.stats.pruned);
                        prop_assert_eq!(portable.stats.verified, result.stats.verified);
                    }
                }
                Err(pqfs_scan::ScanError::KernelUnavailable { kernel }) => {
                    static ONCE: std::sync::Once = std::sync::Once::new();
                    ONCE.call_once(|| eprintln!("skipping: this CPU has no {kernel} kernel"));
                }
                Err(e) => return Err(TestCaseError::fail(format!("scan failed: {e}"))),
            }
        }
    }

    /// Both PQ Scan baselines return the identical result set.
    #[test]
    fn baselines_agree(
        tables in arb_tables(),
        codes in arb_codes(200),
        topk in 1usize..16,
    ) {
        let a = scan_naive(&tables, &codes, &ScanParams::new(topk));
        let b = scan_libpq(&tables, &codes, &ScanParams::new(topk));
        prop_assert_eq!(a.ids(), b.ids());
        prop_assert_eq!(a.distances(), b.distances());
    }

    /// Degenerate tables (all entries identical) disable pruning but stay
    /// exact.
    #[test]
    fn degenerate_tables_stay_exact(
        value in 0.0f32..100.0,
        codes in arb_codes(100),
        topk in 1usize..8,
    ) {
        let tables = DistanceTables::from_raw(vec![value; M * KSUB], M, KSUB);
        let index = FastScanIndex::build(&codes, &ScanOpts::default()).unwrap();
        let fast = index.scan(&tables, &ScanParams::new(topk)).unwrap();
        let slow = scan_naive(&tables, &codes, &ScanParams::new(topk));
        prop_assert_eq!(fast.ids(), slow.ids());
    }
}

/// End-to-end check with a *real* trained product quantizer on clustered
/// data, with the §4.3 optimized assignment applied — the realistic
/// configuration of the paper's evaluation.
#[test]
fn end_to_end_with_trained_pq() {
    use pqfs_core::{PqConfig, ProductQuantizer};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let dim = 32;
    let mut rng = StdRng::seed_from_u64(99);
    // Clustered data: 20 cluster centers with noise.
    let centers: Vec<Vec<f32>> = (0..20)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0f32..255.0)).collect())
        .collect();
    let sample = |rng: &mut StdRng| -> Vec<f32> {
        let c = &centers[rng.gen_range(0..centers.len())];
        c.iter()
            .map(|&x| (x + rng.gen_range(-15.0f32..15.0)).clamp(0.0, 255.0))
            .collect()
    };

    let train: Vec<f32> = (0..2000).flat_map(|_| sample(&mut rng)).collect();
    let config = PqConfig::pq8x8(dim);
    let mut pq = ProductQuantizer::train(&train, &config, 5).unwrap();
    pq.optimize_assignment(16, 7).unwrap();

    let base: Vec<f32> = (0..4000).flat_map(|_| sample(&mut rng)).collect();
    let codes = pq.encode_batch(&base).unwrap();
    let index = FastScanIndex::build(&codes, &ScanOpts::default()).unwrap();

    let mut total_pruned = 0.0;
    for q in 0..20 {
        let query = sample(&mut rng);
        let tables = DistanceTables::compute(&pq, &query).unwrap();
        let fast = index
            .scan(&tables, &ScanParams::new(10).with_keep(0.01))
            .unwrap();
        let slow = scan_naive(&tables, &codes, &ScanParams::new(10));
        assert_eq!(fast.ids(), slow.ids(), "query {q}");
        assert_eq!(fast.distances(), slow.distances(), "query {q}");
        total_pruned += fast.stats.pruned_fraction();
    }
    // On clustered data with the optimized assignment, pruning power should
    // be substantial (the paper reports >95 % on SIFT).
    let avg = total_pruned / 20.0;
    assert!(avg > 0.5, "average pruning power {avg:.3} unexpectedly low");
}

/// Either side of the first boundary of the auto grouping rule, 32 768
/// vectors (docs/FASTSCAN.md §10): an auto-built index of one vector fewer
/// groups on one component and one of 32 768 on two, and both return PQ
/// Scan's answer bit for bit. Synthetic codes and tables, so nothing is
/// trained.
#[test]
fn auto_grouping_is_exact_either_side_of_32_768() {
    let tables = DistanceTables::from_raw(
        (0..M * KSUB)
            .map(|i| ((i as u32).wrapping_mul(2_654_435_761) % 100_000) as f32 / 10.0)
            .collect(),
        M,
        KSUB,
    );
    let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (n, c) in [(32_767, 1), (32_768, 2)] {
        let bytes = (0..n * M)
            .map(|i| ((i as u32).wrapping_mul(40_503).wrapping_add(11) >> 8) as u8)
            .collect();
        let codes = RowMajorCodes::new(bytes, M);
        for kernel in [Kernel::Auto, Kernel::Avx2] {
            if kernel.resolved().is_err() {
                eprintln!("skipping: this CPU has no {kernel:?} kernel");
                continue;
            }
            let opts = ScanOpts::default().with_kernel(kernel);
            let index = FastScanIndex::build(&codes, &opts).unwrap();
            assert_eq!(index.group_components(), c, "n = {n}");
            for topk in [10, 1_000] {
                let params = ScanParams::new(topk);
                let fast = index.scan(&tables, &params).unwrap();
                let naive = scan_naive(&tables, &codes, &params);
                let case = format!("n = {n} {kernel:?} topk {topk}");
                assert_eq!(fast.ids(), naive.ids(), "{case}");
                assert_eq!(bits(&fast.distances()), bits(&naive.distances()), "{case}");
            }
        }
    }
}
