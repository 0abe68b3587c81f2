//! Cross-crate integration tests: the full paper pipeline from raw vectors
//! to Fast Scan results, spanning `pqfs-data`, `pqfs-kmeans`, `pqfs-core`,
//! `pqfs-scan` and `pqfs-ivf`.

use pq_fast_scan::prelude::*;
use pq_fast_scan::scan::ScanError;

const DIM: usize = 32;

const KERNELS: [Kernel; 4] = [
    Kernel::Portable,
    Kernel::Ssse3,
    Kernel::Avx2,
    Kernel::Avx512Vbmi,
];

fn dataset(seed: u64) -> SyntheticDataset {
    SyntheticDataset::new(
        &SyntheticConfig::sift_like()
            .with_dim(DIM)
            .with_clusters(64)
            .with_seed(seed),
    )
}

#[test]
fn full_pipeline_fastscan_equals_pqscan_and_finds_true_neighbors() {
    let mut gen = dataset(11);
    let train = gen.sample(3_000);
    let base = gen.sample(20_000);
    let queries = gen.sample(15);

    let mut pq = ProductQuantizer::train(&train, &PqConfig::pq8x8(DIM), 3).unwrap();
    pq.optimize_assignment(16, 3).unwrap();
    let codes = pq.encode_batch(&base).unwrap();
    let index = FastScanIndex::build(&codes, &FastScanOptions::default()).unwrap();

    let naive = Backend::Naive.scanner(&ScanOpts::default());
    let mut recall_hits = 0usize;
    let mut pruned_total = 0.0;
    for q in queries.chunks_exact(DIM) {
        let tables = DistanceTables::compute(&pq, q).unwrap();
        let fast = index
            .scan(&tables, &ScanParams::new(100).with_keep(0.01))
            .unwrap();
        let slow = naive.scan(&tables, &codes, 100).unwrap();
        assert_eq!(fast.ids(), slow.ids());
        assert_eq!(fast.distances(), slow.distances());
        pruned_total += fast.stats.pruned_fraction();

        // ANN quality: the true nearest neighbor should almost always be in
        // the approximate top-100 (PQ 8x8 over clustered 32-d data).
        let truth = exact_knn(&base, DIM, q, 1)[0].id as u64;
        if fast.ids().contains(&truth) {
            recall_hits += 1;
        }
    }
    assert!(recall_hits >= 12, "recall@100 too low: {recall_hits}/15");
    let avg_pruned = pruned_total / 15.0;
    assert!(
        avg_pruned > 0.5,
        "average pruning power {avg_pruned:.3} too low"
    );
}

/// The paper's §5 exactness guarantee as one table-driven test: every
/// backend in the registry, and Fast Scan under every kernel this CPU has,
/// returns the identical top-k set on a seeded synthetic dataset.
#[test]
fn every_backend_returns_the_identical_topk_set() {
    let mut gen = dataset(61);
    let train = gen.sample(3_000);
    let base = gen.sample(20_000);
    let queries = gen.sample(10);

    let mut pq = ProductQuantizer::train(&train, &PqConfig::pq8x8(DIM), 9).unwrap();
    pq.optimize_assignment(16, 9).unwrap();
    let codes = pq.encode_batch(&base).unwrap();

    let opts = ScanOpts::default().with_keep(0.01);
    for (qi, q) in queries.chunks_exact(DIM).enumerate() {
        let tables = DistanceTables::compute(&pq, q).unwrap();
        let reference = Backend::Naive
            .scanner(&opts)
            .scan(&tables, &codes, 100)
            .unwrap();
        for backend in Backend::ALL {
            let result = backend.scanner(&opts).scan(&tables, &codes, 100).unwrap();
            assert_eq!(
                result.ids(),
                reference.ids(),
                "backend '{backend}' diverged from naive on query {qi}"
            );
        }
        for kernel in KERNELS {
            let scanner = Backend::FastScan.scanner(&opts.clone().with_kernel(kernel));
            match scanner.scan(&tables, &codes, 100) {
                Ok(result) => {
                    let bits = |r: &ScanResult| -> Vec<(u32, u64)> {
                        let pair = |n: &Neighbor| (n.dist.to_bits(), n.id);
                        r.neighbors.iter().map(pair).collect()
                    };
                    assert_eq!(bits(&result), bits(&reference), "{kernel:?} query {qi}");
                }
                Err(ScanError::KernelUnavailable { kernel }) if qi == 0 => {
                    eprintln!("skipping: this CPU has no {kernel} kernel")
                }
                Err(ScanError::KernelUnavailable { .. }) => {}
                Err(e) => panic!("{kernel:?}: {e}"),
            }
        }
    }
}

/// A default-config index holds the grouped codes only and still answers
/// every backend of the registry, bit for bit like `Naive`; what Fast Scan
/// reports does not depend on the pool its probes fan out on.
#[test]
fn ivfadc_backends_agree_and_route_queries() {
    let mut gen = dataset(21);
    let train = gen.sample(3_000);
    let base = gen.sample(8_000);
    let queries = gen.sample(10);

    let config = IvfadcConfig::new(DIM, 8).with_seed(17);
    let index = IvfadcIndex::build(&train, &base, &config).unwrap();
    assert_eq!(index.len(), 8_000);
    assert_eq!(index.partition_sizes().len(), 8);

    let pools = [1usize, 2, 8].map(ThreadPool::new);
    for q in queries.chunks_exact(DIM) {
        for nprobe in [1usize, 4] {
            let answer = |backend, pool: &ThreadPool| {
                let request = SearchRequest::new(50, backend, 0.01, nprobe);
                index.search(q, &request, pool, None).unwrap()
            };
            let bits = |o: &pq_fast_scan::ivf::SearchOutcome| {
                let pair = |n: &Neighbor| (n.dist.to_bits(), n.id);
                o.neighbors.iter().map(pair).collect::<Vec<_>>()
            };
            let naive = answer(SearchBackend::Naive, &pools[0]);
            for backend in SearchBackend::ALL {
                let other = answer(backend, &pools[0]);
                assert_eq!(bits(&naive), bits(&other), "'{backend}' nprobe {nprobe}");
                assert_eq!(other.partition, index.select_partition(q));
            }
            let fast = answer(SearchBackend::FastScan, &pools[0]);
            for pool in &pools[1..] {
                let again = answer(SearchBackend::FastScan, pool);
                assert_eq!(again.stats, fast.stats, "pool of {}", pool.threads());
                assert_eq!(bits(&again), bits(&fast), "pool of {}", pool.threads());
            }
        }
    }
}

#[test]
fn grouped_storage_saves_memory_at_scale() {
    // Large enough for c >= 2 grouping: the §4.2 saving materializes.
    let mut gen = dataset(31);
    let train = gen.sample(2_000);
    let base = gen.sample(40_000); // auto c = 2 (>= 12_800)
    let pq = ProductQuantizer::train(&train, &PqConfig::pq8x8(DIM), 4).unwrap();
    let codes = pq.encode_batch(&base).unwrap();
    let index = FastScanIndex::build(&codes, &FastScanOptions::default()).unwrap();
    assert!(index.group_components() >= 2);
    let saving = 1.0 - index.code_memory_bytes() as f64 / codes.memory_bytes() as f64;
    // c = 2 stores 7 bytes/vector (12.5 % saving) minus block padding.
    assert!(saving > 0.05, "saving {saving:.3} too small");
}

#[test]
fn vectors_survive_a_fvecs_roundtrip_through_the_pipeline() {
    let mut gen = dataset(41);
    let base = gen.sample(500);
    let mut path = std::env::temp_dir();
    path.push(format!("pqfs-pipeline-{}.fvecs", std::process::id()));
    pq_fast_scan::data::write_fvecs(&path, &base, DIM).unwrap();
    let reloaded = pq_fast_scan::data::read_fvecs(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(reloaded.dim, DIM);
    assert_eq!(reloaded.data, base);
}

#[test]
fn optimized_assignment_tightens_minimum_tables() {
    // The §4.3 claim, measured: with the optimized assignment the pruning
    // power of Fast Scan should not regress (and typically improves)
    // compared to arbitrary centroid indexes.
    let mut gen = dataset(51);
    let train = gen.sample(4_000);
    let base = gen.sample(15_000);
    let queries = gen.sample(20);

    let plain = ProductQuantizer::train(&train, &PqConfig::pq8x8(DIM), 6).unwrap();
    let mut optimized = plain.clone();
    optimized.optimize_assignment(16, 6).unwrap();

    let pruning = |pq: &ProductQuantizer| -> f64 {
        let codes = pq.encode_batch(&base).unwrap();
        let index = FastScanIndex::build(&codes, &FastScanOptions::default()).unwrap();
        let mut total = 0.0;
        for q in queries.chunks_exact(DIM) {
            let tables = DistanceTables::compute(pq, q).unwrap();
            let r = index
                .scan(&tables, &ScanParams::new(100).with_keep(0.01))
                .unwrap();
            total += r.stats.pruned_fraction();
        }
        total / 20.0
    };

    let p_plain = pruning(&plain);
    let p_opt = pruning(&optimized);
    // Allow a small tolerance: the property is statistical, not pointwise.
    assert!(
        p_opt >= p_plain - 0.02,
        "optimized assignment hurt pruning: {p_opt:.3} vs {p_plain:.3}"
    );
}

/// The warm-up's pruning floor: on a seeded partition grouped on two
/// components, the groups nearest to the query give the kernel a first
/// threshold under which few vectors survive to be verified.
#[test]
fn group_chosen_warm_up_keeps_verification_low() {
    let mut gen = dataset(71);
    let train = gen.sample(3_000);
    let base = gen.sample(20_000);
    let queries = gen.sample(20);

    let mut pq = ProductQuantizer::train(&train, &PqConfig::pq8x8(DIM), 5).unwrap();
    pq.optimize_assignment(16, 5).unwrap();
    let codes = pq.encode_batch(&base).unwrap();
    let index = FastScanIndex::build(&codes, &FastScanOptions::default()).unwrap();
    assert_eq!(index.group_components(), 2);

    let mut stats = ScanStats::default();
    for q in queries.chunks_exact(DIM) {
        let tables = DistanceTables::compute(&pq, q).unwrap();
        stats.merge(&index.scan(&tables, &ScanParams::new(100)).unwrap().stats);
    }
    assert_eq!(stats.warmup + stats.pruned + stats.verified, stats.scanned);
    // 24 927 of 400 000 here; a warm-up sample spread over all groups, or
    // the groups of the *largest* portion minima, leave about 110 000.
    assert!(
        stats.verified <= 40_000,
        "the warm-up's threshold let {} of {} vectors through",
        stats.verified,
        stats.scanned
    );
}
