//! Exactness matrix for the per-block hand-off and the nearest-first
//! traversal (docs/FASTSCAN.md §3, §6): for every grouping count, kernel,
//! partition shape, `topk` and `keep`, Fast Scan returns the ids **and** the
//! `f32` distances of `Backend::Naive`, bit for bit, its counters account
//! for every vector, and they are the same whichever kernel ran. A second
//! matrix does the same for the entry bound (`ScanParams::bound`,
//! docs/FASTSCAN.md §5) over every backend. (That a group is passed over
//! only when none of its vectors could survive is checked where the
//! traversal can be watched: `fastscan::kernel`'s unit tests.)

use pqfs_core::{DistanceTables, RowMajorCodes};
use pqfs_scan::{
    scan_libpq, scan_naive, Backend, FastScanIndex, Kernel, ScanError, ScanOpts, ScanParams,
    ScanResult, ScanStats,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const M: usize = 8;
const KSUB: usize = 256;

/// `n` codes whose grouped components take two high nibbles only, so even
/// `c = 4` forms groups of many blocks (odd block counts, ragged tails) and
/// not one group per vector.
fn codes(n: usize) -> RowMajorCodes {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let bytes = (0..n * M)
        .map(|i| rng.gen_range(0..=if i % M < 4 { 0x1Fu8 } else { 0xFF }))
        .collect();
    RowMajorCodes::new(bytes, M)
}

/// `tables(PORTIONED)`: each 16-entry portion a band of its own, as the
/// optimized centroid assignment makes them, and the bands of the first four
/// components far apart — whole groups lie beyond a threshold others are
/// within, so the traversal has groups to pass over.
const PORTIONED: u32 = u32::MAX;

/// Distance tables: `levels == 0` draws floats whose sums round differently
/// in a different addition order; [`PORTIONED`] see there; otherwise entries
/// are one of `levels` integers, so distances tie all the time and ids
/// decide the result.
fn tables(levels: u32) -> DistanceTables {
    let mut rng = StdRng::seed_from_u64(7u64.wrapping_add(levels as u64));
    let data = (0..M * KSUB)
        .map(|i| match levels {
            0 => rng.gen_range(0.1f32..16_000.0),
            PORTIONED => {
                let band = if i / KSUB < 4 { 20_000.0 } else { 100.0 };
                (i % KSUB / 16) as f32 * band + rng.gen_range(0.0..0.9 * band)
            }
            _ => rng.gen_range(0..levels) as f32,
        })
        .collect();
    DistanceTables::from_raw(data, M, KSUB)
}

const KERNELS: [Kernel; 4] = [
    Kernel::Portable,
    Kernel::Ssse3,
    Kernel::Avx2,
    Kernel::Avx512Vbmi,
];

/// The same Fast Scan partition once per kernel, grouped on `c` components.
fn fastscan_per_kernel(codes: &RowMajorCodes, c: usize) -> Vec<(Kernel, FastScanIndex)> {
    KERNELS
        .into_iter()
        .map(|kernel| (kernel, fastscan(codes, c, kernel)))
        .collect()
}

/// Fast Scan over `codes`, grouped on `c` components, on `kernel`.
fn fastscan(codes: &RowMajorCodes, c: usize, kernel: Kernel) -> FastScanIndex {
    let opts = ScanOpts::default()
        .with_group_components(c)
        .with_kernel(kernel);
    FastScanIndex::build(codes, &opts).unwrap()
}

/// The naive PQ Scan's `topk` nearest: the oracle every Fast Scan matches.
fn naive(tables: &DistanceTables, codes: &RowMajorCodes, topk: usize) -> ScanResult {
    scan_naive(tables, codes, &ScanParams::new(topk))
}

/// Scans with each kernel this CPU has and checks what must hold of every
/// Fast Scan: the counters account for each vector once, and they are a
/// function of (partition, tables, params) — the portable and the SSSE3
/// kernel, which differ in nothing but instructions, report the same (the
/// AVX2 pair kernel may verify a few lanes more, the refining kernel verifies
/// a subset of the AVX2 kernel's, and nothing else differs).
fn scan_with_each_kernel(
    prepared: &[(Kernel, FastScanIndex)],
    tables: &DistanceTables,
    params: &ScanParams,
    case: &str,
) -> Vec<ScanResult> {
    let mut results = Vec::new();
    let mut portable: Option<ScanStats> = None;
    let mut avx2_verified = u64::MAX;
    for (kernel, index) in prepared {
        let got = match index.scan(tables, params) {
            Ok(got) => got,
            // The CPU lacks this kernel: nothing to check.
            Err(ScanError::KernelUnavailable { .. }) => continue,
            Err(e) => panic!("{case} {kernel:?}: {e}"),
        };
        let s = got.stats;
        assert_eq!(
            s.warmup + s.pruned + s.verified,
            s.scanned,
            "{case} {kernel:?}"
        );
        assert!(s.skipped <= s.pruned, "{case} {kernel:?}");
        assert!(s.accepted <= s.warmup + s.verified, "{case} {kernel:?}");
        match kernel {
            Kernel::Portable => portable = Some(s),
            Kernel::Ssse3 => assert_eq!(Some(s), portable, "{case}: SSSE3 vs portable"),
            _ => {
                let p = portable.expect("the portable kernel runs first");
                let same = ScanStats {
                    verified: p.verified,
                    pruned: p.pruned,
                    ..s
                };
                assert_eq!(same, p, "{case}: {kernel:?} vs portable");
                if *kernel == Kernel::Avx2 {
                    assert!(s.verified >= p.verified, "{case}: AVX2 vs portable");
                    avx2_verified = s.verified;
                } else {
                    assert!(s.verified <= avx2_verified, "{case}: {kernel:?} vs AVX2");
                }
            }
        }
        results.push(got);
    }
    results
}

#[test]
fn every_handoff_path_equals_naive() {
    let (mut scans, mut skipped) = (0usize, 0u64);
    for n in [1usize, 15, 16, 17, 31, 33, 5_000] {
        let codes = codes(n);
        for c in 0..=4usize {
            let prepared = fastscan_per_kernel(&codes, c);
            for levels in [0u32, 5, PORTIONED] {
                let tables = tables(levels);
                for topk in [1, 10, 100, 1000, n + 5] {
                    let want = naive(&tables, &codes, topk);
                    for keep in [0.0, 0.005, 1.0] {
                        let case = format!("n={n} levels={levels} topk={topk} c={c} keep={keep}");
                        let params = ScanParams::new(topk).with_keep(keep);
                        for got in scan_with_each_kernel(&prepared, &tables, &params, &case) {
                            assert_eq!(got.ids(), want.ids(), "{case}");
                            let bits = |d: Vec<f32>| -> Vec<u32> {
                                d.into_iter().map(f32::to_bits).collect()
                            };
                            assert_eq!(bits(got.distances()), bits(want.distances()), "{case}");
                            assert_eq!(got.stats.scanned, n as u64, "{case}");
                            skipped += got.stats.skipped;
                            scans += 1;
                        }
                    }
                }
            }
        }
    }
    // The portable kernel alone is a quarter of the matrix.
    assert!(scans >= 7 * 3 * 5 * 5 * 3);
    assert!(skipped > 0, "the matrix must exercise the pass-over");
}

/// Partitions of a handful of vectors with unconstrained keys: nearly every
/// key prefix has no run, and the few runs there are hold one ragged block.
#[test]
fn sparse_keys_leave_most_prefixes_without_a_run() {
    let tables = tables(0);
    for n in 15usize..=40 {
        let mut rng = StdRng::seed_from_u64(1_000 + n as u64);
        let bytes = (0..n * M).map(|_| rng.gen_range(0..=0xFFu8)).collect();
        let codes = RowMajorCodes::new(bytes, M);
        for c in 0..=4usize {
            let prepared = fastscan_per_kernel(&codes, c);
            for topk in [1, 10, n + 5] {
                let want = naive(&tables, &codes, topk);
                let bounded =
                    ScanParams::new(topk).with_bound(want.neighbors[topk.min(n) - 1].dist);
                for params in [ScanParams::new(topk), bounded] {
                    let case = format!("n={n} c={c} topk={topk} bound={}", params.bound);
                    for got in scan_with_each_kernel(&prepared, &tables, &params, &case) {
                        assert_eq!(got.neighbors, want.neighbors, "{case}");
                    }
                }
            }
        }
    }
}

/// The largest float below a non-negative `x`.
fn just_below(x: f32) -> f32 {
    if x > 0.0 {
        f32::from_bits(x.to_bits() - 1)
    } else {
        -f32::MIN_POSITIVE
    }
}

#[test]
fn every_backend_honours_the_entry_bound() {
    let mut scans = 0usize;
    let mut bounded_out = 0usize;
    for n in [17usize, 33, 5_000] {
        let codes = codes(n);
        // Fast Scan once per grouping count and kernel.
        let mut fastscans = Vec::new();
        for c in 0..=4usize {
            for kernel in KERNELS {
                let name = format!("fastscan c={c} {kernel:?}");
                fastscans.push((name, fastscan(&codes, c, kernel)));
            }
        }
        for levels in [0u32, 5, PORTIONED] {
            let tables = tables(levels);
            // Every vector, ascending by (distance, id): the oracle filters
            // and cuts this list itself.
            let all = naive(&tables, &codes, n).neighbors;
            let tied = all
                .windows(2)
                .find(|w| w[0].dist == w[1].dist)
                .map(|w| w[0].dist);
            assert!(tied.is_some() || levels != 5, "integer tables tie");
            let below_every_distance = just_below(tables.sum_of_mins());
            for topk in [1, 10, 100, 1000, n + 5] {
                let kth = all[topk.min(n) - 1].dist;
                let bounds = [Some(f32::INFINITY), Some(kth), Some(all[n / 2].dist), tied]
                    .into_iter()
                    .flatten()
                    .chain([below_every_distance, 0.0]);
                for bound in bounds {
                    let want: Vec<(u32, u64)> = all
                        .iter()
                        .filter(|nb| nb.dist <= bound)
                        .take(topk)
                        .map(|nb| (nb.dist.to_bits(), nb.id))
                        .collect();
                    let params = ScanParams::new(topk).with_bound(bound);
                    // Every backend: the oracles once, Fast Scan on each index.
                    let runs = Backend::ALL.into_iter().flat_map(|backend| match backend {
                        Backend::Naive => {
                            vec![(backend, "naive", Ok(scan_naive(&tables, &codes, &params)))]
                        }
                        Backend::Libpq => {
                            vec![(backend, "libpq", Ok(scan_libpq(&tables, &codes, &params)))]
                        }
                        Backend::FastScan => fastscans
                            .iter()
                            .map(|(name, index)| {
                                (backend, name.as_str(), index.scan(&tables, &params))
                            })
                            .collect(),
                    });
                    for (backend, name, got) in runs {
                        let case =
                            format!("n={n} levels={levels} topk={topk} bound={bound} {name}");
                        let got = match got {
                            Ok(got) => got,
                            // The CPU lacks this kernel: nothing to check.
                            Err(ScanError::KernelUnavailable { .. }) => continue,
                            Err(e) => panic!("{case}: {e}"),
                        };
                        let have: Vec<(u32, u64)> = got
                            .neighbors
                            .iter()
                            .map(|nb| (nb.dist.to_bits(), nb.id))
                            .collect();
                        assert_eq!(have, want, "{case}");
                        let s = got.stats;
                        assert_eq!(s.scanned, n as u64, "{case}");
                        if backend == Backend::FastScan {
                            assert_eq!(s.warmup + s.pruned + s.verified, s.scanned, "{case}");
                            assert!(s.skipped <= s.pruned, "{case}");
                            assert!(s.accepted <= s.warmup + s.verified, "{case}");
                        }
                        if backend == Backend::FastScan && bound == below_every_distance {
                            // Answered from the bound alone.
                            assert_eq!(
                                (s.pruned, s.verified, s.warmup),
                                (n as u64, 0, 0),
                                "{case}"
                            );
                            bounded_out += 1;
                        }
                        scans += 1;
                    }
                }
            }
        }
    }
    // The two other backends and the portable kernel at every grouping count.
    assert!(scans >= 3 * 3 * 5 * 5 * (2 + 5));
    assert!(bounded_out >= 3 * 3 * 5 * 5);
}

/// The high nibbles of a code's first two components, and how many codes
/// carry them.
type KeyedGroup = ((u8, u8), usize);

/// Codes with the given high nibbles on their first two components, `len`
/// of each, everything else random.
fn keyed_codes(groups: &[KeyedGroup]) -> RowMajorCodes {
    let mut rng = StdRng::seed_from_u64(3);
    let mut bytes = Vec::new();
    for &((k0, k1), len) in groups {
        for _ in 0..len {
            let mut code: [u8; M] = std::array::from_fn(|_| rng.gen_range(0..=0xFFu8));
            code[0] = k0 << 4 | code[0] & 0x0F;
            code[1] = k1 << 4 | code[1] & 0x0F;
            bytes.extend(code);
        }
    }
    RowMajorCodes::new(bytes, M)
}

/// The warm-up scans the nearest runs of groups until they hold the goal
/// (docs/FASTSCAN.md §2): the nearest keys may name no group, and the nearest
/// groups may hold fewer than `topk` vectors.
#[test]
fn warm_up_groups_may_be_absent_or_small() {
    // Portion minima ascend with the portion index in every table, so the
    // nearest portions are 0, 1, 2, …
    let mut rng = StdRng::seed_from_u64(99);
    let data = (0..M * KSUB)
        .map(|i| (i % KSUB / 16 * 1_000) as f32 + rng.gen_range(0.0f32..900.0))
        .collect();
    let tables = DistanceTables::from_raw(data, M, KSUB);
    // n = 5 000 grouped on 2 components (a run is one group), topk 100:
    // the goal is max(⌈0.005 · n⌉, 100) = 100 vectors.
    let cases: [(&str, &[KeyedGroup], usize, u64); 3] = [
        // (0,1), (0,2), (1,2), (2,*) are absent; the three nearest present
        // hold 150, the first two 90.
        (
            "absent",
            &[((0, 0), 40), ((1, 0), 50), ((1, 1), 60), ((7, 7), 4_850)],
            100,
            150,
        ),
        // The nearest group holds 3 vectors: the warm-up reaches (5,5).
        (
            "small",
            &[((0, 0), 3), ((5, 5), 200), ((9, 9), 4_797)],
            100,
            203,
        ),
        // No head of the run order holds topk vectors: all of them.
        ("topk > n", &[((0, 0), 3), ((9, 9), 4_997)], 5_005, 5_000),
    ];
    for (name, groups, topk, warmup) in cases {
        let codes = keyed_codes(groups);
        let want = naive(&tables, &codes, topk);
        for kernel in KERNELS {
            let got = match fastscan(&codes, 2, kernel).scan(&tables, &ScanParams::new(topk)) {
                Ok(got) => got,
                Err(ScanError::KernelUnavailable { .. }) => continue,
                Err(e) => panic!("{name} {kernel:?}: {e}"),
            };
            assert_eq!(got.neighbors, want.neighbors, "{name} {kernel:?}");
            let s = got.stats;
            assert_eq!(s.warmup, warmup, "{name} {kernel:?}");
            assert_eq!(s.warmup + s.pruned + s.verified, 5_000, "{name} {kernel:?}");
        }
    }
}
