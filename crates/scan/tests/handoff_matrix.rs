//! Exactness matrix for the per-block hand-off (docs/FASTSCAN.md): for
//! every grouping count, kernel, partition shape, `topk` and `keep`, Fast
//! Scan returns the ids **and** the `f32` distances of `Backend::Naive`, bit
//! for bit, and its counters account for every vector.

use pqfs_core::{DistanceTables, RowMajorCodes};
use pqfs_scan::{Backend, Kernel, ScanError, ScanOpts, ScanParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const M: usize = 8;
const KSUB: usize = 256;

/// `n` codes whose grouped components take two high nibbles only, so even
/// `c = 4` forms groups of many blocks (odd block counts, ragged tails) and
/// not one group per vector.
fn codes(n: usize) -> Arc<RowMajorCodes> {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let bytes = (0..n * M)
        .map(|i| rng.gen_range(0..=if i % M < 4 { 0x1Fu8 } else { 0xFF }))
        .collect();
    Arc::new(RowMajorCodes::new(bytes, M))
}

/// Distance tables: `levels == 0` draws floats whose sums round differently
/// in a different addition order; otherwise entries are one of `levels`
/// integers, so distances tie all the time and ids decide the result.
fn tables(levels: u32) -> DistanceTables {
    let mut rng = StdRng::seed_from_u64(7 + levels as u64);
    let data = (0..M * KSUB)
        .map(|_| match levels {
            0 => rng.gen_range(0.1f32..16_000.0),
            _ => rng.gen_range(0..levels) as f32,
        })
        .collect();
    DistanceTables::from_raw(data, M, KSUB)
}

#[test]
fn every_handoff_path_equals_naive() {
    let naive = Backend::Naive.scanner(&ScanOpts::default());
    let mut scans = 0usize;
    for n in [1usize, 15, 16, 17, 31, 33, 5_000] {
        let codes = codes(n);
        for levels in [0u32, 5] {
            let tables = tables(levels);
            for topk in [1, 100, 1000, n + 5] {
                let want = naive.scan(&tables, &codes, topk).unwrap();
                for c in 0..=4usize {
                    for kernel in [Kernel::Portable, Kernel::Ssse3, Kernel::Avx2] {
                        let opts = ScanOpts::default()
                            .with_group_components(c)
                            .with_kernel(kernel);
                        let prepared = Backend::FastScan
                            .scanner(&opts)
                            .prepare(Arc::clone(&codes))
                            .unwrap();
                        for keep in [0.0, 0.005, 1.0] {
                            let case = format!(
                                "n={n} levels={levels} topk={topk} c={c} {kernel:?} keep={keep}"
                            );
                            let params = ScanParams::new(topk).with_keep(keep);
                            let got = match prepared.scan(&tables, &params) {
                                Ok(got) => got,
                                // The CPU lacks this kernel: nothing to check.
                                Err(ScanError::KernelUnavailable { .. }) => continue,
                                Err(e) => panic!("{case}: {e}"),
                            };
                            assert_eq!(got.ids(), want.ids(), "{case}");
                            let bits = |d: Vec<f32>| -> Vec<u32> {
                                d.into_iter().map(f32::to_bits).collect()
                            };
                            assert_eq!(bits(got.distances()), bits(want.distances()), "{case}");
                            let s = got.stats;
                            assert_eq!(s.scanned, n as u64, "{case}");
                            assert_eq!(s.warmup + s.pruned + s.verified, s.scanned, "{case}");
                            scans += 1;
                        }
                    }
                }
            }
        }
    }
    // The portable kernel alone is a third of the matrix.
    assert!(scans >= 7 * 2 * 4 * 5 * 3);
}
