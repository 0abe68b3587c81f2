//! Deterministic edge-case regression tests for PQ Fast Scan — the
//! boundary shapes a fuzzer finds occasionally but a regression suite
//! should pin down permanently.

use pqfs_core::{DistanceTables, RowMajorCodes};
use pqfs_scan::{scan_naive, FastScanIndex, Kernel, ScanOpts, ScanParams};

const M: usize = 8;
const KSUB: usize = 256;

fn tables(seed: u32) -> DistanceTables {
    let data: Vec<f32> = (0..M * KSUB)
        .map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 100_000) as f32 / 10.0)
        .collect();
    DistanceTables::from_raw(data, M, KSUB)
}

fn codes(n: usize, seed: u32) -> RowMajorCodes {
    let bytes: Vec<u8> = (0..n * M)
        .map(|i| ((i as u32).wrapping_mul(40503).wrapping_add(seed) >> 8) as u8)
        .collect();
    RowMajorCodes::new(bytes, M)
}

fn assert_exact(codes: &RowMajorCodes, topk: usize, keep: f64, c: usize, tag: &str) {
    let tables = tables(7);
    let opts = ScanOpts::default().with_group_components(c);
    let index = FastScanIndex::build(codes, &opts).unwrap();
    let fast = index
        .scan(&tables, &ScanParams::new(topk).with_keep(keep))
        .unwrap();
    let slow = scan_naive(&tables, codes, &ScanParams::new(topk));
    assert_eq!(fast.ids(), slow.ids(), "{tag}: ids");
    assert_eq!(fast.distances(), slow.distances(), "{tag}: distances");
    assert_eq!(
        fast.stats.warmup + fast.stats.pruned + fast.stats.verified,
        fast.stats.scanned,
        "{tag}: accounting"
    );
}

#[test]
fn single_vector_partition() {
    assert_exact(&codes(1, 1), 1, 0.005, 4, "n=1");
    assert_exact(&codes(1, 1), 10, 0.5, 0, "n=1 topk>n");
}

#[test]
fn partition_smaller_than_one_block() {
    for n in 2..16 {
        assert_exact(&codes(n, 3), 3.min(n), 0.01, 4, &format!("n={n}"));
    }
}

#[test]
fn partition_sizes_around_block_boundaries() {
    for n in [15usize, 16, 17, 31, 32, 33, 255, 256, 257] {
        assert_exact(&codes(n, 9), 5, 0.005, 2, &format!("n={n}"));
    }
}

#[test]
fn topk_equals_partition_size() {
    let c = codes(200, 11);
    assert_exact(&c, 200, 0.005, 3, "topk==n");
    assert_exact(&c, 500, 0.005, 3, "topk>n");
}

#[test]
fn keep_extremes() {
    let c = codes(300, 13);
    assert_exact(&c, 10, 0.0, 4, "keep=0");
    assert_exact(&c, 10, 1.0, 4, "keep=1");
    assert_exact(&c, 10, 2.0, 4, "keep>1 clamps");
    assert_exact(&c, 10, -0.5, 4, "keep<0 clamps");
}

#[test]
fn all_identical_codes() {
    // Every vector encodes to the same code: massive ties, single group.
    let bytes = vec![0xABu8; 64 * M];
    let c = RowMajorCodes::new(bytes, M);
    assert_exact(&c, 7, 0.01, 4, "identical codes");
}

#[test]
fn two_distance_levels_with_ties_across_groups() {
    // Half the vectors share code A, half code B, alternating, so ties
    // straddle group boundaries and the id tie-break is exercised.
    let mut bytes = Vec::with_capacity(128 * M);
    for i in 0..128 {
        let c = if i % 2 == 0 { 0x11u8 } else { 0xEE };
        bytes.extend(std::iter::repeat_n(c, M));
    }
    let c = RowMajorCodes::new(bytes, M);
    assert_exact(&c, 70, 0.01, 4, "two-level ties");
}

#[test]
fn every_kernel_handles_the_empty_partition() {
    let empty = RowMajorCodes::new(vec![], M);
    for kernel in [Kernel::Auto, Kernel::Portable] {
        let index = FastScanIndex::build(&empty, &ScanOpts::default().with_kernel(kernel)).unwrap();
        let r = index.scan(&tables(1), &ScanParams::new(5)).unwrap();
        assert!(r.neighbors.is_empty());
        assert_eq!(r.stats.scanned, 0);
    }
}

#[test]
fn zero_distance_tables() {
    // All distances zero: every vector ties at 0; exactness must hold and
    // nothing may be pruned incorrectly.
    let tables = DistanceTables::from_raw(vec![0.0; M * KSUB], M, KSUB);
    let c = codes(100, 17);
    let index = FastScanIndex::build(&c, &ScanOpts::default()).unwrap();
    let fast = index.scan(&tables, &ScanParams::new(10)).unwrap();
    let slow = scan_naive(&tables, &c, &ScanParams::new(10));
    assert_eq!(fast.ids(), slow.ids());
    assert_eq!(
        fast.ids(),
        (0..10).collect::<Vec<u64>>(),
        "ties resolve by id"
    );
}

#[test]
fn huge_distance_range_saturates_safely() {
    // One table entry dwarfs everything else: quantization saturates but
    // results stay exact.
    let mut data = vec![1.0f32; M * KSUB];
    data[0] = 1e30;
    data[KSUB + 5] = 1e-30;
    let tables = DistanceTables::from_raw(data, M, KSUB);
    let c = codes(500, 19);
    let index = FastScanIndex::build(&c, &ScanOpts::default()).unwrap();
    let fast = index
        .scan(&tables, &ScanParams::new(5).with_keep(0.01))
        .unwrap();
    let slow = scan_naive(&tables, &c, &ScanParams::new(5));
    assert_eq!(fast.ids(), slow.ids());
}

#[test]
fn rejects_wrong_shapes() {
    let bad_codes = RowMajorCodes::new(vec![0u8; 12], 4);
    assert!(FastScanIndex::build(&bad_codes, &ScanOpts::default()).is_err());
    let index = FastScanIndex::build(&codes(10, 1), &ScanOpts::default()).unwrap();
    let small_tables = DistanceTables::from_raw(vec![0.0; 8 * 16], 8, 16);
    assert!(index.scan(&small_tables, &ScanParams::new(1)).is_err());
    assert!(
        FastScanIndex::build(&codes(10, 1), &ScanOpts::default().with_group_components(5)).is_err()
    );
}
