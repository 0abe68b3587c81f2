//! The split scan (docs/FASTSCAN.md §9): on a pool of two or more threads a
//! partition of at least `SPLIT_MIN` vectors scans its fast path as two
//! shards. Its neighbors are the unsplit scan's, bit for bit; its stats are
//! the same on every such pool, and on one thread they are the unsplit
//! scan's.

use pqfs_core::{DistanceTables, Neighbor, RowMajorCodes};
use pqfs_pool::ThreadPool;
use pqfs_scan::{FastScanIndex, Kernel, ScanOpts, ScanParams, ScanResult, ScanScratch, SPLIT_MIN};

const M: usize = 8;
const KSUB: usize = 256;

fn codes(n: usize) -> RowMajorCodes {
    let bytes = (0..n * M)
        .map(|i| ((i as u32).wrapping_mul(40503).wrapping_add(11) >> 8) as u8)
        .collect();
    RowMajorCodes::new(bytes, M)
}

fn tables() -> DistanceTables {
    let data = (0..M * KSUB)
        .map(|i| ((i as u32).wrapping_mul(2654435761) % 100_000) as f32 / 10.0)
        .collect();
    DistanceTables::from_raw(data, M, KSUB)
}

/// Tables of `levels` distinct integer entries: with few levels most
/// distances tie, and the id decides the order.
fn few_level_tables(levels: u32) -> DistanceTables {
    let data = (0..M * KSUB)
        .map(|i| ((i as u32).wrapping_mul(2654435761) >> 7) % levels)
        .map(|level| level as f32)
        .collect();
    DistanceTables::from_raw(data, M, KSUB)
}

fn bits(result: &ScanResult) -> Vec<(u32, u64)> {
    let neighbors = result.neighbors.iter();
    neighbors.map(|n| (n.dist.to_bits(), n.id)).collect()
}

#[test]
fn split_scans_return_the_unsplit_answer_and_pool_independent_stats() {
    let n = SPLIT_MIN + 7_000;
    let (codes, tables) = (codes(n), tables());
    let pools = [1, 2, 8].map(ThreadPool::new);
    let kernels = [Kernel::Portable, Kernel::Avx2, Kernel::Auto];
    let mut split_verified_more = false;
    for c in 2..=4 {
        for kernel in kernels.into_iter().filter(|k| k.resolved().is_ok()) {
            let opts = ScanOpts::default()
                .with_group_components(c)
                .with_kernel(kernel);
            let index = FastScanIndex::build(&codes, &opts).unwrap();
            let mut scratch = ScanScratch::default();
            // A finite bound a few dozen vectors pass.
            let some = index.scan(&tables, &ScanParams::new(40)).unwrap();
            let finite = some.neighbors[39].dist;
            for topk in [1, 10, 100, 1_000, n + 5] {
                for bound in [f32::INFINITY, finite] {
                    let case = format!("c={c} {kernel:?} topk={topk} bound={bound}");
                    let params = ScanParams::new(topk).with_bound(bound);
                    let want = index.scan_with(&tables, &params, &mut scratch).unwrap();
                    let mut split_stats = None;
                    for pool in &pools {
                        let case = format!("{case} threads={}", pool.threads());
                        let got = index.scan_on(&tables, &params, &mut scratch, pool).unwrap();
                        assert_eq!(bits(&got), bits(&want), "{case}");
                        let s = got.stats;
                        assert_eq!(s.warmup + s.pruned + s.verified, s.scanned, "{case}");
                        assert!(s.accepted <= s.warmup + s.verified, "{case}");
                        assert!(s.skipped <= s.pruned, "{case}");
                        if pool.threads() == 1 {
                            assert_eq!(index.shards(pool), 1, "{case}");
                            assert_eq!(s, want.stats, "{case}");
                        } else {
                            assert_eq!(index.shards(pool), 2, "{case}");
                            assert_eq!(*split_stats.get_or_insert(s), s, "{case}");
                            split_verified_more |= s.verified > want.stats.verified;
                        }
                    }
                }
            }
        }
    }
    assert!(
        split_verified_more,
        "no split scan did a shard's extra work"
    );
}

#[test]
fn partitions_below_the_split_minimum_scan_unsplit() {
    let n = SPLIT_MIN - 1;
    let (codes, tables) = (codes(n), tables());
    let index = FastScanIndex::build(&codes, &ScanOpts::default()).unwrap();
    let pool = ThreadPool::new(2);
    assert_eq!(index.shards(&pool), 1);
    let params = ScanParams::new(100);
    let mut scratch = ScanScratch::default();
    let want = index.scan_with(&tables, &params, &mut scratch).unwrap();
    let got = index
        .scan_on(&tables, &params, &mut scratch, &pool)
        .unwrap();
    assert_eq!(bits(&got), bits(&want));
    assert_eq!(got.stats, want.stats);
}

#[test]
fn the_shard_merge_breaks_ties_by_id_and_keeps_one_copy() {
    let n = SPLIT_MIN + 7_000;
    let (codes, tables) = (codes(n), few_level_tables(3));
    let index = FastScanIndex::build(&codes, &ScanOpts::default()).unwrap();
    let pools = [1, 2, 8].map(ThreadPool::new);
    let mut scratch = ScanScratch::default();
    let every = index.scan(&tables, &ScanParams::new(n)).unwrap().neighbors;
    for topk in [100, 1_000, n + 5] {
        let params = ScanParams::new(topk);
        let want = index.scan_with(&tables, &params, &mut scratch).unwrap();
        // The k-th distance ties with vectors left out, so the ids decide
        // which of them are in.
        let last = want.neighbors[want.neighbors.len() - 1].dist;
        let tied = |list: &[Neighbor]| list.iter().filter(|n| n.dist == last).count();
        assert!(
            topk > n || tied(&every) > tied(&want.neighbors),
            "topk={topk}"
        );
        for pool in &pools {
            let case = format!("topk={topk} threads={}", pool.threads());
            let got = index.scan_on(&tables, &params, &mut scratch, pool).unwrap();
            assert_eq!(index.shards(pool), pool.threads().min(2), "{case}");
            assert_eq!(bits(&got), bits(&want), "{case}");
            let mut ids = got.ids();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), got.neighbors.len(), "{case}: an id twice");
            assert_eq!(got.neighbors.len(), topk.min(n), "{case}");
        }
    }
}
