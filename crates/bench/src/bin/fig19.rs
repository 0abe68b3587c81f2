//! Figure 19 — impact of partition size on pruning power and scan speed
//! (keep = 0.5 %, topk = 100).
//!
//! Pruning power is size-independent, but small partitions spend a growing
//! share of time loading small tables at group boundaries: speed collapses
//! once groups shrink below ~50 vectors (§4.2's `n_min(c) = 50·16^c` rule).
//! Below ~3 M vectors (scaled here) the right fix is grouping on 3
//! components instead of 4 — shown in the second table.
//!
//! ```sh
//! cargo run --release -p pqfs-bench --bin fig19
//! ```

#![forbid(unsafe_code)]

use pqfs_bench::{env_usize, header, scaled_partition_sizes, Fixture};
use pqfs_bench::{fmt_count, fmt_f, mvecs_per_sec, time_ms, Summary, TextTable};
use pqfs_core::RowMajorCodes;
use pqfs_scan::{Backend, FastScanIndex, PreparedScanner, ScanOpts, ScanParams};
use std::sync::Arc;

fn libpq_scanner(codes: &Arc<RowMajorCodes>) -> Box<dyn PreparedScanner> {
    Backend::Libpq
        .scanner(&ScanOpts::default())
        .prepare(Arc::clone(codes))
        .expect("prepare")
}

fn measure(
    fx: &mut Fixture,
    codes: &RowMajorCodes,
    index: &FastScanIndex,
    libpq: &dyn PreparedScanner,
    queries: usize,
) -> (f64, f64, f64) {
    let params = ScanParams::new(100).with_keep(0.005);
    let mut pruned = Vec::new();
    let mut fast = Vec::new();
    let mut slow = Vec::new();
    for _ in 0..queries {
        let q = fx.queries(1);
        let tables = fx.tables(&q);
        let (r, ms) = time_ms(|| index.scan(&tables, &params).unwrap());
        pruned.push(100.0 * r.stats.pruned_fraction());
        fast.push(mvecs_per_sec(index.len(), ms));
        let (_, ms) = time_ms(|| libpq.scan(&tables, &params).unwrap());
        slow.push(mvecs_per_sec(codes.len(), ms));
    }
    (
        Summary::from_values(&pruned).median(),
        Summary::from_values(&fast).median(),
        Summary::from_values(&slow).median(),
    )
}

fn main() {
    let mut sizes = scaled_partition_sizes();
    sizes.sort_by_key(|&n| std::cmp::Reverse(n));
    let queries = env_usize("PQFS_QUERIES", 3);
    header(
        "fig19",
        "Figure 19, §5.6",
        &format!("partitions ordered by size {sizes:?}, keep 0.5%, topk 100"),
    );

    let mut fx = Fixture::train(19);

    println!("partition scan (auto grouping, paper setting c = 4 at scale):");
    let mut t = TextTable::new(vec![
        "# vectors",
        "c",
        "avg group",
        "pruned [%]",
        "fastpq [Mv/s]",
        "libpq [Mv/s]",
    ]);
    let mut stored: Vec<(usize, Arc<RowMajorCodes>)> = Vec::new();
    for &n in &sizes {
        let codes = Arc::new(fx.partition(n));
        let index = FastScanIndex::build(&codes, &ScanOpts::default()).expect("index");
        let (pruned, fast, slow) = measure(
            &mut fx,
            &codes,
            &index,
            libpq_scanner(&codes).as_ref(),
            queries,
        );
        t.row(vec![
            fmt_count(n as u64),
            index.group_components().to_string(),
            fmt_f(n as f64 / index.num_groups() as f64, 1),
            fmt_f(pruned, 2),
            fmt_f(fast, 0),
            fmt_f(slow, 0),
        ]);
        stored.push((n, codes));
    }
    println!("{t}");

    // The §5.6 point: for the smallest partitions, forcing the at-scale
    // grouping (c = 4 in the paper; the auto choice of our largest
    // partition here) hurts, while one fewer component recovers speed.
    let c_large = FastScanIndex::build(&stored[0].1, &ScanOpts::default())
        .expect("index")
        .group_components();
    let c_small = c_large.saturating_sub(1);
    println!("small partitions: grouping on c={c_large} (at-scale) vs c={c_small}:");
    let mut t2 = TextTable::new(vec![
        "# vectors",
        &format!("c={c_large} [Mv/s]"),
        &format!("c={c_small} [Mv/s]"),
        &format!("avg group at c={c_large}"),
    ]);
    for (n, codes) in stored.iter().rev().take(3) {
        let big = FastScanIndex::build(codes, &ScanOpts::default().with_group_components(c_large))
            .expect("index");
        let small =
            FastScanIndex::build(codes, &ScanOpts::default().with_group_components(c_small))
                .expect("index");
        let libpq = libpq_scanner(codes);
        let (_, fast_big, _) = measure(&mut fx, codes, &big, libpq.as_ref(), queries);
        let (_, fast_small, _) = measure(&mut fx, codes, &small, libpq.as_ref(), queries);
        t2.row(vec![
            fmt_count(*n as u64),
            fmt_f(fast_big, 0),
            fmt_f(fast_small, 0),
            fmt_f(*n as f64 / big.num_groups() as f64, 1),
        ]);
    }
    println!("{t2}");
    println!(
        "paper shape: speed is flat for the large partitions and drops for the \
         smallest ones as groups approach the ~50-vector threshold; grouping \
         on one fewer component restores it."
    );
}
