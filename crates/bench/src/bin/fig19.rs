//! Figure 19 — impact of partition size on pruning power and scan speed
//! (keep = 0.5 %, topk = 100).
//!
//! Pruning power is size-independent, but small partitions spend a growing
//! share of time loading small tables at group boundaries: speed collapses
//! once groups shrink too far. The paper put that point at ~50 vectors a
//! group (§4.2's `n_min(c) = 50·16^c`); the kernels here cross over at ~128
//! (docs/FASTSCAN.md §10). The second table scans every size on the auto
//! grouping and on one component fewer and one more, and marks the fastest.
//!
//! ```sh
//! cargo run --release -p pqfs_bench --bin fig19
//! ```

#![forbid(unsafe_code)]

use pqfs_bench::components::{crossover, COLUMNS};
use pqfs_bench::{env_usize, header, scaled_partition_sizes, Fixture, DIM};
use pqfs_bench::{fmt_count, fmt_f, mvecs_per_sec, time_ms, Summary, TextTable};
use pqfs_core::RowMajorCodes;
use pqfs_scan::{scan_libpq, FastScanIndex, Kernel, ScanOpts, ScanParams};

/// Rounds of the second table (docs/FASTSCAN.md §10's method).
const ROUNDS: usize = 3;

fn measure(
    fx: &mut Fixture,
    codes: &RowMajorCodes,
    index: &FastScanIndex,
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
        let (_, ms) = time_ms(|| scan_libpq(&tables, codes, &params));
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
    let queries = env_usize("PQFS_QUERIES", 25);
    header(
        "fig19",
        "Figure 19, §5.6",
        &format!("partitions ordered by size {sizes:?}, keep 0.5%, topk 100"),
    );

    let mut fx = Fixture::train(19);

    println!("partition scan (auto grouping):");
    let mut t = TextTable::new(vec![
        "# vectors",
        "c",
        "avg group",
        "pruned [%]",
        "fastpq [Mv/s]",
        "libpq [Mv/s]",
    ]);
    let mut stored: Vec<(usize, RowMajorCodes)> = Vec::new();
    for &n in &sizes {
        let codes = fx.partition(n);
        let index = FastScanIndex::build(&codes, &ScanOpts::default()).expect("index");
        let (pruned, fast, slow) = measure(&mut fx, &codes, &index, queries);
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

    // The §5.6 point, re-measured: the auto grouping against c ± 1.
    println!("every size on auto c and c ± 1 (Kernel::Auto, topk 100, {ROUNDS} rounds):");
    let mut t2 = TextTable::new([&["# vectors"][..], &COLUMNS].concat());
    let rows = fx.queries(queries);
    let tables: Vec<_> = rows.chunks_exact(DIM).map(|q| fx.tables(q)).collect();
    let params = ScanParams::new(100).with_keep(0.005);
    stored.dedup_by_key(|(n, _)| *n);
    for (n, codes) in stored.iter().rev() {
        let prefix = [fmt_count(*n as u64)];
        crossover(
            &mut t2,
            &prefix,
            codes,
            Kernel::Auto,
            &tables,
            &params,
            ROUNDS,
        );
    }
    println!("{t2}");
    println!(
        "paper shape: speed is flat for the large partitions and drops for the \
         smallest ones as groups shrink; the paper's threshold was ~50 vectors a \
         group. Measured here: the fastest layout keeps groups of at least ~128 \
         vectors, the rule auto c follows (docs/FASTSCAN.md §10)."
    );
}
