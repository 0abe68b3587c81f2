//! Figure 18 — impact of the `topk` parameter on pruning power and scan
//! speed (keep = 0.5 %, all partitions).
//!
//! Larger result sets raise the distance to the topk-th neighbor, loosening
//! the pruning threshold: fewer candidates can be discarded and speed
//! decreases.
//!
//! ```sh
//! cargo run --release -p pqfs-bench --bin fig18
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

use pqfs_bench::{env_usize, header, scaled_partition_sizes, Fixture};
use pqfs_core::RowMajorCodes;
use pqfs_metrics::{fmt_f, mvecs_per_sec, time_ms, Summary, TextTable};
use pqfs_scan::{Backend, PreparedScanner, ScanOpts, ScanParams};
use std::sync::Arc;

fn main() {
    let sizes = scaled_partition_sizes();
    let queries_per_partition = env_usize("PQFS_QUERIES", 3);
    header(
        "fig18",
        "Figure 18, §5.4",
        &format!("partitions {sizes:?}, keep 0.5%, {queries_per_partition} queries each"),
    );

    let mut fx = Fixture::train(18);
    let opts = ScanOpts::default();
    let partitions: Vec<Arc<RowMajorCodes>> =
        sizes.iter().map(|&n| Arc::new(fx.partition(n))).collect();
    let prepare = |backend: Backend| -> Vec<Box<dyn PreparedScanner>> {
        partitions
            .iter()
            .map(|codes| {
                backend
                    .scanner(&opts)
                    .prepare(Arc::clone(codes))
                    .expect("prepare")
            })
            .collect()
    };
    let indexes = prepare(Backend::FastScan);
    let libpqs = prepare(Backend::Libpq);

    let mut t = TextTable::new(vec![
        "topk",
        "pruned [%]",
        "fastpq speed [Mv/s]",
        "libpq speed [Mv/s]",
        "speedup",
    ]);

    for topk in [1usize, 10, 100, 500, 1000] {
        let params = ScanParams::new(topk).with_keep(0.005);
        let mut pruned = Vec::new();
        let mut fast_speeds = Vec::new();
        let mut slow_speeds = Vec::new();
        for ((codes, index), libpq) in partitions.iter().zip(&indexes).zip(&libpqs) {
            for _ in 0..queries_per_partition {
                let q = fx.queries(1);
                let tables = fx.tables(&q);
                let (r, ms) = time_ms(|| index.scan(&tables, &params).unwrap());
                pruned.push(100.0 * r.stats.pruned_fraction());
                fast_speeds.push(mvecs_per_sec(codes.len(), ms));
                let (_, ms) = time_ms(|| libpq.scan(&tables, &params).unwrap());
                slow_speeds.push(mvecs_per_sec(codes.len(), ms));
            }
        }
        let f = Summary::from_values(&fast_speeds).median();
        let s = Summary::from_values(&slow_speeds).median();
        t.row(vec![
            topk.to_string(),
            fmt_f(Summary::from_values(&pruned).median(), 2),
            fmt_f(f, 0),
            fmt_f(s, 0),
            fmt_f(f / s, 1),
        ]);
    }
    println!("{t}");
    println!(
        "paper shape: pruning power and speed decrease monotonically with topk \
         (≈99.7 % pruned at topk=1 down to ≈95 % at topk=1000; speed roughly \
         halves from topk=100 to topk=1000); libpq speed is topk-insensitive."
    );
}
