//! Figure 16 — impact of the `keep` parameter on pruning power and scan
//! speed, for topk = 100 and topk = 1000 (all partitions).
//!
//! `keep` controls how much of the database is scanned with plain PQ Scan
//! to find the temporary nearest neighbor that sets the `qmax` quantization
//! bound (§4.4): more warm-up ⇒ tighter bound ⇒ more pruning, until the
//! warm-up itself dominates and speed collapses.
//!
//! ```sh
//! cargo run --release -p pqfs-bench --bin fig16
//! ```

#![forbid(unsafe_code)]

use pqfs_bench::{env_usize, header, scaled_partition_sizes, Fixture};
use pqfs_metrics::{fmt_f, mvecs_per_sec, time_ms, Summary, TextTable};
use pqfs_scan::{Backend, PreparedScanner, ScanOpts, ScanParams};
use std::sync::Arc;

fn main() {
    let sizes = scaled_partition_sizes();
    let queries_per_partition = env_usize("PQFS_QUERIES", 3);
    header(
        "fig16",
        "Figure 16, §5.4",
        &format!("partitions {sizes:?}, {queries_per_partition} queries each"),
    );

    let mut fx = Fixture::train(16);
    let opts = ScanOpts::default();
    let prepare = |backend: Backend, codes: &Arc<pqfs_core::RowMajorCodes>| {
        backend
            .scanner(&opts)
            .prepare(Arc::clone(codes))
            .expect("prepare")
    };
    let partitions: Vec<Arc<pqfs_core::RowMajorCodes>> =
        sizes.iter().map(|&n| Arc::new(fx.partition(n))).collect();
    let indexes: Vec<Box<dyn PreparedScanner>> = partitions
        .iter()
        .map(|codes| prepare(Backend::FastScan, codes))
        .collect();
    let libpqs: Vec<Box<dyn PreparedScanner>> = partitions
        .iter()
        .map(|codes| prepare(Backend::Libpq, codes))
        .collect();

    let keeps = [0.0001, 0.001, 0.005, 0.01, 0.05, 0.1];
    let mut t = TextTable::new(vec![
        "topk",
        "keep [%]",
        "pruned [%]",
        "speed med [Mv/s]",
        "speed q1",
        "speed q3",
        "libpq [Mv/s]",
    ]);

    for topk in [100usize, 1000] {
        // libpq reference speed (keep-independent).
        let mut libpq_speeds = Vec::new();
        for (codes, libpq) in partitions.iter().zip(&libpqs) {
            let q = fx.queries(1);
            let tables = fx.tables(&q);
            let (_, ms) = time_ms(|| libpq.scan(&tables, &ScanParams::new(topk)).unwrap());
            libpq_speeds.push(mvecs_per_sec(codes.len(), ms));
        }
        let libpq_med = Summary::from_values(&libpq_speeds).median();

        for keep in keeps {
            let params = ScanParams::new(topk).with_keep(keep);
            let mut pruned = Vec::new();
            let mut speeds = Vec::new();
            for (codes, index) in partitions.iter().zip(&indexes) {
                for _ in 0..queries_per_partition {
                    let q = fx.queries(1);
                    let tables = fx.tables(&q);
                    let (r, ms) = time_ms(|| index.scan(&tables, &params).unwrap());
                    pruned.push(100.0 * r.stats.pruned_fraction());
                    speeds.push(mvecs_per_sec(codes.len(), ms));
                }
            }
            let p = Summary::from_values(&pruned);
            let s = Summary::from_values(&speeds);
            t.row(vec![
                topk.to_string(),
                fmt_f(keep * 100.0, 2),
                fmt_f(p.median(), 2),
                fmt_f(s.median(), 0),
                fmt_f(s.percentile(25.0), 0),
                fmt_f(s.percentile(75.0), 0),
                fmt_f(libpq_med, 0),
            ]);
        }
    }
    println!("{t}");
    println!(
        "paper shape: pruning power rises moderately with keep (94-99.7 % for \
         topk=100, lower for topk=1000); speed is flat in keep between 0.1 % \
         and 1 % and collapses at high keep where the PQ-Scan warm-up dominates."
    );
}
