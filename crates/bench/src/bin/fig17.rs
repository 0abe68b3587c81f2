//! Figure 17 — pruning power of the quantization-only variant (§5.5).
//!
//! This variant keeps full 256-entry tables (no grouping, no minimum
//! tables) and only quantizes entries to 8 bits. Its pruning power isolates
//! the loss due to quantization — the paper finds 99.9 %+, i.e. almost all
//! of Fast Scan's pruning loss comes from the minimum tables instead.
//!
//! ```sh
//! cargo run --release -p pqfs_bench --bin fig17
//! ```

#![forbid(unsafe_code)]

use pqfs_bench::baselines::scan_quantize_only;
use pqfs_bench::{env_usize, header, scaled_partition_sizes, Fixture};
use pqfs_bench::{fmt_f, Summary, TextTable};
use pqfs_core::RowMajorCodes;
use pqfs_scan::{FastScanIndex, ScanOpts, ScanParams};

fn main() {
    let sizes = scaled_partition_sizes();
    let queries_per_partition = env_usize("PQFS_QUERIES", 3);
    header(
        "fig17",
        "Figure 17, §5.5",
        &format!("partitions {sizes:?}, {queries_per_partition} queries each"),
    );

    let mut fx = Fixture::train(17);
    let partitions: Vec<RowMajorCodes> = sizes.iter().map(|&n| fx.partition(n)).collect();
    let indexes: Vec<FastScanIndex> = partitions
        .iter()
        .map(|codes| FastScanIndex::build(codes, &ScanOpts::default()).expect("build"))
        .collect();

    let keeps = [0.0001, 0.001, 0.005, 0.01, 0.05, 0.1];
    let mut t = TextTable::new(vec![
        "topk",
        "keep [%]",
        "quant-only pruned [%]",
        "full fastscan pruned [%]",
    ]);

    for topk in [100usize, 1000] {
        for keep in keeps {
            let params = ScanParams::new(topk).with_keep(keep);
            let mut qo = Vec::new();
            let mut full = Vec::new();
            for (codes, index) in partitions.iter().zip(&indexes) {
                for _ in 0..queries_per_partition {
                    let q = fx.queries(1);
                    let tables = fx.tables(&q);
                    let r = scan_quantize_only(&tables, codes, topk, keep);
                    qo.push(100.0 * r.stats.pruned_fraction());
                    let r = index.scan(&tables, &params).unwrap();
                    full.push(100.0 * r.stats.pruned_fraction());
                }
            }
            t.row(vec![
                topk.to_string(),
                fmt_f(keep * 100.0, 2),
                fmt_f(Summary::from_values(&qo).median(), 3),
                fmt_f(Summary::from_values(&full).median(), 3),
            ]);
        }
    }
    println!("{t}");
    println!(
        "paper shape: quantization-only pruning is 99.9-99.97 %, clearly above \
         the full Fast Scan's 98-99.7 % — quantization is nearly lossless and \
         the minimum tables account for most of the pruning-power loss."
    );
}
