//! Figure 15 — CPU resource usage of PQ Fast Scan vs the libpq PQ Scan:
//! per-vector L1 loads, instructions and µops (operation-count model fed by
//! the *measured* pruning statistics), plus measured per-vector time.
//!
//! ```sh
//! cargo run --release -p pqfs_bench --bin fig15
//! ```

#![forbid(unsafe_code)]

use pqfs_bench::{env_usize, header, scale, Fixture, DIM};
use pqfs_bench::{
    fastscan_ops, fmt_f, measure_ms, pqscan_ops, FastScanProfile, PqScanImpl, Summary, TextTable,
};
use pqfs_scan::{scan_libpq, FastScanIndex, ScanOpts, ScanParams};

fn main() {
    let n = (1_000_000.0 * scale()) as usize;
    let n_queries = env_usize("PQFS_QUERIES", 10);
    header(
        "fig15",
        "Figure 15, §5.3",
        &format!("partition {n}, keep 0.5%, topk 100, {n_queries} queries"),
    );

    let mut fx = Fixture::train(15);
    let codes = fx.partition(n);
    // The operation-count model also reads the index's grouping.
    let index = FastScanIndex::build(&codes, &ScanOpts::default()).expect("index");
    let queries = fx.queries(n_queries);
    let params = ScanParams::new(100).with_keep(0.005);

    let mut fast_times = Vec::new();
    let mut slow_times = Vec::new();
    let mut verified_fraction = 0.0;
    for q in queries.chunks_exact(DIM) {
        let tables = fx.tables(q);
        let f = measure_ms(3, || index.scan(&tables, &params).unwrap());
        fast_times.push(Summary::from_values(&f).median());
        let s = measure_ms(3, || scan_libpq(&tables, &codes, &params));
        slow_times.push(Summary::from_values(&s).median());
        let stats = index.scan(&tables, &params).unwrap().stats;
        let fastpath = (stats.scanned - stats.warmup).max(1);
        verified_fraction += stats.verified as f64 / fastpath as f64;
    }
    verified_fraction /= n_queries as f64;

    let libpq_ops = pqscan_ops(PqScanImpl::Libpq, 8);
    let fast_ops = fastscan_ops(&FastScanProfile {
        group_components: index.group_components(),
        verified_fraction,
        groups_per_vector: index.num_groups() as f64 / n as f64,
    });

    let fast_ms = Summary::from_values(&fast_times).median();
    let slow_ms = Summary::from_values(&slow_times).median();
    let ns_per_vec = |ms: f64| ms * 1e6 / n as f64;

    let mut t = TextTable::new(vec!["counter (per vector)", "libpq", "fastpq", "ratio"]);
    let mut row = |name: &str, a: f64, b: f64| {
        t.row(vec![
            name.to_string(),
            fmt_f(a, 2),
            fmt_f(b, 2),
            fmt_f(a / b, 1),
        ]);
    };
    row("L1 loads", libpq_ops.l1_loads, fast_ops.l1_loads);
    row(
        "instructions",
        libpq_ops.instructions,
        fast_ops.instructions,
    );
    row("uops", libpq_ops.uops, fast_ops.uops);
    row(
        "time [ns] (measured)",
        ns_per_vec(slow_ms),
        ns_per_vec(fast_ms),
    );
    println!("{t}");

    println!(
        "measured verified fraction: {:.2}% (pruning power {:.2}%)",
        100.0 * verified_fraction,
        100.0 * (1.0 - verified_fraction)
    );
    println!(
        "\npaper: libpq 9 L1 loads & 34 instructions & 11 cycles per vector; \
         fastpq 1.3 L1 loads & 3.7 instructions & 1.9 cycles — an ~85-89 % \
         reduction. Expected shape here: the same order-of-magnitude ratios."
    );
}
