//! Figure 3 — scan times and per-vector operation counts for the four PQ
//! Scan implementations (naive, libpq, avx, gather).
//!
//! Wall-clock times are measured; the L1-load / instruction / µop columns
//! come from the exact operation-count model (`pqfs-metrics::counters`,
//! the hardware-counter substitute documented in DESIGN.md §2).
//!
//! ```sh
//! cargo run --release -p pqfs-bench --bin fig3
//! ```

#![forbid(unsafe_code)]

use pqfs_bench::baselines::{scan_avx, scan_gather, TransposedCodes};
use pqfs_bench::{env_usize, header, scale, Fixture, DIM};
use pqfs_metrics::{fmt_f, measure_ms, mvecs_per_sec, pqscan_ops, PqScanImpl, Summary, TextTable};
use pqfs_scan::{scan_libpq, scan_naive, ScanParams};

fn main() {
    let n = (1_000_000.0 * scale()) as usize;
    let n_queries = env_usize("PQFS_QUERIES", 8);
    let topk = 100;
    header(
        "fig3",
        "Figure 3, §3",
        &format!("partition {n}, topk {topk}, {n_queries} queries"),
    );

    let mut fx = Fixture::train(3);
    let codes = fx.partition(n);
    let transposed = TransposedCodes::from_row_major(&codes);
    let queries = fx.queries(n_queries);
    let params = ScanParams::new(topk);

    let mut t = TextTable::new(vec![
        "impl",
        "scan time [ms]",
        "M vecs/s",
        "L1 loads/vec",
        "instr/vec",
        "uops/vec",
    ]);

    // The four PQ Scan baselines over their native layouts (the transposed
    // copy is built once), paired with the operation-count model's view of
    // the same implementation.
    for (name, imp) in [
        ("naive", PqScanImpl::Naive),
        ("libpq", PqScanImpl::Libpq),
        ("avx", PqScanImpl::Avx),
        ("gather", PqScanImpl::Gather),
    ] {
        let mut times = Vec::new();
        for q in queries.chunks_exact(DIM) {
            let tables = fx.tables(q);
            let reps = measure_ms(3, || match imp {
                PqScanImpl::Naive => scan_naive(&tables, &codes, &params),
                PqScanImpl::Libpq => scan_libpq(&tables, &codes, &params),
                PqScanImpl::Avx => scan_avx(&tables, &transposed, topk),
                PqScanImpl::Gather => scan_gather(&tables, &transposed, topk),
            });
            times.push(Summary::from_values(&reps).median());
        }
        let median = Summary::from_values(&times).median();
        let ops = pqscan_ops(imp, 8);
        t.row(vec![
            name.to_string(),
            fmt_f(median, 2),
            fmt_f(mvecs_per_sec(n, median), 0),
            fmt_f(ops.l1_loads, 1),
            fmt_f(ops.instructions, 1),
            fmt_f(ops.uops, 1),
        ]);
    }
    println!("{t}");
    println!(
        "paper shape (25 M vectors, Haswell laptop): all four implementations \
         are within ~2x of each other; libpq is not faster than naive despite \
         fewer loads; gather is the slowest despite the fewest instructions \
         (34 uops per gather). Expected ordering here: gather slowest, \
         naive/libpq/avx close together."
    );
}
