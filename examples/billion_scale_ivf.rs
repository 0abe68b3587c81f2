//! Scaled-down reproduction of the paper's large-scale experiment (§5.7):
//! a 128-partition IVFADC index queried through the coarse index, comparing
//! PQ Scan and PQ Fast Scan response times and memory use.
//!
//! The paper runs 1 billion vectors (ANN_SIFT1B) on a 16 GB workstation;
//! this example defaults to 400 000 vectors so it runs anywhere, and scales
//! with `SCALE`:
//!
//! ```sh
//! cargo run --release --example billion_scale_ivf          # 400k vectors
//! SCALE=4000000 cargo run --release --example billion_scale_ivf
//! ```

use pq_fast_scan::metrics::{fmt_count, time_ms, Summary};
use pq_fast_scan::prelude::*;
use std::sync::Arc;

fn main() {
    let dim = 128;
    let n_base: usize = std::env::var("SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(400_000);
    let n_queries = 40;
    let partitions = 128; // the paper's SIFT1B index shape

    println!("== large-scale IVFADC (paper §5.7, scaled) ==");
    println!(
        "base: {} vectors, {} partitions",
        fmt_count(n_base as u64),
        partitions
    );

    let mut dataset = SyntheticDataset::new(
        &SyntheticConfig::sift_like()
            .with_clusters(1024)
            .with_seed(31),
    );
    let train = dataset.sample(20_000);
    let base = dataset.sample(n_base);
    let queries = dataset.sample(n_queries);

    let config = IvfadcConfig::new(dim, partitions).with_seed(9);
    let (index, build_ms) = time_ms(|| IvfadcIndex::build(&train, &base, &config).expect("build"));
    let sizes = index.partition_sizes();
    println!(
        "built in {:.1} s; partition sizes: min {} / avg {} / max {}",
        build_ms / 1e3,
        sizes.iter().min().unwrap(),
        sizes.iter().sum::<usize>() / sizes.len(),
        sizes.iter().max().unwrap()
    );

    // Memory use (the Figure 20 memory plot): grouped+packed codes vs
    // row-major codes (which the index does not keep: 8 bytes per vector).
    let row = 8 * index.len();
    let packed = index.code_memory_bytes(SearchBackend::FastScan);
    println!("\ncode memory:");
    println!(
        "  PQ Scan (row-major)   {:>12} bytes",
        fmt_count(row as u64)
    );
    println!(
        "  Fast Scan (grouped)   {:>12} bytes  ({:+.1} %)",
        fmt_count(packed as u64),
        100.0 * (packed as f64 - row as f64) / row as f64
    );

    // Mean response time over the query set (keep=1%, topk=100: the §5.7
    // parameters); `answer` returns the number of vectors it scanned.
    let run = |answer: &dyn Fn(&[f32]) -> u64| -> (Summary, f64) {
        let mut times = Vec::new();
        let mut scanned = 0u64;
        for q in queries.chunks_exact(dim) {
            let (n, ms) = time_ms(|| answer(q));
            scanned += n;
            times.push(ms);
        }
        (
            Summary::from_values(&times),
            scanned as f64 / times.len() as f64,
        )
    };

    // PQ Scan reads row-major codes: the baseline prepares its own from the
    // index's rows, outside the timed region, and runs the same three steps
    // of Algorithm 1 over them.
    let pq_scan: Vec<_> = (0..index.num_partitions())
        .map(|p| {
            Backend::Naive
                .scanner(index.scan_opts())
                .prepare(Arc::new(index.partition_rows(p).1))
                .expect("prepare")
        })
        .collect();
    let (slow, avg_scanned) = run(&|q| {
        let p = index.select_partition(q);
        let mut residual = vec![0f32; dim];
        index.coarse().residual_into(q, p, &mut residual);
        let tables = DistanceTables::compute(index.pq(), &residual).expect("tables");
        let result = pq_scan[p].scan(&tables, &ScanParams::new(100));
        result.expect("scan").stats.scanned
    });
    let (fast, _) = run(&|q| {
        let outcome = index.search_probes(q, 100, SearchBackend::FastScan, 0.01, 1);
        outcome.expect("search").stats.scanned
    });
    println!(
        "\nmean response time (avg partition scanned: {:.0} vectors):",
        avg_scanned
    );
    println!("  PQ Scan   {:.2} ms", slow.mean());
    println!("  Fast Scan {:.2} ms", fast.mean());
    println!("  speedup   {:.1}x", slow.mean() / fast.mean());
    println!(
        "\n(the paper reports ~58 ms vs ~12 ms on 8 M-vector partitions of \
         SIFT1B — larger SCALE gets closer to that regime)"
    );
}
