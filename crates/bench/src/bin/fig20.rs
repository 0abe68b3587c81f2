//! Figure 20 — the large-scale experiment (scaled ANN_SIFT1B, 128
//! partitions): mean response time, memory use, and scan speed across
//! kernel back-ends (the Table 5 multi-platform substitute, DESIGN.md §2).
//!
//! ```sh
//! cargo run --release -p pqfs-bench --bin fig20
//! SCALE: PQFS_SCALE=4 cargo run --release -p pqfs-bench --bin fig20
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

use pqfs_bench::{env_usize, header, host_description, scale, Fixture, DIM};
use pqfs_core::DistanceTables;
use pqfs_data::{SyntheticConfig, SyntheticDataset};
use pqfs_ivf::{IvfadcConfig, IvfadcIndex, SearchBackend};
use pqfs_metrics::{fmt_count, fmt_f, mvecs_per_sec, time_ms, Summary, TextTable};
use pqfs_scan::{Backend, Kernel, ScanOpts, ScanParams};
use std::sync::Arc;

fn main() {
    let n_base = (2_000_000.0 * scale()) as usize;
    let n_queries = env_usize("PQFS_QUERIES", 50);
    header(
        "fig20",
        "Figure 20 / Table 5, §5.7-5.8",
        &format!("base {n_base}, 128 partitions, keep 1%, topk 100, {n_queries} queries"),
    );

    // ---- SIFT1B-style IVFADC (scaled). ---------------------------------
    let mut dataset = SyntheticDataset::new(&SyntheticConfig::sift_like().with_seed(20));
    let train = dataset.sample(20_000);
    let base = dataset.sample(n_base);
    let queries = dataset.sample(n_queries);
    let index = IvfadcIndex::build(&train, &base, &IvfadcConfig::new(DIM, 128).with_seed(11))
        .expect("build");

    let time_queries = |answer: &dyn Fn(&[f32])| -> Summary {
        let times: Vec<f64> = queries
            .chunks_exact(DIM)
            .map(|q| time_ms(|| answer(q)).1)
            .collect();
        Summary::from_values(&times)
    };
    // libpq scans row-major codes, which the index does not keep: the
    // baseline prepares its own from the index's rows, outside the timed
    // region, and runs the same three steps of Algorithm 1 over them.
    let libpq: Vec<_> = (0..index.num_partitions())
        .map(|p| {
            Backend::Libpq
                .scanner(index.scan_opts())
                .prepare(Arc::new(index.partition_rows(p).1))
                .expect("prepare")
        })
        .collect();
    let slow = time_queries(&|q| {
        let p = index.select_partition(q);
        let mut residual = vec![0f32; DIM];
        index.coarse().residual_into(q, p, &mut residual);
        let tables = DistanceTables::compute(index.pq(), &residual).expect("tables");
        libpq[p].scan(&tables, &ScanParams::new(100)).expect("scan");
    });
    let fast = time_queries(&|q| {
        index
            .search_probes(q, 100, SearchBackend::FastScan, 0.01, 1)
            .expect("search");
    });

    println!("mean response time (scaled SIFT1B):");
    let mut t = TextTable::new(vec!["backend", "mean [ms]", "median [ms]"]);
    t.row(vec![
        "libpq".to_string(),
        fmt_f(slow.mean(), 2),
        fmt_f(slow.median(), 2),
    ]);
    t.row(vec![
        "fastpq".to_string(),
        fmt_f(fast.mean(), 2),
        fmt_f(fast.median(), 2),
    ]);
    t.row(vec![
        "speedup".to_string(),
        fmt_f(slow.mean() / fast.mean(), 1),
        String::new(),
    ]);
    println!("{t}");

    let row_bytes = 8 * index.len();
    let packed_bytes = index.code_memory_bytes(SearchBackend::FastScan);
    println!("memory use (codes):");
    let mut m = TextTable::new(vec!["layout", "bytes", "GiB-equivalent at 1B vectors"]);
    let gib_at_1b = |bytes: usize| bytes as f64 / n_base as f64 * 1e9 / (1u64 << 30) as f64;
    m.row(vec![
        "libpq (row-major)".to_string(),
        fmt_count(row_bytes as u64),
        fmt_f(gib_at_1b(row_bytes), 2),
    ]);
    m.row(vec![
        "fastpq (grouped)".to_string(),
        fmt_count(packed_bytes as u64),
        fmt_f(gib_at_1b(packed_bytes), 2),
    ]);
    println!("{m}");

    // ---- Scan speed across kernel back-ends (platform substitute). -----
    println!("scan speed by kernel back-end on {} :", host_description());
    let mut fx = Fixture::train(20);
    let codes = Arc::new(fx.partition((1_000_000.0 * scale()) as usize));
    let mut k = TextTable::new(vec!["backend", "speed [M vecs/s]", "vs libpq"]);
    let q = fx.queries(5);
    let params = ScanParams::new(100).with_keep(0.005);

    // libpq reference.
    let libpq = Backend::Libpq
        .scanner(&ScanOpts::default())
        .prepare(Arc::clone(&codes))
        .expect("prepare");
    let mut libpq_speeds = Vec::new();
    for q in q.chunks_exact(DIM) {
        let tables = fx.tables(q);
        let (_, ms) = time_ms(|| libpq.scan(&tables, &params).unwrap());
        libpq_speeds.push(mvecs_per_sec(codes.len(), ms));
    }
    let libpq_speed = Summary::from_values(&libpq_speeds).median();
    k.row(vec![
        "libpq (scalar)".to_string(),
        fmt_f(libpq_speed, 0),
        "1.0x".to_string(),
    ]);

    for (name, kernel) in [
        ("fastpq portable", Kernel::Portable),
        ("fastpq ssse3", Kernel::Ssse3),
        ("fastpq avx2", Kernel::Avx2),
        ("fastpq avx512vbmi", Kernel::Avx512Vbmi),
    ] {
        let opts = ScanOpts::default().with_kernel(kernel);
        let index = match Backend::FastScan.scanner(&opts).prepare(Arc::clone(&codes)) {
            Ok(i) => i,
            Err(_) => continue,
        };
        let mut speeds = Vec::new();
        let mut ok = true;
        for q in q.chunks_exact(DIM) {
            let tables = fx.tables(q);
            match time_ms(|| index.scan(&tables, &params)) {
                (Ok(_), ms) => speeds.push(mvecs_per_sec(codes.len(), ms)),
                (Err(_), _) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok && !speeds.is_empty() {
            let s = Summary::from_values(&speeds).median();
            k.row(vec![
                name.to_string(),
                fmt_f(s, 0),
                format!("{:.1}x", s / libpq_speed),
            ]);
        } else {
            k.row(vec![
                name.to_string(),
                "unavailable".to_string(),
                String::new(),
            ]);
        }
    }
    println!("{k}");
    println!(
        "paper shape: fastpq mean response ~12 ms vs ~58 ms for libpq on SIFT1B \
         (4-6x), memory 8 GiB -> 6 GiB thanks to grouping, and the 4-6x ratio \
         holds across four CPU generations (Table 5) — here across back-ends."
    );
}
