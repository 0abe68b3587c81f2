//! The split scan against the unsplit one, by partition size: the measure
//! `SPLIT_MIN` is picked by (docs/FASTSCAN.md §9).
//!
//! For each partition size and topk, the queries are scanned both ways in
//! one process over the same partition, in rounds that run every query one
//! way and then the other, the first way alternating round by round:
//! unsplit (`FastScanIndex::scan_with`) and split in two shards on a
//! 2-thread pool (`FastScanIndex::scan_split`, the split `scan_on` makes
//! from `SPLIT_MIN` vectors up). Back-to-back scans of one way keep the
//! pool's worker as busy as a caller's stream of queries does. A row gives
//! each side's median wall time, the median of the ratios split / unsplit of
//! each query in each round with a bootstrap 95 % interval, and the vectors
//! verified and accepted per scan.
//!
//! ```sh
//! PQFS_QUERIES=400 cargo run --release -p pqfs_bench --bin split_min
//! ```

#![forbid(unsafe_code)]

use pqfs_bench::{env_usize, fmt_f, header, Fixture, Summary, TextTable};
use pqfs_pool::ThreadPool;
use pqfs_scan::{FastScanIndex, ScanOpts, ScanParams, ScanScratch, ScanStats, SPLIT_MIN};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Instant;

const SIZES: [usize; 5] = [8_192, 16_384, 32_768, 65_536, 250_000];
const TOPKS: [usize; 3] = [10, 100, 1_000];
const ROUNDS: usize = 4;

/// The bootstrap 95 % interval of the median of `values`.
fn interval(values: &[f64], rng: &mut StdRng) -> (f64, f64) {
    let medians: Vec<f64> = (0..1_000)
        .map(|_| {
            let resample: Vec<f64> = (0..values.len())
                .map(|_| values[rng.gen_range(0..values.len())])
                .collect();
            Summary::from_values(&resample).median()
        })
        .collect();
    let medians = Summary::from_values(&medians);
    (medians.percentile(2.5), medians.percentile(97.5))
}

fn main() {
    let queries = env_usize("PQFS_QUERIES", 200);
    header(
        "split_min",
        "docs/FASTSCAN.md §9",
        &format!(
            "sizes {SIZES:?}, topk {TOPKS:?}, {ROUNDS} rounds of {queries} queries, \
             SPLIT_MIN {SPLIT_MIN}"
        ),
    );
    let mut fx = Fixture::train(42);
    let pool = ThreadPool::new(2);
    let mut rng = StdRng::seed_from_u64(42);
    let rows = fx.queries(queries);
    let tables: Vec<_> = rows
        .chunks_exact(pqfs_bench::DIM)
        .map(|q| fx.tables(q))
        .collect();
    let mut t = TextTable::new(vec![
        "vectors",
        "c",
        "topk",
        "unsplit µs",
        "split µs",
        "ratio",
        "95 % interval",
        "verified",
        "accepted",
    ]);
    for n in SIZES {
        let index = FastScanIndex::build(&fx.partition(n), &ScanOpts::default()).expect("build");
        let mut scratch = ScanScratch::default();
        for topk in TOPKS {
            let params = ScanParams::new(topk);
            let mut scan = |split: bool, tables| {
                let start = Instant::now();
                let result = if split {
                    index.scan_split(tables, &params, &mut scratch, &pool)
                } else {
                    index.scan_with(tables, &params, &mut scratch)
                };
                let micros = start.elapsed().as_secs_f64() * 1e6;
                (micros, result.expect("scan").stats)
            };
            // Warm the caches, the pool and the scratch.
            for round in 0..20 {
                scan(round % 2 == 0, &tables[0]);
            }
            let mut micros = [Vec::new(), Vec::new()];
            let mut stats = [ScanStats::default(); 2];
            for round in 0..ROUNDS {
                for split in [round % 2 == 1, round % 2 == 0] {
                    for tables in &tables {
                        let (took, counts) = scan(split, tables);
                        micros[split as usize].push(took);
                        stats[split as usize].merge(&counts);
                    }
                }
            }
            let ratios: Vec<f64> = micros[1]
                .iter()
                .zip(&micros[0])
                .map(|(s, u)| s / u)
                .collect();
            let (low, high) = interval(&ratios, &mut rng);
            let per = |count: fn(&ScanStats) -> u64| {
                let scans = (ROUNDS * queries) as f64;
                stats
                    .map(|s| fmt_f(count(&s) as f64 / scans, 0))
                    .join(" → ")
            };
            t.row(vec![
                n.to_string(),
                index.group_components().to_string(),
                topk.to_string(),
                fmt_f(Summary::from_values(&micros[0]).median(), 1),
                fmt_f(Summary::from_values(&micros[1]).median(), 1),
                fmt_f(Summary::from_values(&ratios).median(), 3),
                format!("{} – {}", fmt_f(low, 3), fmt_f(high, 3)),
                per(|s| s.verified),
                per(|s| s.accepted),
            ]);
        }
    }
    print!("{}", t.render());
}
