//! Quickstart: train a product quantizer, build a PQ Fast Scan index, run a
//! query, and verify the result matches plain PQ Scan exactly.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pq_fast_scan::prelude::*;
use std::time::Instant;

fn main() {
    let dim = 128;
    println!("== PQ Fast Scan quickstart ==");

    // 1. Synthetic SIFT-like data (ANN_SIFT1B substitute, see `pqfs_data::synthetic`).
    let config = SyntheticConfig::sift_like().with_seed(42);
    let mut dataset = SyntheticDataset::new(&config);
    let train = dataset.sample(5_000);
    let base = dataset.sample(100_000);
    let query = dataset.sample(1);
    println!("dataset: {} base vectors, dim {dim}", base.len() / dim);

    // 2. Train a PQ 8x8 quantizer (the paper's configuration) and apply the
    //    optimized centroid-index assignment (§4.3).
    let mut pq = ProductQuantizer::train(&train, &PqConfig::pq8x8(dim), 7).expect("training");
    pq.optimize_assignment(16, 7).expect("optimized assignment");
    let codes = pq.encode_batch(&base).expect("encoding");
    println!(
        "encoded: {} bytes/vector ({}x compression)",
        pq.config().code_bytes(),
        dim * 4 / pq.config().code_bytes()
    );

    // 3. Build the Fast Scan index: 100 000 vectors auto-group on 2
    //    components (256 groups of ~390), in nibble-packed blocks.
    let index = FastScanIndex::build(&codes, &ScanOpts::default()).expect("index build");
    println!(
        "fast-scan index: {} groups on {} components, {:.2} bytes/vector stored",
        index.num_groups(),
        index.group_components(),
        index.code_memory_bytes() as f64 / index.len() as f64,
    );

    // 4. Query: compute the per-query distance tables (Algorithm 1 step 2),
    //    then scan (step 3).
    let tables = DistanceTables::compute(&pq, &query).expect("tables");
    let params = ScanParams::new(10).with_keep(0.005);

    let start = Instant::now();
    let fast = index.scan(&tables, &params).expect("scan");
    let fast_ms = start.elapsed().as_secs_f64() * 1e3;
    // The reference is Algorithm 1's naive PQ Scan over the same row-major
    // codes; every `Backend::ALL` entry returns this result.
    let start = Instant::now();
    let slow = scan_naive(&tables, &codes, &ScanParams::new(10));
    let slow_ms = start.elapsed().as_secs_f64() * 1e3;

    println!("\ntop-10 neighbors (id, squared ADC distance):");
    for n in &fast.neighbors {
        println!("  {:>7}  {:.1}", n.id, n.dist);
    }

    assert_eq!(
        fast.ids(),
        slow.ids(),
        "Fast Scan must equal PQ Scan exactly"
    );
    println!("\nexactness check vs naive PQ Scan: OK");
    println!(
        "pruning power: {:.2}% of distance computations skipped",
        100.0 * fast.stats.pruned_fraction()
    );
    println!(
        "scan time: fast {fast_ms:.2} ms ({:.0} M vecs/s) vs naive {slow_ms:.2} ms ({:.0} M vecs/s)",
        index.len() as f64 / fast_ms / 1e3,
        index.len() as f64 / slow_ms / 1e3,
    );
}
