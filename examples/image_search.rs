//! Image-retrieval scenario: the paper's motivating application
//! (multimedia databases, §1).
//!
//! A catalog of "images" is represented by 128-d descriptors; retrieval
//! returns the `topk = 100` most similar ones (the typical setting for
//! information retrieval in multimedia databases, §5.1). The example
//! measures end-to-end IVFADC recall against exact brute force and shows
//! that switching the scan backend from PQ Scan to PQ Fast Scan changes
//! response time but not a single result.
//!
//! ```sh
//! cargo run --release --example image_search
//! ```

use pq_fast_scan::metrics::{mean_recall_at_r, time_ms, Summary};
use pq_fast_scan::prelude::*;

fn main() {
    let dim = 128;
    let n_images = 120_000;
    let n_queries = 50;
    let topk = 100;

    println!("== image similarity search (IVFADC + PQ Fast Scan) ==");

    // Descriptor catalog: clustered, byte-range, SIFT-like.
    let mut dataset = SyntheticDataset::new(
        &SyntheticConfig::sift_like()
            .with_clusters(512)
            .with_seed(2024),
    );
    let train = dataset.sample(8_000);
    let base = dataset.sample(n_images);
    let queries = dataset.sample(n_queries);
    println!("catalog: {n_images} descriptors, {n_queries} queries, topk {topk}");

    // 8-partition IVFADC index, as in the paper's ANN_SIFT100M1 setup.
    let config = IvfadcConfig::new(dim, 8).with_seed(5);
    let (index, build_ms) =
        time_ms(|| IvfadcIndex::build(&train, &base, &config).expect("index build"));
    println!(
        "index: {} partitions (sizes {:?}), built in {:.0} ms",
        index.num_partitions(),
        index.partition_sizes(),
        build_ms
    );

    // Exact ground truth for recall.
    let truth: Vec<u64> = queries
        .chunks_exact(dim)
        .map(|q| exact_knn(&base, dim, q, 1)[0].id as u64)
        .collect();

    let mut results_fast: Vec<Vec<u64>> = Vec::new();
    let mut times_fast = Vec::new();
    let mut times_slow = Vec::new();
    for (qi, q) in queries.chunks_exact(dim).enumerate() {
        let (fast, t_fast) = time_ms(|| {
            index
                .search_probes(q, topk, SearchBackend::FastScan, 0.005, 1)
                .expect("search")
        });
        let (slow, t_slow) = time_ms(|| {
            index
                .search_probes(q, topk, SearchBackend::Naive, 0.0, 1)
                .expect("search")
        });
        let ids = |o: &pq_fast_scan::ivf::SearchOutcome| {
            o.neighbors.iter().map(|n| n.id).collect::<Vec<_>>()
        };
        assert_eq!(ids(&fast), ids(&slow), "query {qi}: backends disagree");
        results_fast.push(ids(&fast));
        times_fast.push(t_fast);
        times_slow.push(t_slow);
    }

    let recall1 = mean_recall_at_r(&truth, &results_fast, 1);
    let recall100 = mean_recall_at_r(&truth, &results_fast, 100);
    println!("\nresult quality (identical for both backends, as §4 guarantees):");
    println!("  recall@1   = {recall1:.3}");
    println!("  recall@100 = {recall100:.3}");

    let fast = Summary::from_values(&times_fast);
    let slow = Summary::from_values(&times_slow);
    println!("\nresponse time per query [ms]:");
    println!(
        "  PQ Scan   median {:.2}  (mean {:.2})",
        slow.median(),
        slow.mean()
    );
    println!(
        "  Fast Scan median {:.2}  (mean {:.2})",
        fast.median(),
        fast.mean()
    );
    println!("  speedup   {:.1}x", slow.median() / fast.median());
}
