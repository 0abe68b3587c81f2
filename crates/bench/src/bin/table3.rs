//! Table 3 — sizes of the 8 IVF partitions of ANN_SIFT100M1 and the number
//! of queries the coarse index routes to each.
//!
//! The base set is a scaled synthetic substitute (DESIGN.md §2); the
//! structure under test — an 8-cell coarse quantizer producing unequal
//! partitions, with queries routed to their nearest cell — is the same.
//!
//! ```sh
//! cargo run --release -p pqfs-bench --bin table3
//! ```

#![forbid(unsafe_code)]

use pqfs_bench::{env_usize, header, scale, DIM, TABLE3_QUERIES, TABLE3_SIZES_M};
use pqfs_data::{SyntheticConfig, SyntheticDataset};
use pqfs_ivf::{IvfadcConfig, IvfadcIndex};
use pqfs_metrics::{fmt_count, TextTable};

fn main() {
    let n_base = (2_000_000.0 * scale()) as usize;
    let n_queries = env_usize("PQFS_QUERIES", 10_000);
    header(
        "table3",
        "Table 3, §5.1",
        &format!("base {n_base}, 8 partitions, {n_queries} queries"),
    );

    let mut dataset = SyntheticDataset::new(&SyntheticConfig::sift_like().with_seed(333));
    let train = dataset.sample(15_000);
    let base = dataset.sample(n_base);
    let queries = dataset.sample(n_queries);

    let config = IvfadcConfig::new(DIM, 8).with_seed(33);
    let index = IvfadcIndex::build(&train, &base, &config).expect("build");

    let mut routed = [0usize; 8];
    for q in queries.chunks_exact(DIM) {
        routed[index.select_partition(q)] += 1;
    }

    // Order partitions by descending size for readability (the paper labels
    // them 0..7 in its own arbitrary order).
    let sizes = index.partition_sizes();
    let mut order: Vec<usize> = (0..8).collect();
    order.sort_by_key(|&p| std::cmp::Reverse(sizes[p]));

    let mut t = TextTable::new(vec!["Partition", "# vectors", "# queries"]);
    for (rank, &p) in order.iter().enumerate() {
        t.row(vec![
            rank.to_string(),
            fmt_count(sizes[p] as u64),
            fmt_count(routed[p] as u64),
        ]);
    }
    println!("{t}");

    println!("paper (ANN_SIFT100M1, 100 M vectors, 10 000 queries):");
    let mut paper = TextTable::new(vec!["Partition", "# vectors", "# queries"]);
    for p in 0..8 {
        paper.row(vec![
            p.to_string(),
            format!("{:.1}M", TABLE3_SIZES_M[p]),
            TABLE3_QUERIES[p].to_string(),
        ]);
    }
    println!("{paper}");
    println!(
        "shape check: both indexes produce strongly unequal partitions, and \
         larger partitions receive proportionally more queries."
    );
}
