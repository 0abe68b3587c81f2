//! How many components to group on: the grouping crossover of
//! docs/FASTSCAN.md §10, from 1 024 to 1 000 000 vectors, at topk 10, 100
//! and 1 000, on `Kernel::Auto` and `Kernel::Avx2`. Each row is one layout
//! of one partition: the auto `c` or a neighbour, its median scan time on
//! one thread, and the median per-query ratio of its time to the auto
//! layout's (above 1: auto is faster). `*` marks the fastest layout.
//!
//! ```sh
//! PQFS_QUERIES=256 cargo run --release -p pqfs_bench --bin components
//! ```

#![forbid(unsafe_code)]

use pqfs_bench::components::{crossover, COLUMNS};
use pqfs_bench::{env_usize, header, Fixture, TextTable, DIM};
use pqfs_scan::{Kernel, ScanParams};

const SIZES: [usize; 8] = [
    1_024, 4_096, 16_384, 32_768, 65_536, 250_000, 500_000, 1_000_000,
];
const TOPKS: [usize; 3] = [10, 100, 1_000];
const ROUNDS: usize = 5;

fn main() {
    let queries = env_usize("PQFS_QUERIES", 128);
    header(
        "components",
        "docs/FASTSCAN.md §10",
        &format!("sizes {SIZES:?}, topk {TOPKS:?}, {ROUNDS} rounds of {queries} queries"),
    );
    let mut fx = Fixture::train(43);
    let rows = fx.queries(queries);
    let tables: Vec<_> = rows.chunks_exact(DIM).map(|q| fx.tables(q)).collect();
    let kernels: Vec<(Kernel, Kernel)> = [Kernel::Auto, Kernel::Avx2]
        .into_iter()
        .filter_map(|k| match k.resolved() {
            Ok(resolved) => Some((k, resolved)),
            Err(e) => {
                println!("skipping {k:?}: {e}");
                None
            }
        })
        .collect();
    let columns = [&["vectors", "kernel", "topk"][..], &COLUMNS].concat();
    let mut t = TextTable::new(columns);
    for n in SIZES {
        let codes = fx.partition(n);
        for &(kernel, resolved) in &kernels {
            for topk in TOPKS {
                let prefix = [n.to_string(), format!("{resolved:?}"), topk.to_string()];
                let params = ScanParams::new(topk);
                crossover(&mut t, &prefix, &codes, kernel, &tables, &params, ROUNDS);
            }
        }
    }
    print!("{}", t.render());
}
