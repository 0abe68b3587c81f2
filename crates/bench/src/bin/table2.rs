//! Table 2 — instruction properties of `gather` vs `pshufb` (Haswell), plus
//! a live microbenchmark of the two lookup strategies on this host.
//!
//! ```sh
//! cargo run --release -p pqfs-bench --bin table2
//! ```

#![forbid(unsafe_code)]

use pqfs_bench::baselines::{scan_gather, TransposedCodes};
use pqfs_bench::{env_usize, header, Fixture};
use pqfs_metrics::{measure_ms, Summary, TextTable, GATHER, PSHUFB};
use pqfs_scan::{FastScanIndex, FastScanOptions, ScanParams};

fn main() {
    header(
        "table2",
        "Table 2, §3.2/§4",
        "instruction model + host microbenchmark",
    );

    let mut t = TextTable::new(vec![
        "Inst.",
        "Lat.",
        "Through.",
        "uops",
        "# elem",
        "elem size",
    ]);
    for props in [GATHER, PSHUFB] {
        t.row(vec![
            props.name.to_string(),
            props.latency.to_string(),
            format!("{}", props.throughput),
            props.uops.to_string(),
            props
                .elements
                .map(|e| e.to_string())
                .unwrap_or_else(|| "no limit".into()),
            format!("{} bits", props.elem_bits),
        ]);
    }
    println!("{t}");

    // Host microbenchmark: per-element lookup cost of the gather-based scan
    // vs the pshufb-based Fast Scan kernel on one partition.
    let n = env_usize("PQFS_N", 200_000);
    let reps = env_usize("PQFS_QUERIES", 5);
    println!("microbenchmark: {n} vectors, {reps} queries\n");

    let mut fx = Fixture::train(2);
    let codes = fx.partition(n);
    let transposed = TransposedCodes::from_row_major(&codes);
    let index = FastScanIndex::build(&codes, &FastScanOptions::default()).expect("build");
    let queries = fx.queries(reps);
    let params = ScanParams::new(100);

    let mut gather_ns = Vec::new();
    let mut pshufb_ns = Vec::new();
    for q in queries.chunks_exact(pqfs_bench::DIM) {
        let tables = fx.tables(q);
        let g = measure_ms(3, || scan_gather(&tables, &transposed, params.topk));
        // gather performs m=8 lookups per vector.
        gather_ns.push(Summary::from_values(&g).median() * 1e6 / (n as f64 * 8.0));
        let f = measure_ms(3, || index.scan(&tables, &params).unwrap());
        // fast scan performs 8 in-register lookups per vector.
        pshufb_ns.push(Summary::from_values(&f).median() * 1e6 / (n as f64 * 8.0));
    }
    let g = Summary::from_values(&gather_ns).median();
    let p = Summary::from_values(&pshufb_ns).median();
    println!("measured cost per table lookup on this host:");
    println!("  gather-based scan : {g:.3} ns/lookup");
    println!("  pshufb fast scan  : {p:.3} ns/lookup");
    println!("  ratio             : {:.1}x", g / p);
    println!(
        "\npaper: gather decodes to 34 uops with 18-cycle latency, pshufb to 1 uop \
         with 1-cycle latency — the architectural reason Fast Scan wins."
    );
}
