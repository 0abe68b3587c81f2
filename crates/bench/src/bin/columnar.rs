//! §6 discussion harness — small tables beyond ANN search: top-k and
//! approximate aggregates over a dictionary-compressed column.
//!
//! ```sh
//! cargo run --release -p pqfs-bench --bin columnar
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

use pqfs_bench::{env_usize, header, scale};
use pqfs_columnar::{approximate_mean, topk_max_fast, CompressedColumn};
use pqfs_metrics::{fmt_count, fmt_f, measure_ms, Summary, TextTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n = (4_000_000.0 * scale()) as usize;
    let reps = env_usize("PQFS_QUERIES", 5);
    header(
        "columnar",
        "§6 (Discussion)",
        &format!("column of {n} rows, 256-entry dictionary"),
    );

    let mut rng = StdRng::seed_from_u64(6);
    let data: Vec<f32> = (0..n)
        .map(|i| {
            let trend = (i as f32 / n as f32) * 100.0;
            trend + rng.gen_range(0.0f32..50.0)
        })
        .collect();
    let column = CompressedColumn::compress(&data, 256);
    println!(
        "compressed {} rows; max reconstruction error {:.3}\n",
        fmt_count(n as u64),
        column.reconstruction_error(&data)
    );

    // --- top-k -----------------------------------------------------------
    let mut t = TextTable::new(vec![
        "query",
        "exact [ms]",
        "small-tables [ms]",
        "speedup",
        "pruned [%]",
    ]);
    for k in [1usize, 10, 100] {
        let exact_ms =
            Summary::from_values(&measure_ms(reps, || column.topk_max_exact(k))).median();
        let fast_ms =
            Summary::from_values(&measure_ms(reps, || topk_max_fast(&column, k))).median();
        let result = topk_max_fast(&column, k);
        assert_eq!(
            result.items,
            column.topk_max_exact(k),
            "top-{k} must be exact"
        );
        t.row(vec![
            format!("top-{k}"),
            fmt_f(exact_ms, 1),
            fmt_f(fast_ms, 1),
            fmt_f(exact_ms / fast_ms, 1),
            fmt_f(100.0 * result.pruned as f64 / n as f64, 1),
        ]);
    }
    println!("{t}");

    // --- approximate mean --------------------------------------------------
    let exact_ms = Summary::from_values(&measure_ms(reps, || column.exact_mean())).median();
    let approx_ms = Summary::from_values(&measure_ms(reps, || approximate_mean(&column))).median();
    let exact = column.exact_mean();
    let approx = approximate_mean(&column);
    println!("approximate mean (16-entry table of means, 8-bit SIMD accumulation):");
    let mut t = TextTable::new(vec!["", "value", "time [ms]"]);
    t.row(vec![
        "exact mean".to_string(),
        fmt_f(exact as f64, 4),
        fmt_f(exact_ms, 1),
    ]);
    t.row(vec![
        format!("approx (err bound {:.3})", approx.error_bound),
        fmt_f(approx.value as f64, 4),
        fmt_f(approx_ms, 1),
    ]);
    println!("{t}");
    assert!((approx.value - exact).abs() <= approx.error_bound);
    println!(
        "shape check: top-k prunes the vast majority of dictionary lookups and \
         beats the exact scan; the approximate mean lands within its guaranteed \
         error bound at a fraction of the cost."
    );
}
