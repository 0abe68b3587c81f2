//! The paper's §6 generalization, applied: query execution over a
//! dictionary-compressed database column using in-register small tables.
//!
//! Scenario: a telemetry table stores one sensor reading per row,
//! dictionary-compressed to one byte. Two queries run against it:
//!
//! * **top-k**: "the 10 hottest readings" — pruned by in-register
//!   *maximum tables* (upper bounds), exact results;
//! * **approximate mean** — computed entirely in 8-bit arithmetic via a
//!   *table of means* (`pshufb` + `psadbw`), with a guaranteed error bound.
//!
//! ```sh
//! cargo run --release -p pqfs_bench --example compressed_analytics
//! ```

use pqfs_bench::columnar::{approximate_mean, topk_max_fast, CompressedColumn};
use pqfs_bench::{fmt_count, time_ms};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n_rows = 2_000_000;
    println!("== compressed-column analytics (paper §6) ==");

    // Telemetry-like column: daily cycles plus noise and rare spikes.
    let mut rng = StdRng::seed_from_u64(77);
    let readings: Vec<f32> = (0..n_rows)
        .map(|i| {
            let phase = (i % 86_400) as f32 / 86_400.0 * std::f32::consts::TAU;
            let base = 40.0 + 15.0 * phase.sin() + rng.gen_range(-3.0f32..3.0);
            if rng.gen_ratio(1, 50_000) {
                base + rng.gen_range(30.0f32..60.0) // rare spike
            } else {
                base
            }
        })
        .collect();

    let (column, compress_ms) = time_ms(|| CompressedColumn::compress(&readings, 256));
    println!(
        "column: {} rows compressed 4:1 in {:.0} ms (max reconstruction error {:.3})",
        fmt_count(n_rows as u64),
        compress_ms,
        column.reconstruction_error(&readings)
    );

    // --- Top-k with maximum tables -------------------------------------
    let k = 10;
    let (exact, exact_ms) = time_ms(|| column.topk_max_exact(k));
    let (fast, fast_ms) = time_ms(|| topk_max_fast(&column, k));
    assert_eq!(fast.items, exact, "fast top-k must be exact");

    println!("\ntop-{k} hottest readings (row, value):");
    for (row, value) in fast.items.iter().take(5) {
        println!("  {:>9}  {value:.1}", fmt_count(*row as u64));
    }
    println!("  ...");
    println!(
        "fast top-k: {:.1} % of rows pruned without a dictionary lookup; \
         {fast_ms:.1} ms vs {exact_ms:.1} ms full scan",
        100.0 * fast.pruned as f64 / n_rows as f64,
    );

    // --- Approximate mean with a table of means ------------------------
    let (exact_mean, mean_ms) = time_ms(|| column.exact_mean());
    let (approx, approx_ms) = time_ms(|| approximate_mean(&column));
    println!("\nmean reading:");
    println!("  exact        {exact_mean:.4}  ({mean_ms:.1} ms, 256-entry dictionary lookups)");
    println!(
        "  approximate  {:.4} ± {:.4}  ({approx_ms:.1} ms, 16-entry table of means, 8-bit SIMD)",
        approx.value, approx.error_bound
    );
    assert!(
        (approx.value - exact_mean).abs() <= approx.error_bound,
        "error bound must hold"
    );
    println!(
        "  |error| = {:.4} (within the guaranteed bound)",
        (approx.value - exact_mean).abs()
    );
}
