//! The grouping crossover (docs/FASTSCAN.md §10): one partition scanned on
//! the component count `auto_components` picks and on its neighbours `c ± 1`,
//! in one process over the same codes and queries. `fig19`'s second table
//! and the `components` bin print it.
//!
//! Each round scans every query on every layout, one layout after the
//! other, and the first layout rotates from round to round. A query's time
//! on a layout is its median over the rounds; a layout's ratio is the median
//! over queries of its time ÷ the auto layout's time, so above 1 means the
//! auto choice is faster. The answers are asserted equal across layouts.

use crate::{fmt_f, Summary, TextTable};
use pqfs_core::{DistanceTables, RowMajorCodes};
use pqfs_scan::fastscan::grouping::auto_components;
use pqfs_scan::{FastScanIndex, Kernel, ScanOpts, ScanParams, ScanScratch};
use std::time::Instant;

/// The columns [`crossover`] fills after the caller's own.
pub const COLUMNS: [&str; 5] = ["c", "avg group", "median µs", "÷ auto c", "fastest"];

/// Appends one row per layout compared on `codes`, each starting with
/// `prefix`: the auto `c` (marked `auto`), its valid neighbours, their
/// median scan time and ratio to the auto layout, and a `*` on the layout
/// with the lowest median time.
///
/// # Panics
///
/// Panics if `kernel` is unavailable on this CPU, `tables` is empty,
/// `rounds` is 0, or two layouts return different answers.
pub fn crossover(
    table: &mut TextTable,
    prefix: &[String],
    codes: &RowMajorCodes,
    kernel: Kernel,
    tables: &[DistanceTables],
    params: &ScanParams,
    rounds: usize,
) {
    let auto = auto_components(codes.len());
    let layouts: Vec<usize> = (auto.saturating_sub(1)..=(auto + 1).min(4)).collect();
    let indexes: Vec<FastScanIndex> = layouts
        .iter()
        .map(|&c| {
            let opts = ScanOpts::default()
                .with_group_components(c)
                .with_kernel(kernel);
            FastScanIndex::build(codes, &opts).expect("build")
        })
        .collect();
    let mut scratch = ScanScratch::default();
    let mut micros = vec![vec![Vec::with_capacity(rounds); tables.len()]; indexes.len()];
    let mut answers: Vec<Vec<Vec<u64>>> = vec![Vec::new(); indexes.len()];
    for round in 0..=rounds {
        for turn in 0..indexes.len() {
            let at = (round + turn) % indexes.len();
            for (q, tables) in tables.iter().enumerate() {
                let start = Instant::now();
                let result = indexes[at].scan_with(tables, params, &mut scratch);
                let took = start.elapsed().as_secs_f64() * 1e6;
                let ids = result.expect("scan").ids();
                // Round 0 warms the caches and records the answers.
                if round == 0 {
                    answers[at].push(ids);
                } else {
                    micros[at][q].push(took);
                }
            }
        }
    }
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "layouts disagree");
    let per_query: Vec<Vec<f64>> = micros
        .iter()
        .map(|queries| {
            queries
                .iter()
                .map(|t| Summary::from_values(t).median())
                .collect()
        })
        .collect();
    let medians: Vec<f64> = per_query
        .iter()
        .map(|t| Summary::from_values(t).median())
        .collect();
    let fastest = (0..layouts.len())
        .min_by(|&a, &b| medians[a].total_cmp(&medians[b]))
        .expect("a layout");
    let auto_at = layouts
        .iter()
        .position(|&c| c == auto)
        .expect("auto layout");
    for (i, &c) in layouts.iter().enumerate() {
        let ratios: Vec<f64> = per_query[i]
            .iter()
            .zip(&per_query[auto_at])
            .map(|(t, a)| t / a)
            .collect();
        let mut row = prefix.to_vec();
        row.extend([
            if c == auto {
                format!("{c} auto")
            } else {
                c.to_string()
            },
            fmt_f(codes.len() as f64 / indexes[i].num_groups() as f64, 0),
            fmt_f(medians[i], 1),
            fmt_f(Summary::from_values(&ratios).median(), 2),
            if i == fastest { "*" } else { "" }.to_string(),
        ]);
        table.row(row);
    }
}
