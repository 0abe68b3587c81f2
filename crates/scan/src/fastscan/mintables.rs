//! Minimum tables (paper §4.3, Figure 10).
//!
//! For the components that are *not* grouped, Fast Scan cannot load the
//! exact table portion per group. Instead, each 256-entry distance table is
//! folded into 16 values: the minimum of each 16-entry portion, indexed by
//! the **high nibble** of the stored component. The minimum is a valid lower
//! bound for any entry of its portion, and the §4.3 optimized centroid-index
//! assignment makes portions hold mutually close values so these minima are
//! tight.

use crate::fastscan::layout::{KSUB, PORTION};
use crate::quantize::DistanceQuantizer;
use pqfs_core::DistanceTables;

/// Minimum of each of the 16 portions of one 256-entry distance table, in
/// float domain.
///
/// # Panics
///
/// Panics if `table.len() != 256`.
pub fn portion_minima(table: &[f32]) -> [f32; PORTION] {
    assert_eq!(table.len(), KSUB, "a PQ 8x8 table has 256 entries");
    let mut minima = [f32::INFINITY; PORTION];
    for (min, portion) in minima.iter_mut().zip(table.chunks_exact(PORTION)) {
        *min = portion.iter().copied().fold(f32::INFINITY, f32::min);
    }
    minima
}

/// Quantized minimum tables for components `c..m`, ready to be used as the
/// small tables `S_c … S_{m−1}`.
///
/// The minimum is computed in float domain and quantized afterwards; since
/// quantization is monotone this equals the minimum of the quantized
/// entries, and rounding down preserves the lower-bound property.
pub fn quantized_min_tables(
    tables: &DistanceTables,
    quantizer: &DistanceQuantizer,
    c: usize,
) -> Vec<[u8; PORTION]> {
    (c..tables.m())
        .map(|j| portion_minima(tables.table(j)).map(|min| quantizer.quantize_value(j, min)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portion_minima_fold_each_portion() {
        // Portion 0 = 31 down to 16, every other portion p = 100·p + i.
        let table: Vec<f32> = (0..256)
            .map(|i| match i / PORTION {
                0 => (31 - i) as f32,
                p => (100 * p + i % PORTION) as f32,
            })
            .collect();
        let mins = portion_minima(&table);
        assert_eq!(mins[..3], [16.0, 100.0, 200.0]);
        assert_eq!(mins[15], 1500.0);
    }

    #[test]
    fn min_is_lower_bound_for_every_entry() {
        let table: Vec<f32> = (0..256).map(|i| ((i * 97 + 13) % 509) as f32).collect();
        let mins = portion_minima(&table);
        for (i, &v) in table.iter().enumerate() {
            assert!(mins[i / PORTION] <= v);
        }
    }

    #[test]
    fn quantized_min_tables_cover_requested_components() {
        let data: Vec<f32> = (0..4 * 256).map(|i| (i % 100) as f32).collect();
        let tables = DistanceTables::from_raw(data, 4, 256);
        let q = DistanceQuantizer::new(&tables, 300.0, 254);
        let all = quantized_min_tables(&tables, &q, 0);
        assert_eq!(all.len(), 4);
        let tail = quantized_min_tables(&tables, &q, 3);
        assert_eq!(tail.len(), 1);
        assert_eq!(all[3], tail[0]);
    }

    #[test]
    fn quantized_min_is_lower_bound_of_quantized_entries() {
        let data: Vec<f32> = (0..2 * 256)
            .map(|i| ((i * 37) % 997) as f32 * 0.25)
            .collect();
        let tables = DistanceTables::from_raw(data, 2, 256);
        let q = DistanceQuantizer::new(&tables, 150.0, 254);
        let qmins = quantized_min_tables(&tables, &q, 0);
        for (j, qmin) in qmins.iter().enumerate().take(2) {
            for (i, &v) in tables.table(j).iter().enumerate() {
                assert!(qmin[i / PORTION] <= q.quantize_value(j, v), "j={j}, i={i}");
            }
        }
    }
}
