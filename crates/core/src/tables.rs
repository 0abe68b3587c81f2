//! Per-query distance tables and asymmetric distance computation (ADC).
//!
//! Step 2 of the paper's Algorithm 1 computes, for a query `y`, the `m`
//! tables `D_j[i] = ||u_j(y) − C_j[i]||²` (Eq. 2). The ADC distance of a
//! database code `p` is then `Σ_j D_j[p[j]]` (Eq. 3). PQ Scan spends >99 % of
//! its time in these lookups, which is what Fast Scan attacks.

use crate::pq::ProductQuantizer;
use crate::PqError;

/// The `m × k*` distance tables of one query.
#[derive(Debug, Clone)]
pub struct DistanceTables {
    /// Row-major `m × ksub` distances.
    data: Vec<f32>,
    m: usize,
    ksub: usize,
}

impl DistanceTables {
    /// Computes the tables for `query` against a trained quantizer
    /// (paper Eq. 2; `compute_distance_tables` in Algorithm 1).
    ///
    /// # Errors
    ///
    /// [`PqError::DimMismatch`] if the query dimensionality is wrong.
    pub fn compute(pq: &ProductQuantizer, query: &[f32]) -> Result<Self, PqError> {
        let mut tables = DistanceTables {
            data: Vec::new(),
            m: 0,
            ksub: 0,
        };
        tables.recompute(pq, query)?;
        Ok(tables)
    }

    /// Recomputes the tables for a new query in place, reusing the existing
    /// storage (the hot batch-query path keeps one `DistanceTables` per
    /// worker thread and recomputes it per query instead of allocating).
    /// The tables take the quantizer's shape; any previous shape is
    /// overwritten.
    ///
    /// # Errors
    ///
    /// [`PqError::DimMismatch`] if the query dimensionality is wrong.
    pub fn recompute(&mut self, pq: &ProductQuantizer, query: &[f32]) -> Result<(), PqError> {
        let dim = pq.config().dim();
        if query.len() != dim {
            return Err(PqError::DimMismatch {
                expected: dim,
                actual: query.len(),
            });
        }
        self.m = pq.config().m();
        self.ksub = pq.config().ksub();
        let dsub = pq.config().dsub();
        self.data.resize(self.m * self.ksub, 0.0);
        for j in 0..self.m {
            pq.codebook(j).distances(
                &query[j * dsub..(j + 1) * dsub],
                &mut self.data[j * self.ksub..(j + 1) * self.ksub],
            );
        }
        Ok(())
    }

    /// An empty placeholder (`m = 0`) for scratch that is filled by
    /// [`recompute`](Self::recompute) before first use.
    pub fn placeholder() -> Self {
        DistanceTables {
            data: Vec::new(),
            m: 0,
            ksub: 0,
        }
    }

    /// Wraps raw tables (tests / serialization).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != m * ksub`.
    pub fn from_raw(data: Vec<f32>, m: usize, ksub: usize) -> Self {
        assert_eq!(data.len(), m * ksub);
        DistanceTables { data, m, ksub }
    }

    /// Number of tables (`m`).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Entries per table (`k*`).
    pub fn ksub(&self) -> usize {
        self.ksub
    }

    /// Table `D_j` as a slice of `k*` distances.
    ///
    /// # Panics
    ///
    /// Panics if `j >= m`.
    #[inline]
    pub fn table(&self, j: usize) -> &[f32] {
        &self.data[j * self.ksub..(j + 1) * self.ksub]
    }

    /// Raw row-major storage (`m × ksub`).
    pub fn raw(&self) -> &[f32] {
        &self.data
    }

    /// The ADC distance of one code: `Σ_j D_j[p[j]]` (paper Eq. 3,
    /// `pqdistance` in Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `code.len() != m`; this is the hot path,
    /// so release builds rely on callers passing encoder-produced codes.
    #[inline]
    pub fn distance(&self, code: &[u8]) -> f32 {
        debug_assert_eq!(code.len(), self.m);
        let mut d = 0f32;
        // chunks_exact + u8 index let LLVM elide every bounds check when
        // ksub == 256 (the hot PQ 8x8 case).
        for (row, &idx) in self.data.chunks_exact(self.ksub).zip(code) {
            d += row[idx as usize];
        }
        d
    }

    /// Per-table minima, `min_i D_j[i]` — the per-table biases of the Fast
    /// Scan distance quantization (docs/FASTSCAN.md §1).
    pub fn per_table_min(&self) -> Vec<f32> {
        // Eight running minima per table, so the loop compiles to vector
        // `min`s instead of one dependent chain of 256 (every bounded probe
        // of a multi-probe query asks for these).
        (0..self.m)
            .map(|j| {
                let mut lanes = [f32::INFINITY; 8];
                let chunks = self.table(j).chunks_exact(8);
                let rest = chunks.remainder();
                for chunk in chunks {
                    for (min, &x) in lanes.iter_mut().zip(chunk) {
                        if x < *min {
                            *min = x;
                        }
                    }
                }
                rest.iter()
                    .chain(&lanes)
                    .copied()
                    .fold(f32::INFINITY, f32::min)
            })
            .collect()
    }

    /// Smallest entry across all tables — the paper's `qmin` (§4.4).
    pub fn global_min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sum of per-table minima: the tightest possible lower bound on any ADC
    /// distance from these tables.
    pub fn sum_of_mins(&self) -> f32 {
        self.per_table_min().iter().sum()
    }

    /// Sum of per-table maxima: the paper's note that setting `qmax` to "the
    /// maximum possible distance, i.e. the sum of the maximums of all
    /// distance tables" gives a coarse quantization (§4.4, Figure 12).
    pub fn max_sum(&self) -> f32 {
        (0..self.m)
            .map(|j| {
                self.table(j)
                    .iter()
                    .copied()
                    .fold(f32::NEG_INFINITY, f32::max)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PqConfig;
    use pqfs_kmeans::distance::l2_sq;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fixture() -> (ProductQuantizer, Vec<f32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(21);
        let config = PqConfig::new(16, 4, 4).unwrap();
        let data: Vec<f32> = (0..300 * 16)
            .map(|_| rng.gen_range(0.0..100.0f32))
            .collect();
        let pq = ProductQuantizer::train(&data, &config, 9).unwrap();
        let query: Vec<f32> = (0..16).map(|_| rng.gen_range(0.0..100.0f32)).collect();
        (pq, data, query)
    }

    #[test]
    fn adc_equals_distance_to_reconstruction() {
        // d~(p, y) = ||y - decode(p)||² exactly (Eq. 1 expanded per table).
        let (pq, data, query) = fixture();
        let tables = DistanceTables::compute(&pq, &query).unwrap();
        for v in data.chunks_exact(16).take(20) {
            let code = pq.encode(v);
            let rec = pq.decode(&code).unwrap();
            let direct = l2_sq(&query, &rec);
            let via_tables = tables.distance(&code);
            assert!(
                (direct - via_tables).abs() <= 1e-2 * direct.max(1.0),
                "ADC {via_tables} != direct {direct}"
            );
        }
    }

    #[test]
    fn tables_have_expected_shape_and_row_content() {
        let (pq, _, query) = fixture();
        let tables = DistanceTables::compute(&pq, &query).unwrap();
        assert_eq!(tables.m(), 4);
        assert_eq!(tables.ksub(), 16);
        // Row j entry i must equal the distance from the query sub-vector to
        // centroid i of codebook j.
        for j in 0..4 {
            for i in 0..16 {
                let expect = l2_sq(&query[j * 4..(j + 1) * 4], pq.codebook(j).centroid(i));
                assert_eq!(tables.table(j)[i], expect);
            }
        }
    }

    #[test]
    fn min_max_summaries_are_consistent() {
        let (pq, _, query) = fixture();
        let tables = DistanceTables::compute(&pq, &query).unwrap();
        let mins = tables.per_table_min();
        assert_eq!(mins.len(), 4);
        let global = tables.global_min();
        assert!(mins.iter().all(|&m| m >= global));
        assert!(mins.contains(&global));
        assert!(tables.sum_of_mins() <= tables.max_sum());
        // Any actual distance is between sum_of_mins and max_sum.
        let code = vec![3u8, 7, 11, 15];
        let d = tables.distance(&code);
        assert!(d >= tables.sum_of_mins() && d <= tables.max_sum());
    }

    #[test]
    fn recompute_reuses_storage_and_matches_compute() {
        let (pq, _, query) = fixture();
        let fresh = DistanceTables::compute(&pq, &query).unwrap();
        let mut reused = DistanceTables::placeholder();
        assert_eq!(reused.m(), 0);
        reused.recompute(&pq, &query).unwrap();
        assert_eq!(reused.raw(), fresh.raw());
        assert_eq!(reused.m(), fresh.m());
        assert_eq!(reused.ksub(), fresh.ksub());
        // Recomputing for a second query fully overwrites the first.
        let query2: Vec<f32> = query.iter().map(|&x| x + 1.0).collect();
        reused.recompute(&pq, &query2).unwrap();
        let fresh2 = DistanceTables::compute(&pq, &query2).unwrap();
        assert_eq!(reused.raw(), fresh2.raw());
        // Errors leave the scratch usable.
        assert!(reused.recompute(&pq, &[0.0; 3]).is_err());
        reused.recompute(&pq, &query).unwrap();
        assert_eq!(reused.raw(), fresh.raw());
    }

    #[test]
    fn rejects_wrong_query_dim() {
        let (pq, _, _) = fixture();
        assert!(matches!(
            DistanceTables::compute(&pq, &[0.0; 5]),
            Err(PqError::DimMismatch {
                expected: 16,
                actual: 5
            })
        ));
    }

    #[test]
    fn from_raw_and_distance_agree_with_manual_sum() {
        // Hand-built 2×4 tables.
        let t = DistanceTables::from_raw(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], 2, 4);
        assert_eq!(t.distance(&[0, 0]), 11.0);
        assert_eq!(t.distance(&[3, 2]), 34.0);
        assert_eq!(t.per_table_min(), vec![1.0, 10.0]);
        assert_eq!(t.global_min(), 1.0);
        assert_eq!(t.max_sum(), 44.0);
    }
}
