//! The coarse quantizer: a plain vector quantizer whose Voronoi cells form
//! the database partitions (paper §2.2).
//!
//! IVFADC directs each query to the partition of the coarse centroid the
//! query falls closest to (Algorithm 1, step 1); the PQ then encodes the
//! *residual* `x − c(x)` rather than `x` itself, following \[14\].

use crate::IvfError;
use pqfs_kmeans::distance::CentroidBlocks;
use pqfs_kmeans::{train, KMeans, KMeansConfig};

/// A trained coarse quantizer.
#[derive(Debug, Clone)]
pub struct CoarseQuantizer {
    model: KMeans,
    /// The centroids in the blocked layout every cell is scored from: each
    /// distance bit-identical to `l2_sq`, so [`assign`](Self::assign) and
    /// [`assign_multi`](Self::assign_multi) agree on the nearest cell.
    blocks: CentroidBlocks,
}

impl CoarseQuantizer {
    /// Trains a coarse quantizer with `partitions` centroids on row-major
    /// training vectors.
    ///
    /// # Errors
    ///
    /// [`IvfError::Coarse`] on k-means failures (too few vectors, NaNs, …).
    pub fn train(data: &[f32], dim: usize, partitions: usize, seed: u64) -> Result<Self, IvfError> {
        let cfg = KMeansConfig::new(partitions)
            .with_seed(seed)
            .with_max_iters(30);
        Ok(Self::from_model(train(data, dim, &cfg)?))
    }

    fn from_model(model: KMeans) -> Self {
        let blocks = CentroidBlocks::new(model.centroids(), model.dim());
        CoarseQuantizer { model, blocks }
    }

    /// Rebuilds a coarse quantizer from a stored centroid matrix
    /// (row-major `partitions × dim`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty or not a multiple of `dim`.
    pub fn from_centroids(centroids: Vec<f32>, dim: usize) -> Self {
        Self::from_model(KMeans::from_centroids(centroids, dim))
    }

    /// Number of partitions (Voronoi cells).
    pub fn partitions(&self) -> usize {
        self.model.k()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.model.dim()
    }

    /// The centroid of partition `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= partitions()`.
    pub fn centroid(&self, p: usize) -> &[f32] {
        self.model.centroid(p)
    }

    /// Index of the partition whose centroid is nearest to `v`, ties to the
    /// lower index (Algorithm 1 step 1: `index_get_partition`).
    pub fn assign(&self, v: &[f32]) -> usize {
        self.blocks.nearest(v).0
    }

    /// The `w` partitions nearest to `v`, ascending by centroid distance,
    /// ties by index (multi-probe selection, as in the original IVFADC
    /// \[14\]); the first is [`assign`](Self::assign)'s.
    pub fn assign_multi(&self, v: &[f32], w: usize) -> Vec<usize> {
        let k = self.partitions();
        let mut distances = vec![0f32; k];
        self.blocks.distances(v, &mut distances);
        let mut cells: Vec<usize> = (0..k).collect();
        cells.sort_unstable_by(|&a, &b| distances[a].total_cmp(&distances[b]).then(a.cmp(&b)));
        cells.truncate(w.max(1).min(k));
        cells
    }

    /// Writes the residual `v − centroid(p)` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree with the quantizer dimensionality.
    pub fn residual_into(&self, v: &[f32], p: usize, out: &mut [f32]) {
        let c = self.centroid(p);
        assert_eq!(v.len(), c.len());
        assert_eq!(out.len(), c.len());
        for ((slot, &x), &mu) in out.iter_mut().zip(v).zip(c) {
            *slot = x - mu;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs() -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(4);
        let centers = [[0.0f32, 0.0], [100.0, 0.0], [0.0, 100.0]];
        let mut data = Vec::new();
        for c in &centers {
            for _ in 0..40 {
                data.push(c[0] + rng.gen_range(-2.0..2.0));
                data.push(c[1] + rng.gen_range(-2.0..2.0));
            }
        }
        data
    }

    #[test]
    fn assigns_points_to_their_blob() {
        let data = blobs();
        let cq = CoarseQuantizer::train(&data, 2, 3, 1).unwrap();
        assert_eq!(cq.partitions(), 3);
        let a = cq.assign(&[1.0, 1.0]);
        let b = cq.assign(&[99.0, 1.0]);
        let c = cq.assign(&[0.5, 98.0]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    /// `assign_multi` ranks the cells by `l2_sq` with ties to the lower
    /// index, and its first cell is `assign`'s. The first query is crafted
    /// so that summing its squared differences left to right ties cells 0
    /// and 1 at 2²⁴, while `l2_sq`'s four accumulators put cell 1 (2²⁴)
    /// before cell 0 (2²⁴ + 2); cells 2 and 3 tie exactly.
    #[test]
    fn assign_multi_ranks_cells_in_l2_sq_order() {
        use pqfs_kmeans::distance::l2_sq;
        let centroids = [
            [4096.0f32, 1.0, 1.0, 1.0, 0.0],
            [4096.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 5000.0],
            [0.0, 0.0, 0.0, 0.0, -5000.0],
            [-5000.0, 2.0, 3.0, 4.0, 5.0],
        ];
        let cq = CoarseQuantizer::from_centroids(centroids.concat(), 5);
        let queries = [
            [0.0f32; 5],
            [2048.0, 0.5, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.0, 0.0, 2500.0],
            [-5000.0, 2.0, 3.0, 4.0, 5.0],
        ];
        for v in &queries {
            let mut want: Vec<usize> = (0..centroids.len()).collect();
            want.sort_by(|&a, &b| {
                let (da, db) = (l2_sq(v, &centroids[a]), l2_sq(v, &centroids[b]));
                da.total_cmp(&db).then(a.cmp(&b))
            });
            assert_eq!(cq.assign_multi(v, centroids.len()), want, "{v:?}");
            assert_eq!(cq.assign_multi(v, 1), [cq.assign(v)], "{v:?}");
        }
        assert_eq!(cq.assign_multi(&queries[0], 2), [1, 0]);
    }

    #[test]
    fn residual_is_vector_minus_centroid() {
        let data = blobs();
        let cq = CoarseQuantizer::train(&data, 2, 3, 1).unwrap();
        let v = [5.0f32, -3.0];
        let p = cq.assign(&v);
        let mut residual = [0f32; 2];
        cq.residual_into(&v, p, &mut residual);
        let c = cq.centroid(p);
        assert_eq!(residual[0], v[0] - c[0]);
        assert_eq!(residual[1], v[1] - c[1]);
    }

    #[test]
    fn training_errors_propagate() {
        assert!(matches!(
            CoarseQuantizer::train(&[], 2, 2, 0),
            Err(IvfError::Coarse(_))
        ));
    }
}
