//! Per-sub-quantizer codebooks.
//!
//! A codebook is the centroid set `C_j = (c_{j,0}, …, c_{j,k*−1})` of one
//! sub-quantizer (paper §2.1). Besides nearest-centroid assignment, the type
//! supports *index permutation*: the §4.3 optimized assignment relabels
//! centroids so that each 16-index portion holds mutually close centroids.
//! Permuting indexes changes nothing semantically — it is a bijective
//! renaming — which is exactly why Fast Scan can adopt it for free.

use pqfs_kmeans::distance::CentroidBlocks;

/// The centroid set of one sub-quantizer.
#[derive(Debug, Clone, PartialEq)]
pub struct Codebook {
    /// Row-major `ksub × dsub` centroid matrix.
    centroids: Vec<f32>,
    /// The same centroids regrouped for the point-to-codebook kernel (as
    /// large again as `centroids`, 16 KB for a `PQ 8×8` codebook of 128-d
    /// vectors); derived, never persisted.
    blocks: CentroidBlocks,
    dsub: usize,
}

impl Codebook {
    /// Wraps a row-major `ksub × dsub` centroid matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty or its length is not a multiple of
    /// `dsub`.
    pub fn new(centroids: Vec<f32>, dsub: usize) -> Self {
        assert!(
            dsub > 0 && !centroids.is_empty() && centroids.len().is_multiple_of(dsub),
            "centroid matrix must be a non-empty ksub x dsub"
        );
        let blocks = CentroidBlocks::new(&centroids, dsub);
        Codebook {
            centroids,
            blocks,
            dsub,
        }
    }

    /// Number of centroids `k*`.
    pub fn ksub(&self) -> usize {
        self.centroids.len() / self.dsub
    }

    /// Sub-vector dimensionality `d*`.
    pub fn dsub(&self) -> usize {
        self.dsub
    }

    /// The full row-major centroid matrix.
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// The centroid with index `i` (`C_j[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= ksub`.
    pub fn centroid(&self, i: usize) -> &[f32] {
        &self.centroids[i * self.dsub..(i + 1) * self.dsub]
    }

    /// Index and squared distance of the centroid nearest to the sub-vector
    /// `v` — the sub-quantizer function `q_j`. Ties go to the lower index.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dsub`.
    pub fn quantize(&self, v: &[f32]) -> (usize, f32) {
        self.blocks.nearest(v)
    }

    /// Fills `out[i] = ||v − C_j[i]||²` for every centroid — one row `D_j`
    /// of the distance tables (paper Eq. 2).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dsub` or `out.len() != ksub`.
    pub fn distances(&self, v: &[f32], out: &mut [f32]) {
        self.blocks.distances(v, out);
    }

    /// Applies a permutation of centroid indexes: the centroid currently at
    /// index `perm[i]` moves to index `i`. Used by the §4.3 optimized
    /// assignment (`perm` lists old indexes in new order).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..ksub`.
    pub fn permute(&mut self, perm: &[usize]) {
        let k = self.ksub();
        assert_eq!(perm.len(), k, "permutation length must equal ksub");
        let mut seen = vec![false; k];
        for &p in perm {
            assert!(p < k && !seen[p], "perm must be a permutation of 0..ksub");
            seen[p] = true;
        }
        let mut permuted = Vec::with_capacity(self.centroids.len());
        for &old in perm {
            permuted.extend_from_slice(&self.centroids[old * self.dsub..(old + 1) * self.dsub]);
        }
        *self = Codebook::new(permuted, self.dsub);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Codebook {
        // 4 centroids in 2-d at the corners of a square.
        Codebook::new(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0], 2)
    }

    #[test]
    fn quantize_finds_nearest() {
        let cb = sample();
        assert_eq!(cb.quantize(&[0.1, 0.1]).0, 0);
        assert_eq!(cb.quantize(&[0.9, 0.1]).0, 1);
        assert_eq!(cb.quantize(&[0.1, 0.9]).0, 2);
        assert_eq!(cb.quantize(&[0.9, 0.9]).0, 3);
    }

    #[test]
    fn distances_matches_manual_computation() {
        let cb = sample();
        let mut out = [0f32; 4];
        cb.distances(&[0.0, 0.0], &mut out);
        assert_eq!(out, [0.0, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn permute_relabels_without_changing_geometry() {
        let mut cb = sample();
        let before = cb.quantize(&[0.9, 0.9]);
        cb.permute(&[3, 2, 1, 0]);
        let after = cb.quantize(&[0.9, 0.9]);
        // Same distance, new label.
        assert_eq!(before.1, after.1);
        assert_eq!(after.0, 0);
        assert_eq!(cb.centroid(0), &[1.0, 1.0]);
    }

    #[test]
    fn permute_identity_is_noop() {
        let mut cb = sample();
        let orig = cb.clone();
        cb.permute(&[0, 1, 2, 3]);
        assert_eq!(cb, orig);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn permute_rejects_wrong_length() {
        sample().permute(&[0, 1]);
    }

    #[test]
    #[should_panic(expected = "perm must be a permutation")]
    fn permute_rejects_duplicates() {
        sample().permute(&[0, 1, 1, 3]);
    }
}
