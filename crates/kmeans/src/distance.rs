//! Squared-L2 distance kernels.
//!
//! The whole reproduction works with *squared* Euclidean distances, as the
//! paper does (§2.2): squaring preserves the nearest-neighbor order and
//! avoids a square root per candidate.

/// Squared L2 distance between two equal-length slices.
///
/// The 4-way manually unrolled loop lets LLVM vectorize without `-ffast-math`
/// (the accumulation order is fixed, so results are deterministic across
/// builds).
///
/// # Panics
///
/// Panics in debug builds if the slices have different lengths; in release
/// builds the shorter length is used.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc0 = 0.0f32;
    let mut acc1 = 0.0f32;
    let mut acc2 = 0.0f32;
    let mut acc3 = 0.0f32;
    let chunks = n / 4;
    for i in 0..chunks {
        let j = i * 4;
        let d0 = a[j] - b[j];
        let d1 = a[j + 1] - b[j + 1];
        let d2 = a[j + 2] - b[j + 2];
        let d3 = a[j + 3] - b[j + 3];
        acc0 += d0 * d0;
        acc1 += d1 * d1;
        acc2 += d2 * d2;
        acc3 += d3 * d3;
    }
    let mut tail = 0.0f32;
    for j in chunks * 4..n {
        let d = a[j] - b[j];
        tail += d * d;
    }
    (acc0 + acc1) + (acc2 + acc3) + tail
}

/// Index and squared distance of the centroid nearest to `v`.
///
/// `centroids` is a row-major `k × dim` matrix. Ties are broken toward the
/// lower index, which keeps every consumer in the workspace deterministic.
///
/// # Panics
///
/// Panics if `centroids.len()` is not a multiple of `dim`, or if it is empty.
#[inline]
pub fn nearest_centroid(v: &[f32], centroids: &[f32], dim: usize) -> (usize, f32) {
    assert!(dim > 0, "dim must be positive");
    assert!(
        !centroids.is_empty() && centroids.len().is_multiple_of(dim),
        "centroid matrix must be a non-empty multiple of dim"
    );
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (i, c) in centroids.chunks_exact(dim).enumerate() {
        let d = l2_sq(v, c);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    (best, best_d)
}

/// Centroids handled per step of the point-to-codebook kernel.
const LANES: usize = 8;

/// A centroid matrix regrouped for the point-to-codebook kernel: blocks of
/// eight centroids, each block transposed (`dim` rows of eight coordinates),
/// the last block padded with zero columns.
///
/// One step of the kernel takes one coordinate of the point against one row
/// of a block, so eight distances advance together and the compiler turns
/// the lane loops into vector instructions on any target. Every lane performs
/// [`l2_sq`]'s operations in [`l2_sq`]'s order, so each distance is
/// bit-identical to `l2_sq(v, centroid)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CentroidBlocks {
    /// `k.div_ceil(LANES)` blocks of `dim × LANES` floats.
    data: Vec<f32>,
    dim: usize,
    k: usize,
}

impl CentroidBlocks {
    /// Regroups a row-major `k × dim` centroid matrix.
    ///
    /// # Panics
    ///
    /// Panics if `centroids.len()` is not a multiple of `dim`, or if it is
    /// empty.
    pub fn new(centroids: &[f32], dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(
            !centroids.is_empty() && centroids.len().is_multiple_of(dim),
            "centroid matrix must be a non-empty multiple of dim"
        );
        let k = centroids.len() / dim;
        let mut data = vec![0f32; k.div_ceil(LANES) * dim * LANES];
        for (i, c) in centroids.chunks_exact(dim).enumerate() {
            let block = &mut data[i / LANES * dim * LANES..][..dim * LANES];
            for (row, &x) in block.chunks_exact_mut(LANES).zip(c) {
                row[i % LANES] = x;
            }
        }
        CentroidBlocks { data, dim, k }
    }

    /// Squared distances from `v` to the `LANES` centroids of one block
    /// (`dim × LANES` floats): `l2_sq` with every scalar widened to a lane
    /// array — four strided accumulators, then the tail.
    #[inline]
    fn block_distances(v: &[f32], block: &[f32]) -> [f32; LANES] {
        #[inline(always)]
        fn step(acc: &mut [f32; LANES], x: f32, row: &[f32]) {
            for (a, &c) in acc.iter_mut().zip(row) {
                let d = x - c;
                *a += d * d;
            }
        }
        let mut acc = [[0f32; LANES]; 4];
        let mut tail = [0f32; LANES];
        let mut points = v.chunks_exact(4);
        let mut rows = block.chunks_exact(4 * LANES);
        for (x, r) in points.by_ref().zip(rows.by_ref()) {
            for (s, acc) in acc.iter_mut().enumerate() {
                step(acc, x[s], &r[s * LANES..(s + 1) * LANES]);
            }
        }
        for (&x, row) in points
            .remainder()
            .iter()
            .zip(rows.remainder().chunks_exact(LANES))
        {
            step(&mut tail, x, row);
        }
        let mut out = [0f32; LANES];
        for (l, o) in out.iter_mut().enumerate() {
            *o = (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]) + tail[l];
        }
        out
    }

    /// The blocks with the number of real (unpadded) centroids in each.
    #[inline]
    fn blocks(&self) -> impl Iterator<Item = (usize, &[f32])> {
        let k = self.k;
        self.data
            .chunks_exact(self.dim * LANES)
            .enumerate()
            .map(move |(b, block)| (LANES.min(k - b * LANES), block))
    }

    /// Squared distances from `v` to every centroid written into `out` —
    /// the inner loop of distance-table computation (paper Eq. 2), kept
    /// allocation-free so callers can reuse a scratch buffer per query.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim` or `out.len() != k`.
    #[inline]
    pub fn distances(&self, v: &[f32], out: &mut [f32]) {
        assert_eq!(v.len(), self.dim, "point must have the centroids' dim");
        assert_eq!(
            out.len(),
            self.k,
            "output length must match the number of centroids"
        );
        for ((real, block), o) in self.blocks().zip(out.chunks_mut(LANES)) {
            o.copy_from_slice(&Self::block_distances(v, block)[..real]);
        }
    }

    /// Index and squared distance of the centroid nearest to `v`; ties go
    /// to the lower index, as in [`nearest_centroid`].
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim`.
    #[inline]
    pub fn nearest(&self, v: &[f32]) -> (usize, f32) {
        assert_eq!(v.len(), self.dim, "point must have the centroids' dim");
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for (b, (real, block)) in self.blocks().enumerate() {
            let lanes = Self::block_distances(v, block);
            for (l, &d) in lanes[..real].iter().enumerate() {
                if d < best_d {
                    best_d = d;
                    best = b * LANES + l;
                }
            }
        }
        (best, best_d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_sq_matches_naive_definition() {
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        let b = [5.0f32, 4.0, 3.0, 2.0, 1.0];
        let expect: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert_eq!(l2_sq(&a, &b), expect);
    }

    #[test]
    fn l2_sq_zero_for_identical_vectors() {
        let a = [0.5f32; 17];
        assert_eq!(l2_sq(&a, &a), 0.0);
    }

    #[test]
    fn l2_sq_handles_empty_slices() {
        assert_eq!(l2_sq(&[], &[]), 0.0);
    }

    #[test]
    fn l2_sq_handles_non_multiple_of_four_lengths() {
        for n in 1..=9usize {
            let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32) + 1.0).collect();
            assert_eq!(l2_sq(&a, &b), n as f32, "length {n}");
        }
    }

    #[test]
    fn nearest_centroid_picks_minimum_and_breaks_ties_low() {
        let centroids = [0.0f32, 0.0, 2.0, 0.0, 2.0, 0.0]; // rows 1 and 2 identical
        let (idx, d) = nearest_centroid(&[2.0, 0.1], &centroids, 2);
        assert_eq!(idx, 1, "tie must go to the lower index");
        assert!((d - 0.01).abs() < 1e-6);
    }

    /// A deterministic `k × dim` matrix and a point with values whose
    /// squares and sums round (so a different operation order would show).
    fn matrix(k: usize, dim: usize) -> (Vec<f32>, Vec<f32>) {
        let value = |i: usize| ((i * 2_654_435_761) % 1_000_003) as f32 * 1e-3 - 400.0;
        let centroids = (0..k * dim).map(value).collect();
        let v = (0..dim).map(|d| value(d + 7_919)).collect();
        (centroids, v)
    }

    #[test]
    fn block_kernel_is_bit_identical_to_l2_sq_per_centroid() {
        for dim in 1..=17usize {
            for k in [1usize, 4, 8, 12, 16, 256] {
                let (centroids, v) = matrix(k, dim);
                let blocks = CentroidBlocks::new(&centroids, dim);
                let mut out = vec![f32::NAN; k];
                blocks.distances(&v, &mut out);
                for (i, c) in centroids.chunks_exact(dim).enumerate() {
                    assert_eq!(
                        out[i].to_bits(),
                        l2_sq(&v, c).to_bits(),
                        "dim {dim} k {k} centroid {i}"
                    );
                }
                assert_eq!(
                    blocks.nearest(&v),
                    nearest_centroid(&v, &centroids, dim),
                    "dim {dim} k {k}"
                );
            }
        }
    }

    #[test]
    fn block_nearest_breaks_ties_low_like_nearest_centroid() {
        // Every centroid appears three times, in different blocks and lanes.
        for (k, dim) in [(5usize, 3usize), (8, 4), (11, 16)] {
            let (distinct, v) = matrix(k, dim);
            let centroids = [&distinct[..], &distinct[..], &distinct[..]].concat();
            let blocks = CentroidBlocks::new(&centroids, dim);
            let (idx, d) = blocks.nearest(&v);
            assert_eq!((idx, d), nearest_centroid(&v, &centroids, dim));
            assert!(idx < k, "tie must go to the first copy, got {idx}");
        }
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn block_distances_rejects_bad_output_len() {
        let blocks = CentroidBlocks::new(&[0.0f32; 6], 2);
        blocks.distances(&[0.0, 0.0], &mut [0.0f32; 2]);
    }
}
