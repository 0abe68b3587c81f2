//! Lloyd's k-means with k-means++ initialization.
//!
//! This is the "Lloyd-optimal quantizer" builder of paper §2.1 (reference
//! \[20\]: S. Lloyd, *Least squares quantization in PCM*). It trains both the
//! `m` sub-quantizers of a product quantizer and the coarse quantizer of the
//! IVFADC index.

use crate::distance::{l2_sq, nearest_centroid, CentroidBlocks};
use crate::KMeansError;
use pqfs_pool::ThreadPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rows per assignment-step task. Fixed (never derived from the pool size)
/// so the chunk-local inertia partial sums — and therefore the whole
/// training run — are bit-identical for any thread count.
const ASSIGN_CHUNK: usize = 1024;

/// The Lloyd assignment step over fixed-size row chunks on the shared pool:
/// fills `assignment` and `dists` and returns the inertia as the chunk
/// partial sums added in chunk order.
fn assign_step(
    data: &[f32],
    dim: usize,
    centroids: &[f32],
    assignment: &mut [u32],
    dists: &mut [f32],
    pool: &ThreadPool,
) -> f64 {
    let mut pieces: Vec<(usize, &mut [u32], &mut [f32])> =
        Vec::with_capacity(assignment.len().div_ceil(ASSIGN_CHUNK));
    {
        let mut a = &mut *assignment;
        let mut d = &mut *dists;
        let mut offset = 0usize;
        while !a.is_empty() {
            let take = ASSIGN_CHUNK.min(a.len());
            let (a_head, a_tail) = a.split_at_mut(take);
            let (d_head, d_tail) = d.split_at_mut(take);
            pieces.push((offset, a_head, d_head));
            offset += take;
            a = a_tail;
            d = d_tail;
        }
    }
    let blocks = CentroidBlocks::new(centroids, dim);
    let partials = pool.parallel_map_mut(&mut pieces, |_, (offset, a, d)| {
        let rows = &data[*offset * dim..(*offset + a.len()) * dim];
        let mut local = 0f64;
        for (k, v) in rows.chunks_exact(dim).enumerate() {
            let (c, dist) = blocks.nearest(v);
            a[k] = c as u32;
            d[k] = dist;
            local += dist as f64;
        }
        local
    });
    partials.iter().sum()
}

/// Centroid initialization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitMethod {
    /// k-means++ seeding (D² weighted sampling). Slower to initialize but
    /// converges in fewer Lloyd iterations and to better codebooks; the
    /// default everywhere in the reproduction.
    #[default]
    KMeansPlusPlus,
    /// Uniform sampling of `k` distinct input points.
    Random,
}

/// Training configuration for [`train`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of centroids (`k*` for a sub-quantizer, coarse `k` for IVF).
    pub k: usize,
    /// Upper bound on Lloyd iterations.
    pub max_iters: usize,
    /// Early-stop threshold: stop when the relative inertia improvement of
    /// one iteration falls below this value.
    pub tol: f64,
    /// RNG seed; identical seeds give identical codebooks.
    pub seed: u64,
    /// Centroid initialization strategy.
    pub init: InitMethod,
}

impl KMeansConfig {
    /// Configuration with library defaults (`max_iters = 25`, `tol = 1e-4`,
    /// k-means++ init, seed 0).
    pub fn new(k: usize) -> Self {
        KMeansConfig {
            k,
            max_iters: 25,
            tol: 1e-4,
            seed: 0,
            init: InitMethod::default(),
        }
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the iteration bound.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Replaces the initialization strategy.
    pub fn with_init(mut self, init: InitMethod) -> Self {
        self.init = init;
        self
    }
}

/// A trained k-means model: the codebook of a Lloyd-optimal quantizer.
#[derive(Debug, Clone)]
pub struct KMeans {
    centroids: Vec<f32>,
    dim: usize,
    inertia: f64,
    iterations: usize,
}

impl KMeans {
    /// Row-major `k × dim` centroid matrix (the codebook `C`).
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// The `i`-th centroid.
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`.
    pub fn centroid(&self, i: usize) -> &[f32] {
        &self.centroids[i * self.dim..(i + 1) * self.dim]
    }

    /// Number of centroids.
    pub fn k(&self) -> usize {
        self.centroids.len() / self.dim
    }

    /// Dimensionality of the quantized space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Final sum of squared distances of every training point to its
    /// centroid.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Number of Lloyd iterations actually run.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Quantizes `v`: index and squared distance of its nearest centroid.
    /// This is `q(x) = argmin_{c_i} ||x − c_i||²` from paper §2.1.
    pub fn assign(&self, v: &[f32]) -> (usize, f32) {
        nearest_centroid(v, &self.centroids, self.dim)
    }

    /// Quantizes a batch of row-major vectors, returning one centroid index
    /// per row.
    pub fn assign_all(&self, data: &[f32]) -> Vec<u32> {
        data.chunks_exact(self.dim)
            .map(|v| self.assign(v).0 as u32)
            .collect()
    }

    /// Builds a model directly from a centroid matrix (used by tests and by
    /// the codebook-permutation step of the optimized assignment).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty or not a multiple of `dim`.
    pub fn from_centroids(centroids: Vec<f32>, dim: usize) -> Self {
        assert!(dim > 0 && !centroids.is_empty() && centroids.len().is_multiple_of(dim));
        KMeans {
            centroids,
            dim,
            inertia: f64::NAN,
            iterations: 0,
        }
    }
}

fn validate(data: &[f32], dim: usize, k: usize) -> Result<usize, KMeansError> {
    if k == 0 {
        return Err(KMeansError::ZeroK);
    }
    if data.is_empty() {
        return Err(KMeansError::EmptyInput);
    }
    if dim == 0 || !data.len().is_multiple_of(dim) {
        return Err(KMeansError::BadShape {
            len: data.len(),
            dim,
        });
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(KMeansError::NonFiniteInput);
    }
    let n = data.len() / dim;
    if n < k {
        return Err(KMeansError::KExceedsPoints { k, n });
    }
    Ok(n)
}

/// k-means++ seeding: the first centroid is uniform, each next one is drawn
/// with probability proportional to the squared distance to the nearest
/// centroid chosen so far.
fn init_plus_plus(data: &[f32], dim: usize, k: usize, rng: &mut StdRng) -> Vec<f32> {
    let n = data.len() / dim;
    let mut centroids = Vec::with_capacity(k * dim);
    let first = rng.gen_range(0..n);
    centroids.extend_from_slice(&data[first * dim..(first + 1) * dim]);

    // Squared distance of every point to its nearest chosen centroid.
    let mut d2: Vec<f64> = data
        .chunks_exact(dim)
        .map(|v| l2_sq(v, &centroids[..dim]) as f64)
        .collect();

    for _ in 1..k {
        let total: f64 = d2.iter().sum();
        let chosen = if total <= 0.0 {
            // All remaining points coincide with chosen centroids; fall back
            // to uniform sampling so we still return k rows.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut idx = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    idx = i;
                    break;
                }
                target -= w;
            }
            idx
        };
        let row = &data[chosen * dim..(chosen + 1) * dim];
        centroids.extend_from_slice(row);
        for (slot, v) in d2.iter_mut().zip(data.chunks_exact(dim)) {
            let d = l2_sq(v, row) as f64;
            if d < *slot {
                *slot = d;
            }
        }
    }
    centroids
}

/// Uniform sampling of `k` distinct rows (partial Fisher–Yates).
fn init_random(data: &[f32], dim: usize, k: usize, rng: &mut StdRng) -> Vec<f32> {
    let n = data.len() / dim;
    let mut order: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        order.swap(i, j);
    }
    let mut centroids = Vec::with_capacity(k * dim);
    for &i in &order[..k] {
        centroids.extend_from_slice(&data[i * dim..(i + 1) * dim]);
    }
    centroids
}

/// Trains a k-means codebook on row-major `data` (`n × dim`, flattened).
///
/// Empty clusters are repaired each iteration by re-seeding them with the
/// point currently farthest from its assigned centroid, so the returned
/// model always has exactly `cfg.k` meaningful centroids.
///
/// # Errors
///
/// See [`KMeansError`] — empty input, shape mismatch, `k = 0`, `k > n`, or
/// non-finite coordinates.
pub fn train(data: &[f32], dim: usize, cfg: &KMeansConfig) -> Result<KMeans, KMeansError> {
    let n = validate(data, dim, cfg.k)?;
    let k = cfg.k;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut centroids = match cfg.init {
        InitMethod::KMeansPlusPlus => init_plus_plus(data, dim, k, &mut rng),
        InitMethod::Random => init_random(data, dim, k, &mut rng),
    };

    let mut assignment = vec![0u32; n];
    let mut dists = vec![0f32; n];
    let mut prev_inertia = f64::INFINITY;
    let mut inertia = f64::INFINITY;
    let mut iterations = 0usize;

    let mut sums = vec![0f64; k * dim];
    let mut counts = vec![0usize; k];

    let pool = ThreadPool::global();
    for iter in 0..cfg.max_iters.max(1) {
        iterations = iter + 1;

        // Assignment step — the hot loop of training, parallel over fixed
        // row chunks (decomposition never depends on the pool size, so
        // training is reproducible on any machine and thread count).
        inertia = assign_step(data, dim, &centroids, &mut assignment, &mut dists, pool);

        // Update step.
        sums.iter_mut().for_each(|s| *s = 0.0);
        counts.iter_mut().for_each(|c| *c = 0);
        for (i, v) in data.chunks_exact(dim).enumerate() {
            let c = assignment[i] as usize;
            counts[c] += 1;
            let row = &mut sums[c * dim..(c + 1) * dim];
            for (s, &x) in row.iter_mut().zip(v) {
                *s += x as f64;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Empty-cluster repair: steal the point farthest from its
                // centroid. Deterministic (first maximal index).
                let (far, _) =
                    dists
                        .iter()
                        .enumerate()
                        .fold((0usize, f32::NEG_INFINITY), |acc, (i, &d)| {
                            if d > acc.1 {
                                (i, d)
                            } else {
                                acc
                            }
                        });
                centroids[c * dim..(c + 1) * dim]
                    .copy_from_slice(&data[far * dim..(far + 1) * dim]);
                dists[far] = 0.0; // don't steal the same point twice
            } else {
                let inv = 1.0 / counts[c] as f64;
                for d in 0..dim {
                    centroids[c * dim + d] = (sums[c * dim + d] * inv) as f32;
                }
            }
        }

        // Convergence check on relative improvement.
        if prev_inertia.is_finite() {
            let improvement = (prev_inertia - inertia) / prev_inertia.max(f64::MIN_POSITIVE);
            if improvement.abs() < cfg.tol {
                break;
            }
        }
        prev_inertia = inertia;
    }

    Ok(KMeans {
        centroids,
        dim,
        inertia,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_data(centers: &[[f32; 2]], per: usize, spread: f32, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(centers.len() * per * 2);
        for c in centers {
            for _ in 0..per {
                data.push(c[0] + rng.gen_range(-spread..spread));
                data.push(c[1] + rng.gen_range(-spread..spread));
            }
        }
        data
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let centers = [[0.0f32, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]];
        let data = blob_data(&centers, 50, 1.0, 42);
        let model = train(&data, 2, &KMeansConfig::new(4).with_seed(1)).unwrap();
        // Each true center must be within 2.0 of some learned centroid.
        for c in &centers {
            let (_, d) = model.assign(c);
            assert!(d < 4.0, "center {c:?} is {d} away from nearest centroid");
        }
        assert!(model.inertia() < 50.0 * 4.0 * 2.0 * 2.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = blob_data(&[[0.0, 0.0], [10.0, 10.0]], 30, 1.0, 7);
        let a = train(&data, 2, &KMeansConfig::new(5).with_seed(9)).unwrap();
        let b = train(&data, 2, &KMeansConfig::new(5).with_seed(9)).unwrap();
        assert_eq!(a.centroids(), b.centroids());
        assert_eq!(a.iterations(), b.iterations());
    }

    #[test]
    fn different_seeds_may_differ_but_both_valid() {
        let data = blob_data(&[[0.0, 0.0], [10.0, 10.0]], 30, 2.0, 7);
        let a = train(&data, 2, &KMeansConfig::new(3).with_seed(1)).unwrap();
        let b = train(&data, 2, &KMeansConfig::new(3).with_seed(2)).unwrap();
        assert_eq!(a.k(), 3);
        assert_eq!(b.k(), 3);
    }

    #[test]
    fn k_equals_n_places_a_centroid_on_every_point() {
        let data = [0.0f32, 0.0, 5.0, 5.0, 9.0, 1.0];
        let model = train(&data, 2, &KMeansConfig::new(3).with_seed(3)).unwrap();
        for v in data.chunks_exact(2) {
            let (_, d) = model.assign(v);
            assert!(d < 1e-9, "point {v:?} not exactly represented");
        }
        assert!(model.inertia() < 1e-9);
    }

    #[test]
    fn duplicate_points_are_handled() {
        let data = vec![1.0f32; 2 * 20]; // 20 identical 2-d points
        let model = train(&data, 2, &KMeansConfig::new(4).with_seed(0)).unwrap();
        assert_eq!(model.k(), 4);
        let (_, d) = model.assign(&[1.0, 1.0]);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn random_init_also_works() {
        let data = blob_data(&[[0.0, 0.0], [50.0, 50.0]], 40, 1.0, 11);
        let cfg = KMeansConfig::new(2)
            .with_seed(5)
            .with_init(InitMethod::Random);
        let model = train(&data, 2, &cfg).unwrap();
        let (c0, _) = model.assign(&[0.0, 0.0]);
        let (c1, _) = model.assign(&[50.0, 50.0]);
        assert_ne!(c0, c1);
    }

    #[test]
    fn inertia_never_increases_with_more_iterations() {
        let data = blob_data(&[[0.0, 0.0], [8.0, 3.0], [1.0, 9.0]], 60, 3.0, 13);
        let short = train(
            &data,
            2,
            &KMeansConfig::new(6).with_seed(2).with_max_iters(1),
        )
        .unwrap();
        let long = train(
            &data,
            2,
            &KMeansConfig::new(6).with_seed(2).with_max_iters(30),
        )
        .unwrap();
        assert!(long.inertia() <= short.inertia() + 1e-9);
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            train(&[], 2, &KMeansConfig::new(2)).unwrap_err(),
            KMeansError::EmptyInput
        );
        assert_eq!(
            train(&[1.0, 2.0, 3.0], 2, &KMeansConfig::new(1)).unwrap_err(),
            KMeansError::BadShape { len: 3, dim: 2 }
        );
        assert_eq!(
            train(&[1.0, 2.0], 2, &KMeansConfig::new(0)).unwrap_err(),
            KMeansError::ZeroK
        );
        assert_eq!(
            train(&[1.0, 2.0], 2, &KMeansConfig::new(2)).unwrap_err(),
            KMeansError::KExceedsPoints { k: 2, n: 1 }
        );
        assert_eq!(
            train(&[1.0, f32::NAN], 2, &KMeansConfig::new(1)).unwrap_err(),
            KMeansError::NonFiniteInput
        );
    }

    #[test]
    fn training_is_identical_for_any_pool_size() {
        // Over 2×ASSIGN_CHUNK points so the parallel path really splits.
        let data = blob_data(&[[0.0, 0.0], [40.0, 5.0], [5.0, 40.0]], 800, 4.0, 17);
        let cfg = KMeansConfig::new(8).with_seed(6);
        let serial = train(&data, 2, &cfg).unwrap();
        for threads in [2usize, 8] {
            let pool = ThreadPool::new(threads);
            let mut assignment = vec![0u32; data.len() / 2];
            let mut dists = vec![0f32; data.len() / 2];
            let par = assign_step(
                &data,
                2,
                serial.centroids(),
                &mut assignment,
                &mut dists,
                &pool,
            );
            let ser = assign_step(
                &data,
                2,
                serial.centroids(),
                &mut vec![0u32; data.len() / 2],
                &mut vec![0f32; data.len() / 2],
                &ThreadPool::new(1),
            );
            assert_eq!(par.to_bits(), ser.to_bits(), "{threads} threads");
            assert_eq!(assignment, serial.assign_all(&data), "{threads} threads");
        }
    }

    #[test]
    fn assign_all_matches_assign() {
        let data = blob_data(&[[0.0, 0.0], [10.0, 0.0]], 10, 1.0, 3);
        let model = train(&data, 2, &KMeansConfig::new(2).with_seed(4)).unwrap();
        let batch = model.assign_all(&data);
        for (i, v) in data.chunks_exact(2).enumerate() {
            assert_eq!(batch[i], model.assign(v).0 as u32);
        }
    }
}
