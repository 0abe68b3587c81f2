//! Synthetic SIFT-like vector generation.
//!
//! The paper evaluates on ANN_SIFT1B: 128-dimensional SIFT descriptors with
//! byte-range components. Two statistical properties of that corpus matter
//! to the algorithms under test (README.md, "Reproducing the paper"):
//!
//! 1. **global clustering** — queries have true near neighbors and IVF
//!    partitions are meaningful;
//! 2. **partial subspace independence** — a vector's 16-dimensional blocks
//!    (the product-quantizer subspaces) are correlated with, but not
//!    determined by, its global cluster. This yields a *continuum* of
//!    distances from a query (near neighbors share many blocks, mid
//!    vectors share some, far vectors none), and spreads near neighbors
//!    across the Fast Scan group order instead of clumping them into a few
//!    groups.
//!
//! A naive mixture-of-Gaussians violates (2): every subvector is pinned to
//! the cluster, distances become bimodal, and the Fast Scan top-k threshold
//! converges only when the single "good" group is reached — behaviour real
//! SIFT does not exhibit. This generator therefore uses a **mosaic
//! mixture**: each vector picks a primary cluster, then each 16-dim block
//! is copied from the primary's center with probability [`SyntheticConfig::
//! block_coherence`] (else from a random other center), plus Gaussian noise,
//! clamped to the SIFT byte range.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the synthetic generator.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Vector dimensionality (SIFT: 128).
    pub dim: usize,
    /// Number of mixture cluster centers.
    pub clusters: usize,
    /// Standard deviation of points around their (mosaic) center.
    pub cluster_std: f32,
    /// Width of the independent blocks the mosaic draws from (matches the
    /// PQ 8×8 subspace width by default).
    pub block_dim: usize,
    /// Probability that a block comes from the vector's primary cluster
    /// center (1.0 = classic mixture of Gaussians; lower values increase
    /// subspace independence and smooth the distance distribution).
    pub block_coherence: f64,
    /// RNG seed (generation is fully deterministic given the seed).
    pub seed: u64,
}

impl SyntheticConfig {
    /// SIFT-like defaults: 128 dimensions, 256 clusters, σ = 18, 16-dim
    /// blocks with coherence 0.65.
    pub fn sift_like() -> Self {
        SyntheticConfig {
            dim: 128,
            clusters: 256,
            cluster_std: 18.0,
            block_dim: 16,
            block_coherence: 0.65,
            seed: 0,
        }
    }

    /// Replaces the dimensionality.
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the cluster count.
    pub fn with_clusters(mut self, clusters: usize) -> Self {
        self.clusters = clusters;
        self
    }
}

/// A reusable generator: cluster centers are materialized once, vectors are
/// drawn on demand (so base, query and training sets come from the same
/// distribution, like the splits of ANN_SIFT1B).
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    centers: Vec<f32>,
    dim: usize,
    block_dim: usize,
    block_coherence: f64,
    cluster_std: f32,
    rng: StdRng,
}

impl SyntheticDataset {
    /// Materializes the mixture described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `dim`, `clusters` or `block_dim` is zero.
    pub fn new(config: &SyntheticConfig) -> Self {
        assert!(config.dim > 0 && config.clusters > 0 && config.block_dim > 0);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let centers: Vec<f32> = (0..config.clusters * config.dim)
            .map(|_| rng.gen_range(0.0f32..=255.0))
            .collect();
        SyntheticDataset {
            centers,
            dim: config.dim,
            block_dim: config.block_dim.min(config.dim),
            block_coherence: config.block_coherence.clamp(0.0, 1.0),
            cluster_std: config.cluster_std,
            rng,
        }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Draws one vector into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim`.
    pub fn sample_into(&mut self, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim);
        let k = self.centers.len() / self.dim;
        let primary = self.rng.gen_range(0..k);
        let mut start = 0usize;
        while start < self.dim {
            let end = (start + self.block_dim).min(self.dim);
            let source = if self.rng.gen_bool(self.block_coherence) {
                primary
            } else {
                self.rng.gen_range(0..k)
            };
            let center = &self.centers[source * self.dim..(source + 1) * self.dim];
            for i in start..end {
                let noise = gaussian(&mut self.rng) * self.cluster_std;
                out[i] = (center[i] + noise).clamp(0.0, 255.0);
            }
            start = end;
        }
    }

    /// Draws `n` row-major vectors.
    pub fn sample(&mut self, n: usize) -> Vec<f32> {
        let mut data = vec![0f32; n * self.dim];
        for row in data.chunks_exact_mut(self.dim) {
            self.sample_into(row);
        }
        data
    }
}

/// One standard Gaussian draw via Box–Muller (the sanctioned `rand` crate
/// ships without distributions; two uniform draws suffice).
fn gaussian(rng: &mut StdRng) -> f32 {
    // Guard against ln(0).
    let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
    let u2: f32 = rng.gen_range(0.0f32..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Convenience: draws `n` vectors from a fresh generator.
pub fn generate(n: usize, config: &SyntheticConfig) -> Vec<f32> {
    SyntheticDataset::new(config).sample(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d2(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    #[test]
    fn values_stay_in_sift_byte_range() {
        let cfg = SyntheticConfig::sift_like().with_dim(16).with_seed(3);
        let data = generate(500, &cfg);
        assert_eq!(data.len(), 500 * 16);
        assert!(data.iter().all(|&x| (0.0..=255.0).contains(&x)));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = SyntheticConfig::sift_like().with_dim(8).with_seed(11);
        assert_eq!(generate(100, &cfg), generate(100, &cfg));
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(10, &SyntheticConfig::sift_like().with_dim(8).with_seed(1));
        let b = generate(10, &SyntheticConfig::sift_like().with_dim(8).with_seed(2));
        assert_ne!(a, b);
    }

    #[test]
    fn full_coherence_is_a_classic_clustered_mixture() {
        // With coherence 1 and few tight clusters, nearest-other-point
        // distances are far below the uniform-random expectation.
        let cfg = SyntheticConfig {
            dim: 16,
            clusters: 4,
            cluster_std: 2.0,
            block_dim: 16,
            block_coherence: 1.0,
            seed: 5,
        };
        let data = generate(200, &cfg);
        let mut total_nn = 0.0f64;
        for i in 0..50 {
            let vi = &data[i * 16..(i + 1) * 16];
            let mut best = f32::INFINITY;
            for j in 0..200 {
                if i != j {
                    best = best.min(d2(vi, &data[j * 16..(j + 1) * 16]));
                }
            }
            total_nn += best as f64;
        }
        let avg_nn = total_nn / 50.0;
        // Uniform random in [0,255]^16 would give ~ 16 * (255^2/6) ≈ 173k.
        assert!(
            avg_nn < 10_000.0,
            "avg nearest-neighbor distance {avg_nn} not clustered"
        );
    }

    #[test]
    fn mosaic_produces_a_distance_continuum() {
        // With partial coherence, distances from a point to the rest of the
        // set must spread smoothly: the 10th percentile should sit clearly
        // between the minimum and the median (no bimodal gap).
        let cfg = SyntheticConfig::sift_like()
            .with_dim(64)
            .with_clusters(16)
            .with_seed(7);
        let data = generate(2000, &cfg);
        let q = &data[..64];
        let mut dists: Vec<f32> = (1..2000)
            .map(|j| d2(q, &data[j * 64..(j + 1) * 64]))
            .collect();
        dists.sort_by(f32::total_cmp);
        let p = |f: f64| dists[((dists.len() - 1) as f64 * f) as usize];
        let (p01, p10, p50) = (p(0.01), p(0.10), p(0.50));
        assert!(
            p01 < p10 && p10 < p50,
            "distances must be spread: {p01} {p10} {p50}"
        );
        // Continuum check: p10 is not glued to either end.
        let spread = (p10 - p01) / (p50 - p01);
        assert!(
            (0.02..=0.98).contains(&spread),
            "bimodal distance distribution: p01={p01} p10={p10} p50={p50}"
        );
    }

    #[test]
    fn successive_samples_share_the_distribution() {
        let cfg = SyntheticConfig::sift_like()
            .with_dim(4)
            .with_clusters(2)
            .with_seed(9);
        let mut gen = SyntheticDataset::new(&cfg);
        let a = gen.sample(100);
        let b = gen.sample(100);
        assert_ne!(a, b, "samples must advance the RNG");
        assert!(b.iter().all(|&x| (0.0..=255.0).contains(&x)));
    }

    #[test]
    fn partial_blocks_are_handled() {
        // dim not a multiple of block_dim: the tail block is shorter.
        let cfg = SyntheticConfig {
            dim: 20,
            clusters: 8,
            cluster_std: 5.0,
            block_dim: 16,
            block_coherence: 0.5,
            seed: 13,
        };
        let data = generate(50, &cfg);
        assert_eq!(data.len(), 50 * 20);
        assert!(data.iter().all(|x| x.is_finite()));
    }
}
