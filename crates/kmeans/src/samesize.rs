//! Same-size k-means: balanced clustering with equal cluster cardinalities.
//!
//! Paper §4.3 uses "a variant of k-means that forces groups of same sizes"
//! (reference \[24\], E. Schubert's ELKI tutorial) to split the 256 centroids
//! of each sub-quantizer into 16 clusters of exactly 16. Centroids in the
//! same cluster then receive consecutive indexes, which makes each 16-entry
//! *portion* of a distance table hold mutually close values and therefore
//! makes the minimum tables (paper §4.3, Figure 10) tight.
//!
//! The implementation follows the tutorial's structure:
//!
//! 1. seed `k` centroids with k-means++;
//! 2. **balanced greedy assignment** — points ordered by how much they care
//!    (distance advantage of their best cluster over their worst) claim
//!    seats in their best cluster that still has capacity;
//! 3. **swap refinement** — repeatedly exchange pairs of points between
//!    clusters whenever the exchange strictly reduces the total squared
//!    distance, keeping cluster sizes invariant.

use crate::distance::l2_sq;
use crate::lloyd::{train, KMeansConfig};
use crate::KMeansError;

/// Configuration for [`train_same_size`].
#[derive(Debug, Clone)]
pub struct SameSizeConfig {
    /// Number of clusters; the input size must be divisible by it.
    pub k: usize,
    /// Upper bound on swap-refinement passes.
    pub max_iters: usize,
    /// RNG seed for the k-means++ seeding stage.
    pub seed: u64,
}

impl SameSizeConfig {
    /// Defaults: 10 refinement passes, seed 0.
    pub fn new(k: usize) -> Self {
        SameSizeConfig {
            k,
            max_iters: 10,
            seed: 0,
        }
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of a balanced clustering: one cluster label per input row, with
/// every label appearing exactly `n / k` times.
#[derive(Debug, Clone)]
pub struct SameSizeKMeans {
    assignment: Vec<u32>,
    k: usize,
    cost: f64,
}

impl SameSizeKMeans {
    /// Cluster label of each input row, in input order.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Cluster size (identical for every cluster).
    pub fn cluster_size(&self) -> usize {
        self.assignment.len() / self.k
    }

    /// Total squared distance of points to their cluster means.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Row indexes grouped by cluster: `groups()[c]` lists the rows assigned
    /// to cluster `c`, each of length [`cluster_size`](Self::cluster_size),
    /// in ascending row order.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::with_capacity(self.cluster_size()); self.k];
        for (row, &c) in self.assignment.iter().enumerate() {
            groups[c as usize].push(row);
        }
        groups
    }
}

fn cluster_means(data: &[f32], dim: usize, assignment: &[u32], k: usize) -> Vec<f32> {
    let mut sums = vec![0f64; k * dim];
    let mut counts = vec![0usize; k];
    for (v, &c) in data.chunks_exact(dim).zip(assignment) {
        counts[c as usize] += 1;
        let row = &mut sums[c as usize * dim..(c as usize + 1) * dim];
        for (s, &x) in row.iter_mut().zip(v) {
            *s += x as f64;
        }
    }
    let mut means = vec![0f32; k * dim];
    for c in 0..k {
        if counts[c] > 0 {
            let inv = 1.0 / counts[c] as f64;
            for d in 0..dim {
                means[c * dim + d] = (sums[c * dim + d] * inv) as f32;
            }
        }
    }
    means
}

fn total_cost(data: &[f32], dim: usize, assignment: &[u32], means: &[f32]) -> f64 {
    data.chunks_exact(dim)
        .zip(assignment)
        .map(|(v, &c)| l2_sq(v, &means[c as usize * dim..(c as usize + 1) * dim]) as f64)
        .sum()
}

/// Clusters `data` (row-major `n × dim`) into `cfg.k` clusters of exactly
/// `n / k` rows each.
///
/// # Errors
///
/// All [`train`] errors plus [`KMeansError::NotDivisible`] when `n % k != 0`.
pub fn train_same_size(
    data: &[f32],
    dim: usize,
    cfg: &SameSizeConfig,
) -> Result<SameSizeKMeans, KMeansError> {
    let k = cfg.k;
    // Seed centroids with ordinary k-means (validates all shared inputs).
    let seeded = train(data, dim, &KMeansConfig::new(k).with_seed(cfg.seed))?;
    let n = data.len() / dim;
    if !n.is_multiple_of(k) {
        return Err(KMeansError::NotDivisible { k, n });
    }
    let capacity = n / k;
    let centroids = seeded.centroids();

    // --- Balanced greedy assignment -------------------------------------
    // Distance matrix n × k.
    let mut dmat = vec![0f32; n * k];
    for (i, v) in data.chunks_exact(dim).enumerate() {
        for c in 0..k {
            dmat[i * k + c] = l2_sq(v, &centroids[c * dim..(c + 1) * dim]);
        }
    }
    // Points that lose the most by missing their best cluster go first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let row_a = &dmat[a * k..(a + 1) * k];
        let row_b = &dmat[b * k..(b + 1) * k];
        let spread = |row: &[f32]| {
            let mut mn = f32::INFINITY;
            let mut mx = f32::NEG_INFINITY;
            for &d in row {
                mn = mn.min(d);
                mx = mx.max(d);
            }
            mn - mx // most negative = cares most
        };
        spread(row_a).total_cmp(&spread(row_b)).then(a.cmp(&b))
    });
    let mut assignment = vec![u32::MAX; n];
    let mut remaining = vec![capacity; k];
    for &i in &order {
        let row = &dmat[i * k..(i + 1) * k];
        let mut best = usize::MAX;
        let mut best_d = f32::INFINITY;
        for c in 0..k {
            if remaining[c] > 0 && row[c] < best_d {
                best_d = row[c];
                best = c;
            }
        }
        debug_assert!(best != usize::MAX, "capacity bookkeeping broken");
        assignment[i] = best as u32;
        remaining[best] -= 1;
    }

    // --- Swap refinement --------------------------------------------------
    // Pairwise exchanges keep sizes invariant; accept strictly improving
    // swaps against the *current* means, then recompute means each pass.
    for _ in 0..cfg.max_iters {
        let means = cluster_means(data, dim, &assignment, k);
        // Cache d(point, mean of each cluster).
        for (i, v) in data.chunks_exact(dim).enumerate() {
            for c in 0..k {
                dmat[i * k + c] = l2_sq(v, &means[c * dim..(c + 1) * dim]);
            }
        }
        let mut improved = false;
        for i in 0..n {
            for j in (i + 1)..n {
                let (ci, cj) = (assignment[i] as usize, assignment[j] as usize);
                if ci == cj {
                    continue;
                }
                let current = dmat[i * k + ci] + dmat[j * k + cj];
                let swapped = dmat[i * k + cj] + dmat[j * k + ci];
                if swapped + 1e-9 < current {
                    assignment.swap(i, j);
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }

    let means = cluster_means(data, dim, &assignment, k);
    let cost = total_cost(data, dim, &assignment, &means);
    Ok(SameSizeKMeans {
        assignment,
        k,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn counts(assignment: &[u32], k: usize) -> Vec<usize> {
        let mut c = vec![0usize; k];
        for &a in assignment {
            c[a as usize] += 1;
        }
        c
    }

    #[test]
    fn all_clusters_have_equal_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<f32> = (0..256 * 4).map(|_| rng.gen_range(0.0..255.0f32)).collect();
        let result = train_same_size(&data, 4, &SameSizeConfig::new(16).with_seed(2)).unwrap();
        assert_eq!(counts(result.assignment(), 16), vec![16; 16]);
        assert_eq!(result.cluster_size(), 16);
    }

    #[test]
    fn balanced_blobs_are_recovered_exactly() {
        // 4 blobs of exactly 8 points; balanced clustering should match them.
        let mut data = Vec::new();
        for (cx, cy) in [(0.0f32, 0.0f32), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)] {
            for i in 0..8 {
                data.push(cx + (i as f32) * 0.1);
                data.push(cy + (i as f32) * 0.1);
            }
        }
        let result = train_same_size(&data, 2, &SameSizeConfig::new(4).with_seed(0)).unwrap();
        // All 8 points of each blob share a label.
        for blob in 0..4 {
            let first = result.assignment()[blob * 8];
            for i in 0..8 {
                assert_eq!(result.assignment()[blob * 8 + i], first, "blob {blob}");
            }
        }
    }

    #[test]
    fn rejects_non_divisible_input() {
        let data = vec![0.0f32; 10 * 2];
        let err = train_same_size(&data, 2, &SameSizeConfig::new(3)).unwrap_err();
        assert_eq!(err, KMeansError::NotDivisible { k: 3, n: 10 });
    }

    #[test]
    fn groups_partition_all_rows() {
        let mut rng = StdRng::seed_from_u64(3);
        let data: Vec<f32> = (0..64 * 2).map(|_| rng.gen_range(0.0..10.0f32)).collect();
        let result = train_same_size(&data, 2, &SameSizeConfig::new(8).with_seed(1)).unwrap();
        let groups = result.groups();
        assert_eq!(groups.len(), 8);
        let mut seen: Vec<usize> = groups.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
        for g in &groups {
            assert_eq!(g.len(), 8);
        }
    }

    #[test]
    fn swap_refinement_does_not_hurt_cost() {
        // Cost after refinement must be <= cost of the pure greedy pass
        // (max_iters = 0 disables refinement).
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<f32> = (0..128 * 3).map(|_| rng.gen_range(0.0..50.0f32)).collect();
        let greedy = train_same_size(
            &data,
            3,
            &SameSizeConfig {
                k: 8,
                max_iters: 0,
                seed: 9,
            },
        )
        .unwrap();
        let refined = train_same_size(
            &data,
            3,
            &SameSizeConfig {
                k: 8,
                max_iters: 10,
                seed: 9,
            },
        )
        .unwrap();
        assert!(refined.cost() <= greedy.cost() + 1e-6);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut rng = StdRng::seed_from_u64(8);
        let data: Vec<f32> = (0..96 * 2).map(|_| rng.gen_range(0.0..10.0f32)).collect();
        let a = train_same_size(&data, 2, &SameSizeConfig::new(6).with_seed(4)).unwrap();
        let b = train_same_size(&data, 2, &SameSizeConfig::new(6).with_seed(4)).unwrap();
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn single_cluster_contains_everything() {
        let data = vec![1.0f32; 12 * 2];
        let result = train_same_size(&data, 2, &SameSizeConfig::new(1)).unwrap();
        assert!(result.assignment().iter().all(|&c| c == 0));
    }
}
