//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §4 for the index).
//!
//! All binaries accept two environment variables:
//!
//! * `PQFS_SCALE` — multiplier on the default workload sizes (default `1`,
//!   where partition 0 holds 500 000 vectors = Table 3's 25 M ÷ 50). Raise
//!   it on beefy machines to approach the paper's regime.
//! * `PQFS_QUERIES` — queries per measurement point (default varies per
//!   experiment).
//!
//! Workloads are synthetic SIFT-like mixtures (see `pqfs-data`); DESIGN.md
//! documents why this substitution preserves the paper's effects.
//!
//! [`baselines`] holds the scans the paper measures but does not serve
//! (§3.2's "avx" and "gather", §5.5's quantization-only); they are the
//! crate's only unsafe code.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod baselines;

use pqfs_core::{DistanceTables, PqConfig, ProductQuantizer, RowMajorCodes};
use pqfs_data::{SyntheticConfig, SyntheticDataset};

/// SIFT dimensionality used throughout the evaluation.
pub const DIM: usize = 128;

/// Paper Table 3 partition sizes (vectors, millions) for ANN_SIFT100M1.
pub const TABLE3_SIZES_M: [f64; 8] = [25.0, 3.4, 11.0, 11.0, 11.0, 11.0, 4.0, 23.0];

/// Paper Table 3 query routing counts.
pub const TABLE3_QUERIES: [usize; 8] = [2595, 307, 1184, 1032, 1139, 1036, 390, 2317];

/// Reads a float environment variable.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Reads an integer environment variable.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The global workload scale (`PQFS_SCALE`).
pub fn scale() -> f64 {
    env_f64("PQFS_SCALE", 1.0)
}

/// Scaled Table 3 partition sizes: paper sizes ÷ 25 × `PQFS_SCALE`
/// (1 000 000 vectors for partition 0 at scale 1).
pub fn scaled_partition_sizes() -> Vec<usize> {
    TABLE3_SIZES_M
        .iter()
        .map(|&m| ((m * 1e6 / 25.0) * scale()).round().max(1000.0) as usize)
        .collect()
}

/// A trained quantizer plus its data source, shared by the binaries.
pub struct Fixture {
    /// The trained (and index-optimized) `PQ 8×8` quantizer.
    pub pq: ProductQuantizer,
    dataset: SyntheticDataset,
}

impl Fixture {
    /// Trains the standard fixture: `PQ 8×8` over 128-d synthetic SIFT-like
    /// vectors, with the §4.3 optimized assignment applied.
    pub fn train(seed: u64) -> Self {
        let config = SyntheticConfig::sift_like().with_seed(seed);
        let mut dataset = SyntheticDataset::new(&config);
        let train = dataset.sample(12_000);
        let mut pq =
            ProductQuantizer::train(&train, &PqConfig::pq8x8(DIM), seed ^ 0xABCD).expect("train");
        pq.optimize_assignment(16, seed ^ 0x1234)
            .expect("optimize assignment");
        Fixture { pq, dataset }
    }

    /// Encodes a fresh partition of `n` vectors (parallel on the shared
    /// pool).
    pub fn partition(&mut self, n: usize) -> RowMajorCodes {
        let base = self.dataset.sample(n);
        self.pq.encode_batch_parallel(&base).expect("encode")
    }

    /// Draws `count` fresh queries (row-major).
    pub fn queries(&mut self, count: usize) -> Vec<f32> {
        self.dataset.sample(count)
    }

    /// Distance tables for one query.
    pub fn tables(&self, query: &[f32]) -> DistanceTables {
        DistanceTables::compute(&self.pq, query).expect("tables")
    }
}

/// Prints the standard experiment header.
pub fn header(id: &str, paper_ref: &str, params: &str) {
    println!("==================================================================");
    println!("experiment {id}  (paper: {paper_ref})");
    println!("params: {params}");
    println!("host: {} | scale: {}", host_description(), scale());
    println!("==================================================================");
}

/// Short description of the running host (the Table 5 substitute).
pub fn host_description() -> String {
    let arch = std::env::consts::ARCH;
    #[cfg(target_arch = "x86_64")]
    {
        let ssse3 = std::arch::is_x86_feature_detected!("ssse3");
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        format!("{arch} (ssse3={ssse3}, avx2={avx2})")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        arch.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_sizes_preserve_table3_ratios() {
        let sizes = scaled_partition_sizes();
        assert_eq!(sizes.len(), 8);
        // Partition 0 : partition 1 ratio must match 25 : 3.4.
        let ratio = sizes[0] as f64 / sizes[1] as f64;
        assert!((ratio - 25.0 / 3.4).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn env_readers_fall_back_to_defaults() {
        assert_eq!(env_usize("PQFS_DOES_NOT_EXIST", 7), 7);
        assert_eq!(env_f64("PQFS_DOES_NOT_EXIST", 0.25), 0.25);
    }

    #[test]
    fn fixture_produces_consistent_partitions() {
        let mut fx = Fixture::train(100);
        let codes = fx.partition(2_000);
        assert_eq!(codes.len(), 2_000);
        assert_eq!(codes.m(), 8);
        let q = fx.queries(1);
        let tables = fx.tables(&q);
        assert_eq!(tables.m(), 8);
        assert_eq!(tables.ksub(), 256);
    }
}
