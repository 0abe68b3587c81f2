//! Clustering substrate for the PQ Fast Scan reproduction.
//!
//! Product quantization (paper §2.1) is built from *Lloyd-optimal vector
//! quantizers*, i.e. k-means codebooks. This crate provides:
//!
//! * [`lloyd`] — Lloyd's algorithm with k-means++ initialization and
//!   empty-cluster repair, used to train every sub-quantizer and the IVF
//!   coarse quantizer;
//! * [`samesize`] — a same-size k-means variant (paper §4.3, reference
//!   \[24\]: E. Schubert, *Same-size k-means variation*) used to compute the
//!   optimized assignment of sub-quantizer centroid indexes that makes the
//!   minimum tables of PQ Fast Scan tight;
//! * [`distance`] — the squared-L2 kernels shared by both.
//!
//! All entry points are deterministic given the `seed` in their
//! configuration; no global RNG state is consulted.
//!
//! # Example
//!
//! ```
//! use pqfs_kmeans::{KMeansConfig, train};
//!
//! // Four obvious clusters on a line.
//! let data: Vec<f32> = [0.0f32, 0.1, 10.0, 10.1, 20.0, 20.1, 30.0, 30.1]
//!     .iter().flat_map(|&x| [x, 0.0]).collect();
//! let model = train(&data, 2, &KMeansConfig::new(4).with_seed(7)).unwrap();
//! assert_eq!(model.k(), 4);
//! // Nearby points land in the same cluster.
//! let (c0, _) = model.assign(&[0.05, 0.0]);
//! let (c1, _) = model.assign(&[0.02, 0.0]);
//! assert_eq!(c0, c1);
//! ```

pub mod distance;
mod error;
pub mod lloyd;
pub mod samesize;

pub use error::KMeansError;
pub use lloyd::{train, KMeans, KMeansConfig};
pub use samesize::{train_same_size, SameSizeConfig, SameSizeKMeans};
