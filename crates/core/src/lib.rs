//! Product quantization core for the PQ Fast Scan reproduction.
//!
//! This crate implements everything the paper's §2 ("Background") describes:
//!
//! * [`config`] — `PQ m×b` configurations ([`PqConfig`]): `m` sub-quantizers
//!   with `2^b` centroids each, including the paper's `PQ 16×4`, `PQ 8×8`
//!   and `PQ 4×16` trade-off points (Table 1);
//! * [`codebook`] — per-sub-quantizer codebooks with index permutation
//!   support (needed by the §4.3 optimized assignment);
//! * [`pq`] — the [`ProductQuantizer`]: training on sample vectors,
//!   encoding to compact codes, decoding (reconstruction), and the §4.3
//!   optimized centroid-index assignment;
//! * [`tables`] — per-query [`DistanceTables`] (paper Eq. 2) and the
//!   asymmetric distance computation (ADC, Eq. 1/3);
//! * [`layout`] — the row-major code storage (Figure 1) every other layout
//!   is built from;
//! * [`topk`] — a bounded max-heap with deterministic tie-breaking, shared
//!   by every scan implementation so result sets are bit-comparable.
//!
//! # Quickstart
//!
//! ```
//! use pqfs_core::{PqConfig, ProductQuantizer, DistanceTables};
//!
//! // 8 sub-quantizers of 2^4 = 16 centroids over 16-dimensional vectors.
//! let config = PqConfig::new(16, 8, 4).unwrap();
//! let train: Vec<f32> = (0..64 * 16).map(|i| (i % 251) as f32).collect();
//! let pq = ProductQuantizer::train(&train, &config, 42).unwrap();
//!
//! let query = vec![1.5f32; 16];
//! let database = vec![2.0f32; 16];
//! let code = pq.encode(&database);
//! let tables = DistanceTables::compute(&pq, &query).unwrap();
//! let approx = tables.distance(&code);
//! assert!(approx.is_finite());
//! ```

#![forbid(unsafe_code)]

pub mod codebook;
pub mod codec;
pub mod config;
mod error;
pub mod layout;
pub mod persist;
pub mod pq;
pub mod tables;
pub mod topk;

pub use codebook::Codebook;
pub use codec::crc32;
pub use config::PqConfig;
pub use error::PqError;
pub use layout::RowMajorCodes;
pub use persist::{load_pq, load_pq_file, save_pq, save_pq_file, PersistError};
pub use pq::ProductQuantizer;
pub use tables::DistanceTables;
pub use topk::{Neighbor, TopK};
