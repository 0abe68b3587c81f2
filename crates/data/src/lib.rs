//! Dataset substrate for the PQ Fast Scan reproduction.
//!
//! The paper evaluates on ANN_SIFT1B, which cannot be shipped with this
//! repository. This crate provides (README.md, "Reproducing the paper"):
//!
//! * [`synthetic`] — a seeded SIFT-like mixture-of-Gaussians generator that
//!   reproduces the properties the algorithms care about (byte-range
//!   coordinates, clustered structure, distance contrast);
//! * [`io`] — the reader and writer for the TEXMEX `.fvecs` format, so the
//!   real corpus, converted from its `.bvecs` bytes, can be dropped in;
//! * [`groundtruth`] — exact brute-force k-NN for recall measurements.

pub mod groundtruth;
pub mod io;
pub mod synthetic;

pub use groundtruth::{exact_knn, TrueNeighbor};
pub use io::{read_fvecs, write_fvecs, DataError, VectorFile};
pub use synthetic::{generate, SyntheticConfig, SyntheticDataset};
