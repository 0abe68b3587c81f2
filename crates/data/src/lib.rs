//! Dataset substrate for the PQ Fast Scan reproduction.
//!
//! The paper evaluates on ANN_SIFT1B, which cannot be shipped with this
//! repository. This crate provides (README.md, "Reproducing the paper"):
//!
//! * [`synthetic`] — a seeded SIFT-like mixture-of-Gaussians generator that
//!   reproduces the properties the algorithms care about (byte-range
//!   coordinates, clustered structure, distance contrast);
//! * [`io`] — readers/writers for the TEXMEX `.fvecs`/`.bvecs`/`.ivecs`
//!   formats, so the real corpus can be dropped in when available;
//! * [`groundtruth`] — exact brute-force k-NN for recall measurements.

pub mod groundtruth;
pub mod io;
pub mod synthetic;

pub use groundtruth::{exact_knn, TrueNeighbor};
pub use io::{
    read_bvecs, read_fvecs, read_ivecs, write_bvecs, write_fvecs, write_ivecs, DataError,
    VectorFile,
};
pub use synthetic::{generate, SyntheticConfig, SyntheticDataset};
