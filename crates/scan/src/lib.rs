//! Scan implementations for PQ nearest-neighbor search: **PQ Fast Scan**
//! (§4) and the two PQ Scan baselines (§3) that serve as its exactness
//! oracle and its speed reference.
//!
//! | Implementation | Paper | Layout | Per-vector work |
//! |---|---|---|---|
//! | [`scan_naive`] | Alg. 1 | row-major | 8 mem1 + 8 mem2 loads, scalar adds |
//! | [`scan_libpq`] | §3.1 | row-major | 1×64-bit mem1 load + shifts, 8 mem2 |
//! | [`FastScanIndex`] | §4 | grouped+packed | in-register `pshufb` lookups, ~95 % of exact computations pruned |
//!
//! Every implementation returns the **exact same result set** — the `topk`
//! smallest `(distance, id)` pairs — which the test suite verifies pairwise
//! and property-based tests verify against brute force. The variants the
//! paper only measures (§3.2's "avx" and "gather" scans, §5.5's
//! quantization-only scan) live with the experiment binaries in
//! `pqfs_bench::baselines`.
//!
//! # The `Scanner` trait and `Backend` registry
//!
//! The three implementations are interchangeable behind the [`Scanner`]
//! trait, and the [`Backend`] enum is the registry that constructs them:
//! [`Backend::ALL`] enumerates them, [`Backend::scanner`] builds one from
//! [`ScanOpts`], and `Backend: FromStr` parses the names the CLI, the wire
//! protocol and bench flags use.
//!
//! For repeated queries over one partition, [`Scanner::prepare`] converts
//! the codes into the backend's native layout once (grouping + packing for
//! Fast Scan) and returns a [`PreparedScanner`] that serves queries without
//! conversion cost.
//!
//! ```
//! use pqfs_core::{DistanceTables, RowMajorCodes};
//! use pqfs_scan::{Backend, ScanOpts};
//!
//! let tables = DistanceTables::from_raw((0..8 * 256).map(|x| x as f32).collect(), 8, 256);
//! let codes = RowMajorCodes::new((0..256 * 8).map(|x| (x * 7 % 256) as u8).collect(), 8);
//! let backend: Backend = "fastscan".parse().unwrap();
//! let result = backend
//!     .scanner(&ScanOpts::default())
//!     .scan(&tables, &codes, 10)
//!     .unwrap();
//! assert_eq!(result.neighbors.len(), 10);
//! ```
//!
//! The x86-64 SIMD paths are compiled under the `avx2` cargo feature
//! (enabled by default) and selected by runtime CPU detection; disabling
//! the feature forces the portable scalar kernel.

#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(feature = "checked-kernels")]
pub mod checked;
mod error;
pub mod fastscan;
pub mod libpq;
pub mod naive;
pub mod quantize;
mod result;
mod scanner;

pub use error::ScanError;
pub use fastscan::{FastScanIndex, FastScanOptions, Kernel, ScanParams, ScanScratch};
pub use libpq::scan_libpq;
pub use naive::scan_naive;
pub use quantize::{DistanceQuantizer, DEFAULT_BINS, NO_PRUNE, PAPER_BINS};
pub use result::{ScanResult, ScanStats};
pub use scanner::{Backend, PreparedScanner, ScanOpts, Scanner};
