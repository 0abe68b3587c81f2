//! Scan implementations for PQ nearest-neighbor search: the four PQ Scan
//! baselines the paper analyzes (§3) and **PQ Fast Scan** itself (§4).
//!
//! | Implementation | Paper | Layout | Per-vector work |
//! |---|---|---|---|
//! | [`scan_naive`] | Alg. 1 | row-major | 8 mem1 + 8 mem2 loads, scalar adds |
//! | [`scan_libpq`] | §3.1 | row-major | 1×64-bit mem1 load + shifts, 8 mem2 |
//! | [`scan_avx`] | §3.2 Fig. 4 | transposed | scalar lookups, SIMD vertical adds |
//! | [`scan_gather`] | §3.2 Fig. 5 | transposed | AVX2 `vpgatherdps` lookups |
//! | [`FastScanIndex`] | §4 | grouped+packed | in-register `pshufb` lookups, ~95 % of exact computations pruned |
//! | [`scan_quantize_only`] | §5.5 | row-major | 8-bit bounds from full tables (pruning-power study) |
//!
//! Every implementation returns the **exact same result set** — the `topk`
//! smallest `(distance, id)` pairs — which the test suite verifies pairwise
//! and property-based tests verify against brute force.
//!
//! # The `Scanner` trait and `Backend` registry
//!
//! All implementations are interchangeable behind the [`Scanner`] trait
//! (`scan` / `name` / `stats_supported`), and the [`Backend`] enum is the
//! registry that constructs them: [`Backend::ALL`] enumerates every
//! implementation, [`Backend::scanner`] builds one from [`ScanOpts`], and
//! `Backend: FromStr` parses the names CLI and bench flags use. Consumers
//! (the `ivf` index, the `pqfs` CLI, the figure/table binaries) dispatch
//! exclusively through this registry — there is no per-backend `match` over
//! scan functions anywhere else in the workspace, so a new kernel added
//! here is immediately available everywhere.
//!
//! For repeated queries over one partition, [`Scanner::prepare`] converts
//! the codes into the backend's native layout once (transposition for the
//! SIMD baselines, grouping + packing for Fast Scan) and returns a
//! [`PreparedScanner`] that serves queries without conversion cost.
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
//! the feature forces the portable scalar fallbacks on every backend.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod avx;
#[cfg(feature = "checked-kernels")]
pub mod checked;
mod error;
pub mod fastscan;
pub mod gather;
pub mod libpq;
pub mod naive;
pub mod quantize;
pub mod quantize_only;
mod result;
mod scanner;

pub use avx::scan_avx;
pub use error::ScanError;
pub use fastscan::{FastScanIndex, FastScanOptions, Kernel, ScanParams, ScanScratch};
pub use gather::scan_gather;
pub use libpq::scan_libpq;
pub use naive::scan_naive;
pub use quantize::{DistanceQuantizer, DEFAULT_BINS, NO_PRUNE, PAPER_BINS};
pub use quantize_only::scan_quantize_only;
pub use result::{ScanResult, ScanStats};
pub use scanner::{Backend, PreparedScanner, ScanOpts, Scanner};
