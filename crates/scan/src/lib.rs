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
//! # Scanning
//!
//! Fast Scan builds its layout once per partition and scans many times;
//! the oracles scan row-major codes as they are. The [`Backend`] enum names
//! the three: [`Backend::ALL`] enumerates them and `Backend: FromStr`
//! parses the names the CLI, the wire protocol and bench flags use.
//!
//! ```
//! use pqfs_core::{DistanceTables, RowMajorCodes};
//! use pqfs_scan::{scan_naive, FastScanIndex, ScanOpts, ScanParams};
//!
//! let tables = DistanceTables::from_raw((0..8 * 256).map(|x| x as f32).collect(), 8, 256);
//! let codes = RowMajorCodes::new((0..256 * 8).map(|x| (x * 7 % 256) as u8).collect(), 8);
//! let index = FastScanIndex::build(&codes, &ScanOpts::default()).unwrap();
//! let params = ScanParams::new(10);
//! let result = index.scan(&tables, &params).unwrap();
//! assert_eq!(result.neighbors.len(), 10);
//! assert_eq!(result.ids(), scan_naive(&tables, &codes, &params).ids());
//! ```
//!
//! On x86-64 the SIMD paths are always compiled and selected by runtime CPU
//! detection; `ScanOpts::with_kernel(Kernel::Portable)` forces the portable
//! scalar kernel, which is the only one on every other target. [`checked`]
//! shadow-runs each SIMD kernel against its portable oracle when
//! `PQFS_CHECK_RATE` asks for it; unset, it is off.

pub mod checked;
mod error;
pub mod fastscan;
pub mod libpq;
pub mod naive;
pub mod quantize;
mod result;
mod scanner;

pub use error::ScanError;
pub use fastscan::{FastScanIndex, Kernel, ScanOpts, ScanParams, ScanScratch, SPLIT_MIN};
pub use libpq::scan_libpq;
pub use naive::scan_naive;
pub use quantize::{DistanceQuantizer, DEFAULT_BINS, NO_PRUNE};
pub use result::{ScanResult, ScanStats};
pub use scanner::{Backend, BackendScanner, PreparedScanner};
