//! The backend registry: the served scan implementations behind one
//! interface.
//!
//! The paper's §5 exactness claim — PQ Fast Scan returns *exactly* the
//! result set of PQ Scan — is only demonstrable if the implementations are
//! interchangeable. This module makes them so:
//!
//! * [`Scanner`] — the object-safe interface: [`Scanner::scan`] for one
//!   shot, [`Scanner::prepare`] for building partition-resident state (the
//!   grouped Fast Scan index) once and scanning many times;
//! * [`PreparedScanner`] — a partition bound to one backend, ready for
//!   repeated queries;
//! * [`Backend`] — Fast Scan and its two PQ Scan oracles. [`Backend::ALL`]
//!   drives table-driven exactness tests, [`FromStr`] makes every CLI, wire
//!   and bench name parse the same way, and [`Backend::scanner`] is the
//!   single dispatch point in the workspace.
//!
//! ```
//! use pqfs_core::{DistanceTables, RowMajorCodes};
//! use pqfs_scan::{Backend, ScanOpts};
//!
//! let tables = DistanceTables::from_raw((0..8 * 256).map(|x| x as f32).collect(), 8, 256);
//! let codes = RowMajorCodes::new((0..64 * 8).map(|x| (x * 37 % 256) as u8).collect(), 8);
//!
//! let opts = ScanOpts::default();
//! let reference = Backend::Naive.scanner(&opts).scan(&tables, &codes, 5).unwrap();
//! for backend in Backend::ALL {
//!     let result = backend.scanner(&opts).scan(&tables, &codes, 5).unwrap();
//!     assert_eq!(result.ids(), reference.ids(), "{backend} must be exact");
//! }
//! ```

use crate::fastscan::{FastScanIndex, FastScanOptions, Kernel, ScanParams, ScanScratch};
use crate::quantize::DEFAULT_BINS;
use crate::result::ScanResult;
use crate::{scan_libpq, scan_naive, ScanError};
use pqfs_core::{DistanceTables, RowMajorCodes};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Backend-construction options consumed by [`Backend::scanner`].
///
/// One bag of options covers every backend; only Fast Scan reads them (the
/// PQ Scan oracles have nothing to tune).
#[derive(Debug, Clone)]
pub struct ScanOpts {
    /// Fast Scan warm-up fraction (paper §4.4 `keep`, default 0.5 %): the
    /// whole groups nearest to the query that are expected to hold as much
    /// (see [`ScanParams::keep`]). [`PreparedScanner::scan`] overrides this
    /// per query through [`ScanParams::keep`].
    pub keep: f64,
    /// Fast Scan distance-quantization bin count.
    pub bins: u16,
    /// Fast Scan grouping components; `None` selects automatically from the
    /// partition size (`n_min(c) = 50·16^c`).
    pub group_components: Option<usize>,
    /// Fast Scan SIMD kernel back-end.
    pub kernel: Kernel,
}

impl Default for ScanOpts {
    fn default() -> Self {
        ScanOpts {
            keep: 0.005,
            bins: DEFAULT_BINS,
            group_components: None,
            kernel: Kernel::Auto,
        }
    }
}

impl ScanOpts {
    /// Replaces the warm-up fraction.
    pub fn with_keep(mut self, keep: f64) -> Self {
        self.keep = keep;
        self
    }

    /// Replaces the quantization bin count.
    pub fn with_bins(mut self, bins: u16) -> Self {
        self.bins = bins;
        self
    }

    /// Fixes the number of Fast Scan grouping components.
    pub fn with_group_components(mut self, c: usize) -> Self {
        self.group_components = Some(c);
        self
    }

    /// Replaces the Fast Scan kernel back-end.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The Fast Scan subset of these options.
    pub fn fastscan_options(&self) -> FastScanOptions {
        FastScanOptions {
            group_components: self.group_components,
            bins: self.bins,
            kernel: self.kernel,
        }
    }
}

/// A scan implementation behind a uniform, object-safe interface.
///
/// [`Scanner::scan`] is the one-shot entry point: it accepts the universal
/// row-major layout and performs any conversion (grouping, quantization)
/// internally. For repeated queries over the same partition,
/// [`Scanner::prepare`] performs the conversion once; the returned
/// [`PreparedScanner`] then serves queries at full speed.
pub trait Scanner: Send + Sync {
    /// Scans `codes` and returns the `topk` nearest neighbors by ADC
    /// distance — the exact same `(distance, id)` set for every backend.
    ///
    /// # Errors
    ///
    /// [`ScanError::TableCodeMismatch`] when `tables.m() != codes.m()`,
    /// [`ScanError::NeedsPq8x8`] for the `PQ 8×8`-specialized backends, and
    /// kernel resolution errors from Fast Scan.
    fn scan(
        &self,
        tables: &DistanceTables,
        codes: &RowMajorCodes,
        topk: usize,
    ) -> Result<ScanResult, ScanError>;

    /// Converts `codes` into this backend's native layout once, for
    /// repeated scanning. The `Arc` lets row-major backends share the
    /// caller's storage instead of copying it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scanner::scan`], minus per-query failures.
    fn prepare(&self, codes: Arc<RowMajorCodes>) -> Result<Box<dyn PreparedScanner>, ScanError>;
}

/// A partition converted to one backend's native layout, ready for repeated
/// queries. Created by [`Scanner::prepare`].
pub trait PreparedScanner: fmt::Debug + Send + Sync {
    /// The backend this partition was prepared for.
    fn backend(&self) -> Backend;

    /// Scans the prepared partition: the `params.topk` smallest
    /// `(distance, id)` pairs among the vectors within `params.bound`, for
    /// every backend. `params.keep` applies to Fast Scan; the exhaustive
    /// oracles ignore it.
    ///
    /// # Errors
    ///
    /// Kernel resolution errors and table-shape mismatches.
    fn scan(&self, tables: &DistanceTables, params: &ScanParams) -> Result<ScanResult, ScanError>;

    /// [`scan`](Self::scan) with a caller-held [`ScanScratch`]: backends
    /// that build per-query tables (Fast Scan) reuse the scratch buffers
    /// instead of allocating; the others ignore it. Batch drivers keep one
    /// scratch per worker thread. Results are identical to
    /// [`scan`](Self::scan).
    ///
    /// # Errors
    ///
    /// As [`scan`](Self::scan).
    fn scan_with(
        &self,
        tables: &DistanceTables,
        params: &ScanParams,
        scratch: &mut ScanScratch,
    ) -> Result<ScanResult, ScanError> {
        let _ = scratch;
        self.scan(tables, params)
    }
}

/// Every served scan implementation, as a value: PQ Fast Scan itself (§4)
/// and the two PQ Scan baselines (§3) that are its exactness oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Algorithm 1: per-component table lookups, scalar adds.
    Naive,
    /// §3.1: one 64-bit code load + shifts (requires `PQ 8×8`).
    Libpq,
    /// §4: PQ Fast Scan — grouped codes, minimum tables, in-register
    /// `pshufb` lookups (requires `PQ 8×8`).
    #[default]
    FastScan,
}

impl Backend {
    /// All backends, in paper order. Drives table-driven exactness tests
    /// and `--backend` flag listings.
    pub const ALL: [Backend; 3] = [Backend::Naive, Backend::Libpq, Backend::FastScan];

    /// The stable name accepted by [`FromStr`] and printed by `Display`.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Naive => "naive",
            Backend::Libpq => "libpq",
            Backend::FastScan => "fastscan",
        }
    }

    /// Builds the [`Scanner`] for this backend — the single dispatch point
    /// for every scan in the workspace.
    pub fn scanner(&self, opts: &ScanOpts) -> Box<dyn Scanner> {
        match self {
            Backend::Naive => Box::new(NaiveScanner),
            Backend::Libpq => Box::new(LibpqScanner),
            Backend::FastScan => Box::new(FastScanScanner {
                opts: opts.fastscan_options(),
                keep: opts.keep,
            }),
        }
    }

    /// The comma-separated name list (for usage strings).
    pub fn names() -> String {
        Backend::ALL.map(Backend::name).join("|")
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Backend {
    type Err = String;

    /// Parses a backend name as printed by [`Backend::name`], in any case.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized = s.to_ascii_lowercase();
        Backend::ALL
            .into_iter()
            .find(|b| b.name() == normalized)
            .ok_or_else(|| {
                format!(
                    "unknown backend '{s}' (expected one of: {})",
                    Backend::names()
                )
            })
    }
}

fn check_m(tables: &DistanceTables, code_m: usize) -> Result<(), ScanError> {
    if tables.m() != code_m {
        return Err(ScanError::TableCodeMismatch {
            table_m: tables.m(),
            code_m,
        });
    }
    Ok(())
}

fn check_pq8(m: usize, ksub: usize) -> Result<(), ScanError> {
    if m != 8 {
        return Err(ScanError::NeedsPq8x8 { m, ksub });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Naive
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct NaiveScanner;

#[derive(Debug)]
struct PreparedNaive {
    codes: Arc<RowMajorCodes>,
}

impl Scanner for NaiveScanner {
    fn scan(
        &self,
        tables: &DistanceTables,
        codes: &RowMajorCodes,
        topk: usize,
    ) -> Result<ScanResult, ScanError> {
        check_m(tables, codes.m())?;
        Ok(scan_naive(tables, codes, &ScanParams::new(topk)))
    }

    fn prepare(&self, codes: Arc<RowMajorCodes>) -> Result<Box<dyn PreparedScanner>, ScanError> {
        Ok(Box::new(PreparedNaive { codes }))
    }
}

impl PreparedScanner for PreparedNaive {
    fn backend(&self) -> Backend {
        Backend::Naive
    }

    fn scan(&self, tables: &DistanceTables, params: &ScanParams) -> Result<ScanResult, ScanError> {
        check_m(tables, self.codes.m())?;
        Ok(scan_naive(tables, &self.codes, params))
    }
}

// ---------------------------------------------------------------------------
// Libpq
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct LibpqScanner;

#[derive(Debug)]
struct PreparedLibpq {
    codes: Arc<RowMajorCodes>,
}

impl Scanner for LibpqScanner {
    fn scan(
        &self,
        tables: &DistanceTables,
        codes: &RowMajorCodes,
        topk: usize,
    ) -> Result<ScanResult, ScanError> {
        check_pq8(codes.m(), tables.ksub())?;
        check_m(tables, codes.m())?;
        Ok(scan_libpq(tables, codes, &ScanParams::new(topk)))
    }

    fn prepare(&self, codes: Arc<RowMajorCodes>) -> Result<Box<dyn PreparedScanner>, ScanError> {
        check_pq8(codes.m(), 256)?;
        Ok(Box::new(PreparedLibpq { codes }))
    }
}

impl PreparedScanner for PreparedLibpq {
    fn backend(&self) -> Backend {
        Backend::Libpq
    }

    fn scan(&self, tables: &DistanceTables, params: &ScanParams) -> Result<ScanResult, ScanError> {
        check_pq8(self.codes.m(), tables.ksub())?;
        check_m(tables, self.codes.m())?;
        Ok(scan_libpq(tables, &self.codes, params))
    }
}

// ---------------------------------------------------------------------------
// FastScan
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct FastScanScanner {
    opts: FastScanOptions,
    keep: f64,
}

#[derive(Debug)]
struct PreparedFastScan {
    index: FastScanIndex,
}

impl Scanner for FastScanScanner {
    fn scan(
        &self,
        tables: &DistanceTables,
        codes: &RowMajorCodes,
        topk: usize,
    ) -> Result<ScanResult, ScanError> {
        let index = FastScanIndex::build(codes, &self.opts)?;
        index.scan(tables, &ScanParams::new(topk).with_keep(self.keep))
    }

    fn prepare(&self, codes: Arc<RowMajorCodes>) -> Result<Box<dyn PreparedScanner>, ScanError> {
        Ok(Box::new(PreparedFastScan {
            index: FastScanIndex::build(&codes, &self.opts)?,
        }))
    }
}

impl PreparedScanner for PreparedFastScan {
    fn backend(&self) -> Backend {
        Backend::FastScan
    }

    fn scan(&self, tables: &DistanceTables, params: &ScanParams) -> Result<ScanResult, ScanError> {
        self.index.scan(tables, params)
    }

    fn scan_with(
        &self,
        tables: &DistanceTables,
        params: &ScanParams,
        scratch: &mut ScanScratch,
    ) -> Result<ScanResult, ScanError> {
        self.index.scan_with(tables, params, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(n: usize) -> (DistanceTables, RowMajorCodes) {
        let mut data = Vec::with_capacity(8 * 256);
        for j in 0..8 {
            for i in 0..256 {
                data.push(((i * 31 + j * 97) % 1013) as f32 * 0.5);
            }
        }
        let tables = DistanceTables::from_raw(data, 8, 256);
        let bytes: Vec<u8> = (0..n * 8).map(|i| ((i * 131 + 17) % 256) as u8).collect();
        (tables, RowMajorCodes::new(bytes, 8))
    }

    #[test]
    fn every_backend_is_registered_exactly_once() {
        assert_eq!(
            Backend::ALL,
            [Backend::Naive, Backend::Libpq, Backend::FastScan]
        );
        assert_eq!(Backend::names(), "naive|libpq|fastscan");
    }

    #[test]
    fn names_roundtrip_through_fromstr() {
        for backend in Backend::ALL {
            assert_eq!(backend.name().parse::<Backend>().unwrap(), backend);
            assert_eq!(backend.to_string().parse::<Backend>().unwrap(), backend);
        }
        assert_eq!("FASTSCAN".parse::<Backend>().unwrap(), Backend::FastScan);
        // The scans the paper only measures are not backends.
        for gone in ["avx", "gather", "quantize-only", "quantize_only"] {
            let err = gone.parse::<Backend>().unwrap_err();
            assert!(err.contains("naive|libpq|fastscan"), "{gone}: {err}");
        }
        let err = "warp-drive".parse::<Backend>().unwrap_err();
        assert!(err.contains("naive"), "error must list valid names: {err}");
    }

    #[test]
    fn all_backends_return_identical_results() {
        let (tables, codes) = fixture(3000);
        let opts = ScanOpts::default().with_keep(0.01);
        let reference = Backend::Naive
            .scanner(&opts)
            .scan(&tables, &codes, 25)
            .unwrap();
        for backend in Backend::ALL {
            let result = backend.scanner(&opts).scan(&tables, &codes, 25).unwrap();
            assert_eq!(result.ids(), reference.ids(), "{backend} ids differ");
            assert_eq!(result.distances(), reference.distances(), "{backend}");
        }
    }

    #[test]
    fn prepared_scanners_match_one_shot_scans() {
        let (tables, codes) = fixture(2500);
        let opts = ScanOpts::default().with_keep(0.01);
        let shared = Arc::new(codes.clone());
        let params = ScanParams::new(25).with_keep(0.01);
        for backend in Backend::ALL {
            let scanner = backend.scanner(&opts);
            let one_shot = scanner.scan(&tables, &codes, 25).unwrap();
            let prepared = scanner.prepare(Arc::clone(&shared)).unwrap();
            assert_eq!(prepared.backend(), backend);
            let repeated = prepared.scan(&tables, &params).unwrap();
            assert_eq!(one_shot.ids(), repeated.ids(), "{backend}");
        }
    }

    #[test]
    fn fastscan_fills_the_pruning_stats() {
        let (tables, codes) = fixture(4000);
        let opts = ScanOpts::default().with_keep(0.01);
        let r = Backend::FastScan
            .scanner(&opts)
            .scan(&tables, &codes, 10)
            .unwrap();
        assert!(r.stats.pruned > 0, "pruned nothing");
        assert_eq!(
            r.stats.warmup + r.stats.pruned + r.stats.verified,
            r.stats.scanned
        );
    }

    #[test]
    fn shape_mismatches_are_errors_not_panics() {
        let (tables, _) = fixture(10);
        let narrow = RowMajorCodes::new(vec![0u8; 40], 4);
        let opts = ScanOpts::default();
        for backend in Backend::ALL {
            let result = backend.scanner(&opts).scan(&tables, &narrow, 5);
            assert!(result.is_err(), "{backend} accepted mismatched shapes");
        }
    }

    #[test]
    fn default_backend_is_fastscan() {
        assert_eq!(Backend::default(), Backend::FastScan);
    }
}
