//! The backend registry: every scan implementation behind one interface.
//!
//! The paper's §5 exactness claim — PQ Fast Scan returns *exactly* the
//! result set of the four PQ Scan baselines — is only demonstrable if the
//! implementations are interchangeable. This module makes them so:
//!
//! * [`Scanner`] — the object-safe interface (`scan`, `name`,
//!   `stats_supported`) plus [`Scanner::prepare`] for building
//!   partition-resident state (transposed layouts, grouped Fast Scan
//!   indexes) once and scanning many times;
//! * [`PreparedScanner`] — a partition bound to one backend, ready for
//!   repeated queries;
//! * [`Backend`] — the enumeration of all implementations.
//!   [`Backend::ALL`] drives table-driven exactness tests, [`FromStr`] makes
//!   every CLI/bench flag accept the same names, and
//!   [`Backend::scanner`] is the single dispatch point in the workspace
//!   (the `ivf`, `cli` and `bench` crates contain no per-backend match
//!   arms).
//!
//! New kernels (4-bit Quick ADC, batched variants, …) plug in by adding a
//! `Backend` variant and a `Scanner` impl here — every consumer picks them
//! up without code changes.
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
use crate::{scan_avx, scan_gather, scan_libpq, scan_naive, scan_quantize_only, ScanError};
use pqfs_core::{DistanceTables, RowMajorCodes, TransposedCodes};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Backend-construction options consumed by [`Backend::scanner`].
///
/// One bag of options covers every backend; each implementation reads only
/// the fields it understands (e.g. `bins` is ignored by the non-pruning
/// baselines).
#[derive(Debug, Clone)]
pub struct ScanOpts {
    /// Warm-up fraction for the pruning backends (paper §4.4 `keep`,
    /// default 0.5 %): quantize-only scans that prefix of the partition,
    /// Fast Scan the whole groups nearest to the query that are expected to
    /// hold as much (see [`ScanParams::keep`]). [`PreparedScanner::scan`]
    /// overrides this per query through [`ScanParams::keep`].
    pub keep: f64,
    /// Distance-quantization bin count (pruning backends only).
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
/// row-major layout and performs any conversion (transposition, grouping,
/// quantization) internally. For repeated queries over the same partition,
/// [`Scanner::prepare`] performs the conversion once; the returned
/// [`PreparedScanner`] then serves queries at full speed.
pub trait Scanner: Send + Sync {
    /// Stable human-readable backend name (the same string
    /// [`Backend::name`] returns and [`FromStr`] accepts).
    fn name(&self) -> &'static str;

    /// Whether this backend fills the pruning counters
    /// (`pruned`/`verified`/`warmup`) of
    /// [`ScanStats`](crate::ScanStats). The exhaustive baselines only count
    /// `scanned`.
    fn stats_supported(&self) -> bool;

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
    /// every backend. `params.keep` applies to the pruning backends; the
    /// exhaustive baselines ignore it.
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

/// Every scan implementation in the workspace, as a value.
///
/// The variants follow the paper: four PQ Scan baselines (§3), the
/// quantization-only pruning study (§5.5), and PQ Fast Scan itself (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Algorithm 1: per-component table lookups, scalar adds.
    Naive,
    /// §3.1: one 64-bit code load + shifts (requires `PQ 8×8`).
    Libpq,
    /// §3.2 Figure 4: scalar lookups, SIMD vertical adds (transposed).
    Avx,
    /// §3.2 Figure 5: AVX2 `vpgatherdps` lookups (transposed).
    Gather,
    /// §5.5: full 256-entry tables quantized to 8 bits (pruning study).
    QuantizeOnly,
    /// §4: PQ Fast Scan — grouped codes, minimum tables, in-register
    /// `pshufb` lookups (requires `PQ 8×8`).
    #[default]
    FastScan,
}

impl Backend {
    /// All backends, in paper order. Drives table-driven exactness tests
    /// and `--backend` flag listings.
    pub const ALL: [Backend; 6] = [
        Backend::Naive,
        Backend::Libpq,
        Backend::Avx,
        Backend::Gather,
        Backend::QuantizeOnly,
        Backend::FastScan,
    ];

    /// The stable name accepted by [`FromStr`] and printed by `Display`.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Naive => "naive",
            Backend::Libpq => "libpq",
            Backend::Avx => "avx",
            Backend::Gather => "gather",
            Backend::QuantizeOnly => "quantize-only",
            Backend::FastScan => "fastscan",
        }
    }

    /// Whether this backend only supports the paper's `PQ 8×8` shape
    /// (`m = 8`; Fast Scan additionally wants `ksub = 256` tables).
    pub fn requires_pq8x8(self) -> bool {
        matches!(self, Backend::Libpq | Backend::FastScan)
    }

    /// Builds the [`Scanner`] for this backend — the single dispatch point
    /// for every scan in the workspace.
    pub fn scanner(&self, opts: &ScanOpts) -> Box<dyn Scanner> {
        match self {
            Backend::Naive => Box::new(NaiveScanner),
            Backend::Libpq => Box::new(LibpqScanner),
            Backend::Avx => Box::new(AvxScanner),
            Backend::Gather => Box::new(GatherScanner),
            Backend::QuantizeOnly => Box::new(QuantizeOnlyScanner {
                keep: opts.keep,
                bins: opts.bins,
            }),
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

    /// Parses a backend name as printed by [`Backend::name`]; underscores
    /// are accepted in place of dashes.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized = s.to_ascii_lowercase().replace('_', "-");
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
    fn name(&self) -> &'static str {
        Backend::Naive.name()
    }

    fn stats_supported(&self) -> bool {
        false
    }

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
    fn name(&self) -> &'static str {
        Backend::Libpq.name()
    }

    fn stats_supported(&self) -> bool {
        false
    }

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
// Avx / Gather (transposed layout)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct AvxScanner;

#[derive(Debug, Clone, Copy)]
struct GatherScanner;

/// Shared prepared state for the two transposed-layout baselines.
#[derive(Debug)]
struct PreparedTransposed {
    backend: Backend,
    transposed: TransposedCodes,
}

impl PreparedTransposed {
    fn run(&self, tables: &DistanceTables, params: &ScanParams) -> Result<ScanResult, ScanError> {
        check_m(tables, self.transposed.m())?;
        Ok(match self.backend {
            Backend::Avx => scan_avx(tables, &self.transposed, params),
            _ => scan_gather(tables, &self.transposed, params),
        })
    }
}

impl Scanner for AvxScanner {
    fn name(&self) -> &'static str {
        Backend::Avx.name()
    }

    fn stats_supported(&self) -> bool {
        false
    }

    fn scan(
        &self,
        tables: &DistanceTables,
        codes: &RowMajorCodes,
        topk: usize,
    ) -> Result<ScanResult, ScanError> {
        check_m(tables, codes.m())?;
        Ok(scan_avx(
            tables,
            &TransposedCodes::from_row_major(codes),
            &ScanParams::new(topk),
        ))
    }

    fn prepare(&self, codes: Arc<RowMajorCodes>) -> Result<Box<dyn PreparedScanner>, ScanError> {
        Ok(Box::new(PreparedTransposed {
            backend: Backend::Avx,
            transposed: TransposedCodes::from_row_major(&codes),
        }))
    }
}

impl Scanner for GatherScanner {
    fn name(&self) -> &'static str {
        Backend::Gather.name()
    }

    fn stats_supported(&self) -> bool {
        false
    }

    fn scan(
        &self,
        tables: &DistanceTables,
        codes: &RowMajorCodes,
        topk: usize,
    ) -> Result<ScanResult, ScanError> {
        check_m(tables, codes.m())?;
        Ok(scan_gather(
            tables,
            &TransposedCodes::from_row_major(codes),
            &ScanParams::new(topk),
        ))
    }

    fn prepare(&self, codes: Arc<RowMajorCodes>) -> Result<Box<dyn PreparedScanner>, ScanError> {
        Ok(Box::new(PreparedTransposed {
            backend: Backend::Gather,
            transposed: TransposedCodes::from_row_major(&codes),
        }))
    }
}

impl PreparedScanner for PreparedTransposed {
    fn backend(&self) -> Backend {
        self.backend
    }

    fn scan(&self, tables: &DistanceTables, params: &ScanParams) -> Result<ScanResult, ScanError> {
        self.run(tables, params)
    }
}

// ---------------------------------------------------------------------------
// QuantizeOnly
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct QuantizeOnlyScanner {
    keep: f64,
    bins: u16,
}

#[derive(Debug)]
struct PreparedQuantizeOnly {
    codes: Arc<RowMajorCodes>,
    bins: u16,
}

impl Scanner for QuantizeOnlyScanner {
    fn name(&self) -> &'static str {
        Backend::QuantizeOnly.name()
    }

    fn stats_supported(&self) -> bool {
        true
    }

    fn scan(
        &self,
        tables: &DistanceTables,
        codes: &RowMajorCodes,
        topk: usize,
    ) -> Result<ScanResult, ScanError> {
        check_m(tables, codes.m())?;
        Ok(scan_quantize_only(
            tables,
            codes,
            &ScanParams::new(topk).with_keep(self.keep),
            self.bins,
        ))
    }

    fn prepare(&self, codes: Arc<RowMajorCodes>) -> Result<Box<dyn PreparedScanner>, ScanError> {
        Ok(Box::new(PreparedQuantizeOnly {
            codes,
            bins: self.bins,
        }))
    }
}

impl PreparedScanner for PreparedQuantizeOnly {
    fn backend(&self) -> Backend {
        Backend::QuantizeOnly
    }

    fn scan(&self, tables: &DistanceTables, params: &ScanParams) -> Result<ScanResult, ScanError> {
        check_m(tables, self.codes.m())?;
        Ok(scan_quantize_only(tables, &self.codes, params, self.bins))
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
    fn name(&self) -> &'static str {
        Backend::FastScan.name()
    }

    fn stats_supported(&self) -> bool {
        true
    }

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
        assert_eq!(Backend::ALL.len(), 6);
        let names: std::collections::HashSet<_> = Backend::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 6, "backend names must be unique");
    }

    #[test]
    fn names_roundtrip_through_fromstr() {
        for backend in Backend::ALL {
            assert_eq!(backend.name().parse::<Backend>().unwrap(), backend);
            assert_eq!(backend.to_string().parse::<Backend>().unwrap(), backend);
        }
        assert_eq!(
            "quantize_only".parse::<Backend>().unwrap(),
            Backend::QuantizeOnly
        );
        assert_eq!("FASTSCAN".parse::<Backend>().unwrap(), Backend::FastScan);
        let err = "warp-drive".parse::<Backend>().unwrap_err();
        assert!(err.contains("naive"), "error must list valid names: {err}");
    }

    #[test]
    fn scanner_names_match_registry_names() {
        let opts = ScanOpts::default();
        for backend in Backend::ALL {
            assert_eq!(backend.scanner(&opts).name(), backend.name());
        }
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
            if !matches!(backend, Backend::Avx | Backend::Gather) {
                // Transposed baselines reassociate float adds; ids already
                // prove exactness of the result set.
                assert_eq!(result.distances(), reference.distances(), "{backend}");
            }
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
    fn stats_support_follows_pruning_capability() {
        let opts = ScanOpts::default();
        for backend in Backend::ALL {
            let expected = matches!(backend, Backend::QuantizeOnly | Backend::FastScan);
            assert_eq!(
                backend.scanner(&opts).stats_supported(),
                expected,
                "{backend}"
            );
        }
    }

    #[test]
    fn pruning_backends_actually_fill_stats() {
        let (tables, codes) = fixture(4000);
        let opts = ScanOpts::default().with_keep(0.01);
        for backend in [Backend::QuantizeOnly, Backend::FastScan] {
            let r = backend.scanner(&opts).scan(&tables, &codes, 10).unwrap();
            assert!(r.stats.pruned > 0, "{backend} pruned nothing");
            assert_eq!(
                r.stats.warmup + r.stats.pruned + r.stats.verified,
                r.stats.scanned,
                "{backend} accounting"
            );
        }
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
