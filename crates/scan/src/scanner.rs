//! The backend registry: PQ Fast Scan and its two PQ Scan oracles as
//! values, for the CLI, the wire and table-driven exactness tests. Callers
//! scan through [`FastScanIndex`], [`scan_naive`] or [`scan_libpq`]
//! directly; the crate docs sweep all three with one `match`.
//!
//! ```
//! use pqfs_scan::Backend;
//! assert_eq!("FastScan".parse(), Ok(Backend::FastScan));
//! assert_eq!(Backend::names(), "naive|libpq|fastscan");
//! ```

use crate::fastscan::{FastScanIndex, ScanOpts, ScanParams, ScanScratch};
use crate::result::ScanResult;
use crate::{scan_libpq, scan_naive, ScanError};
use pqfs_core::{DistanceTables, RowMajorCodes};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

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
    /// All backends, in paper order, for sweeps and `--backend` listings.
    pub const ALL: [Backend; 3] = [Backend::Naive, Backend::Libpq, Backend::FastScan];

    /// The stable name printed by `Display`, and parsed by [`FromStr`] in any case.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Naive => "naive",
            Backend::Libpq => "libpq",
            Backend::FastScan => "fastscan",
        }
    }

    /// The [`PreparedScanner`] shim's entry point.
    pub fn scanner(&self, opts: &ScanOpts) -> BackendScanner {
        BackendScanner(*self, opts.clone())
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

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        let err = || format!("unknown backend '{s}' (expected one of: {})", Self::names());
        let found = Self::ALL.into_iter().find(|b| b.name() == lower);
        found.ok_or_else(err)
    }
}

/// A backend and its Fast Scan options, from [`Backend::scanner`].
#[derive(Debug)]
pub struct BackendScanner(Backend, ScanOpts);

impl BackendScanner {
    /// Binds `codes` to the backend: Fast Scan groups them once.
    ///
    /// # Errors
    ///
    /// [`ScanError::NeedsPq8x8`] for libpq, and [`FastScanIndex::build`]'s.
    pub fn prepare(
        &self,
        codes: Arc<RowMajorCodes>,
    ) -> Result<Box<dyn PreparedScanner>, ScanError> {
        let (m, ksub) = (codes.m(), 256);
        Ok(Box::new(match self.0 {
            Backend::Naive => Prepared::Naive(codes),
            Backend::Libpq if m == 8 => Prepared::Libpq(codes),
            Backend::Libpq => return Err(ScanError::NeedsPq8x8 { m, ksub }),
            Backend::FastScan => Prepared::FastScan(FastScanIndex::build(&codes, &self.1)?),
        }))
    }
}

/// A partition bound to one backend, from [`BackendScanner::prepare`]: a
/// shim that only the benchmark's traced pass scans through
/// (`benchmark/src/fixture.rs` and `benchmark/src/layers.rs`). ROADMAP 9(c)
/// moves those two files to direct calls; then the shim goes.
pub trait PreparedScanner: fmt::Debug + Send + Sync {
    /// The scan's result for every backend; only Fast Scan reads `scratch`.
    ///
    /// # Errors
    ///
    /// [`ScanError::TableCodeMismatch`], and Fast Scan's errors.
    fn scan_with(
        &self,
        tables: &DistanceTables,
        params: &ScanParams,
        scratch: &mut ScanScratch,
    ) -> Result<ScanResult, ScanError>;
}

#[derive(Debug)]
enum Prepared {
    Naive(Arc<RowMajorCodes>),
    Libpq(Arc<RowMajorCodes>),
    FastScan(FastScanIndex),
}

impl PreparedScanner for Prepared {
    fn scan_with(
        &self,
        tables: &DistanceTables,
        params: &ScanParams,
        scratch: &mut ScanScratch,
    ) -> Result<ScanResult, ScanError> {
        let codes = match self {
            Prepared::FastScan(index) => return index.scan_with(tables, params, scratch),
            Prepared::Naive(codes) | Prepared::Libpq(codes) => codes,
        };
        if tables.m() != codes.m() {
            let (table_m, code_m) = (tables.m(), codes.m());
            return Err(ScanError::TableCodeMismatch { table_m, code_m });
        }
        Ok(match self {
            Prepared::Libpq(_) => scan_libpq(tables, codes, params),
            _ => scan_naive(tables, codes, params),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ScanError::{NeedsPq8x8, TableCodeMismatch};

    fn fixture(n: usize) -> (DistanceTables, Arc<RowMajorCodes>) {
        let data = (0..8 * 256).map(|i| ((i % 256 * 31 + i / 256 * 97) % 1013) as f32 * 0.5);
        let bytes = (0..n * 8).map(|i| ((i * 131 + 17) % 256) as u8);
        let tables = DistanceTables::from_raw(data.collect(), 8, 256);
        (tables, Arc::new(RowMajorCodes::new(bytes.collect(), 8)))
    }

    #[test]
    fn every_backend_is_registered_exactly_once() {
        let all = [Backend::Naive, Backend::Libpq, Backend::FastScan];
        assert_eq!(Backend::ALL, all);
        assert_eq!(Backend::names(), "naive|libpq|fastscan");
    }

    #[test]
    fn names_roundtrip_through_fromstr() {
        assert!(Backend::ALL.iter().all(|b| b.to_string().parse() == Ok(*b)));
        assert_eq!("FASTSCAN".parse(), Ok(Backend::FastScan));
        // The scans the paper only measures are not backends.
        for gone in "avx gather quantize-only quantize_only warp-drive".split(' ') {
            let err = gone.parse::<Backend>().unwrap_err();
            assert!(err.contains("naive|libpq|fastscan"), "{gone}: {err}");
        }
    }

    /// The shim returns the direct call's `(id, distance bits)` and stats.
    #[test]
    fn prepared_scanners_match_one_shot_scans() {
        let (tables, codes) = fixture(2500);
        let (opts, params) = (ScanOpts::default(), ScanParams::new(25).with_keep(0.01));
        let index = FastScanIndex::build(&codes, &opts).unwrap();
        let bits = |r: &ScanResult| r.distances().into_iter().map(f32::to_bits);
        for backend in Backend::ALL {
            let direct = match backend {
                Backend::Naive => scan_naive(&tables, &codes, &params),
                Backend::Libpq => scan_libpq(&tables, &codes, &params),
                Backend::FastScan => index.scan(&tables, &params).unwrap(),
            };
            let prepared = backend.scanner(&opts).prepare(Arc::clone(&codes)).unwrap();
            let shim = prepared.scan_with(&tables, &params, &mut ScanScratch::default());
            let shim = shim.unwrap();
            assert!(bits(&shim).eq(bits(&direct)), "{backend}");
            assert_eq!(shim.ids(), direct.ids(), "{backend}");
            assert_eq!(shim.stats, direct.stats, "{backend}");
        }
    }

    #[test]
    fn shape_mismatches_are_errors_not_panics() {
        let (tables, wide) = fixture(10);
        let narrow = Arc::new(RowMajorCodes::new(vec![0u8; 40], 4));
        let narrow_tables = DistanceTables::from_raw(vec![0.0; 4 * 256], 4, 256);
        let (opts, params) = (ScanOpts::default(), ScanParams::new(5));
        let mut scratch = ScanScratch::default();
        // 4-component codes against 8-component tables, and the reverse.
        for (codes, tables) in [(narrow, &tables), (wide, &narrow_tables)] {
            for backend in Backend::ALL {
                let prepared = backend.scanner(&opts).prepare(Arc::clone(&codes));
                let result = prepared.and_then(|p| p.scan_with(tables, &params, &mut scratch));
                let typed = matches!(result, Err(TableCodeMismatch { .. } | NeedsPq8x8 { .. }));
                assert!(typed, "{backend} m={}: {result:?}", codes.m());
            }
        }
    }

    #[test]
    fn backend_default_is_fastscan() {
        assert_eq!(Backend::default(), Backend::FastScan);
    }
}
