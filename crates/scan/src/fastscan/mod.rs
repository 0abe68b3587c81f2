//! PQ Fast Scan (paper §4): the paper's primary contribution.
//!
//! Fast Scan replaces the L1-cache-resident distance tables of PQ Scan with
//! **small tables sized to fit SIMD registers**, built by combining
//!
//! 1. **vector grouping** ([`grouping`]) — the first 4 components only need
//!    the 16-entry table portion shared by the whole group;
//! 2. **minimum tables** ([`mintables`]) — the last 4 components use the
//!    minimum of each portion, tightened by the optimized centroid-index
//!    assignment (`ProductQuantizer::optimize_assignment`);
//! 3. **8-bit distance quantization** ([`crate::quantize`]).
//!
//! The small tables yield a *lower bound* per vector; only vectors whose
//! bound beats the current top-k threshold get an exact ADC computation
//! (Figure 6). The result set is **exactly** the one PQ Scan returns.
//!
//! ```
//! use pqfs_core::{DistanceTables, PqConfig, ProductQuantizer};
//! use pqfs_scan::{FastScanIndex, FastScanOptions, ScanParams, scan_naive};
//! use rand::{Rng, SeedableRng, rngs::StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let config = PqConfig::pq8x8(32);
//! let train: Vec<f32> = (0..1000 * 32).map(|_| rng.gen_range(0.0f32..100.0)).collect();
//! let pq = ProductQuantizer::train(&train, &config, 7).unwrap();
//! let base: Vec<f32> = (0..2000 * 32).map(|_| rng.gen_range(0.0f32..100.0)).collect();
//! let codes = pq.encode_batch(&base).unwrap();
//!
//! let index = FastScanIndex::build(&codes, &FastScanOptions::default()).unwrap();
//! let query: Vec<f32> = (0..32).map(|_| rng.gen_range(0.0f32..100.0)).collect();
//! let tables = DistanceTables::compute(&pq, &query).unwrap();
//!
//! let fast = index.scan(&tables, &ScanParams::new(10)).unwrap();
//! let slow = scan_naive(&tables, &codes, &ScanParams::new(10));
//! assert_eq!(fast.ids(), slow.ids()); // identical results, fewer distance computations
//! ```

pub mod grouping;
pub mod kernel;
pub mod layout;
pub mod mintables;
mod scan;

pub use kernel::Kernel;
pub use scan::{ScanParams, ScanScratch};

use crate::quantize::DEFAULT_BINS;
use crate::result::ScanResult;
use crate::ScanError;
use grouping::{auto_components, GroupedCodes};
use layout::FS_M;
use pqfs_core::{DistanceTables, RowMajorCodes};

/// Index-build options.
#[derive(Debug, Clone)]
pub struct FastScanOptions {
    /// Number of components to group on (`0..=4`); `None` selects
    /// automatically from the partition size using the paper's
    /// `n_min(c) = 50·16^c` rule.
    pub group_components: Option<usize>,
    /// Distance-quantization bins (see [`crate::quantize`]); defaults to
    /// [`DEFAULT_BINS`], `126` reproduces the paper's signed-range scheme.
    pub bins: u16,
    /// Kernel back-end.
    pub kernel: Kernel,
}

impl Default for FastScanOptions {
    fn default() -> Self {
        FastScanOptions {
            group_components: None,
            bins: DEFAULT_BINS,
            kernel: Kernel::Auto,
        }
    }
}

impl FastScanOptions {
    /// Fixes the number of grouping components.
    pub fn with_group_components(mut self, c: usize) -> Self {
        self.group_components = Some(c);
        self
    }

    /// Overrides the quantization bin count.
    pub fn with_bins(mut self, bins: u16) -> Self {
        self.bins = bins;
        self
    }

    /// Overrides the kernel back-end.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }
}

/// A partition prepared for PQ Fast Scan: grouped, nibble-packed codes.
#[derive(Debug, Clone)]
pub struct FastScanIndex {
    grouped: GroupedCodes,
    bins: u16,
    kernel: Kernel,
}

impl FastScanIndex {
    /// Builds the index from row-major `PQ 8×8` codes.
    ///
    /// # Errors
    ///
    /// * [`ScanError::NeedsPq8x8`] if `codes.m() != 8`;
    /// * [`ScanError::BadGroupComponents`] if an explicit
    ///   `group_components > 4` was requested.
    pub fn build(codes: &RowMajorCodes, opts: &FastScanOptions) -> Result<Self, ScanError> {
        if codes.m() != FS_M {
            return Err(ScanError::NeedsPq8x8 {
                m: codes.m(),
                ksub: 256,
            });
        }
        let c = match opts.group_components {
            Some(c) if c > 4 => return Err(ScanError::BadGroupComponents { c }),
            Some(c) => c,
            None => auto_components(codes.len()),
        };
        Ok(FastScanIndex {
            grouped: GroupedCodes::build(codes, c),
            bins: opts.bins,
            kernel: opts.kernel,
        })
    }

    /// Scans the partition for the query whose distance tables are given,
    /// returning exactly the `params.topk` nearest codes (ids are positions
    /// in the original `codes`).
    ///
    /// # Errors
    ///
    /// * [`ScanError::NeedsPq8x8`] if the tables are not `8 × 256`;
    /// * [`ScanError::KernelUnavailable`] if an explicitly requested SIMD
    ///   back-end is unsupported by this CPU.
    pub fn scan(
        &self,
        tables: &DistanceTables,
        params: &ScanParams,
    ) -> Result<ScanResult, ScanError> {
        scan::scan(self, tables, params)
    }

    /// [`scan`](Self::scan) reusing a caller-held [`ScanScratch`] for the
    /// quantized table buffers, so repeated queries allocate nothing for
    /// table setup. Results are identical to [`scan`](Self::scan).
    ///
    /// # Errors
    ///
    /// As [`scan`](Self::scan).
    pub fn scan_with(
        &self,
        tables: &DistanceTables,
        params: &ScanParams,
        scratch: &mut ScanScratch,
    ) -> Result<ScanResult, ScanError> {
        scan::scan_with(self, tables, params, scratch)
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.grouped.len()
    }

    /// True when the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.grouped.is_empty()
    }

    /// Number of grouping components in use.
    pub fn group_components(&self) -> usize {
        self.grouped.layout().c()
    }

    /// Number of (non-empty) groups.
    pub fn num_groups(&self) -> usize {
        self.grouped.groups().len()
    }

    /// Bytes of packed code storage (the paper's §4.2 memory-saving claim
    /// compares this against `8 × n` for row-major codes). Block padding is
    /// included.
    pub fn code_memory_bytes(&self) -> usize {
        self.grouped.code_memory_bytes()
    }

    /// Bytes of the id permutation that maps grouped storage order back to
    /// partition positions (bookkeeping the row-major layout doesn't need).
    pub fn ids_memory_bytes(&self) -> usize {
        self.grouped.ids_memory_bytes()
    }

    /// The grouped code storage (the only copy of the codes this index
    /// holds; [`GroupedCodes::to_row_major`] rebuilds the rows it came from).
    pub fn grouped(&self) -> &GroupedCodes {
        &self.grouped
    }

    pub(crate) fn bins(&self) -> u16 {
        self.bins
    }

    pub(crate) fn kernel(&self) -> Kernel {
        self.kernel
    }
}
