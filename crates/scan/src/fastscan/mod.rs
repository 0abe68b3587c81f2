//! PQ Fast Scan (paper §4): the paper's primary contribution.
//!
//! Fast Scan replaces the L1-cache-resident distance tables of PQ Scan with
//! **small tables sized to fit SIMD registers**, built by combining
//!
//! 1. **vector grouping** ([`grouping`]) — the first 4 components only need
//!    the 16-entry table portion shared by the whole group;
//! 2. **minimum tables** — the last 4 components use the minimum of each
//!    portion ([`DistanceTables::portion_minima`]), tightened by the
//!    optimized centroid-index assignment
//!    (`ProductQuantizer::optimize_assignment`);
//! 3. **8-bit distance quantization** ([`crate::quantize`], always with
//!    [`DEFAULT_BINS`](crate::DEFAULT_BINS) bins).
//!
//! The small tables yield a *lower bound* per vector; only vectors whose
//! bound beats the current top-k threshold get an exact ADC computation
//! (Figure 6). The result set is **exactly** the one PQ Scan returns.
//!
//! ```
//! use pqfs_core::{DistanceTables, PqConfig, ProductQuantizer};
//! use pqfs_scan::{FastScanIndex, ScanOpts, ScanParams, scan_naive};
//! use rand::{Rng, SeedableRng, rngs::StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let config = PqConfig::pq8x8(32);
//! let train: Vec<f32> = (0..1000 * 32).map(|_| rng.gen_range(0.0f32..100.0)).collect();
//! let pq = ProductQuantizer::train(&train, &config, 7).unwrap();
//! let base: Vec<f32> = (0..2000 * 32).map(|_| rng.gen_range(0.0f32..100.0)).collect();
//! let codes = pq.encode_batch(&base).unwrap();
//!
//! let index = FastScanIndex::build(&codes, &ScanOpts::default()).unwrap();
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
mod scan;

pub use kernel::Kernel;
pub use scan::{ScanParams, ScanScratch, SPLIT_MIN};

use crate::result::ScanResult;
use crate::ScanError;
use grouping::{auto_components, GroupedCodes};
use layout::FS_M;
use pqfs_core::{DistanceTables, RowMajorCodes};
use pqfs_pool::ThreadPool;

/// Fast Scan build options, read by [`FastScanIndex::build`] and
/// [`Backend::scanner`](crate::Backend::scanner) (the PQ Scan oracles have
/// nothing to tune). The per-query settings are [`ScanParams`].
#[derive(Debug, Clone, Default)]
pub struct ScanOpts {
    /// Number of components to group on (`0..=4`); `None` selects
    /// automatically from the partition size: no grouping below 800
    /// vectors, else the largest `c ≥ 1` whose groups average at least 128
    /// vectors ([`grouping::auto_components`]; the paper's §4.2 used 50).
    pub group_components: Option<usize>,
    /// Kernel back-end.
    pub kernel: Kernel,
}

impl ScanOpts {
    /// Fixes the number of grouping components.
    pub fn with_group_components(mut self, c: usize) -> Self {
        self.group_components = Some(c);
        self
    }

    /// Replaces the kernel back-end.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }
}

/// A partition prepared for PQ Fast Scan: grouped, nibble-packed codes.
#[derive(Debug, Clone)]
pub struct FastScanIndex {
    grouped: GroupedCodes,
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
    pub fn build(codes: &RowMajorCodes, opts: &ScanOpts) -> Result<Self, ScanError> {
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
        scan::scan_with(self, tables, params, scratch, None)
    }

    /// [`scan_with`](Self::scan_with) with `pool` at hand: a partition of
    /// at least [`SPLIT_MIN`] vectors runs its fast path as two shards on a
    /// pool of two or more threads ([`shards`](Self::shards)). The neighbors
    /// are bit-identical to [`scan_with`](Self::scan_with)'s; the stats of a
    /// split scan count both shards' work (docs/FASTSCAN.md §9). A split
    /// also allocates its shards' run lists and their merged list.
    ///
    /// # Errors
    ///
    /// As [`scan`](Self::scan).
    pub fn scan_on(
        &self,
        tables: &DistanceTables,
        params: &ScanParams,
        scratch: &mut ScanScratch,
        pool: &ThreadPool,
    ) -> Result<ScanResult, ScanError> {
        let split = (self.shards(pool) > 1).then_some(pool);
        scan::scan_with(self, tables, params, scratch, split)
    }

    /// The shards [`scan_on`](Self::scan_on) scans this partition in on
    /// `pool`: two when the pool has two or more threads and the partition
    /// at least [`SPLIT_MIN`] vectors, else one.
    pub fn shards(&self, pool: &ThreadPool) -> usize {
        if pool.threads() >= 2 && self.len() >= SPLIT_MIN {
            scan::SHARDS
        } else {
            1
        }
    }

    /// [`scan_on`](Self::scan_on)'s split at any partition size: what the
    /// timing harness that picks [`SPLIT_MIN`] compares with the unsplit
    /// scan.
    ///
    /// # Errors
    ///
    /// As [`scan`](Self::scan).
    #[doc(hidden)]
    pub fn scan_split(
        &self,
        tables: &DistanceTables,
        params: &ScanParams,
        scratch: &mut ScanScratch,
        pool: &ThreadPool,
    ) -> Result<ScanResult, ScanError> {
        scan::scan_with(self, tables, params, scratch, Some(pool))
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

    pub(crate) fn kernel(&self) -> Kernel {
        self.kernel
    }
}
