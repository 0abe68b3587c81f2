//! # pq-fast-scan
//!
//! A Rust reproduction of *"Cache locality is not enough: High-Performance
//! Nearest Neighbor Search with Product Quantization Fast Scan"* (F. André,
//! A.-M. Kermarrec, N. Le Scouarnec — PVLDB 9(4), 2015).
//!
//! PQ Fast Scan accelerates product-quantization nearest-neighbor search by
//! replacing L1-cache-resident distance lookup tables with **small tables
//! held in SIMD registers**, looked up via `pshufb`. The small tables give
//! lower bounds that prune >95 % of exact distance computations, making the
//! scan 4–6× faster than PQ Scan *while returning exactly the same
//! results*.
//!
//! This facade crate re-exports the search library's public API (the
//! figure harness and its measurement helpers live in `pqfs_bench`, which
//! only the experiments use):
//!
//! * [`kmeans`] — clustering substrate (Lloyd + same-size k-means);
//! * [`core`] — product quantization, ADC distance tables, layouts, top-k;
//! * [`scan`] — [`FastScanIndex`](scan::FastScanIndex), its PQ Scan
//!   oracles, and the [`Backend`](scan::Backend) enum that names them;
//! * [`ivf`] — the IVFADC indexed-search pipeline;
//! * [`pool`] — the shared thread pool every parallel path
//!   (batch search, multi-probe fan-out, batch encoding, training) runs on;
//! * [`data`] — synthetic SIFT-like datasets, TEXMEX file IO, ground truth;
//! * [`fault`] — deterministic fault injection (failpoints) used to test
//!   the persistence and degraded-search paths; armed via the
//!   `PQFS_FAILPOINTS` environment variable, a no-op when disarmed;
//! * [`server`] — the TCP serving layer: length-prefixed binary protocol,
//!   each request run to completion on its connection thread, admission
//!   control, graceful shutdown.
//!
//! ## Quickstart
//!
//! ```
//! use pq_fast_scan::prelude::*;
//! use rand::{Rng, SeedableRng, rngs::StdRng};
//!
//! // Synthetic SIFT-like vectors (128-d, byte-range, clustered).
//! let config = SyntheticConfig::sift_like().with_dim(32).with_seed(1);
//! let mut dataset = SyntheticDataset::new(&config);
//! let train = dataset.sample(2_000);
//! let base = dataset.sample(10_000);
//!
//! // Train a PQ 8x8 product quantizer with the optimized index assignment.
//! let mut pq = ProductQuantizer::train(&train, &PqConfig::pq8x8(32), 42).unwrap();
//! pq.optimize_assignment(16, 42).unwrap();
//! let codes = pq.encode_batch(&base).unwrap();
//!
//! // Build the Fast Scan index and run a query: it returns exactly what
//! // the naive PQ Scan reference returns.
//! let index = FastScanIndex::build(&codes, &ScanOpts::default()).unwrap();
//! let query = dataset.sample(1);
//! let tables = DistanceTables::compute(&pq, &query).unwrap();
//! let params = ScanParams::new(10);
//! let result = index.scan(&tables, &params).unwrap();
//! let reference = scan_naive(&tables, &codes, &params);
//!
//! assert_eq!(result.neighbors.len(), 10);
//! assert_eq!(result.ids(), reference.ids());
//! ```

pub use pqfs_core as core;
pub use pqfs_data as data;
pub use pqfs_fault as fault;
pub use pqfs_ivf as ivf;
pub use pqfs_kmeans as kmeans;
pub use pqfs_pool as pool;
pub use pqfs_scan as scan;
pub use pqfs_server as server;

/// The most common imports in one place.
pub mod prelude {
    pub use pqfs_core::{
        DistanceTables, Neighbor, PqConfig, ProductQuantizer, RowMajorCodes, TopK,
    };
    pub use pqfs_data::{exact_knn, SyntheticConfig, SyntheticDataset};
    pub use pqfs_ivf::{IvfadcConfig, IvfadcIndex, SearchBackend, SearchHealth, SearchRequest};
    pub use pqfs_kmeans::{KMeans, KMeansConfig};
    pub use pqfs_pool::ThreadPool;
    pub use pqfs_scan::{
        scan_libpq, scan_naive, Backend, FastScanIndex, Kernel, ScanOpts, ScanParams, ScanResult,
        ScanStats,
    };
}
