//! IVFADC — the indexed ANN search system PQ Fast Scan plugs into
//! (paper §2.2, following Jégou et al. [14]).
//!
//! Answering a query takes three steps (Algorithm 1):
//!
//! 1. **partition selection** — the coarse quantizer's Voronoi cell the
//!    query falls into ([`CoarseQuantizer`]);
//! 2. **distance tables** — per-query tables over the *residual*
//!    `y − c(y)`;
//! 3. **scan** — any backend from the `pqfs-scan` registry over the
//!    partition's codes (>99 % of query CPU time for multi-million-vector
//!    partitions, which is why the paper attacks this step).
//!
//! # Search
//!
//! One path answers every query: [`IvfadcIndex::search`] takes the query,
//! a [`SearchRequest`] (`topk`, `backend`, `keep`, `nprobe`, `deadline`),
//! the [`pqfs_pool::ThreadPool`] its probes fan out on and an optional
//! per-query trace. [`IvfadcIndex::search_probes`] is the shorthand for the
//! global pool with no deadline and no trace.
//!
//! # One resident layout
//!
//! A partition holds its global ids and one copy of its codes: the grouped,
//! nibble-packed Fast Scan layout of the paper's §4.2 (`PQ 8×8` only; any
//! other quantizer shape is a typed error at build and at load). That layout
//! *is* the index — nothing selects or lists backends. [`SearchBackend`] is
//! a re-export of the scan crate's `Backend` registry enum and every index
//! answers every member of it with the exact same neighbors:
//! `FastScan` scans the resident codes; any other backend is an **oracle
//! path** for exactness checks and baselines, which rebuilds the probed
//! partition's rows ([`IvfadcIndex::partition_rows`]), prepares the backend
//! over them, scans, and drops them — slow on purpose, never a second
//! resident copy.
//!
//! ```
//! use pqfs_ivf::{IvfadcConfig, IvfadcIndex, SearchBackend};
//! use rand::{Rng, SeedableRng, rngs::StdRng};
//!
//! let dim = 16;
//! let mut rng = StdRng::seed_from_u64(3);
//! let mut gen = |n: usize| -> Vec<f32> {
//!     (0..n * dim).map(|_| rng.gen_range(0.0f32..255.0)).collect()
//! };
//! let train = gen(1000);
//! let base = gen(500);
//! let index = IvfadcIndex::build(&train, &base, &IvfadcConfig::new(dim, 4)).unwrap();
//!
//! let query = &base[..dim];
//! let reference = index.search_probes(query, 5, SearchBackend::Naive, 0.0, 1).unwrap();
//! for backend in SearchBackend::ALL {
//!     let found = index.search_probes(query, 5, backend, 0.01, 1).unwrap();
//!     let ids = |o: &pqfs_ivf::SearchOutcome| {
//!         o.neighbors.iter().map(|n| n.id).collect::<Vec<_>>()
//!     };
//!     assert_eq!(ids(&found), ids(&reference), "{backend} must be exact");
//! }
//! ```

#![forbid(unsafe_code)]

pub mod coarse;
mod error;
pub mod index;
pub mod persist;

pub use coarse::CoarseQuantizer;
pub use error::IvfError;
pub use index::{
    IvfadcConfig, IvfadcIndex, SearchBackend, SearchHealth, SearchOutcome, SearchRequest,
};
