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
//! # Backend dispatch
//!
//! [`SearchBackend`] is a re-export of the scan crate's `Backend` registry
//! enum. At build time, [`IvfadcConfig::backends`] lists the backends each
//! partition prepares (via `Scanner::prepare`: row-major baselines share
//! the partition's code storage, the transposed baselines keep a transposed
//! copy, Fast Scan keeps its grouped/packed index); at query time,
//! [`IvfadcIndex::search`] routes to the prepared state for the requested
//! backend. There is **no per-backend `match` in this crate** — adding a
//! kernel to the scan registry makes it available here by listing it in
//! `backends`. Every backend returns the exact same neighbors, which the
//! test suites of both crates verify.
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
//! // Prepare every registered backend, not just the default three.
//! let config = IvfadcConfig::new(dim, 4).with_backends(SearchBackend::ALL.to_vec());
//! let index = IvfadcIndex::build(&train, &base, &config).unwrap();
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
