//! `pqfs_obs` — runtime telemetry for the PQ Fast Scan stack.
//!
//! The paper's argument is built on measuring where query time goes
//! (PAPER.md; André et al., PVLDB 2015, Figs. 3/15): per-stage timings,
//! cache-level effects, pruning power. This crate is the *online*
//! counterpart to the figure harness's offline analysis (`pqfs_bench`) —
//! the substrate every runtime component reports through:
//!
//! * **Metrics registry** ([`registry`]): lock-free sharded [`Counter`]s,
//!   [`Gauge`]s, and log-bucketed [`Histogram`]s, each a `const` `static`
//!   that registers itself in a process-wide registry on its first
//!   record. Recording is a few relaxed atomics.
//! * **Exposition** ([`expose`]): one JSON snapshot rendered from one walk
//!   of the registry: what `pqfs --metrics-out` writes and the server's
//!   stats frame carries.
//! * **Tracing** ([`trace`]): a reusable per-query [`QueryTrace`] capturing
//!   the `coarse_quantize → tables → probe[i] scan → merge` waterfall with
//!   per-probe backend, scanned/pruned counts, and outcome.
//! * **JSON** ([`jsonv`]): a minimal parser, so tests and the benchmark
//!   read snapshots without external dependencies.
//!
//! # Instrumentation-site idiom
//!
//! ```
//! use pqfs_obs::Counter;
//!
//! static QUERIES: Counter = Counter::new("myapp_queries_total");
//!
//! fn serve() {
//!     QUERIES.inc(); // one relaxed flag load and one relaxed atomic add
//! }
//! # serve();
//! ```

#![warn(missing_docs)]

pub mod expose;
pub mod histogram;
pub mod jsonv;
pub mod registry;
pub mod trace;

pub use expose::{global_json_snapshot, json_snapshot};
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{counter_value, global, Counter, CounterFamily, Gauge, Registry};
pub use trace::{fmt_ns, ProbeOutcome, ProbeTrace, QueryTrace};
