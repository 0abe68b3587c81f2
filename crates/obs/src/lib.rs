//! `pqfs_obs` — runtime telemetry for the PQ Fast Scan stack.
//!
//! The paper's argument is built on measuring where query time goes
//! (PAPER.md; André et al., PVLDB 2015, Figs. 3/15): per-stage timings,
//! cache-level effects, pruning power. This crate is the *online*
//! counterpart to the offline `pqfs_metrics` analysis — the substrate every
//! runtime component reports through:
//!
//! * **Metrics registry** ([`registry`]): lock-free sharded [`LazyCounter`]s,
//!   [`LazyGauge`]s, and log-bucketed [`LazyHistogram`]s registered lazily
//!   into a process-wide registry. Recording is a few relaxed atomics.
//! * **Exposition** ([`expose`]): Prometheus text format and a JSON
//!   snapshot rendered from one consistent walk of the registry, plus a
//!   dependency-free line-grammar validator used in tests and CI.
//! * **Tracing** ([`trace`]): a reusable per-query [`QueryTrace`] capturing
//!   the `coarse_quantize → tables → probe[i] scan → merge` waterfall with
//!   per-probe backend, scanned/pruned counts, and outcome.
//! * **JSON** ([`jsonv`]): a minimal parser so snapshots can be validated
//!   against a schema without external dependencies.
//!
//! # Instrumentation-site idiom
//!
//! ```
//! use pqfs_obs::LazyCounter;
//!
//! static QUERIES: LazyCounter =
//!     LazyCounter::new("pqfs_ivf_queries_total", "IVF queries served");
//!
//! fn serve() {
//!     QUERIES.inc(); // one relaxed atomic add
//! }
//! # serve();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expose;
pub mod histogram;
pub mod jsonv;
pub mod registry;
pub mod trace;

pub use expose::{
    global_json_snapshot, global_prometheus_text, json_snapshot, prometheus_text,
    validate_prometheus,
};
pub use histogram::{bucket_index, bucket_le, HistogramSnapshot, BUCKET_COUNT};
pub use registry::{
    counter_value, global, Counter, CounterFamily, Gauge, LazyCounter, LazyGauge, LazyHistogram,
    Registry,
};
pub use trace::{fmt_ns, ProbeOutcome, ProbeTrace, QueryTrace};
