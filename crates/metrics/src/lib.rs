//! Measurement substrate for the PQ Fast Scan reproduction.
//!
//! * [`stats`] — summary statistics, quartiles and CDFs (Table 4,
//!   Figure 14);
//! * [`recall`] — Recall@R for the IVFADC pipeline;
//! * [`counters`] — exact per-vector operation counts that substitute for
//!   the paper's hardware performance counters (Figures 3, 15; DESIGN §2);
//! * [`cost_model`] — the paper's cache and instruction constants
//!   (Tables 1, 2);
//! * [`table`] — aligned text tables for harness output;
//! * [`timer`] — wall-clock helpers and the M vecs/s unit.

#![forbid(unsafe_code)]

pub mod cost_model;
pub mod counters;
pub mod recall;
pub mod stats;
pub mod table;
pub mod timer;

pub use cost_model::{table_cache_level, CacheLevel, InstrProps, GATHER, PSHUFB};
pub use counters::{fastscan_ops, pqscan_ops, FastScanProfile, PerVectorOps, PqScanImpl};
pub use recall::{mean_recall_at_r, recall_at_r};
pub use stats::Summary;
pub use table::{fmt_count, fmt_f, TextTable};
pub use timer::{measure_ms, mvecs_per_sec, time_ms};
