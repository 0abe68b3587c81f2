//! Generalization of PQ Fast Scan's small tables to compressed-database
//! query execution — the paper's §6 ("Discussion"), implemented.
//!
//! Dictionary compression stores a column as one byte per row plus a shared
//! dictionary; query execution then relies on lookup tables derived from
//! that dictionary. §6 observes that the PQ Fast Scan techniques carry
//! over:
//!
//! * **top-k queries** — 16-entry *maximum tables* give in-register upper
//!   bounds that prune dictionary lookups ([`topk_max_fast`]);
//! * **approximate aggregates** — 16-entry *tables of means* replace the
//!   minimum tables, and 8-bit saturated arithmetic (`pshufb` + `psadbw`)
//!   computes the aggregate four times wider than 32-bit floats would
//!   ([`approximate_mean`]).
//!
//! ```
//! use pqfs_bench::columnar::{CompressedColumn, topk_max_fast, approximate_mean};
//!
//! let data: Vec<f32> = (0..10_000).map(|i| ((i * 37) % 1001) as f32).collect();
//! let column = CompressedColumn::compress(&data, 256);
//!
//! let top = topk_max_fast(&column, 5);
//! assert_eq!(top.items, column.topk_max_exact(5)); // exact results
//! assert!(top.pruned > 5_000); // most rows never touch the dictionary
//!
//! let mean = approximate_mean(&column);
//! assert!((mean.value - column.exact_mean()).abs() <= mean.error_bound);
//! ```

pub mod aggregate;
pub mod column;
pub mod dict;
pub mod topk;

pub use aggregate::{approximate_mean, ApproxAggregate};
pub use column::CompressedColumn;
pub use dict::Dictionary;
pub use topk::{topk_max_fast, TopKResult};
