//! Work-stealing thread pool: the shared parallel executor of the workspace.
//!
//! The paper's §3.1 observes that PQ Scan "parallelizes naturally over
//! multiple queries by running each query on a different core". Before this
//! crate, every parallel site in the workspace (query waves, batch
//! encoding, k-means assignment) spawned fresh OS threads per call and
//! carved the work into one static chunk per thread — so a single skewed
//! partition or slow query stalled its whole chunk while sibling threads sat
//! idle, and thread spawn/join costs were paid on every batch.
//!
//! [`ThreadPool`] replaces all of that with one **persistent** pool:
//!
//! * **Per-worker deques with stealing** — submitted tasks are distributed
//!   round-robin over per-worker deques; a worker pops its own deque from
//!   the back (LIFO, cache-warm) and, when empty, steals from the front of
//!   a sibling's deque (FIFO, oldest first). Work is split into many more
//!   tasks than workers, so skew load-balances dynamically instead of
//!   stalling a static chunk.
//! * **Scoped borrowing** — [`ThreadPool::parallel_map`] and friends accept
//!   closures borrowing the caller's stack (no `'static` bound, no `Arc`
//!   plumbing); the call does not return until every task has finished.
//! * **Panic propagation** — a panicking task poisons the scope; the first
//!   panic payload is re-raised on the submitting thread after all tasks
//!   settle, never on a worker.
//! * **First-error short-circuiting** — [`ThreadPool::try_parallel_map`]
//!   aborts remaining work as soon as any task fails and returns the error
//!   with the lowest input index among those observed.
//! * **Nested submission** — a task may itself call `parallel_map` on the
//!   same pool. The submitting thread always participates in execution
//!   (it drains queued tasks while waiting), so nesting cannot deadlock
//!   even when every worker is busy.
//!
//! The process-wide pool is reached through [`ThreadPool::global`]; it is
//! created lazily, sized from [`std::thread::available_parallelism`], and
//! overridable with the `PQFS_THREADS` environment variable (read once, at
//! first use). A pool of size 1 spawns no threads at all and runs every
//! task inline on the caller — the deterministic serial baseline.
//! `IvfadcIndex::search` takes the pool its probes fan out on as an
//! argument (`search_probes` passes the global one); callers that already
//! fan queries out, like the server's waves, hand it a 1-thread pool.
//!
//! Determinism: all combinators preserve input order in their outputs, and
//! task *decomposition* never depends on which thread executes what — so a
//! deterministic `f` yields bit-identical results for any pool size.
//!
//! ```
//! use pqfs_pool::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.parallel_map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

mod pool;

pub use pool::ThreadPool;

use std::sync::OnceLock;

/// Parses a thread-count override; `None` for absent/invalid/zero values.
fn parse_threads(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// The pool size the global pool uses: `PQFS_THREADS` when set to a positive
/// integer, otherwise [`std::thread::available_parallelism`] (1 if unknown).
pub fn default_threads() -> usize {
    std::env::var("PQFS_THREADS")
        .ok()
        .as_deref()
        .and_then(parse_threads)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

static POOL_THREADS: pqfs_obs::LazyGauge = pqfs_obs::LazyGauge::new(
    "pqfs_pool_threads",
    "Participating threads of the global pool (workers plus submitter)",
);

impl ThreadPool {
    /// The process-wide shared pool, created on first use with
    /// [`default_threads`] workers. Long-lived: its threads persist for the
    /// life of the process and are shared by every caller in the workspace.
    pub fn global() -> &'static ThreadPool {
        GLOBAL.get_or_init(|| {
            let pool = ThreadPool::new(default_threads());
            POOL_THREADS.set(pool.threads() as u64);
            pool
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 16 "), Some(16));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("eight"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn global_pool_is_shared_and_usable() {
        let a = ThreadPool::global() as *const ThreadPool;
        let b = ThreadPool::global() as *const ThreadPool;
        assert_eq!(a, b, "global pool must be a singleton");
        let sums = ThreadPool::global().parallel_map(&[1u32, 2, 3], |i, &x| x + i as u32);
        assert_eq!(sums, vec![1, 3, 5]);
    }
}
