//! Thread pool: the shared parallel executor of the workspace.
//!
//! The paper's §3.1 observes that PQ Scan "parallelizes naturally over
//! multiple queries by running each query on a different core". Before this
//! crate, every parallel site in the workspace (query batches, batch
//! encoding, k-means assignment) spawned fresh OS threads per call and
//! carved the work into one static chunk per thread — so a single skewed
//! partition or slow query stalled its whole chunk while sibling threads sat
//! idle, and thread spawn/join costs were paid on every batch.
//!
//! [`ThreadPool`] replaces all of that with one **persistent** pool:
//!
//! * **One shared FIFO queue** — a call splits its items into
//!   `8 × threads` tasks and queues them all at once; workers and the
//!   submitting thread take tasks from the front, so whichever thread is
//!   free takes the next one and a skewed task does not hold up the rest
//!   (OpenMP's `schedule(dynamic)`). The work has that shape: a few
//!   independent tasks of similar size per call.
//! * **Scoped borrowing** — [`ThreadPool::parallel_map`] and
//!   [`ThreadPool::parallel_map_mut`] accept closures borrowing the
//!   caller's stack (no `'static` bound, no `Arc` plumbing); the call does
//!   not return until every task has finished.
//! * **Panic propagation** — a panicking task poisons the scope; the first
//!   panic payload is re-raised on the submitting thread after all tasks
//!   settle, never on a worker.
//! * **Nested submission** — a task may itself call `parallel_map` on the
//!   same pool. The submitting thread always participates in execution
//!   (it runs queued tasks while waiting), so nesting cannot deadlock
//!   even when every worker is busy.
//! * **Poll, then sleep** — a thread that has just run a task and finds
//!   nothing to do (a worker with an empty queue, a submitter whose tasks
//!   are all taken but not finished) polls the queue for about 50 µs,
//!   yielding between looks, before it blocks on the condition variable:
//!   the OpenMP runtime's "blocktime". Work queued within that window
//!   starts at once instead of after a wake-up. The poll only decides when
//!   to look again; every decision is taken under the queue's lock, so it
//!   cannot lose a wake-up.
//!
//! The process-wide pool is reached through [`ThreadPool::global`]; it is
//! created lazily, sized from [`std::thread::available_parallelism`], and
//! overridable with the `PQFS_THREADS` environment variable (read once, at
//! first use). A pool of size 1 spawns no threads at all and runs every
//! task inline on the caller — the deterministic serial baseline.
//! `IvfadcIndex::search` takes the pool its probes fan out on as an
//! argument (`search_probes` passes the global one); callers that already
//! fan queries out, like the server's batch frames, hand it a 1-thread pool.
//!
//! Determinism: both maps preserve input order in their outputs, and
//! task *decomposition* (⌈n / (8 × threads)⌉ items a task) depends on the
//! pool size but never on which thread executes what — so a deterministic
//! `f` yields bit-identical results for any pool size.
//!
//! ```
//! use pqfs_pool::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.parallel_map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

mod pool;

pub use pool::ThreadPool;

use std::sync::OnceLock;

/// The largest pool size [`parse_threads`] accepts. A larger value is
/// refused, not handed to [`ThreadPool::new`], which would try to spawn that
/// many OS threads and panic once the OS refuses one.
pub const MAX_THREADS: usize = 1024;

/// Parses a pool size, from `PQFS_THREADS` or the CLI's `--threads`: an
/// integer in `1..=MAX_THREADS`, `None` for anything else.
pub fn parse_threads(value: &str) -> Option<usize> {
    let n = value.trim().parse::<usize>().ok()?;
    (1..=MAX_THREADS).contains(&n).then_some(n)
}

/// The pool size the global pool uses: `PQFS_THREADS` when
/// [`parse_threads`] accepts it, otherwise
/// [`std::thread::available_parallelism`] (1 if unknown).
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

static POOL_THREADS: pqfs_obs::Gauge = pqfs_obs::Gauge::new("pqfs_pool_threads");

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
        assert_eq!(parse_threads("100000"), None);
        assert_eq!(parse_threads(&MAX_THREADS.to_string()), Some(MAX_THREADS));
        assert_eq!(parse_threads(&(MAX_THREADS + 1).to_string()), None);
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
