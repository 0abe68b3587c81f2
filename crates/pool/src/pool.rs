//! The executor: worker threads, per-worker deques, scoped task groups.

use pqfs_obs::{LazyCounter, LazyGauge};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

static TASKS: LazyCounter = LazyCounter::new(
    "pqfs_pool_tasks_total",
    "Pool tasks executed (by workers and by helping submitter threads)",
);
static STEALS: LazyCounter = LazyCounter::new(
    "pqfs_pool_steals_total",
    "Pool tasks taken from another thread's deque",
);
static BUSY_NS: LazyCounter = LazyCounter::new(
    "pqfs_pool_busy_ns_total",
    "Nanoseconds spent executing pool tasks",
);
static QUEUE_HWM: LazyGauge = LazyGauge::new(
    "pqfs_pool_queue_depth_hwm",
    "High-water mark of tasks queued across all deques",
);

/// Executes one job, counting it and its busy time.
fn run_job(job: Job) {
    run_inline(job)
}

/// [`run_job`] for un-boxed thunks (the serial inline path counts too, so
/// the task counters are pool-size-independent).
fn run_inline(thunk: impl FnOnce()) {
    TASKS.inc();
    let start = std::time::Instant::now();
    thunk();
    BUSY_NS.add(start.elapsed().as_nanos() as u64);
}

/// A type-erased unit of work. Scoped borrows are transmuted to `'static`
/// before a job enters a deque; soundness is argued at the transmute site.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Target number of tasks generated per participating thread. More tasks
/// than threads is what makes stealing balance skewed workloads; 8 keeps
/// per-task overhead negligible while bounding the skew any single task can
/// contribute to the critical path.
const TASKS_PER_THREAD: usize = 8;

/// State shared between the pool handle and its workers.
struct Shared {
    /// One deque per worker. Owners pop from the back (most recently pushed,
    /// cache-warm); thieves — siblings and submitting threads — steal from
    /// the front (oldest first, likely the largest remaining work).
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs currently sitting in some deque (not yet picked up), plus those
    /// a `push` has counted and is about to enqueue.
    pending: AtomicUsize,
    /// Round-robin submission cursor.
    next: AtomicUsize,
    /// Parking lot for idle workers; the guarded flag is the shutdown signal.
    lot: Mutex<bool>,
    wake: Condvar,
}

impl Shared {
    /// Enqueues a job on the next deque in round-robin order and wakes a
    /// sleeping worker.
    fn push(&self, job: Job) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.deques.len();
        // Counted before it can be popped, so the `fetch_sub` of whoever pops
        // it cannot come first and wrap `pending`. (A worker that sees the
        // count before the job finds no job and looks again.)
        let depth = self.pending.fetch_add(1, Ordering::SeqCst) + 1;
        QUEUE_HWM.record_max(depth as u64);
        self.deques[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(job);
        // Taking the lot lock orders this wake-up against a worker that just
        // observed `pending == 0` and is about to sleep.
        let _lot = self.lot.lock().unwrap_or_else(PoisonError::into_inner);
        self.wake.notify_all();
    }

    /// Worker `me` looks for work: own deque from the back, then steals
    /// from siblings' fronts.
    fn grab(&self, me: usize) -> Option<Job> {
        if self.pending.load(Ordering::SeqCst) == 0 {
            return None;
        }
        if let Some(job) = self.deques[me]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_back()
        {
            self.pending.fetch_sub(1, Ordering::SeqCst);
            return Some(job);
        }
        for k in 1..self.deques.len() {
            let i = (me + k) % self.deques.len();
            if let Some(job) = self.deques[i]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front()
            {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                STEALS.inc();
                return Some(job);
            }
        }
        None
    }

    /// A non-worker (submitting thread) steals from any deque front.
    fn steal_any(&self) -> Option<Job> {
        if self.deques.is_empty() || self.pending.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let start = self.next.load(Ordering::Relaxed);
        for k in 0..self.deques.len() {
            let i = (start + k) % self.deques.len();
            if let Some(job) = self.deques[i]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front()
            {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                STEALS.inc();
                return Some(job);
            }
        }
        None
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    loop {
        if let Some(job) = shared.grab(me) {
            run_job(job);
            continue;
        }
        let lot = shared.lot.lock().unwrap_or_else(PoisonError::into_inner);
        if *lot {
            return; // shutdown
        }
        if shared.pending.load(Ordering::SeqCst) == 0 {
            // Rechecked under the lot lock: `push` takes the same lock
            // before notifying, so this wait cannot miss a wake-up.
            drop(
                shared
                    .wake
                    .wait(lot)
                    .unwrap_or_else(PoisonError::into_inner),
            );
        }
    }
}

/// Completion tracking for one group of scoped tasks.
struct ScopeState {
    remaining: AtomicUsize,
    /// Set by the first panicking task; later tasks skip their payload and
    /// only decrement `remaining`.
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl ScopeState {
    fn new(tasks: usize) -> Self {
        ScopeState {
            remaining: AtomicUsize::new(tasks),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }
}

/// A persistent work-stealing thread pool (see the crate docs for the
/// design). Cheap to share by reference; [`ThreadPool::global`] provides the
/// process-wide instance.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `threads` total participants: `threads - 1`
    /// background workers plus the submitting thread, which always helps
    /// execute. `threads <= 1` spawns nothing and runs every task inline.
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn a worker thread.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let worker_count = threads - 1;
        let shared = Arc::new(Shared {
            deques: (0..worker_count)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            pending: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            lot: Mutex::new(false),
            wake: Condvar::new(),
        });
        #[allow(
            clippy::expect_used,
            reason = "a pool that cannot spawn its workers cannot uphold its \
                      parallelism contract; the `# Panics` section documents it"
        )]
        let workers = (0..worker_count)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pqfs-worker-{me}"))
                    .spawn(move || worker_loop(shared, me))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            threads,
        }
    }

    /// Total participating threads (workers plus the submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Task length for `n` items: enough tasks for stealing to balance skew
    /// (`TASKS_PER_THREAD` per participant), independent of which thread
    /// runs what.
    fn task_len(&self, n: usize) -> usize {
        n.div_ceil(self.threads * TASKS_PER_THREAD).max(1)
    }

    /// Runs a group of scoped tasks to completion, on workers and the
    /// calling thread. Returns only after every task has finished; re-raises
    /// the first observed panic.
    fn scope<'scope, G>(&self, thunks: Vec<G>)
    where
        G: FnOnce() + Send + 'scope,
    {
        if thunks.is_empty() {
            return;
        }
        if self.workers.is_empty() || thunks.len() == 1 {
            // Serial baseline: run inline, panics propagate natively.
            for thunk in thunks {
                run_inline(thunk);
            }
            return;
        }
        let state = Arc::new(ScopeState::new(thunks.len()));
        for thunk in thunks {
            let state = Arc::clone(&state);
            let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                if !state.poisoned.load(Ordering::Relaxed) {
                    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(thunk)) {
                        state.poisoned.store(true, Ordering::Relaxed);
                        let mut slot = state.panic.lock().unwrap_or_else(PoisonError::into_inner);
                        if slot.is_none() {
                            *slot = Some(annotate_panic(payload));
                        }
                    }
                }
                if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let mut done = state.done.lock().unwrap_or_else(PoisonError::into_inner);
                    *done = true;
                    state.done_cv.notify_all();
                }
            });
            // SAFETY: the job borrows data living on this call's stack (the
            // `'scope` captures). The wait loop below blocks this function
            // until `remaining == 0`, i.e. until every job has *finished
            // executing* — jobs leave a deque only by running — so no borrow
            // outlives its referent. The transmute only erases the lifetime;
            // layout of `Box<dyn FnOnce() + Send>` is lifetime-invariant.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
            self.shared.push(job);
        }
        // Help with queued work (this scope's or any other's — draining
        // someone else's task still makes global progress and is what makes
        // nested scopes deadlock-free) until this scope completes.
        while state.remaining.load(Ordering::Acquire) != 0 {
            if let Some(job) = self.shared.steal_any() {
                run_job(job);
            } else {
                // Nothing queued anywhere: our stragglers are running on
                // workers. Park until the last one flips `done`. The timeout
                // is defensive only — the flag is set under the same lock.
                let done = state.done.lock().unwrap_or_else(PoisonError::into_inner);
                if !*done {
                    let _ = state
                        .done_cv
                        .wait_timeout(done, Duration::from_millis(1))
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        let payload = state
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }

    /// Maps `f` over `items` in parallel, preserving input order. `f`
    /// receives `(index, &item)`. Panics in `f` propagate to the caller
    /// after all tasks settle.
    pub fn parallel_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        enum Never {}
        match self.try_parallel_map(items, |i, item| Ok::<U, Never>(f(i, item))) {
            Ok(out) => out,
            Err(never) => match never {},
        }
    }

    /// Fallible [`parallel_map`](Self::parallel_map): the first `Err` aborts
    /// all work at higher input indices and is returned. The error with the
    /// lowest input index always wins — items below it are still evaluated,
    /// so the reported error does not depend on thread scheduling.
    pub fn try_parallel_map<T, U, E, F>(&self, items: &[T], f: F) -> Result<Vec<U>, E>
    where
        T: Sync,
        U: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<U, E> + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let task = self.task_len(n);
        let ranges: Vec<(usize, usize)> = (0..n)
            .step_by(task)
            .map(|start| (start, (start + task).min(n)))
            .collect();
        let slots: Vec<Mutex<Option<Vec<U>>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
        let first_err: Mutex<Option<(usize, E)>> = Mutex::new(None);
        // Lowest input index known to have errored. Tasks stop before any
        // item at a higher index, but items at lower indices keep being
        // evaluated — so the lowest-index error always wins, independent of
        // thread scheduling.
        let err_index = AtomicUsize::new(usize::MAX);
        let f = &f;
        let err_index_ref = &err_index;
        let err_ref = &first_err;
        self.scope(
            ranges
                .iter()
                .zip(&slots)
                .map(|(&(start, end), slot)| {
                    move || {
                        let mut out = Vec::with_capacity(end - start);
                        for (i, item) in items[start..end].iter().enumerate() {
                            if start + i > err_index_ref.load(Ordering::Relaxed) {
                                break;
                            }
                            match f(start + i, item) {
                                Ok(value) => out.push(value),
                                Err(e) => {
                                    err_index_ref.fetch_min(start + i, Ordering::Relaxed);
                                    let mut slot =
                                        err_ref.lock().unwrap_or_else(PoisonError::into_inner);
                                    match slot.as_ref() {
                                        Some((j, _)) if start + i >= *j => {}
                                        _ => *slot = Some((start + i, e)),
                                    }
                                    break;
                                }
                            }
                        }
                        *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
                    }
                })
                .collect(),
        );
        if let Some((_, e)) = first_err
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            return Err(e);
        }
        let mut result = Vec::with_capacity(n);
        for slot in slots {
            result.extend(
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or_else(|| unreachable!("completed scope filled every slot")),
            );
        }
        Ok(result)
    }

    /// Maps `f` over mutable items in parallel, preserving input order. `f`
    /// receives `(index, &mut item)`; each item is visited exactly once.
    pub fn parallel_map_mut<T, U, F>(&self, items: &mut [T], f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, &mut T) -> U + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let task = self.task_len(n);
        let pieces = split_pieces(items, task);
        let slots: Vec<Mutex<Option<Vec<U>>>> = pieces.iter().map(|_| Mutex::new(None)).collect();
        let f = &f;
        self.scope(
            pieces
                .into_iter()
                .zip(&slots)
                .map(|((start, piece), slot)| {
                    move || {
                        let mut out = Vec::with_capacity(piece.len());
                        for (k, item) in piece.iter_mut().enumerate() {
                            out.push(f(start + k, item));
                        }
                        *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
                    }
                })
                .collect(),
        );
        let mut result = Vec::with_capacity(n);
        for slot in slots {
            result.extend(
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or_else(|| unreachable!("completed scope filled every slot")),
            );
        }
        result
    }

    /// Runs `f` over disjoint `chunk`-sized slices of `data` in parallel.
    /// `f` receives `(offset_of_chunk_start, &mut chunk)`. The chunk size is
    /// the caller's stealing granularity: decomposition depends only on
    /// `data.len()` and `chunk`, never on the pool size, so chunk-local
    /// computations (e.g. partial float sums) are reproducible across any
    /// thread count.
    pub fn for_each_chunk<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if data.is_empty() {
            return;
        }
        let pieces = split_pieces(data, chunk.max(1));
        let f = &f;
        self.scope(
            pieces
                .into_iter()
                .map(|(start, piece)| move || f(start, piece))
                .collect(),
        );
    }
}

/// Rewrites a string-like panic payload to carry the name of the thread it
/// fired on (e.g. `boom [on pqfs-worker-2]`), so a panic propagated from a
/// pool worker to the submitting thread still attributes to its origin.
/// Non-string payloads pass through untouched.
fn annotate_panic(payload: Box<dyn std::any::Any + Send>) -> Box<dyn std::any::Any + Send> {
    let thread = std::thread::current();
    let Some(name) = thread.name() else {
        return payload;
    };
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        Some((*s).to_string())
    } else {
        payload.downcast_ref::<String>().cloned()
    };
    match msg {
        Some(m) => Box::new(format!("{m} [on {name}]")),
        None => payload,
    }
}

/// Splits a slice into `(start_offset, sub-slice)` pieces of at most `len`
/// elements.
fn split_pieces<T>(mut data: &mut [T], len: usize) -> Vec<(usize, &mut [T])> {
    let mut pieces = Vec::with_capacity(data.len().div_ceil(len));
    let mut offset = 0;
    while !data.is_empty() {
        let take = len.min(data.len());
        let (head, tail) = data.split_at_mut(take);
        pieces.push((offset, head));
        offset += take;
        data = tail;
    }
    pieces
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut lot = self
                .shared
                .lot
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *lot = true;
            self.shared.wake.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let pool = ThreadPool::new(4);
        let out: Vec<u32> = pool.parallel_map(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
        let out: Result<Vec<u32>, ()> = pool.try_parallel_map(&[] as &[u32], |_, &x| Ok(x));
        assert_eq!(out.unwrap(), Vec::<u32>::new());
        pool.for_each_chunk(&mut [] as &mut [u32], 8, |_, _| unreachable!());
    }

    #[test]
    fn map_preserves_order_with_more_tasks_than_workers() {
        let pool = ThreadPool::new(3);
        let items: Vec<u64> = (0..10_000).collect();
        let out = pool.parallel_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out.len(), items.len());
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u64 * 2);
        }
    }

    #[test]
    fn single_threaded_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let main = std::thread::current().id();
        let out = pool.parallel_map(&[1, 2, 3], |_, &x: &i32| {
            assert_eq!(std::thread::current().id(), main);
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = ThreadPool::new(4);
        let items: Vec<u32> = (0..100).collect();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map(&items, |_, &x| {
                if x == 61 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("boom"), "unexpected payload: {msg}");
        // The pool must stay usable after a panicking scope.
        assert_eq!(pool.parallel_map(&[7u32], |_, &x| x), vec![7]);
    }

    #[test]
    fn try_map_reports_lowest_index_error_and_short_circuits() {
        let pool = ThreadPool::new(4);
        let items: Vec<u32> = (0..10_000).collect();
        let executed = AtomicUsize::new(0);
        let result: Result<Vec<u32>, String> = pool.try_parallel_map(&items, |i, &x| {
            executed.fetch_add(1, Ordering::Relaxed);
            if i >= 5 {
                Err(format!("bad {i}"))
            } else {
                Ok(x)
            }
        });
        let err = result.unwrap_err();
        // Deterministic regardless of scheduling: the lowest-index error.
        assert_eq!(err, "bad 5");
        assert!(
            executed.load(Ordering::Relaxed) < items.len(),
            "short-circuit must skip work"
        );
    }

    #[test]
    fn nested_parallel_map_completes() {
        let pool = ThreadPool::new(4);
        let outer: Vec<u64> = (0..16).collect();
        let totals = pool.parallel_map(&outer, |_, &x| {
            let inner: Vec<u64> = (0..64).collect();
            pool.parallel_map(&inner, |_, &y| x * 1000 + y)
                .into_iter()
                .sum::<u64>()
        });
        for (i, &t) in totals.iter().enumerate() {
            let expect: u64 = (0..64).map(|y| i as u64 * 1000 + y).sum();
            assert_eq!(t, expect);
        }
    }

    #[test]
    fn nested_on_global_pool_completes() {
        let pool = ThreadPool::global();
        let out = pool.parallel_map(&[1u32, 2, 3, 4], |_, &x| {
            pool.parallel_map(&[10u32, 20], |_, &y| x + y)
                .into_iter()
                .sum::<u32>()
        });
        assert_eq!(out, vec![32, 34, 36, 38]);
    }

    #[test]
    fn map_mut_visits_every_item_exactly_once() {
        let pool = ThreadPool::new(4);
        let mut items = vec![0u32; 5000];
        let indexes = pool.parallel_map_mut(&mut items, |i, slot| {
            *slot += 1;
            i
        });
        assert!(items.iter().all(|&v| v == 1));
        // Output order is input order.
        for (k, &i) in indexes.iter().enumerate() {
            assert_eq!(k, i);
        }
    }

    #[test]
    fn for_each_chunk_covers_the_slice_with_correct_offsets() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0u64; 1013]; // deliberately not a chunk multiple
        pool.for_each_chunk(&mut data, 64, |start, chunk| {
            assert!(chunk.len() <= 64);
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = (start + k) as u64;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u64);
        }
    }

    #[test]
    fn chunk_decomposition_is_thread_count_independent() {
        // The same chunk size must produce the same partial-sum grouping on
        // any pool, so chunk-local float accumulation is reproducible.
        let data: Vec<f64> = (0..3000).map(|i| (i as f64).sqrt()).collect();
        let sum_with = |pool: &ThreadPool| -> f64 {
            let mut copy = data.clone();
            let partials = Mutex::new(vec![0f64; copy.len().div_ceil(256)]);
            pool.for_each_chunk(&mut copy, 256, |start, chunk| {
                partials.lock().unwrap_or_else(PoisonError::into_inner)[start / 256] =
                    chunk.iter().sum();
            });
            let partials = partials.into_inner().unwrap();
            partials.iter().sum()
        };
        let s1 = sum_with(&ThreadPool::new(1));
        let s2 = sum_with(&ThreadPool::new(2));
        let s8 = sum_with(&ThreadPool::new(8));
        assert_eq!(s1.to_bits(), s2.to_bits());
        assert_eq!(s1.to_bits(), s8.to_bits());
    }

    #[test]
    fn heavy_skew_load_balances() {
        // One item is 100× the work of the rest; with dynamic stealing the
        // other items still complete (this is a liveness/correctness test —
        // timing is covered by the benchmark's `pool.*` layer metrics).
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..64).collect();
        let out = pool.parallel_map(&items, |_, &x| {
            let spins = if x == 0 { 2_000_000 } else { 20_000 };
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn worker_threads_are_named_for_profilers() {
        let pool = ThreadPool::new(4);
        let names: Vec<&str> = pool
            .workers
            .iter()
            .map(|w| w.thread().name().expect("worker must be named"))
            .collect();
        assert_eq!(
            names,
            vec!["pqfs-worker-0", "pqfs-worker-1", "pqfs-worker-2"]
        );
    }

    #[test]
    fn propagated_panics_name_the_executing_thread() {
        // Every thread that can execute a scoped task here is named (pool
        // workers always; the libtest main thread carries the test name), so
        // the payload must gain the `[on …]` suffix.
        let pool = ThreadPool::new(4);
        let items: Vec<u32> = (0..100).collect();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map(&items, |_, &x| {
                if x == 42 {
                    panic!("kaboom at {x}");
                }
                x
            })
        }));
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("kaboom at 42"), "unexpected payload: {msg}");
        assert!(msg.contains(" [on "), "missing thread attribution: {msg}");
    }

    /// `Shared::push` counts a job before a worker can pop it: with the
    /// order reversed, a second submitter's counted job let a worker pass
    /// `grab`'s `pending != 0` check, pop the uncounted one and `fetch_sub`
    /// first, so `pending` wrapped and the `+ 1` in `push` overflowed.
    #[test]
    fn pending_never_counts_a_pop_before_its_push() {
        const MAPS: usize = 40_000;
        let pool = ThreadPool::new(3);
        std::thread::scope(|s| {
            for submitter in 0..2usize {
                let pool = &pool;
                s.spawn(move || {
                    for i in 0..MAPS {
                        // Two items are two jobs; one would run inline.
                        let out = pool.parallel_map(&[i, i + 1], |_, &x| x + submitter);
                        assert_eq!(out, [i + submitter, i + 1 + submitter]);
                    }
                });
            }
        });
        assert_eq!(pool.shared.pending.load(Ordering::SeqCst), 0);
        // Far above any queue a test of this binary builds, far below a
        // wrapped counter.
        assert!(QUEUE_HWM.value() <= (2 * MAPS * 2) as u64);
    }

    #[test]
    fn pool_work_moves_the_task_counters() {
        let before = pqfs_obs::counter_value("pqfs_pool_tasks_total", None);
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..10_000).collect();
        let out = pool.parallel_map(&items, |_, &x| x + 1);
        assert_eq!(out.len(), items.len());
        let after = pqfs_obs::counter_value("pqfs_pool_tasks_total", None);
        assert!(
            after > before,
            "parallel_map must execute counted tasks ({before} -> {after})"
        );
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pool = ThreadPool::new(4);
        let out = pool.parallel_map(&[1u8, 2, 3], |_, &x| x);
        assert_eq!(out, vec![1, 2, 3]);
        drop(pool); // must not hang
    }
}
