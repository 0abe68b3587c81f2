//! The executor: worker threads, one shared FIFO queue, scoped task groups.

use pqfs_obs::{Counter, Gauge};
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static TASKS: Counter = Counter::new("pqfs_pool_tasks_total");
static BUSY_NS: Counter = Counter::new("pqfs_pool_busy_ns_total");
static QUEUE_HWM: Gauge = Gauge::new("pqfs_pool_queue_depth_hwm");

thread_local! {
    /// How many counted tasks this thread is inside: a task that runs a
    /// scope runs the scope's tasks (inline, or any queued one while it
    /// waits) inside its own.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Leaves one level of [`DEPTH`], also when the task unwinds.
struct Nested;

impl Drop for Nested {
    fn drop(&mut self) {
        DEPTH.with(|depth| depth.set(depth.get() - 1));
    }
}

/// Runs one task, counting it and its busy time (the serial inline path
/// counts too, so the task counters are pool-size-independent). Only the
/// outermost task on a thread adds busy time: a nested task's time is
/// already inside it, so busy time never exceeds wall time × threads.
fn run_counted(thunk: impl FnOnce()) {
    TASKS.inc();
    let outermost = DEPTH.with(|depth| depth.replace(depth.get() + 1)) == 0;
    let _nested = Nested;
    let start = Instant::now();
    thunk();
    if outermost {
        BUSY_NS.add(start.elapsed().as_nanos() as u64);
    }
}

/// A type-erased unit of work. Scoped borrows are transmuted to `'static`
/// before a job enters the queue; soundness is argued at the transmute site.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Target number of tasks generated per participating thread. More tasks
/// than threads is what lets the threads that finish early take the rest
/// of a skewed workload; 8 keeps per-task overhead negligible while
/// bounding the skew any single task can contribute to the critical path.
const TASKS_PER_THREAD: usize = 8;

/// How long a participant that has just run a job polls for more work
/// before it blocks on `wake` (the OpenMP runtime's "blocktime"). A
/// multi-probe query queues its fan-out about one nearest-probe scan after
/// its previous one finished; a worker still polling takes it at once,
/// where one asleep on the condvar starts 10–25 µs late.
const POLL: Duration = Duration::from_micros(50);

/// The one queue every participant pops from the front, and the shutdown
/// signal for the workers.
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// State shared between the pool handle and its workers. `wake` is
/// notified when jobs are queued, when a scope's last job finishes and at
/// shutdown; every waiter rechecks its condition under `queue`'s lock.
struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, queue: MutexGuard<'a, Queue>) -> MutexGuard<'a, Queue> {
        self.wake
            .wait(queue)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Polls for up to [`POLL`] until the queue holds a job, the pool shuts
    /// down or `done` holds, yielding the core between rounds so that
    /// runnable threads of a pool larger than the host go first. Only a
    /// hint: the caller decides again under the lock, so a wake-up the poll
    /// misses is one its `wait` still gets.
    fn poll(&self, done: impl Fn() -> bool) {
        let start = Instant::now();
        while !done() {
            let ready = match self.queue.try_lock() {
                Ok(queue) => !queue.jobs.is_empty() || queue.shutdown,
                Err(TryLockError::WouldBlock) => false,
                // Poisoned: let the caller's `lock` deal with it.
                Err(TryLockError::Poisoned(_)) => true,
            };
            if ready || start.elapsed() >= POLL {
                return;
            }
            std::thread::yield_now();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut queue = shared.lock();
    loop {
        if let Some(job) = queue.jobs.pop_front() {
            drop(queue);
            run_counted(job);
            shared.poll(|| false);
            queue = shared.lock();
        } else if queue.shutdown {
            return;
        } else {
            queue = shared.wait(queue);
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
}

/// A persistent thread pool over one shared queue (see the crate docs for
/// the design). Cheap to share by reference; [`ThreadPool::global`]
/// provides the process-wide instance.
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
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        #[allow(
            clippy::expect_used,
            reason = "a pool that cannot spawn its workers cannot uphold its \
                      parallelism contract; the `# Panics` section documents it"
        )]
        let workers = (0..threads - 1)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pqfs-worker-{me}"))
                    .spawn(move || worker_loop(shared))
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

    /// Runs a group of scoped tasks to completion, on workers and the
    /// calling thread. Returns only after every task has finished; re-raises
    /// the first observed panic.
    fn scope<'scope, G>(&'scope self, thunks: Vec<G>)
    where
        G: FnOnce() + Send + 'scope,
    {
        if self.workers.is_empty() || thunks.len() <= 1 {
            // Serial baseline: run inline, panics propagate natively.
            thunks.into_iter().for_each(run_counted);
            return;
        }
        let state = Arc::new(ScopeState {
            remaining: AtomicUsize::new(thunks.len()),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        let shared: &'scope Shared = &self.shared;
        let jobs: Vec<Job> = thunks
            .into_iter()
            .map(|thunk| {
                let state = Arc::clone(&state);
                let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                    if !state.poisoned.load(Ordering::Relaxed) {
                        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(thunk)) {
                            state.poisoned.store(true, Ordering::Relaxed);
                            let mut slot =
                                state.panic.lock().unwrap_or_else(PoisonError::into_inner);
                            if slot.is_none() {
                                *slot = Some(annotate_panic(payload));
                            }
                        }
                    }
                    if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        // Taking the lock orders this notify after the
                        // submitter's check: it read zero, or it is waiting.
                        drop(shared.lock());
                        shared.wake.notify_all();
                    }
                });
                // SAFETY: the job borrows data living on this call's stack and
                // the pool (the `'scope` captures). The loop below returns only
                // once `remaining == 0`, i.e. once every job has *finished
                // executing* — jobs leave the queue only by running — so no
                // stack borrow outlives its referent; the last job touches only
                // `shared` after its decrement, and the pool outlives any thread
                // running it (workers are joined on drop, helping submitters
                // borrow the pool). The transmute only erases the lifetime;
                // layout of `Box<dyn FnOnce() + Send>` is lifetime-invariant.
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) }
            })
            .collect();
        let mut queue = shared.lock();
        queue.jobs.extend(jobs);
        QUEUE_HWM.record_max(queue.jobs.len() as u64);
        shared.wake.notify_all();
        // Help with queued work (this scope's or any other's — running
        // someone else's task still makes global progress and is what makes
        // nested scopes deadlock-free) until this scope completes. The
        // `Acquire` pairs with each job's `AcqRel` decrement, so a zero read
        // here sees every job's writes (its output, the panic slot). After
        // each job it polls for the scope's end or more work before it
        // decides again, here under the lock.
        while state.remaining.load(Ordering::Acquire) != 0 {
            if let Some(job) = queue.jobs.pop_front() {
                drop(queue);
                run_counted(job);
                shared.poll(|| state.remaining.load(Ordering::Acquire) == 0);
                queue = shared.lock();
            } else {
                queue = shared.wait(queue);
            }
        }
        drop(queue);
        let payload = state
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }

    /// Task length for `n` items: `TASKS_PER_THREAD` tasks per participant,
    /// independent of which thread runs what.
    fn task_len(&self, n: usize) -> usize {
        n.div_ceil(self.threads * TASKS_PER_THREAD).max(1)
    }

    /// Runs `f(start, piece)` for each piece as one scope, where `start` is
    /// the index of the piece's first item (pieces are `task` items long),
    /// and concatenates the outputs in piece order.
    fn map_pieces<P, U, F>(&self, pieces: Vec<P>, task: usize, f: F) -> Vec<U>
    where
        P: Send,
        U: Send,
        F: Fn(usize, P) -> Vec<U> + Sync,
    {
        let mut outs: Vec<Vec<U>> = pieces.iter().map(|_| Vec::new()).collect();
        let f = &f;
        self.scope(
            pieces
                .into_iter()
                .zip(&mut outs)
                .enumerate()
                .map(|(c, (piece, out))| move || *out = f(c * task, piece))
                .collect(),
        );
        let mut result = Vec::with_capacity(outs.iter().map(Vec::len).sum());
        for out in outs {
            result.extend(out);
        }
        result
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
        let task = self.task_len(items.len());
        self.map_pieces(items.chunks(task).collect(), task, |start, piece| {
            let items = piece.iter().enumerate();
            items.map(|(k, item)| f(start + k, item)).collect()
        })
    }

    /// Maps `f` over mutable items in parallel, preserving input order. `f`
    /// receives `(index, &mut item)`; each item is visited exactly once.
    pub fn parallel_map_mut<T, U, F>(&self, items: &mut [T], f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, &mut T) -> U + Sync,
    {
        let task = self.task_len(items.len());
        self.map_pieces(items.chunks_mut(task).collect(), task, |start, piece| {
            let items = piece.iter_mut().enumerate();
            items.map(|(k, item)| f(start + k, item)).collect()
        })
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

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.wake.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn empty_input_yields_empty_output() {
        let pool = ThreadPool::new(4);
        let out: Vec<u32> = pool.parallel_map(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
        let out: Vec<u32> = pool.parallel_map_mut(&mut [] as &mut [u32], |_, _| unreachable!());
        assert!(out.is_empty());
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
    fn heavy_skew_load_balances() {
        // One item is 100× the work of the rest; the other threads take
        // the remaining tasks off the queue meanwhile, and every item still
        // completes (this is a liveness/correctness test — timing is
        // covered by the benchmark's `pool.*` layer metrics).
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

    /// Two submitters race two-job scopes (`maps[s]` of them for submitter
    /// `s`) against each other and the workers, at 2, 3 and 8 threads: each
    /// scope's last job must wake its submitter, and each push a sleeping
    /// worker. A lost wake-up hangs a map, so the maps run under a watchdog
    /// that fails with a message instead of hanging the suite. `spin(i, j)`
    /// is how long job `j` (0 or 1) of map `i` runs; the submitter takes
    /// job 0 itself.
    fn race_two_submitters(maps: [usize; 2], spin: fn(usize, usize) -> Duration) {
        for threads in [2, 3, 8] {
            let (done, finished) = mpsc::channel();
            let stress = std::thread::spawn(move || {
                let pool = ThreadPool::new(threads);
                std::thread::scope(|s| {
                    for (submitter, &count) in maps.iter().enumerate() {
                        let pool = &pool;
                        s.spawn(move || {
                            for i in 0..count {
                                // Two items are two jobs; one would run inline.
                                let out = pool.parallel_map(&[i, i + 1], |j, &x| {
                                    let start = Instant::now();
                                    while start.elapsed() < spin(i, j) {
                                        std::hint::spin_loop();
                                    }
                                    x + submitter
                                });
                                assert_eq!(out, [i + submitter, i + 1 + submitter]);
                            }
                        });
                    }
                });
                let _ = done.send(());
            });
            let outcome = finished.recv_timeout(Duration::from_secs(120));
            assert!(
                !matches!(outcome, Err(mpsc::RecvTimeoutError::Timeout)),
                "{threads}-thread pool: {maps:?} maps still running after 120 s (lost wake-up)"
            );
            stress.join().expect("every map returns its own results");
        }
    }

    #[test]
    fn concurrent_submitters_never_lose_a_wake_up() {
        const MAPS: usize = 40_000;
        race_two_submitters([MAPS; 2], |_, _| Duration::ZERO);
        // Far above any queue a test of this binary builds, far below the
        // 3 x 160 000 jobs these maps queue in all.
        assert!(QUEUE_HWM.value() <= (2 * MAPS * 2) as u64);
    }

    /// Trivial jobs finish inside the idle poll, so their submitters seldom
    /// reach `wait`. Here the submitter's own job runs 5 µs, long enough for
    /// a polling worker to take the other one, which outlasts the
    /// submitter's poll by -5 to 10 µs: it ends on both sides of the
    /// submitter's last look before it sleeps. The second submitter stops
    /// a quarter of the way: after that no other push can wake the first one
    /// by chance, so each wake-up it loses hangs it.
    #[test]
    fn submitters_waiting_out_a_long_job_never_lose_a_wake_up() {
        race_two_submitters([8_000, 2_000], |i, j| match j {
            0 => Duration::from_micros(5),
            _ => POLL + Duration::from_micros((i % 16) as u64),
        });
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
