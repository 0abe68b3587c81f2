//! Busy-time accounting of nested tasks. Its own test binary: the busy
//! counter is process-wide, and no other test may add to it meanwhile.

use pqfs_pool::ThreadPool;
use std::time::{Duration, Instant};

fn counter(name: &str) -> u64 {
    pqfs_obs::counter_value(name, None)
}

/// A task that runs a scope runs that scope's tasks inside its own time, on
/// a 1-thread pool inline and on a larger one whenever its thread helps
/// while it waits; busy time counts them once, every task still counts.
#[test]
fn nested_maps_count_busy_time_once() {
    for threads in [1, 2] {
        let pool = ThreadPool::new(threads);
        let (tasks, busy) = (
            counter("pqfs_pool_tasks_total"),
            counter("pqfs_pool_busy_ns_total"),
        );
        let start = Instant::now();
        let outer: Vec<u64> = (0..4).collect();
        let sums = pool.parallel_map(&outer, |_, &x| {
            let inner: Vec<u64> = (0..4).collect();
            let parts = pool.parallel_map(&inner, |_, &y| {
                let spin = Instant::now();
                while spin.elapsed() < Duration::from_millis(2) {
                    std::hint::spin_loop();
                }
                x * 10 + y
            });
            parts.into_iter().sum::<u64>()
        });
        let wall = start.elapsed().as_nanos() as u64;
        assert_eq!(sums, [6, 46, 86, 126]);
        // 4 outer tasks and 4 x 4 inner ones (one item a task at any size).
        assert_eq!(
            counter("pqfs_pool_tasks_total") - tasks,
            20,
            "{threads} threads"
        );
        let busy = counter("pqfs_pool_busy_ns_total") - busy;
        assert!(
            busy <= wall * threads as u64,
            "{threads} threads: busy {busy} ns over a {wall} ns wall"
        );
        // The 16 spins are busy time, at least.
        assert!(busy >= 16 * 2_000_000, "{threads} threads: busy {busy} ns");
    }
}
