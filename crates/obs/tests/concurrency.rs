//! Concurrency hammer: exactness of sharded counters and histograms under
//! parallel recording.
//!
//! Thread counts cover {1, 2, 8} (plus `PQFS_THREADS` when set, matching
//! how CI parameterizes the rest of the suite), with more threads than
//! counter shards in the 24-thread case to force shard sharing.

use pqfs_obs::registry::Registry;
use std::thread;

fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 8, 24];
    if let Ok(v) = std::env::var("PQFS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 && !counts.contains(&n) {
                counts.push(n);
            }
        }
    }
    counts
}

#[test]
fn counter_sums_are_exact_under_contention() {
    const INCS_PER_THREAD: u64 = 50_000;
    for threads in thread_counts() {
        let reg = Registry::new();
        let c = reg.counter("hammer_total", "hammered counter");
        let labeled = reg.counter_labeled("hammer_by_kind", "labeled", "kind", "x");
        thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(move || {
                    for i in 0..INCS_PER_THREAD {
                        c.inc();
                        if i % 2 == 0 {
                            labeled.add(2);
                        }
                    }
                });
            }
        });
        assert_eq!(
            c.value(),
            threads as u64 * INCS_PER_THREAD,
            "lost counter increments with {threads} threads"
        );
        assert_eq!(
            labeled.value(),
            threads as u64 * INCS_PER_THREAD, // 2 per even i = INCS_PER_THREAD total
            "lost labeled increments with {threads} threads"
        );
    }
}

#[test]
fn histogram_totals_match_observations() {
    const OBS_PER_THREAD: u64 = 20_000;
    for threads in thread_counts() {
        let reg = Registry::new();
        let h = reg.histogram("hammer_lat_ns", "hammered histogram");
        thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(move || {
                    for i in 0..OBS_PER_THREAD {
                        // Deterministic spread across buckets, max = 2^20.
                        h.observe_ns(1 << (i % 21));
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(
            snap.count,
            threads as u64 * OBS_PER_THREAD,
            "lost histogram observations with {threads} threads"
        );
        // Every thread observes the same multiset of values, so the exact
        // sum is threads × one thread's sum.
        let one: u64 = (0..OBS_PER_THREAD).map(|i| 1u64 << (i % 21)).sum();
        assert_eq!(snap.sum, threads as u64 * one);
        assert_eq!(snap.max, 1 << 20);
        // Bucket counts must also sum to the observation count.
        let text = pqfs_obs::prometheus_text(&reg);
        assert!(text.contains(&format!(
            "hammer_lat_ns_bucket{{le=\"+Inf\"}} {}",
            snap.count
        )));
    }
}

#[test]
fn gauges_record_max_monotonically_under_contention() {
    for threads in thread_counts() {
        let reg = Registry::new();
        let g = reg.gauge("hammer_hwm", "high-water mark");
        thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        g.record_max(t as u64 * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(g.value(), (threads as u64 - 1) * 10_000 + 9_999);
    }
}
