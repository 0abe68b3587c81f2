//! Log-bucketed latency histograms.
//!
//! Buckets are fixed powers of two over the nanosecond→seconds range:
//! bucket `i` (for `i < 36`) counts observations `v` with
//! `v <= 2^i` ns that fell in no earlier bucket, i.e. upper bounds of
//! 1 ns, 2 ns, 4 ns, … up to `2^35` ns (≈ 34 s); the final bucket is the
//! `+Inf` overflow. The fixed geometry means recording is a handful of
//! relaxed atomic operations — no locks, no allocation, no resizing — and
//! two snapshots can be subtracted bucket-wise.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets, including the final `+Inf` overflow bucket.
pub const BUCKET_COUNT: usize = 37;

/// The inclusive upper bound (ns) of bucket `i`, or `None` for `+Inf`.
pub fn bucket_le(i: usize) -> Option<u64> {
    if i + 1 < BUCKET_COUNT {
        Some(1u64 << i)
    } else {
        None
    }
}

/// The bucket index an observation of `ns` nanoseconds lands in.
pub fn bucket_index(ns: u64) -> usize {
    if ns <= 1 {
        0
    } else {
        (64 - (ns - 1).leading_zeros() as usize).min(BUCKET_COUNT - 1)
    }
}

/// A point-in-time summary of one histogram.
///
/// The percentiles are upper-bound estimates: the value reported for a
/// quantile is the upper bound of the power-of-2 bucket containing it (the
/// recorded maximum for the overflow bucket), so they are exact to within
/// one bucket width (a factor of 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values (ns).
    pub sum: u64,
    /// Largest observed value (ns).
    pub max: u64,
    /// Median estimate (ns).
    pub p50: u64,
    /// 90th-percentile estimate (ns).
    pub p90: u64,
    /// 99th-percentile estimate (ns).
    pub p99: u64,
}

/// A lock-free histogram of nanosecond observations.
#[derive(Debug)]
pub struct Histogram {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
    buckets: [AtomicU64; BUCKET_COUNT],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    pub(crate) fn new(name: &'static str, help: &'static str) -> Self {
        Histogram {
            name,
            help,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation of `ns` nanoseconds (three relaxed atomic
    /// RMW operations).
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Per-bucket (non-cumulative) counts, in bucket order.
    pub fn bucket_counts(&self) -> [u64; BUCKET_COUNT] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Summarizes the current contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts = self.bucket_counts();
        let count: u64 = counts.iter().sum();
        let max = self.max.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((q * count as f64).ceil() as u64).max(1);
            let mut cum = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                cum += c;
                if cum >= target {
                    return bucket_le(i).unwrap_or(max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_follows_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn bucket_bounds_cover_ns_to_seconds() {
        assert_eq!(bucket_le(0), Some(1));
        assert_eq!(bucket_le(30), Some(1 << 30)); // ≈ 1.07 s
        assert_eq!(bucket_le(35), Some(1 << 35)); // ≈ 34 s
        assert_eq!(bucket_le(BUCKET_COUNT - 1), None); // +Inf
    }

    #[test]
    fn snapshot_reports_count_sum_max_and_quantiles() {
        let h = Histogram::new("t", "");
        for ns in [10u64, 20, 30, 1000, 100_000] {
            h.observe_ns(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 101_060);
        assert_eq!(s.max, 100_000);
        // p50 = 3rd of 5 → 30 lands in bucket le=32.
        assert_eq!(s.p50, 32);
        // p90 = 5th of 5 → 100_000 lands in bucket le=131072.
        assert_eq!(s.p90, 131_072);
        assert_eq!(s.p99, 131_072);
    }

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let h = Histogram::new("t", "");
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn overflow_bucket_quantile_falls_back_to_max() {
        let h = Histogram::new("t", "");
        h.observe_ns(u64::MAX / 2);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50, u64::MAX / 2);
    }
}
