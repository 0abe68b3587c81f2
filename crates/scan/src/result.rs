//! Result and statistics types shared by every scan implementation.

use pqfs_core::Neighbor;

/// Statistics of one scan execution.
///
/// The counters are algorithm facts, not timings: they feed the paper's
/// pruning-power plots (Figures 16–19) and the analytic performance-counter
/// model (Figures 3 and 15).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Vectors whose distance (or lower bound) was examined.
    pub scanned: u64,
    /// Vectors discarded by the lower-bound test without an exact
    /// `pqdistance` computation (always 0 for the PQ Scan baselines).
    pub pruned: u64,
    /// Vectors whose exact `pqdistance` was computed after surviving the
    /// lower-bound test (Fast Scan only).
    pub verified: u64,
    /// Vectors scanned by the scalar warm-up pass that seeds `qmax`
    /// (Fast Scan only; these are included in `scanned`).
    pub warmup: u64,
    /// Candidates the result heap took, from the warm-up or verification
    /// (Fast Scan only; `accepted <= warmup + verified`). In verification
    /// each is a heap update and a new threshold. The warm-up offers its
    /// vectors in one batch ([`TopK::batch`](pqfs_core::TopK::batch)), and
    /// counts those the batch appended: a superset of those it keeps, since
    /// its cut tightens only when the buffer is compacted.
    pub accepted: u64,
    /// Pruned vectors whose whole group the nearest-first traversal passed
    /// over, its lower bound already above the threshold, without reading
    /// a code byte (Fast Scan only; `skipped <= pruned`).
    pub skipped: u64,
}

impl ScanStats {
    /// Accumulates another scan's counters into this one (multi-probe
    /// search and the bench harnesses sum stats over many scans).
    pub fn merge(&mut self, other: &ScanStats) {
        self.scanned += other.scanned;
        self.pruned += other.pruned;
        self.verified += other.verified;
        self.warmup += other.warmup;
        self.accepted += other.accepted;
        self.skipped += other.skipped;
    }

    /// Fraction of candidate vectors whose exact distance computation was
    /// pruned — the paper's "Pruned [%]" axis. The warm-up vectors are
    /// excluded from the denominator, matching §5.4's definition of the
    /// pruning power of the fast path.
    pub fn pruned_fraction(&self) -> f64 {
        let fast = self.scanned.saturating_sub(self.warmup);
        if fast == 0 {
            0.0
        } else {
            self.pruned as f64 / fast as f64
        }
    }
}

/// Neighbors plus execution statistics.
#[derive(Debug, Clone)]
pub struct ScanResult {
    /// The `topk` nearest neighbors, ascending by `(distance, id)`. Ids are
    /// positions within the scanned partition.
    pub neighbors: Vec<Neighbor>,
    /// Execution statistics.
    pub stats: ScanStats,
}

impl ScanResult {
    /// Ids of the neighbors in result order (convenience for tests).
    pub fn ids(&self) -> Vec<u64> {
        self.neighbors.iter().map(|n| n.id).collect()
    }

    /// Distances of the neighbors in result order.
    pub fn distances(&self) -> Vec<f32> {
        self.neighbors.iter().map(|n| n.dist).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_counter() {
        let mut a = ScanStats {
            scanned: 10,
            pruned: 4,
            verified: 5,
            warmup: 1,
            accepted: 3,
            skipped: 2,
        };
        a.merge(&ScanStats {
            scanned: 100,
            pruned: 40,
            verified: 50,
            warmup: 10,
            accepted: 30,
            skipped: 20,
        });
        assert_eq!(
            a,
            ScanStats {
                scanned: 110,
                pruned: 44,
                verified: 55,
                warmup: 11,
                accepted: 33,
                skipped: 22,
            }
        );
        a.merge(&ScanStats::default());
        assert_eq!(a.scanned, 110);
    }

    #[test]
    fn pruned_fraction_excludes_warmup() {
        let stats = ScanStats {
            scanned: 1100,
            pruned: 900,
            verified: 100,
            warmup: 100,
            ..ScanStats::default()
        };
        assert!((stats.pruned_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn pruned_fraction_of_empty_scan_is_zero() {
        assert_eq!(ScanStats::default().pruned_fraction(), 0.0);
        let all_warm = ScanStats {
            scanned: 10,
            pruned: 0,
            verified: 0,
            warmup: 10,
            ..ScanStats::default()
        };
        assert_eq!(all_warm.pruned_fraction(), 0.0);
    }

    #[test]
    fn accessors_project_fields() {
        let r = ScanResult {
            neighbors: vec![Neighbor { dist: 1.0, id: 3 }, Neighbor { dist: 2.0, id: 1 }],
            stats: ScanStats::default(),
        };
        assert_eq!(r.ids(), vec![3, 1]);
        assert_eq!(r.distances(), vec![1.0, 2.0]);
    }
}
