//! Bounded top-k maintenance with deterministic tie-breaking.
//!
//! Every scan implementation in the workspace (naive, libpq, AVX, gather,
//! Fast Scan) reports its `topk` nearest neighbors through this type, so
//! "returns exactly the same results" (the paper's §4 guarantee) is a
//! bit-comparable property: the result set is *defined* as the `k` smallest
//! `(distance, id)` pairs in lexicographic order, which is unique even when
//! distances tie.

use std::collections::BinaryHeap;

/// One scored candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Squared ADC distance to the query.
    pub dist: f32,
    /// Caller-assigned vector identifier.
    pub id: u64,
}

#[inline]
fn cmp_neighbors(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id))
}

/// Max-heap item ordered by `(dist, id)` so the heap root is the current
/// *worst* retained neighbor.
#[derive(Debug, Clone, Copy)]
struct HeapItem(Neighbor);

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        cmp_neighbors(&self.0, &other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        cmp_neighbors(&self.0, &other.0)
    }
}

/// A bounded collector of the `k` smallest `(distance, id)` pairs.
#[derive(Debug, Clone)]
pub struct TopK {
    heap: BinaryHeap<HeapItem>,
    k: usize,
}

impl TopK {
    /// Creates a collector for the `k` nearest neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "topk must be positive");
        TopK {
            heap: BinaryHeap::with_capacity(k + 1),
            k,
        }
    }

    /// Capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of neighbors currently retained.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True when `k` neighbors are retained.
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// The *pruning threshold*: the distance of the current `k`-th nearest
    /// neighbor, or `+∞` while fewer than `k` candidates have been seen.
    /// Fast Scan compares (quantized) lower bounds against this value.
    #[inline]
    pub fn threshold(&self) -> f32 {
        if self.is_full() {
            self.heap
                .peek()
                .map(|item| item.0.dist)
                .unwrap_or(f32::INFINITY)
        } else {
            f32::INFINITY
        }
    }

    /// The current worst retained neighbor, if full.
    pub fn worst(&self) -> Option<Neighbor> {
        if self.is_full() {
            self.heap.peek().map(|item| item.0)
        } else {
            None
        }
    }

    /// Whether a candidate with distance `dist` and id `id` would enter the
    /// result set right now.
    #[inline]
    pub fn would_accept(&self, dist: f32, id: u64) -> bool {
        if !self.is_full() {
            return true;
        }
        let worst = self
            .heap
            .peek()
            .unwrap_or_else(|| unreachable!("full heap has a root"))
            .0;
        cmp_neighbors(&Neighbor { dist, id }, &worst) == std::cmp::Ordering::Less
    }

    /// Offers a candidate; returns `true` if it was retained.
    #[inline]
    pub fn push(&mut self, dist: f32, id: u64) -> bool {
        let cand = Neighbor { dist, id };
        if self.heap.len() < self.k {
            self.heap.push(HeapItem(cand));
            return true;
        }
        let worst = self
            .heap
            .peek()
            .unwrap_or_else(|| unreachable!("full heap has a root"))
            .0;
        if cmp_neighbors(&cand, &worst) != std::cmp::Ordering::Less {
            return false;
        }
        // Replace the root in place: one sift-down when the guard drops,
        // where `pop` + `push` would sift twice. (The reject path above
        // stays a bare `peek`: scans call this once per vector.)
        if let Some(mut root) = self.heap.peek_mut() {
            *root = HeapItem(cand);
        }
        true
    }

    /// Consumes the collector and returns neighbors sorted ascending by
    /// `(distance, id)`.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = self.heap.into_iter().map(|item| item.0).collect();
        v.sort_by(cmp_neighbors);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_smallest() {
        let mut topk = TopK::new(3);
        for (i, d) in [5.0f32, 1.0, 4.0, 2.0, 3.0].iter().enumerate() {
            topk.push(*d, i as u64);
        }
        let result = topk.into_sorted();
        let dists: Vec<f32> = result.iter().map(|n| n.dist).collect();
        assert_eq!(dists, vec![1.0, 2.0, 3.0]);
        assert_eq!(result[0].id, 1);
    }

    #[test]
    fn threshold_is_infinite_until_full() {
        let mut topk = TopK::new(2);
        assert_eq!(topk.threshold(), f32::INFINITY);
        topk.push(1.0, 0);
        assert_eq!(topk.threshold(), f32::INFINITY);
        topk.push(2.0, 1);
        assert_eq!(topk.threshold(), 2.0);
        topk.push(1.5, 2);
        assert_eq!(topk.threshold(), 1.5);
    }

    #[test]
    fn ties_break_by_id() {
        let mut topk = TopK::new(2);
        topk.push(1.0, 10);
        topk.push(1.0, 5);
        topk.push(1.0, 7); // ties with worst (1.0, 10): id 7 < 10 -> replaces
        let result = topk.into_sorted();
        assert_eq!(result.iter().map(|n| n.id).collect::<Vec<_>>(), vec![5, 7]);
    }

    #[test]
    fn equal_dist_equal_id_is_rejected_when_full() {
        let mut topk = TopK::new(1);
        assert!(topk.push(1.0, 3));
        assert!(!topk.push(1.0, 3), "identical candidate must not displace");
    }

    #[test]
    fn would_accept_agrees_with_push() {
        let mut topk = TopK::new(2);
        topk.push(1.0, 0);
        topk.push(3.0, 1);
        assert!(topk.would_accept(2.0, 9));
        assert!(!topk.would_accept(3.0, 9), "worse (3.0, 9) > (3.0, 1)");
        assert!(topk.would_accept(3.0, 0), "(3.0, 0) < (3.0, 1)");
        assert!(!topk.would_accept(4.0, 0));
    }

    #[test]
    fn fewer_candidates_than_k() {
        let mut topk = TopK::new(10);
        topk.push(2.0, 1);
        topk.push(1.0, 0);
        let result = topk.into_sorted();
        assert_eq!(result.len(), 2);
        assert_eq!(result[0].id, 0);
    }

    #[test]
    fn matches_sort_oracle_on_many_candidates() {
        // Deterministic pseudo-random distances incl. duplicates.
        let candidates: Vec<(f32, u64)> =
            (0..500u64).map(|i| (((i * 37) % 101) as f32, i)).collect();
        let mut topk = TopK::new(25);
        for &(d, id) in &candidates {
            topk.push(d, id);
        }
        let got: Vec<(f32, u64)> = topk.into_sorted().iter().map(|n| (n.dist, n.id)).collect();

        let mut oracle = candidates.clone();
        oracle.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        oracle.truncate(25);
        assert_eq!(got, oracle);
    }

    #[test]
    fn duplicate_distances_match_a_full_sort() {
        // Few distinct distances, so most pushes tie with the root and the
        // id decides; the in-place root replacement must keep that order.
        let candidates: Vec<(f32, u64)> = (0..3000u64)
            .map(|i| (((i * 7919) % 13) as f32, (i * 2654435761) % 3001))
            .collect();
        let mut oracle = candidates.clone();
        oracle.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for k in [1usize, 7, 1000] {
            let mut topk = TopK::new(k);
            for &(d, id) in &candidates {
                let accepts = topk.would_accept(d, id);
                assert_eq!(topk.push(d, id), accepts, "k={k}");
            }
            let got: Vec<(f32, u64)> = topk.into_sorted().iter().map(|n| (n.dist, n.id)).collect();
            assert_eq!(got, oracle[..k], "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "topk must be positive")]
    fn zero_k_is_rejected() {
        TopK::new(0);
    }
}
