//! Bounded top-k maintenance with deterministic tie-breaking.
//!
//! Every scan implementation in the workspace (naive, libpq, Fast Scan and
//! the experiment-only scans of `pqfs_bench`) reports its `topk` nearest
//! neighbors through this type, so "returns exactly the same results" (the
//! paper's §4 guarantee) is a bit-comparable property: the result set is
//! *defined* as the `k` smallest `(distance, id)` pairs in lexicographic
//! order, which is unique even when distances tie.

/// One scored candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Squared ADC distance to the query.
    pub dist: f32,
    /// Caller-assigned vector identifier.
    pub id: u64,
}

/// `(dist, id)` as one integer ordered like `(dist by total_cmp, id)`: the
/// distance's bits, mapped so that unsigned comparison agrees with
/// `f32::total_cmp` (negatives inverted, the rest lifted above them), over id.
#[inline]
fn pack(dist: f32, id: u64) -> u128 {
    let bits = dist.to_bits();
    let ordered = bits ^ ((((bits as i32) >> 31) as u32) | 0x8000_0000);
    (ordered as u128) << 64 | id as u128
}

/// The candidate a key was [`pack`]ed from, bit for bit.
#[inline]
fn unpack(key: u128) -> Neighbor {
    let ordered = (key >> 64) as u32;
    let bits = ordered ^ (((!(ordered as i32) >> 31) as u32) | 0x8000_0000);
    Neighbor {
        dist: f32::from_bits(bits),
        id: key as u64,
    }
}

/// A bounded collector of the `k` smallest `(distance, id)` pairs: a binary
/// max-heap of `pack`ed keys in a plain `Vec`, whose root is the current
/// *worst* retained neighbor and is replaced in place by an accepted one.
///
/// Candidates arrive one at a time through [`push`](Self::push), or many
/// at once through [`batch`](Self::batch), which selects instead of
/// sifting. The `Vec` has room for `2k` keys from construction, what a batch
/// needs, so neither path allocates again.
#[derive(Debug, Clone)]
pub struct TopK {
    heap: Vec<u128>,
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
            heap: Vec::with_capacity(k.saturating_mul(2)),
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
        self.worst().map_or(f32::INFINITY, |worst| worst.dist)
    }

    /// The current worst retained neighbor, if full.
    #[inline]
    pub fn worst(&self) -> Option<Neighbor> {
        if self.is_full() {
            self.heap.first().map(|&key| unpack(key))
        } else {
            None
        }
    }

    /// Whether a candidate with distance `dist` and id `id` would enter the
    /// result set right now.
    #[inline]
    pub fn would_accept(&self, dist: f32, id: u64) -> bool {
        !self.is_full() || pack(dist, id) < self.heap[0]
    }

    /// Offers a candidate; returns `true` if it was retained.
    #[inline]
    pub fn push(&mut self, dist: f32, id: u64) -> bool {
        let key = pack(dist, id);
        if self.heap.len() < self.k {
            self.heap.push(key);
            self.sift_up(self.heap.len() - 1);
            return true;
        }
        // The reject path is one comparison: scans call this per vector.
        if key >= self.heap[0] {
            return false;
        }
        self.replace_root(key);
        true
    }

    /// Offers many candidates at once: `fill` offers each through
    /// [`Batch::offer`], and its return value is returned. Afterwards the
    /// collector holds what pushing the same candidates one at a time would
    /// have left: the `k` smallest keys of the heap and the batch, so the
    /// same [`threshold`](Self::threshold) and the same
    /// [`into_sorted`](Self::into_sorted).
    ///
    /// A candidate is appended unless a one-comparison cut rejects it: the
    /// cut is the `k`-th key of the heap the batch started from, or of the
    /// last compaction. Whenever the buffer holds `2k` keys,
    /// `select_nth_unstable` cuts it back to the `k` smallest and lowers the
    /// cut; one more selection and one heapify close the batch. That is
    /// `O(1)` per candidate on average where a push sifts through `log k`
    /// levels: the Fast Scan warm-up offers ~2 000 candidates at topk 1 000
    /// (docs/FASTSCAN.md §7).
    pub fn batch<R>(&mut self, fill: impl FnOnce(&mut Batch<'_>) -> R) -> R {
        let room = self.k.saturating_mul(2);
        // A no-op unless this heap is a clone, whose buffer is its length.
        self.heap.reserve_exact(room - self.heap.len());
        let ceiling = match self.is_full() {
            true => self.heap[0].saturating_sub(1),
            false => u128::MAX,
        };
        let mut batch = Batch {
            keys: &mut self.heap,
            k: self.k,
            room,
            ceiling,
        };
        let result = fill(&mut batch);
        if self.heap.len() > self.k {
            self.heap.select_nth_unstable(self.k - 1);
            self.heap.truncate(self.k);
        }
        for pos in (0..self.heap.len() / 2).rev() {
            let key = self.heap[pos];
            sink(&mut self.heap, pos, key);
        }
        result
    }

    /// Moves the key at `pos` up to where its parent is no smaller.
    fn sift_up(&mut self, mut pos: usize) {
        let key = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.heap[parent] >= key {
                break;
            }
            self.heap[pos] = self.heap[parent];
            pos = parent;
        }
        self.heap[pos] = key;
    }

    /// Overwrites the root with the smaller `key` and sinks it below every
    /// larger child: one pass, where `pop` + `push` would make two.
    fn replace_root(&mut self, key: u128) {
        sink(&mut self.heap, 0, key);
    }

    /// Consumes the collector and returns neighbors sorted ascending by
    /// `(distance, id)`.
    pub fn into_sorted(mut self) -> Vec<Neighbor> {
        // Equal keys are equal candidates: an unstable sort loses nothing.
        self.heap.sort_unstable();
        self.heap.into_iter().map(unpack).collect()
    }
}

/// Writes `key` at `pos` of `heap` and sinks it below every larger child,
/// which makes the subtree at `pos` a max-heap if its children's subtrees
/// are. While a node has two children the larger is picked without a branch — which one it
/// is, is a coin toss the predictor cannot learn, and at k = 1 000 that
/// misprediction was half the cost of a push — and the lone last child of
/// an even-length heap is handled once, at the bottom.
#[inline]
fn sink(heap: &mut [u128], mut pos: usize, key: u128) {
    let len = heap.len();
    let mut child = 2 * pos + 1;
    while child + 1 < len {
        child += (heap[child + 1] > heap[child]) as usize;
        if heap[child] <= key {
            heap[pos] = key;
            return;
        }
        heap[pos] = heap[child];
        pos = child;
        child = 2 * pos + 1;
    }
    if child + 1 == len && heap[child] > key {
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = key;
}

/// The candidates of one [`TopK::batch`]: an unordered buffer of keys, in
/// the heap's own `Vec`, that never holds more than `2k`.
#[derive(Debug)]
pub struct Batch<'a> {
    keys: &'a mut Vec<u128>,
    k: usize,
    /// `2k`: the length that triggers a compaction.
    room: usize,
    /// The largest key still appended: one below the `k`-th key of the last
    /// compaction, or of the full heap the batch started from; `u128::MAX`
    /// before either. (Were the `k`-th key 0, a key equal to it would still
    /// be appended, which costs room and changes no result.)
    ceiling: u128,
}

impl Batch<'_> {
    /// Offers a candidate; returns `true` if it was appended. An appended
    /// candidate may still be cut before the batch ends; a rejected one
    /// would not have been retained by [`TopK::push`] either.
    #[inline]
    pub fn offer(&mut self, dist: f32, id: u64) -> bool {
        let key = pack(dist, id);
        if key > self.ceiling {
            return false;
        }
        self.keys.push(key);
        if self.keys.len() == self.room {
            self.compact();
        }
        true
    }

    /// Keeps the `k` smallest keys and lowers the cut below the `k`-th.
    #[cold]
    fn compact(&mut self) {
        let (_, &mut kth, _) = self.keys.select_nth_unstable(self.k - 1);
        self.keys.truncate(self.k);
        self.ceiling = kth.saturating_sub(1);
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

    /// Negative, signed-zero, subnormal and infinite distances, ascending.
    const EXTREMES: [f32; 12] = [
        f32::NEG_INFINITY,
        f32::MIN,
        -1.5,
        -f32::MIN_POSITIVE,
        -f32::from_bits(1),
        -0.0,
        0.0,
        f32::from_bits(1),
        f32::MIN_POSITIVE,
        1.5,
        f32::MAX,
        f32::INFINITY,
    ];

    #[test]
    fn extreme_distances_order_like_total_cmp() {
        // The packed key must order them as `total_cmp` does and give back
        // the same bits.
        let dists = EXTREMES;
        for (i, &a) in dists.iter().enumerate() {
            assert_eq!(unpack(pack(a, u64::MAX)).dist.to_bits(), a.to_bits());
            assert_eq!(unpack(pack(a, u64::MAX)).id, u64::MAX);
            for &b in &dists[i + 1..] {
                assert!(pack(a, u64::MAX) < pack(b, 0), "{a} < {b}");
            }
        }
        // Every distance twice, pushed far-to-near: each k keeps a prefix of
        // the (dist, id) order, `-0.0` strictly before `0.0`.
        let candidates: Vec<(f32, u64)> =
            dists.iter().rev().flat_map(|&d| [(d, 9), (d, 2)]).collect();
        let mut oracle = candidates.clone();
        oracle.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let bits = |v: &[(f32, u64)]| -> Vec<(u32, u64)> {
            v.iter().map(|&(d, id)| (d.to_bits(), id)).collect()
        };
        for k in [1usize, 5, 11, 24, 30] {
            let mut topk = TopK::new(k);
            for &(d, id) in &candidates {
                let accepts = topk.would_accept(d, id);
                assert_eq!(topk.push(d, id), accepts, "k={k}");
            }
            if k <= candidates.len() {
                assert_eq!(topk.threshold().to_bits(), oracle[k - 1].0.to_bits());
            }
            let got: Vec<(f32, u64)> = topk.into_sorted().iter().map(|n| (n.dist, n.id)).collect();
            assert_eq!(bits(&got), bits(&oracle[..k.min(oracle.len())]), "k={k}");
        }
    }

    #[test]
    fn replace_root_matches_the_sort_oracle_at_every_heap_length() {
        // A full heap of every length 1..=33 — odd lengths end on a pair of
        // children, even ones on the lone last child — over few distinct
        // keys, offered a replacement for its root from below every key to
        // above every key, ties included.
        let key = |i: u64| ((i * 7) % 5) as f32;
        for len in 1..=33u64 {
            let held: Vec<(f32, u64)> = (0..len).map(|i| (key(i), i % 4)).collect();
            for (d, id) in (0..12u64).flat_map(|i| [(i as f32 / 2.0 - 0.5, 1), (key(i), i % 6)]) {
                let mut topk = TopK::new(len as usize);
                for &(d, id) in &held {
                    topk.push(d, id);
                }
                topk.push(d, id);
                let heap = &topk.heap;
                let ordered = (1..heap.len()).all(|c| heap[(c - 1) / 2] >= heap[c]);
                assert!(ordered, "len={len} ({d}, {id})");
                let mut oracle = held.clone();
                oracle.push((d, id));
                oracle.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                oracle.truncate(len as usize);
                let got: Vec<(f32, u64)> =
                    topk.into_sorted().iter().map(|n| (n.dist, n.id)).collect();
                assert_eq!(got, oracle, "len={len} ({d}, {id})");
            }
        }
    }

    /// Every key of `topk` is no smaller than its children.
    fn is_max_heap(topk: &TopK) -> bool {
        let heap = &topk.heap;
        (1..heap.len()).all(|c| heap[(c - 1) / 2] >= heap[c])
    }

    #[test]
    fn a_batch_leaves_what_pushing_one_at_a_time_leaves() {
        // Tie-heavy: 13 and 2 distinct distances over 3 000 distinct ids.
        let ties = |levels: u64| -> Vec<(f32, u64)> {
            let ids = (0..3000u64).map(|i| (i, (i * 2654435761) % 3001));
            ids.map(|(i, id)| (((i * 7919) % levels) as f32, id))
                .collect()
        };
        // The extreme distances, each twice.
        let extremes: Vec<(f32, u64)> = EXTREMES
            .iter()
            .rev()
            .flat_map(|&d| [(d, 9), (d, 2)])
            .collect();
        let bits = |topk: TopK| -> Vec<(u32, u64)> {
            let sorted = topk.into_sorted().into_iter();
            sorted.map(|n| (n.dist.to_bits(), n.id)).collect()
        };
        // One distance, the even ids up, then the odd ids down: the first odd
        // id below a cut is one below its key, the closest a candidate can
        // be and still enter.
        let (evens, odds) = (
            (0..1500u64).map(|i| 2 * i),
            (0..1500u64).rev().map(|i| 2 * i + 1),
        );
        let gaps: Vec<(f32, u64)> = evens.chain(odds).map(|id| (1.0, id)).collect();
        let sets = [
            ("13 levels", ties(13)),
            ("2 levels", ties(2)),
            ("gaps", gaps),
            ("extremes", extremes),
        ];
        for (name, candidates) in &sets {
            for k in [1usize, 7, 1000] {
                // Pushed before the batch: nothing, half of `k`, more than `k`.
                for before in [0, k / 2, k + 3] {
                    let case = format!("{name} k={k} before={before}");
                    let (first, rest) = candidates.split_at(before.min(candidates.len()));
                    let (mut pushed, mut batched) = (TopK::new(k), TopK::new(k));
                    for &(d, id) in first {
                        pushed.push(d, id);
                        batched.push(d, id);
                    }
                    let appended = batched.batch(|batch| {
                        let mut appended = 0;
                        for &(d, id) in rest {
                            let offered = batch.offer(d, id);
                            // The cut never drops what a push would keep.
                            assert!(offered || !pushed.push(d, id), "{case} ({d}, {id})");
                            if offered {
                                pushed.push(d, id);
                            }
                            appended += offered as usize;
                            assert!(batch.keys.len() < 2 * k, "{case}");
                            assert!(batch.keys.capacity() <= 2 * k, "{case}");
                        }
                        appended
                    });
                    assert!(appended <= rest.len(), "{case}");
                    assert!(is_max_heap(&batched), "{case}");
                    assert_eq!(batched.len(), pushed.len(), "{case}");
                    assert!(batched.heap.capacity() <= 2 * k, "{case}");
                    let threshold = batched.threshold().to_bits();
                    assert_eq!(threshold, pushed.threshold().to_bits(), "{case}");
                    // The batch leaves a heap that later pushes keep exact.
                    for &(d, id) in candidates.iter().rev().step_by(3) {
                        assert_eq!(batched.push(d, id), pushed.push(d, id), "{case}");
                    }
                    assert_eq!(bits(batched), bits(pushed), "{case}");
                }
            }
        }
    }

    #[test]
    fn a_batch_on_a_clone_grows_its_buffer_once_to_2k() {
        let mut topk = TopK::new(5);
        for i in 0..5u64 {
            topk.push(i as f32, i);
        }
        let mut clone = topk.clone();
        clone.batch(|batch| {
            for i in 0..100u64 {
                batch.offer(100.0 - i as f32, i + 10);
            }
        });
        assert_eq!(clone.heap.capacity(), 10);
        for i in 0..100u64 {
            topk.push(100.0 - i as f32, i + 10);
        }
        assert_eq!(clone.into_sorted(), topk.into_sorted());
    }

    #[test]
    #[should_panic(expected = "topk must be positive")]
    fn zero_k_is_rejected() {
        TopK::new(0);
    }
}
