//! Fast top-k over compressed columns with in-register **maximum tables**
//! (paper §6: "To compute upper bounds instead of lower bounds, maximum
//! tables can be used instead of minimum tables").
//!
//! The scan mirrors PQ Fast Scan's structure for a single column: a
//! 16-entry small table holds the quantized *maximum* of each dictionary
//! portion; one `pshufb` per 16 rows yields upper bounds on their values;
//! rows whose bound cannot reach the current k-th best are pruned without
//! touching the 256-entry dictionary.

use super::column::CompressedColumn;
use super::dict::PORTION;

/// Result of a fast top-k scan.
#[derive(Debug, Clone)]
pub struct TopKResult {
    /// `(row, value)` pairs, descending value, ascending-row tie-break.
    pub items: Vec<(u32, f32)>,
    /// Rows pruned by the upper-bound test.
    pub pruned: u64,
    /// Rows whose exact value was computed.
    pub verified: u64,
}

/// Upper-bound quantizer: rounds **up** so bounds stay valid after
/// quantization.
#[derive(Debug, Clone, Copy)]
struct UpQuantizer {
    bias: f32,
    inv_delta: f32,
}

impl UpQuantizer {
    fn new(min: f32, max: f32) -> Self {
        let span = max - min;
        let inv_delta = if span > 0.0 { 254.0 / span } else { 0.0 };
        UpQuantizer {
            bias: min,
            inv_delta,
        }
    }

    /// Quantized upper bound of a value (ceil).
    #[inline]
    fn up(&self, v: f32) -> u8 {
        ((v - self.bias) * self.inv_delta).ceil().clamp(0.0, 255.0) as u8
    }

    /// Quantized threshold (floor): `up(v) < down(t)` implies `v < t`.
    #[inline]
    fn down(&self, t: f32) -> u8 {
        if self.inv_delta == 0.0 {
            return 0; // disables pruning: no bound is < 0
        }
        ((t - self.bias) * self.inv_delta).floor().clamp(0.0, 255.0) as u8
    }
}

/// Bounded "k largest" collector with (value desc, row asc) ordering.
#[derive(Debug)]
struct TopMax {
    // Min-heap over (value, Reverse(row)): the root is the *worst* kept item.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<HeapKey>>,
    k: usize,
}

#[derive(Debug, PartialEq)]
struct HeapKey {
    value: f32,
    row: u32,
}

impl Eq for HeapKey {}
impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Larger value is better; on ties, the smaller row is better.
        self.value
            .total_cmp(&other.value)
            .then_with(|| other.row.cmp(&self.row))
    }
}

impl TopMax {
    fn new(k: usize) -> Self {
        TopMax {
            heap: std::collections::BinaryHeap::with_capacity(k + 1),
            k,
        }
    }

    fn is_full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// Value of the current k-th best (threshold), or `-∞` while filling.
    fn threshold(&self) -> f32 {
        if self.is_full() {
            self.heap
                .peek()
                .map(|e| e.0.value)
                .unwrap_or(f32::NEG_INFINITY)
        } else {
            f32::NEG_INFINITY
        }
    }

    fn push(&mut self, value: f32, row: u32) -> bool {
        let key = HeapKey { value, row };
        if self.heap.len() < self.k {
            self.heap.push(std::cmp::Reverse(key));
            return true;
        }
        if let Some(worst) = self.heap.peek() {
            if key > worst.0 {
                self.heap.pop();
                self.heap.push(std::cmp::Reverse(key));
                return true;
            }
        }
        false
    }

    fn into_sorted(self) -> Vec<(u32, f32)> {
        let mut v: Vec<(u32, f32)> = self
            .heap
            .into_iter()
            .map(|e| (e.0.row, e.0.value))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

/// Fast top-k-largest scan; returns exactly [`CompressedColumn::topk_max_exact`]
/// while pruning most dictionary lookups.
pub fn topk_max_fast(column: &CompressedColumn, k: usize) -> TopKResult {
    let dict = column.dict();
    let codes = column.codes();
    if k == 0 || codes.is_empty() {
        return TopKResult {
            items: Vec::new(),
            pruned: 0,
            verified: 0,
        };
    }
    let values = dict.values();
    let quant = UpQuantizer::new(
        values[0],
        *values
            .last()
            .unwrap_or_else(|| unreachable!("dictionary is never empty")),
    );

    // The §6 maximum table, quantized upward.
    let maxima = dict.portion_maxima();
    let mut qmax = [0u8; PORTION];
    for (slot, &m) in qmax.iter_mut().zip(maxima.iter()) {
        *slot = quant.up(m);
    }

    let mut heap = TopMax::new(k);
    let mut pruned = 0u64;
    let mut verified = 0u64;
    let mut threshold = quant.down(heap.threshold());

    let mut process = |row: usize, heap: &mut TopMax, threshold: &mut u8| {
        verified += 1;
        if heap.push(dict.decode(codes[row]), row as u32) {
            *threshold = if heap.is_full() {
                quant.down(heap.threshold())
            } else {
                0
            };
        }
    };

    let mut idx = 0usize;
    let chunks = codes.chunks_exact(PORTION);
    let remainder_start = codes.len() - chunks.remainder().len();
    for chunk in chunks {
        let mask = block_candidates(chunk, &qmax, threshold);
        let hits = mask.count_ones() as u64;
        pruned += PORTION as u64 - hits;
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            process(idx + lane, &mut heap, &mut threshold);
        }
        idx += PORTION;
    }
    for row in remainder_start..codes.len() {
        let bound = qmax[(codes[row] >> 4) as usize];
        if bound < threshold {
            pruned += 1;
        } else {
            process(row, &mut heap, &mut threshold);
        }
    }

    TopKResult {
        items: heap.into_sorted(),
        pruned,
        verified,
    }
}

/// Candidate mask of 16 codes: bit set when the quantized upper bound is
/// `>= threshold` (dispatches to SSSE3 when available).
#[inline]
fn block_candidates(chunk: &[u8], qmax: &[u8; PORTION], threshold: u8) -> u16 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("ssse3") {
            // SAFETY: feature detected; chunk has 16 bytes by construction.
            return unsafe { block_candidates_ssse3(chunk, qmax, threshold) };
        }
    }
    block_candidates_portable(chunk, qmax, threshold)
}

fn block_candidates_portable(chunk: &[u8], qmax: &[u8; PORTION], threshold: u8) -> u16 {
    let mut mask = 0u16;
    for (lane, &code) in chunk.iter().enumerate() {
        if qmax[(code >> 4) as usize] >= threshold {
            mask |= 1 << lane;
        }
    }
    mask
}

/// # Safety
///
/// The caller must verify SSSE3 support at runtime
/// (`is_x86_feature_detected!("ssse3")`) and pass a `chunk` of at least 16
/// bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
unsafe fn block_candidates_ssse3(chunk: &[u8], qmax: &[u8; PORTION], threshold: u8) -> u16 {
    use std::arch::x86_64::*;
    debug_assert!(chunk.len() >= PORTION, "chunk shorter than one block");
    // SAFETY: `qmax` is a `[u8; 16]` — the unaligned 128-bit load stays in
    // bounds.
    let table = unsafe { _mm_loadu_si128(qmax.as_ptr() as *const __m128i) };
    // SAFETY: `chunk` has at least 16 bytes (caller contract, asserted
    // above) — the unaligned 128-bit load stays in bounds.
    let codes = unsafe { _mm_loadu_si128(chunk.as_ptr() as *const __m128i) };
    let low = _mm_set1_epi8(0x0F);
    let idx = _mm_and_si128(_mm_srli_epi16::<4>(codes), low);
    let bounds = _mm_shuffle_epi8(table, idx);
    // Unsigned bounds >= t as max(bounds, t) == bounds.
    let tvec = _mm_set1_epi8(threshold as i8);
    let cand = _mm_cmpeq_epi8(_mm_max_epu8(bounds, tvec), bounds);
    _mm_movemask_epi8(cand) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::dict::Dictionary;

    fn ramp_column(n: usize) -> CompressedColumn {
        let data: Vec<f32> = (0..n).map(|i| ((i * 131 + 17) % 10_007) as f32).collect();
        CompressedColumn::compress(&data, 256)
    }

    #[test]
    fn fast_topk_equals_exact_topk() {
        let col = ramp_column(5000);
        for k in [1usize, 5, 17, 100] {
            let exact = col.topk_max_exact(k);
            let fast = topk_max_fast(&col, k);
            assert_eq!(fast.items, exact, "k={k}");
        }
    }

    #[test]
    fn fast_topk_prunes_most_rows() {
        let col = ramp_column(20_000);
        let result = topk_max_fast(&col, 10);
        let frac = result.pruned as f64 / col.len() as f64;
        assert!(frac > 0.8, "pruning fraction {frac:.3} too low");
        assert_eq!(result.pruned + result.verified, col.len() as u64);
    }

    #[test]
    fn ragged_tail_is_scanned() {
        // 23 rows: one full block + 7 remainder rows.
        let data: Vec<f32> = (0..23).map(|i| i as f32).collect();
        let col = CompressedColumn::compress(&data, 16);
        let fast = topk_max_fast(&col, 3);
        assert_eq!(fast.items, col.topk_max_exact(3));
    }

    #[test]
    fn constant_column_disables_pruning_but_stays_exact() {
        let dict = Dictionary::new(vec![7.0]);
        let col = CompressedColumn::from_codes(dict, vec![0; 100]);
        let fast = topk_max_fast(&col, 5);
        assert_eq!(fast.items, col.topk_max_exact(5));
        assert_eq!(fast.pruned, 0);
    }

    #[test]
    fn ties_break_toward_smaller_rows() {
        let dict = Dictionary::new(vec![1.0, 9.0]);
        let col = CompressedColumn::from_codes(dict, vec![1, 0, 1, 1, 0]);
        let fast = topk_max_fast(&col, 2);
        assert_eq!(fast.items, vec![(0, 9.0), (2, 9.0)]);
    }

    #[test]
    fn k_zero_and_empty_column() {
        let col = ramp_column(10);
        assert!(topk_max_fast(&col, 0).items.is_empty());
        let empty = CompressedColumn::from_codes(Dictionary::new(vec![1.0]), vec![]);
        assert!(topk_max_fast(&empty, 3).items.is_empty());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_and_portable_masks_agree() {
        if !std::arch::is_x86_feature_detected!("ssse3") {
            return;
        }
        let mut qmax = [0u8; PORTION];
        for (i, q) in qmax.iter_mut().enumerate() {
            *q = (i * 16 + 3) as u8;
        }
        let chunk: Vec<u8> = (0..16).map(|i| (i * 37 % 256) as u8).collect();
        for t in [0u8, 50, 130, 255] {
            let portable = block_candidates_portable(&chunk, &qmax, t);
            // SAFETY: SSSE3 support checked at the top of the test; the
            // chunk holds 16 bytes.
            let simd = unsafe { block_candidates_ssse3(&chunk, &qmax, t) };
            assert_eq!(portable, simd, "t={t}");
        }
    }
}
