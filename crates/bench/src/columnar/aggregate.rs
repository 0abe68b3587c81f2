//! Approximate aggregation with in-register **tables of aggregates**
//! (paper §6: "For approximate aggregate queries (e.g., approximate mean),
//! tables of aggregates (e.g., tables of means) can be used instead of
//! minimum tables").
//!
//! Instead of decoding every row through the 256-entry dictionary, the scan
//! looks up a 16-entry table of *portion means* addressed by the code's
//! high nibble. On SSSE3 hosts the per-row table values are produced with
//! `pshufb` and accumulated with `psadbw` (sum of absolute differences
//! against zero — the classic horizontal-add-of-bytes idiom), i.e. the
//! whole aggregation runs on 8-bit integers as §6 suggests.

use super::column::CompressedColumn;
use super::dict::PORTION;

/// An approximate aggregate with an a-priori error bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxAggregate {
    /// The approximate value.
    pub value: f32,
    /// Guaranteed bound on `|approx − exact|`.
    pub error_bound: f32,
}

/// Approximate mean via the 16-entry portion-mean table.
///
/// Error bound: every row's value differs from its portion mean by at most
/// [`super::dict::Dictionary::max_portion_spread`]; 8-bit quantization of
/// the mean table adds at most half a quantization step.
pub fn approximate_mean(column: &CompressedColumn) -> ApproxAggregate {
    if column.is_empty() {
        return ApproxAggregate {
            value: 0.0,
            error_bound: 0.0,
        };
    }
    let dict = column.dict();
    let means = dict.portion_means();

    // Quantize the mean table to u8 (round to nearest).
    let lo = means.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = means.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let span = hi - lo;
    let (delta, qmeans) = if span > 0.0 {
        let delta = span / 255.0;
        let mut q = [0u8; PORTION];
        for (slot, &m) in q.iter_mut().zip(means.iter()) {
            *slot = ((m - lo) / delta).round().clamp(0.0, 255.0) as u8;
        }
        (delta, q)
    } else {
        (0.0, [0u8; PORTION])
    };

    let sum_q = sum_quantized(column.codes(), &qmeans);
    let n = column.len() as f64;
    let value = (lo as f64 + delta as f64 * (sum_q as f64 / n)) as f32;
    let error_bound = dict.max_portion_spread() + delta / 2.0 + 1e-4 * value.abs();
    ApproxAggregate { value, error_bound }
}

/// Sums `qmeans[code >> 4]` over all codes (dispatches to SSSE3).
fn sum_quantized(codes: &[u8], qmeans: &[u8; PORTION]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.1") {
            // SAFETY: SSE4.1 (which implies the SSSE3 shuffle) detected.
            return unsafe { sum_quantized_ssse3(codes, qmeans) };
        }
    }
    sum_quantized_portable(codes, qmeans)
}

fn sum_quantized_portable(codes: &[u8], qmeans: &[u8; PORTION]) -> u64 {
    codes
        .iter()
        .map(|&c| qmeans[(c >> 4) as usize] as u64)
        .sum()
}

/// # Safety
///
/// The caller must verify SSE4.1 support at runtime
/// (`is_x86_feature_detected!("sse4.1")` — SSE4.1 implies SSSE3) before
/// calling: the kernel uses `pshufb` (SSSE3) and `pextrq` (SSE4.1).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3,sse4.1")]
unsafe fn sum_quantized_ssse3(codes: &[u8], qmeans: &[u8; PORTION]) -> u64 {
    use std::arch::x86_64::*;
    // SAFETY: `qmeans` is a `[u8; 16]` — exactly one unaligned 128-bit load.
    let table = unsafe { _mm_loadu_si128(qmeans.as_ptr() as *const __m128i) };
    let low = _mm_set1_epi8(0x0F);
    let zero = _mm_setzero_si128();
    let mut total = 0u64;
    let chunks = codes.chunks_exact(PORTION);
    let remainder = chunks.remainder();
    for chunk in chunks {
        // SAFETY: `chunks_exact(16)` yields 16-byte slices, matching the
        // unaligned 128-bit load.
        let block = unsafe { _mm_loadu_si128(chunk.as_ptr() as *const __m128i) };
        let idx = _mm_and_si128(_mm_srli_epi16::<4>(block), low);
        let vals = _mm_shuffle_epi8(table, idx);
        // psadbw against zero: lane sums of 8 bytes land in the two 64-bit
        // halves.
        let sad = _mm_sad_epu8(vals, zero);
        total += _mm_cvtsi128_si64(sad) as u64;
        total += _mm_extract_epi64::<1>(sad) as u64;
    }
    total + sum_quantized_portable(remainder, qmeans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::dict::Dictionary;

    fn ramp_column(n: usize) -> CompressedColumn {
        let data: Vec<f32> = (0..n).map(|i| ((i * 97 + 5) % 1009) as f32).collect();
        CompressedColumn::compress(&data, 256)
    }

    #[test]
    fn approximate_mean_is_within_its_bound() {
        for n in [16usize, 100, 1000, 4099] {
            let col = ramp_column(n);
            let approx = approximate_mean(&col);
            let exact = col.exact_mean();
            assert!(
                (approx.value - exact).abs() <= approx.error_bound,
                "n={n}: |{} - {exact}| > {}",
                approx.value,
                approx.error_bound
            );
        }
    }

    #[test]
    fn bound_is_tight_for_sorted_dictionaries() {
        let col = ramp_column(10_000);
        let approx = approximate_mean(&col);
        // Sorted (quantile) dictionary keeps portions tight, so the bound
        // stays well below the data range.
        assert!(approx.error_bound < 150.0, "bound {}", approx.error_bound);
    }

    #[test]
    fn constant_column_is_exact() {
        let dict = Dictionary::new(vec![42.0]);
        let col = CompressedColumn::from_codes(dict, vec![0; 333]);
        let approx = approximate_mean(&col);
        assert!((approx.value - 42.0).abs() <= approx.error_bound);
        assert!((approx.value - 42.0).abs() < 0.5);
    }

    #[test]
    fn empty_column_yields_zero() {
        let col = CompressedColumn::from_codes(Dictionary::new(vec![1.0]), vec![]);
        assert_eq!(
            approximate_mean(&col),
            ApproxAggregate {
                value: 0.0,
                error_bound: 0.0
            }
        );
    }

    #[test]
    fn portable_and_simd_sums_agree() {
        let mut qmeans = [0u8; PORTION];
        for (i, q) in qmeans.iter_mut().enumerate() {
            *q = (i * 13 + 7) as u8;
        }
        let codes: Vec<u8> = (0..1003).map(|i| (i * 89 % 256) as u8).collect();
        let portable = sum_quantized_portable(&codes, &qmeans);
        let dispatched = sum_quantized(&codes, &qmeans);
        assert_eq!(portable, dispatched);
    }
}
