//! Quantization of floating-point distances to 8-bit integers (paper §4.4).
//!
//! Fast Scan shrinks 32-bit distance-table entries to 8 bits so that 16 of
//! them fit a SIMD register. The paper quantizes between a `qmin` bound (the
//! smallest table entry) and a `qmax` bound (the distance to a *temporary*
//! nearest neighbor found by scanning the first `keep%` of the database);
//! everything above `qmax` saturates.
//!
//! Our scheme makes the pruning **provably safe** (docs/FASTSCAN.md §1): each table
//! `j` is quantized with its own bias `bias_j = min_i D_j[i]` and a shared
//! step `Δ = (qmax − Σ_j bias_j) / bins`, rounding down; the threshold gets
//! one bin of allowance for the `f32` rounding of the two sides:
//!
//! ```text
//! q_j(v) = clamp(⌊(v − bias_j) / Δ⌋, 0, 255)
//! T(t)   = clamp(⌊(t − Σ_j bias_j) / Δ⌋ + 1, 0, 255)
//! ```
//!
//! For any code `p` with true distance `d = Σ_j D_j[p_j]` and any small
//! table values `v_j ≤ D_j[p_j]`:
//! `Σ_j q_j(v_j) ≤ (d − Σ_j bias_j)/Δ`, so `sat_sum_j q_j(v_j) > T(t)`
//! implies `d > t` — a pruned vector can never belong to the exact top-k.
//! Saturating adds (cap 255) only lower the left side, preserving safety.
//! Over the reals the `+ 1` is not needed; computed in `f32` the two sides
//! round apart by less than one bin as long as the bins are not finer than
//! the rounding of the distances themselves, so `Δ` is never taken below
//! `Σ_j bias_j / 2¹⁸` ([`MAX_SCALED_BIAS`]).
//!
//! Fast Scan always quantizes with [`DEFAULT_BINS`] = 253 bins, the full
//! unsigned byte range (the SSE2 `min_epu8`/`cmpeq` trick gives us unsigned
//! comparisons) less the allowance and the [`NO_PRUNE`] sentinel; the
//! paper's signed-range variant would be `bins = 126`. The `bins` argument
//! of [`DistanceQuantizer::new`] stays so the safety tests below can sweep
//! it: the result is exact at any bin count, only pruning changes.

use pqfs_core::DistanceTables;

/// Default — and largest — number of quantization bins: `T(qmax) = bins + 1`
/// must stay below [`NO_PRUNE`], or nothing would be pruned until the
/// threshold has dropped a bin below `qmax`.
pub const DEFAULT_BINS: u16 = 253;

/// Sentinel threshold meaning "prune nothing": no saturated 8-bit sum can
/// exceed it.
pub const NO_PRUNE: u8 = u8::MAX;

/// Largest `Σ_j bias_j / Δ` the quantizer works with. The one-bin allowance
/// of [`DistanceQuantizer::quantize_threshold`] covers the `f32` rounding of
/// both sides only while a bin is wider than the rounding of the summed
/// distances: the proof (docs/FASTSCAN.md §1) bounds the gap by
/// `14 · 2⁻²⁴ · Σ bias / Δ`, 0.22 bins here. A `qmax` closer to the sum of
/// the minima than that — within 0.1 % of it, or on it: a warm-up that found
/// `topk` copies of the best possible code — gets wider bins, not finer
/// ones.
pub const MAX_SCALED_BIAS: f32 = (1u32 << 18) as f32;

/// Per-query quantizer mapping float distances to bytes; its biases are the
/// tables' own [`per_table_min`](DistanceTables::per_table_min).
#[derive(Debug, Clone)]
pub struct DistanceQuantizer<'t> {
    biases: &'t [f32],
    bias_sum: f32,
    inv_delta: f32,
    qmax: f32,
    bins: u16,
}

impl<'t> DistanceQuantizer<'t> {
    /// Builds a quantizer for one query's distance tables.
    ///
    /// `qmax` is the distance of the temporary nearest neighbor (or
    /// [`DistanceTables::max_sum`] when no warm-up ran). `bins` is clamped
    /// into `1..=`[`DEFAULT_BINS`] so an exact-`qmax` threshold is still
    /// representable below the [`NO_PRUNE`] sentinel.
    pub fn new(tables: &'t DistanceTables, qmax: f32, bins: u16) -> Self {
        let bins = bins.clamp(1, DEFAULT_BINS);
        let biases = tables.per_table_min();
        let bias_sum = tables.sum_of_mins();
        // The narrowest span whose bins `f32` sums still resolve.
        let span = (qmax - bias_sum).max(bias_sum * (bins as f32 / MAX_SCALED_BIAS));
        let inv_delta = if qmax.is_finite() && span > 0.0 {
            bins as f32 / span
        } else {
            // All-zero tables or an unusable qmax: quantize everything to 0
            // and never prune.
            0.0
        };
        DistanceQuantizer {
            biases,
            bias_sum,
            inv_delta,
            qmax,
            bins,
        }
    }

    /// Number of distance tables covered.
    pub fn m(&self) -> usize {
        self.biases.len()
    }

    /// The configured bin count.
    pub fn bins(&self) -> u16 {
        self.bins
    }

    /// Sum of the per-table biases — [`DistanceTables::sum_of_mins`], which
    /// no distance computed from the tables is below.
    pub fn bias_sum(&self) -> f32 {
        self.bias_sum
    }

    /// The `qmax` bound this quantizer was built with.
    pub fn qmax(&self) -> f32 {
        self.qmax
    }

    /// Quantizes one entry of table `j` (rounding down — the lower-bound
    /// direction).
    #[inline]
    pub fn quantize_value(&self, j: usize, v: f32) -> u8 {
        let scaled = (v - self.biases[j]) * self.inv_delta;
        // Clamped into [0, 255], the cast's truncation is the floor; a
        // below-zero or NaN product gives 0, as the floor would.
        scaled.clamp(0.0, 255.0) as u8
    }

    /// Quantizes a full 256-entry table row (used by the grouped small
    /// tables and by the §5.5 quantization-only variant).
    pub fn quantize_table(&self, j: usize, table: &[f32]) -> Vec<u8> {
        let mut out = Vec::new();
        self.quantize_table_into(j, table, &mut out);
        out
    }

    /// [`quantize_table`](Self::quantize_table) into an existing buffer,
    /// so per-query scratch can be reused without reallocating. With AVX2,
    /// 32 entries at a time, bit-identical to
    /// [`quantize_value`](Self::quantize_value).
    pub fn quantize_table_into(&self, j: usize, table: &[f32], out: &mut Vec<u8>) {
        out.clear();
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected on this CPU.
            unsafe { quantize_chunks_avx2(table, self.biases[j], self.inv_delta, out) };
        }
        // What the vector loop left: everything, or fewer than 32 entries.
        let rest = &table[out.len()..];
        out.extend(rest.iter().map(|&v| self.quantize_value(j, v)));
    }

    /// Quantizes the pruning threshold `t` (the current top-k distance),
    /// one bin up: the allowance for the `f32` rounding that separates the
    /// summed [`quantize_value`](Self::quantize_value)s of a vector tied
    /// with `t` from `t`'s own bin (docs/FASTSCAN.md §1). Returns
    /// [`NO_PRUNE`] for an infinite `t` or when quantization is degenerate.
    #[inline]
    pub fn quantize_threshold(&self, t: f32) -> u8 {
        if !t.is_finite() || self.inv_delta == 0.0 {
            return NO_PRUNE;
        }
        let scaled = ((t - self.bias_sum) * self.inv_delta).floor() + 1.0;
        scaled.clamp(0.0, NO_PRUNE as f32) as u8
    }
}

/// Appends the quantized entries of the whole 32-entry chunks of `table` to
/// `out`: `(v − bias) · inv_delta` clamped into `[0, 255]` and truncated,
/// as [`DistanceQuantizer::quantize_value`] does for every input — a NaN
/// (`∞ − ∞`, `∞ · 0`) gives 0 too: `max_ps` returns its second operand, the
/// `0.0`, when the first is NaN.
///
/// # Safety
///
/// CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_chunks_avx2(table: &[f32], bias: f32, inv_delta: f32, out: &mut Vec<u8>) {
    use std::arch::x86_64::*;
    let (bias, inv_delta) = (_mm256_set1_ps(bias), _mm256_set1_ps(inv_delta));
    let (zero, top) = (_mm256_setzero_ps(), _mm256_set1_ps(255.0));
    let quantize8 = |entries: &[f32]| {
        let entries = &entries[..8];
        // SAFETY: `entries` is eight readable floats.
        let v = unsafe { _mm256_loadu_ps(entries.as_ptr()) };
        let scaled = _mm256_mul_ps(_mm256_sub_ps(v, bias), inv_delta);
        _mm256_cvttps_epi32(_mm256_min_ps(_mm256_max_ps(scaled, zero), top))
    };
    // The two packs interleave the 128-bit lanes: dwords 0, 4, 1, 5, … of
    // the packed bytes are the entries in order.
    let in_order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    for chunk in table.chunks_exact(32) {
        let low = _mm256_packus_epi32(quantize8(chunk), quantize8(&chunk[8..]));
        let high = _mm256_packus_epi32(quantize8(&chunk[16..]), quantize8(&chunk[24..]));
        let bytes = _mm256_permutevar8x32_epi32(_mm256_packus_epi16(low, high), in_order);
        let mut quantized = [0u8; 32];
        // SAFETY: `quantized` is 32 writable bytes.
        unsafe { _mm256_storeu_si256(quantized.as_mut_ptr().cast(), bytes) };
        out.extend_from_slice(&quantized);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables_2x4() -> DistanceTables {
        DistanceTables::from_raw(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], 2, 4)
    }

    #[test]
    fn values_round_down_and_saturate() {
        let t = tables_2x4();
        // bias_sum = 11, qmax = 44, bins = 11 -> delta = 3.
        let q = DistanceQuantizer::new(&t, 44.0, 11);
        assert_eq!(q.quantize_value(0, 1.0), 0); // (1-1)/3 = 0
        assert_eq!(q.quantize_value(0, 3.9), 0); // floor(2.9/3) = 0
        assert_eq!(q.quantize_value(0, 4.0), 1);
        assert_eq!(q.quantize_value(1, 40.0), 10);
        assert_eq!(q.quantize_value(1, 10_000.0), 255, "saturates at byte max");
    }

    /// `quantize_table_into` — the AVX2 loop where the CPU has it, and its
    /// scalar remainder — agrees with `quantize_value` entry for entry,
    /// also where the scaled entry is far out of range, infinite or NaN.
    #[test]
    fn table_quantization_matches_the_scalar_entry_by_entry() {
        let mut state = 0x1234_5678u32;
        let mut next = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as f32 / 256.0
        };
        // 256 entries are whole chunks, 100 leave a remainder of 4.
        for ksub in [256usize, 100] {
            for round in 0..8 {
                let mut data: Vec<f32> = (0..2 * ksub).map(|_| next()).collect();
                if round % 2 == 1 {
                    // An unreachable centroid: `∞ − bias`, and `∞ · 0` (NaN)
                    // under the degenerate quantizers below.
                    data[ksub + 5] = f32::INFINITY;
                }
                let t = DistanceTables::from_raw(data, 2, ksub);
                let best = t.sum_of_mins();
                let qmaxes = [
                    t.distance(&[3, 7]),
                    best,
                    best * (1.0 + f32::EPSILON),
                    1e9,
                    f32::INFINITY,
                ];
                for qmax in qmaxes {
                    let q = DistanceQuantizer::new(&t, qmax, DEFAULT_BINS);
                    assert_eq!(q.inv_delta == 0.0, qmax.is_infinite());
                    for j in 0..2 {
                        let want: Vec<u8> =
                            t.table(j).iter().map(|&v| q.quantize_value(j, v)).collect();
                        assert_eq!(q.quantize_table(j, t.table(j)), want, "qmax={qmax} j={j}");
                    }
                }
            }
        }
    }

    /// The minima a `DistanceTables` stores — per 16-entry portion and per
    /// table — are the scalar fold bit for bit, after every way of writing
    /// the tables, and the quantizer built on them matches a scalar
    /// reference: biases, their sum, every quantized entry and threshold.
    /// A quantized portion minimum is also a lower bound for the quantized
    /// entries of its portion, which is what makes it a minimum table.
    #[test]
    fn stored_minima_and_the_quantizer_match_a_scalar_reference() {
        use pqfs_core::tables::PORTION;
        use pqfs_core::{PqConfig, ProductQuantizer};
        let fold = |x: &[f32]| x.iter().copied().fold(f32::INFINITY, f32::min);
        let check = |t: &DistanceTables, case: &str| {
            let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let biases: Vec<f32> = (0..t.m()).map(|j| fold(t.table(j))).collect();
            for j in 0..t.m() {
                let want: Vec<f32> = t.table(j).chunks(PORTION).map(fold).collect();
                assert_eq!(bits(t.portion_minima(j)), bits(&want), "{case} j={j}");
            }
            assert_eq!(bits(t.per_table_min()), bits(&biases), "{case}");
            let bias_sum: f32 = biases.iter().sum();
            assert_eq!(t.sum_of_mins().to_bits(), bias_sum.to_bits(), "{case}");
            let best = t.sum_of_mins();
            for qmax in [
                best,
                best + 1.5,
                t.distance(&vec![1; t.m()]),
                1e9,
                f32::INFINITY,
            ] {
                let q = DistanceQuantizer::new(t, qmax, DEFAULT_BINS);
                let bins = DEFAULT_BINS as f32;
                let span = (qmax - bias_sum).max(bias_sum * (bins / MAX_SCALED_BIAS));
                let usable = qmax.is_finite() && span > 0.0;
                let inv_delta = if usable { bins / span } else { 0.0 };
                assert_eq!(bits(q.biases), bits(&biases), "{case} qmax={qmax}");
                assert_eq!(q.bias_sum().to_bits(), bias_sum.to_bits(), "{case}");
                let quantize = |j: usize, v: f32| {
                    ((v - biases[j]) * inv_delta).floor().clamp(0.0, 255.0) as u8
                };
                for j in 0..t.m() {
                    let want: Vec<u8> = t.table(j).iter().map(|&v| quantize(j, v)).collect();
                    let mut got = vec![7; 3];
                    q.quantize_table_into(j, t.table(j), &mut got);
                    assert_eq!(got, want, "{case} qmax={qmax} j={j}");
                    for (p, &min) in t.portion_minima(j).iter().enumerate() {
                        let portion = &want[p * PORTION..want.len().min((p + 1) * PORTION)];
                        assert!(portion.iter().all(|&e| quantize(j, min) <= e), "{case}");
                    }
                }
                for thresh in [best, best + 0.75, qmax, 2e9, f32::INFINITY] {
                    let want = if !thresh.is_finite() || inv_delta == 0.0 {
                        NO_PRUNE
                    } else {
                        (((thresh - bias_sum) * inv_delta).floor() + 1.0).clamp(0.0, 255.0) as u8
                    };
                    assert_eq!(q.quantize_threshold(thresh), want, "{case} t={thresh}");
                }
            }
        };

        // Ties within and across portions, zeros, an all-∞ portion, and a
        // `ksub` that leaves a short last portion (100 = 6 · 16 + 4).
        for ksub in [256usize, 100, 16, 5] {
            let data: Vec<f32> = (0..3 * ksub)
                .map(|i| match (i / ksub, i % ksub) {
                    (0, e) => (e % 7) as f32,
                    (1, e) if e < PORTION => f32::INFINITY,
                    (1, e) => ((e * 37) % 11) as f32 * 0.5 + 3.0,
                    (_, e) => 1.0 + (e % 3 == 0) as u8 as f32,
                })
                .collect();
            let mut t = DistanceTables::from_raw(data.clone(), 3, ksub);
            check(&t, &format!("from_raw ksub={ksub}"));
            // Reused for other tables, of another shape too: the minima follow.
            t.fill_with(3, ksub, |j, row| {
                for (e, v) in row.iter_mut().enumerate() {
                    *v = data[j * ksub + (e + 5) % ksub] + j as f32;
                }
            });
            check(&t, &format!("fill_with ksub={ksub}"));
            t.fill_with(2, 32, |j, row| row.fill(j as f32 * 4.0));
            check(&t, &format!("fill_with reshaped from ksub={ksub}"));
        }

        // Tables of a trained quantizer, recomputed in place for a second
        // query, and for a third whose huge first coordinate overflows its
        // subspace's entries to +∞.
        let config = PqConfig::pq8x8(16);
        let train: Vec<f32> = (0..600 * 16)
            .map(|i| ((i * 7919) % 1000) as f32 * 0.1)
            .collect();
        let pq = ProductQuantizer::train(&train, &config, 3).unwrap();
        let mut t = DistanceTables::placeholder();
        let queries = [
            vec![20.0f32; 16],
            (0..16).map(|d| d as f32 * 6.0).collect(),
            {
                let mut q = vec![50.0f32; 16];
                q[0] = 1e30;
                q
            },
        ];
        for (i, query) in queries.iter().enumerate() {
            t.recompute(&pq, query).unwrap();
            assert_eq!(t.per_table_min()[0] == f32::INFINITY, i == 2);
            check(&t, &format!("recompute query {i}"));
        }
    }

    #[test]
    fn threshold_of_qmax_is_one_above_bins() {
        let t = tables_2x4();
        let q = DistanceQuantizer::new(&t, 44.0, 11);
        assert_eq!(q.quantize_threshold(44.0), 12);
        let q = DistanceQuantizer::new(&t, 44.0, DEFAULT_BINS);
        assert!(q.quantize_threshold(44.0) < NO_PRUNE, "qmax itself prunes");
        assert_eq!(q.quantize_threshold(f32::INFINITY), NO_PRUNE);
        assert_eq!(q.quantize_threshold(0.0), 0, "below-minimum clamps to 0");
    }

    #[test]
    fn degenerate_tables_disable_pruning() {
        // Equal entries all quantize to 0, which no threshold is below.
        let flat = DistanceTables::from_raw(vec![5.0; 8], 2, 4);
        let q = DistanceQuantizer::new(&flat, 10.0, DEFAULT_BINS);
        assert_eq!(q.quantize_value(0, 5.0), 0);
        let zero = DistanceTables::from_raw(vec![0.0; 8], 2, 4);
        let q = DistanceQuantizer::new(&zero, 0.0, DEFAULT_BINS);
        assert_eq!(q.quantize_threshold(0.0), NO_PRUNE);
        let nan_qmax = DistanceQuantizer::new(&flat, f32::INFINITY, DEFAULT_BINS);
        assert_eq!(nan_qmax.quantize_threshold(7.0), NO_PRUNE);
    }

    #[test]
    fn bins_are_clamped() {
        let t = tables_2x4();
        assert_eq!(DistanceQuantizer::new(&t, 44.0, 0).bins(), 1);
        assert_eq!(DistanceQuantizer::new(&t, 44.0, 1000).bins(), DEFAULT_BINS);
    }

    #[test]
    fn bins_are_never_finer_than_f32_sums() {
        // Entries near 2^17 that differ by a few units: the distances are
        // sums rounded to 2^-5, as wide as a 253rd of their range.
        let t = DistanceTables::from_raw(
            [0.0f32, 1.0, 2.0, 3.0, 0.5, 1.5, 2.5, 4.5]
                .map(|x| x + 131_072.0)
                .to_vec(),
            2,
            4,
        );
        let best = t.sum_of_mins();
        // qmax on the best possible distance leaves no span at all.
        for qmax in [t.max_sum(), best + 0.25, best] {
            let q = DistanceQuantizer::new(&t, qmax, DEFAULT_BINS);
            // One bin is Σ bias / 2^18 = 1.0 whatever qmax asks for: an
            // entry 4.0 above its table's minimum is 4 bins up, less rounding.
            assert!((3..=4).contains(&q.quantize_value(1, t.table(1)[3])));
            assert_eq!(q.quantize_threshold(best), 1);
            for thresh in [best, best + 0.25, best + 3.0, t.max_sum()] {
                assert_safe(&t, &q, thresh);
            }
        }
    }

    /// Asserts the safety theorem for every code of the 2×4 tables `t`
    /// under `q`: a pruned code is farther than `thresh`.
    fn assert_safe(t: &DistanceTables, q: &DistanceQuantizer, thresh: f32) {
        let tq = q.quantize_threshold(thresh);
        for c0 in 0..4u8 {
            for c1 in 0..4u8 {
                let d = t.distance(&[c0, c1]);
                let sum = q
                    .quantize_value(0, t.table(0)[c0 as usize])
                    .saturating_add(q.quantize_value(1, t.table(1)[c1 as usize]));
                assert!(
                    sum <= tq || d > thresh,
                    "unsafe prune: d={d} t={thresh} sum={sum} tq={tq} bins={} qmax={}",
                    q.bins(),
                    q.qmax()
                );
            }
        }
    }

    /// The safety theorem, tested directly: pruning implies the true
    /// distance exceeds the threshold.
    #[test]
    fn pruning_is_safe_for_exhaustive_small_case() {
        let t = tables_2x4();
        for bins in [1u16, 5, 126, DEFAULT_BINS] {
            for qmax_i in 1..60 {
                let q = DistanceQuantizer::new(&t, qmax_i as f32, bins);
                for t10 in 0..50 {
                    assert_safe(&t, &q, t10 as f32);
                }
            }
        }
    }

    /// The same with `qmax` = an entry bound (docs/FASTSCAN.md §5) instead
    /// of a warm-up threshold: the bound is some other partition's k-th
    /// distance, so it may sit anywhere — on a distance of these tables (a
    /// tie at the bound must survive), between two, below the sum of the
    /// minima — and the scan prunes with `min(heap threshold, bound)`.
    ///
    /// These two tables are the ones that showed the threshold needs its
    /// allowance: with `bins = 126` and `qmax = 43.2`, code `(0, 1)`
    /// quantizes to exactly 42 while its own distance as the threshold
    /// floors to 41, because `21.1 − 10.7` and `(1.3 + 21.1) − 12.0` round
    /// to different floats and the real product sits on a bin edge.
    #[test]
    fn pruning_is_safe_when_qmax_is_an_entry_bound() {
        let t = DistanceTables::from_raw(vec![1.3, 2.6, 3.9, 5.3, 10.7, 21.1, 30.2, 41.9], 2, 4);
        let distances: Vec<f32> = (0..16u8).map(|c| t.distance(&[c / 4, c % 4])).collect();
        let bounds = distances
            .iter()
            .flat_map(|&d| [d, d - 0.05, d + 0.05])
            .chain([0.0, 43.2, t.sum_of_mins() - 1.0, t.max_sum() * 2.0]);
        for bound in bounds {
            for bins in [1u16, 5, 126, DEFAULT_BINS] {
                let q = DistanceQuantizer::new(&t, bound, bins);
                for &heap_threshold in distances.iter().chain([&f32::INFINITY]) {
                    assert_safe(&t, &q, heap_threshold.min(bound));
                }
            }
        }
    }

    /// Lower bounds built from per-portion minima are also safe.
    #[test]
    fn pruning_with_minimum_values_is_safe() {
        let t = tables_2x4();
        let q = DistanceQuantizer::new(&t, 44.0, DEFAULT_BINS);
        // Use the table minimum as the small-table value (v_j <= D_j[p_j]).
        let v0 = t.per_table_min()[0];
        let v1 = t.per_table_min()[1];
        let sum = q
            .quantize_value(0, v0)
            .saturating_add(q.quantize_value(1, v1));
        for c0 in 0..4u8 {
            for c1 in 0..4u8 {
                let d = t.distance(&[c0, c1]);
                let thresh = 25.0f32;
                if sum > q.quantize_threshold(thresh) {
                    assert!(d > thresh);
                }
            }
        }
    }
}
