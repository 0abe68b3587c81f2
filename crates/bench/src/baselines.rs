//! The PQ Scan variants the paper measures but does not serve: the "avx"
//! and "gather" scans of §3.2 (Figures 4 and 5), which explain why PQ Scan
//! is slow, and the quantization-only scan of §5.5 (Figure 17), which
//! isolates where Fast Scan loses pruning power. `fig3`, `fig17` and
//! `table2` call them; every one returns exactly what
//! [`pqfs_scan::scan_naive`] returns.
//!
//! On x86-64 the two transposed scans use the real instructions when the
//! CPU has them; a portable loop with the same per-lane accumulation order
//! runs everywhere else.

use pqfs_core::{DistanceTables, RowMajorCodes, TopK};
use pqfs_scan::{DistanceQuantizer, ScanResult, ScanStats, DEFAULT_BINS};

/// Number of vectors per transposed block (one 64-bit word per component).
const TRANSPOSED_BLOCK: usize = 8;

/// Codes stored transposed in blocks of 8 vectors (Figure 5): within block
/// `b`, the `j`-th component of its 8 vectors is one contiguous 8-byte
/// word, so one 64-bit load fetches `a[j] … h[j]`. The final block is
/// zero-padded.
#[derive(Debug)]
pub struct TransposedCodes {
    /// `num_blocks × m × 8` bytes: block-major, then component-major.
    data: Vec<u8>,
    /// Components per code.
    m: usize,
    /// Stored vectors, padding excluded.
    n: usize,
}

impl TransposedCodes {
    /// Transposes a row-major code set.
    pub fn from_row_major(codes: &RowMajorCodes) -> Self {
        let (m, n) = (codes.m(), codes.len());
        let mut data = vec![0u8; n.div_ceil(TRANSPOSED_BLOCK) * m * TRANSPOSED_BLOCK];
        for (i, code) in codes.iter().enumerate() {
            let (block, lane) = (i / TRANSPOSED_BLOCK, i % TRANSPOSED_BLOCK);
            for (j, &c) in code.iter().enumerate() {
                data[(block * m + j) * TRANSPOSED_BLOCK + lane] = c;
            }
        }
        TransposedCodes { data, m, n }
    }

    /// Number of 8-vector blocks (including a possibly padded tail block).
    fn num_blocks(&self) -> usize {
        self.n.div_ceil(TRANSPOSED_BLOCK)
    }

    /// The 8 `j`-th components of block `b` — the word one `mem1` load
    /// fetches.
    #[inline]
    fn component_word(&self, b: usize, j: usize) -> &[u8; TRANSPOSED_BLOCK] {
        let start = (b * self.m + j) * TRANSPOSED_BLOCK;
        self.data[start..start + TRANSPOSED_BLOCK]
            .try_into()
            .expect("a word is TRANSPOSED_BLOCK bytes")
    }
}

/// The "avx" scan (Figure 4): the `pqdistance` of 8 vectors at a time with
/// vertical SIMD adds. The lookups stay scalar — the looked-up values are
/// not contiguous, so each SIMD way is set one by one, which is why the
/// paper finds it only marginally faster than the naive scan.
///
/// # Panics
///
/// Panics if `topk == 0` or the tables and codes differ in `m`.
pub fn scan_avx(tables: &DistanceTables, codes: &TransposedCodes, topk: usize) -> ScanResult {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        return scan_blocks(tables, codes, topk, |b, dists| {
            // SAFETY: AVX support was just verified at runtime.
            unsafe { block_avx(tables, codes, b, dists) }
        });
    }
    scan_blocks(tables, codes, topk, |b, dists| {
        block_portable(tables, codes, b, dists)
    })
}

/// The "gather" scan (Figure 5): AVX2 `vpgatherdps` looks up 8 table
/// entries in one instruction, yet the paper measures it *slower* than the
/// naive scan — one memory access per element, 34 µops and an 18-cycle
/// latency (Table 2).
///
/// # Panics
///
/// Panics if `topk == 0`, the tables and codes differ in `m`, or the tables do not
/// have 256 entries each (the gather indexes them with raw code bytes).
pub fn scan_gather(tables: &DistanceTables, codes: &TransposedCodes, topk: usize) -> ScanResult {
    assert_eq!(tables.ksub(), 256, "the gather scan needs 256-entry tables");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return scan_blocks(tables, codes, topk, |b, dists| {
            // SAFETY: AVX2 support was just verified at runtime, and every
            // table has 256 entries (asserted above), so each u8 code byte
            // indexes inside its table.
            unsafe { block_gather(tables, codes, b, dists) }
        });
    }
    scan_blocks(tables, codes, topk, |b, dists| {
        block_portable(tables, codes, b, dists)
    })
}

/// The loop both transposed scans share: 8 distances per block, padding
/// lanes dropped.
fn scan_blocks(
    tables: &DistanceTables,
    codes: &TransposedCodes,
    topk: usize,
    mut block_distances: impl FnMut(usize, &mut [f32; TRANSPOSED_BLOCK]),
) -> ScanResult {
    assert_eq!(tables.m(), codes.m, "tables and codes must share m");
    let mut heap = TopK::new(topk);
    let n = codes.n;
    let mut dists = [0f32; TRANSPOSED_BLOCK];
    for b in 0..codes.num_blocks() {
        block_distances(b, &mut dists);
        let base = b * TRANSPOSED_BLOCK;
        for (lane, &d) in dists.iter().enumerate().take(n - base) {
            heap.push(d, (base + lane) as u64);
        }
    }
    ScanResult {
        neighbors: heap.into_sorted(),
        stats: ScanStats {
            scanned: n as u64,
            ..ScanStats::default()
        },
    }
}

/// One vertical add per table and lane, in component order — the order of
/// the SIMD paths and of `DistanceTables::distance`, so all agree bit for
/// bit.
fn block_portable(
    tables: &DistanceTables,
    codes: &TransposedCodes,
    b: usize,
    dists: &mut [f32; TRANSPOSED_BLOCK],
) {
    dists.fill(0.0);
    for j in 0..codes.m {
        let table = tables.table(j);
        for (d, &idx) in dists.iter_mut().zip(codes.component_word(b, j)) {
            *d += table[idx as usize];
        }
    }
}

/// # Safety
///
/// The caller must verify AVX support at runtime
/// (`is_x86_feature_detected!("avx")`) before calling.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn block_avx(
    tables: &DistanceTables,
    codes: &TransposedCodes,
    b: usize,
    dists: &mut [f32; TRANSPOSED_BLOCK],
) {
    use std::arch::x86_64::*;
    let mut acc = _mm256_setzero_ps();
    for j in 0..codes.m {
        let word = codes.component_word(b, j);
        let table = tables.table(j);
        // The paper's pain point, reproduced faithfully: the 8 looked-up
        // values are scattered, so the SIMD ways are set one by one.
        let vals = _mm256_setr_ps(
            table[word[0] as usize],
            table[word[1] as usize],
            table[word[2] as usize],
            table[word[3] as usize],
            table[word[4] as usize],
            table[word[5] as usize],
            table[word[6] as usize],
            table[word[7] as usize],
        );
        acc = _mm256_add_ps(acc, vals);
    }
    // SAFETY: `dists` is a valid, writable `[f32; 8]` — exactly the 32
    // bytes an unaligned 256-bit store touches.
    unsafe { _mm256_storeu_ps(dists.as_mut_ptr(), acc) };
}

/// # Safety
///
/// The caller must verify AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`) before calling, and every table
/// must hold 256 entries (`tables.ksub() == 256`), so that any code byte is
/// an in-bounds index.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn block_gather(
    tables: &DistanceTables,
    codes: &TransposedCodes,
    b: usize,
    dists: &mut [f32; TRANSPOSED_BLOCK],
) {
    use std::arch::x86_64::*;
    let mut acc = _mm256_setzero_ps();
    for j in 0..codes.m {
        let word = codes.component_word(b, j);
        // SAFETY: `word` is a `&[u8; 8]`, so reading it as the low 64 bits
        // of an unaligned `__m128i` stays in bounds.
        let bytes = unsafe { _mm_loadl_epi64(word.as_ptr() as *const __m128i) };
        let indexes = _mm256_cvtepu8_epi32(bytes);
        // mem2: vpgatherdps — 8 table accesses in one instruction.
        let table = tables.table(j);
        // SAFETY: each gathered lane reads `table[word[lane]]`; the indexes
        // are u8 and the caller guarantees 256 f32s per table, so every
        // scaled offset is in bounds.
        let vals = unsafe { _mm256_i32gather_ps::<4>(table.as_ptr(), indexes) };
        acc = _mm256_add_ps(acc, vals);
    }
    // SAFETY: `dists` is a valid, writable `[f32; 8]` — exactly the 32
    // bytes an unaligned 256-bit store touches.
    unsafe { _mm256_storeu_ps(dists.as_mut_ptr(), acc) };
}

/// The quantization-only scan (§5.5): full 256-entry tables with entries
/// quantized to 8 bits, no grouping and no minimum tables. Its lower bounds
/// are exact up to quantization, so it measures the pruning power that
/// quantization alone costs; the tables do not fit SIMD registers, so it is
/// measured for pruning only, never for speed.
///
/// `keep` is the warm-up fraction (scanned exactly to seed `qmax`); the
/// tables are quantized to [`DEFAULT_BINS`] bins, as Fast Scan's are. The
/// stats count warm-up, pruned and verified vectors, which add up to
/// `scanned`.
///
/// # Panics
///
/// Panics if `topk == 0` or `tables.m() != codes.m()`.
pub fn scan_quantize_only(
    tables: &DistanceTables,
    codes: &RowMajorCodes,
    topk: usize,
    keep: f64,
) -> ScanResult {
    assert_eq!(tables.m(), codes.m(), "tables and codes must share m");
    let n = codes.len();
    let mut heap = TopK::new(topk);
    let mut stats = ScanStats {
        scanned: n as u64,
        ..ScanStats::default()
    };
    if n == 0 {
        return ScanResult {
            neighbors: Vec::new(),
            stats,
        };
    }

    // Warm-up with exact distances.
    let warm = ((keep.clamp(0.0, 1.0) * n as f64).ceil() as usize).min(n);
    for i in 0..warm {
        heap.push(tables.distance(codes.code(i)), i as u64);
    }
    stats.warmup = warm as u64;

    let qmax = if heap.is_full() {
        heap.threshold()
    } else {
        tables.max_sum()
    };
    let quantizer = DistanceQuantizer::new(tables, qmax, DEFAULT_BINS);
    let ksub = tables.ksub();
    let qtables: Vec<u8> = (0..tables.m())
        .flat_map(|j| quantizer.quantize_table(j, tables.table(j)))
        .collect();

    let mut threshold = quantizer.quantize_threshold(heap.threshold());
    for i in warm..n {
        let code = codes.code(i);
        // Saturating 8-bit lower bound from the full quantized tables.
        let bound = code.iter().enumerate().fold(0u8, |acc, (j, &idx)| {
            acc.saturating_add(qtables[j * ksub + idx as usize])
        });
        if bound > threshold {
            stats.pruned += 1;
            continue;
        }
        stats.verified += 1;
        if heap.push(tables.distance(code), i as u64) {
            threshold = quantizer.quantize_threshold(heap.threshold());
        }
    }

    ScanResult {
        neighbors: heap.into_sorted(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqfs_scan::{scan_naive, ScanParams};

    fn tables(ksub: usize) -> DistanceTables {
        let data = (0..8 * ksub)
            .map(|x| ((x % ksub * 29 + x / ksub * 113) % 1009) as f32 * 0.75)
            .collect();
        DistanceTables::from_raw(data, 8, ksub)
    }

    fn codes(n: usize) -> RowMajorCodes {
        RowMajorCodes::new(
            (0..n * 8).map(|i| ((i * 211 + 37) % 256) as u8).collect(),
            8,
        )
    }

    fn bits(r: &ScanResult) -> Vec<(u32, u64)> {
        r.neighbors
            .iter()
            .map(|n| (n.dist.to_bits(), n.id))
            .collect()
    }

    /// Both transposed scans, and the portable path they fall back to,
    /// return the naive scan's bits on ragged partitions: padding lanes
    /// never enter the result, and the SIMD path equals the portable one.
    #[test]
    fn transposed_scans_match_naive_and_the_portable_path() {
        let tables = tables(256);
        for n in [1usize, 7, 8, 9, 100, 123, 1000] {
            let row = codes(n);
            let t = TransposedCodes::from_row_major(&row);
            for topk in [1, 10, n] {
                let want = bits(&scan_naive(&tables, &row, &ScanParams::new(topk)));
                let portable = scan_blocks(&tables, &t, topk, |b, dists| {
                    block_portable(&tables, &t, b, dists)
                });
                assert_eq!(bits(&portable), want, "portable n={n} topk={topk}");
                assert_eq!(
                    bits(&scan_avx(&tables, &t, topk)),
                    want,
                    "avx n={n} topk={topk}"
                );
                assert_eq!(bits(&scan_gather(&tables, &t, topk)), want, "gather n={n}");
            }
        }
    }

    /// Tables smaller than a code byte would let the hardware gather read
    /// past them; the scan refuses them before any lookup.
    #[test]
    #[should_panic(expected = "256-entry tables")]
    fn gather_rejects_tables_a_code_byte_can_overrun() {
        let row = RowMajorCodes::new(vec![200; 8], 8);
        scan_gather(&tables(16), &TransposedCodes::from_row_major(&row), 1);
    }

    /// Quantize-only is exact at every warm-up size, its counters account
    /// for every vector, and it prunes most of them (§5.5 measures 99.9 %;
    /// these synthetic tables are less favourable, so the bar is 90 % at
    /// the paper's topk 10 / keep 1 % and 50 % where topk or keep is
    /// large enough to need more verification).
    #[test]
    fn quantize_only_matches_naive_and_accounts_for_every_vector() {
        let (tables, codes) = (tables(256), codes(5000));
        for (topk, keep, min_pruned) in [
            (10usize, 0.01, 0.9),
            (1, 0.01, 0.5),
            (10, 0.005, 0.5),
            (20, 0.01, 0.5),
            (100, 0.02, 0.5),
            (10, 0.0, 0.0),
        ] {
            let case = format!("topk={topk} keep={keep}");
            let want = bits(&scan_naive(&tables, &codes, &ScanParams::new(topk)));
            let got = scan_quantize_only(&tables, &codes, topk, keep);
            assert_eq!(bits(&got), want, "{case}");
            let s = got.stats;
            assert_eq!(s.warmup + s.pruned + s.verified, s.scanned, "{case}");
            assert!(s.pruned_fraction() >= min_pruned, "{case}: {s:?}");
        }
        // keep 1.0 scans everything exactly during warm-up.
        let s = scan_quantize_only(&tables, &codes, 7, 1.0).stats;
        assert_eq!((s.warmup, s.pruned, s.verified), (5000, 0, 0));
    }
}
