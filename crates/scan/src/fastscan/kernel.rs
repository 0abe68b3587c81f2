//! The in-register lookup kernels (paper §4.5).
//!
//! The small tables `S_0 … S_7` (16 bytes each) live in SIMD registers for
//! the duration of the scan. Per block of 16 vectors the kernel:
//!
//! 1. loads each 16-byte component array (6 loads per block for `c = 4` —
//!    the paper's "6 bytes per vector");
//! 2. extracts 4-bit indexes — low nibbles for grouped components, high
//!    nibbles (`psrlw 4` + mask) for the minimum-table components;
//! 3. looks up 16 values at once with `pshufb` (`_mm_shuffle_epi8`);
//! 4. accumulates with saturating unsigned adds (`_mm_adds_epu8`);
//! 5. compares the 16 lower bounds against the quantized threshold with the
//!    unsigned `min_epu8`/`cmpeq` idiom and extracts a candidate bitmask
//!    via `pmovmskb`.
//!
//! The scan loop over groups lives *inside* the kernel and is
//! **monomorphized on the number of grouping components** (`const C`): the
//! component loops fully unroll, the minimum-table registers stay resident
//! for the entire partition, and only the `C` portion registers reload at
//! group boundaries (solid arrows of the paper's Figure 13). A bit-exact
//! portable implementation is always available and doubles as the test
//! oracle.
//!
//! **Hand-off.** A kernel never looks at a survivor itself. Each block whose
//! mask is non-zero goes to a [`BlockSink`] as `(group, block, lane mask)`,
//! once, together with the kernel's own `C`; the sink verifies the masked
//! lanes and returns the quantized threshold to prune the following blocks
//! with (docs/FASTSCAN.md §3). [`scan_all`] is the one
//! entry point: it picks the `C` instantiation and the back-end, and under
//! the `checked-kernels` feature shadow-runs the portable oracle.

// The kernels index fixed-size register arrays with the component number
// `j`; explicit `j in c..FS_M` loops mirror the paper's per-component
// notation and keep the grouped/min-table split visible.
#![allow(clippy::needless_range_loop)]

use crate::fastscan::grouping::GroupedCodes;
use crate::fastscan::layout::{bytes_per_block, FS_BLOCK, FS_M, PORTION};
use crate::ScanError;

/// Kernel back-end selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Pick the fastest back-end supported by the running CPU
    /// (AVX2 → SSSE3 → portable).
    #[default]
    Auto,
    /// The scalar emulation (available everywhere; test oracle).
    Portable,
    /// The SSSE3 `pshufb` kernel the paper describes.
    Ssse3,
    /// Extension: 256-bit kernel processing two blocks (32 codes) per
    /// iteration with the small tables broadcast to both 128-bit lanes —
    /// the step the paper's §6 anticipates for wider SIMD. Returns the
    /// exact same neighbors; pruning *statistics* may differ marginally
    /// because a block pair shares one threshold snapshot.
    Avx2,
}

/// A concrete back-end after CPU-feature resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResolvedKernel {
    Portable,
    #[cfg(all(target_arch = "x86_64", feature = "avx2"))]
    Ssse3,
    #[cfg(all(target_arch = "x86_64", feature = "avx2"))]
    Avx2,
}

impl Kernel {
    /// Resolves against the running CPU.
    ///
    /// # Errors
    ///
    /// [`ScanError::KernelUnavailable`] when an explicitly requested SIMD
    /// back-end is unsupported.
    pub(crate) fn resolve(self) -> Result<ResolvedKernel, ScanError> {
        match self {
            Kernel::Auto => {
                #[cfg(all(target_arch = "x86_64", feature = "avx2"))]
                {
                    if std::arch::is_x86_feature_detected!("avx2") {
                        return Ok(ResolvedKernel::Avx2);
                    }
                    if std::arch::is_x86_feature_detected!("ssse3") {
                        return Ok(ResolvedKernel::Ssse3);
                    }
                }
                Ok(ResolvedKernel::Portable)
            }
            Kernel::Portable => Ok(ResolvedKernel::Portable),
            Kernel::Ssse3 => {
                #[cfg(all(target_arch = "x86_64", feature = "avx2"))]
                {
                    if std::arch::is_x86_feature_detected!("ssse3") {
                        return Ok(ResolvedKernel::Ssse3);
                    }
                }
                Err(ScanError::KernelUnavailable { kernel: "ssse3" })
            }
            Kernel::Avx2 => {
                #[cfg(all(target_arch = "x86_64", feature = "avx2"))]
                {
                    if std::arch::is_x86_feature_detected!("avx2") {
                        return Ok(ResolvedKernel::Avx2);
                    }
                }
                Err(ScanError::KernelUnavailable { kernel: "avx2" })
            }
        }
    }
}

/// The per-query quantized tables a scan consumes.
#[derive(Debug, Clone, Default)]
pub(crate) struct ScanTables {
    /// For each grouped component `j < c`: the full 256-entry quantized
    /// table (16-entry portions selected per group).
    pub grouped: Vec<Vec<u8>>,
    /// For each component: the 16-entry small table. Entries `c..8` hold
    /// the quantized minimum tables; entries `0..c` are unused (the kernels
    /// load the group's portions of `grouped` instead).
    pub small: [[u8; PORTION]; FS_M],
}

/// Receiver of the kernels' per-block hand-off.
pub(crate) trait BlockSink {
    /// Takes the survivors of block `block` of group `group`: bit `lane` of
    /// `mask` is set when the lower bound of that lane passed the threshold.
    /// `mask` is never zero and never names a padding lane of a ragged tail.
    /// `C` is the grouping-component count the calling kernel is
    /// monomorphized on (`C == grouped.layout().c()`). Returns the quantized
    /// threshold the kernel prunes with from the next block on.
    fn block<const C: usize>(&mut self, group: usize, block: usize, mask: u16) -> u8;
}

/// Closures are sinks that ignore `C` (recorders in tests and in the
/// shadow check).
impl<F: FnMut(usize, usize, u16) -> u8> BlockSink for F {
    #[inline]
    fn block<const C: usize>(&mut self, group: usize, block: usize, mask: u16) -> u8 {
        self(group, block, mask)
    }
}

/// Scans the whole grouped partition with `kernel`, handing every block
/// with survivors to `sink` in storage order.
pub(crate) fn scan_all<S: BlockSink>(
    kernel: ResolvedKernel,
    grouped: &GroupedCodes,
    tables: &ScanTables,
    threshold: u8,
    sink: &mut S,
) {
    dispatch(kernel, grouped, tables, threshold, sink);

    // Differential shadow execution (feature `checked-kernels`): on a
    // sampled subset of scans, re-run the partition with both the SIMD
    // kernel and the portable oracle under a frozen threshold and assert
    // the hand-off sequences are identical. The threshold is frozen because
    // the AVX2 pair kernel masks a block pair against one threshold
    // snapshot, so only static-threshold runs are defined to be
    // bit-identical (see `kernels_agree_under_dynamic_thresholds` for the
    // dynamic-threshold equivalence of the SSSE3 kernel).
    #[cfg(all(target_arch = "x86_64", feature = "avx2", feature = "checked-kernels"))]
    if kernel != ResolvedKernel::Portable && crate::checked::should_check() {
        let record = |kernel: ResolvedKernel| {
            let mut blocks = Vec::new();
            dispatch(kernel, grouped, tables, threshold, &mut |g, b, mask| {
                blocks.push((g, b, mask));
                threshold
            });
            blocks
        };
        let name = match kernel {
            ResolvedKernel::Avx2 => "fastscan.avx2",
            _ => "fastscan.ssse3",
        };
        crate::checked::assert_blocks_match(
            name,
            &record(kernel),
            &record(ResolvedKernel::Portable),
        );
    }
}

/// Instantiates the kernels for the layout's grouping count.
fn dispatch<S: BlockSink>(
    kernel: ResolvedKernel,
    grouped: &GroupedCodes,
    tables: &ScanTables,
    threshold: u8,
    sink: &mut S,
) {
    match grouped.layout().c() {
        0 => scan_all_c::<0, S>(kernel, grouped, tables, threshold, sink),
        1 => scan_all_c::<1, S>(kernel, grouped, tables, threshold, sink),
        2 => scan_all_c::<2, S>(kernel, grouped, tables, threshold, sink),
        3 => scan_all_c::<3, S>(kernel, grouped, tables, threshold, sink),
        4 => scan_all_c::<4, S>(kernel, grouped, tables, threshold, sink),
        c => unreachable!("grouping is defined for c <= 4, got {c}"),
    }
}

/// `C` must equal `grouped.layout().c()` (which [`dispatch`] passes).
fn scan_all_c<const C: usize, S: BlockSink>(
    kernel: ResolvedKernel,
    grouped: &GroupedCodes,
    tables: &ScanTables,
    threshold: u8,
    sink: &mut S,
) {
    match kernel {
        ResolvedKernel::Portable => scan_all_portable::<C, S>(grouped, tables, threshold, sink),
        #[cfg(all(target_arch = "x86_64", feature = "avx2"))]
        // SAFETY: the SIMD variants of `ResolvedKernel` only come out of
        // `Kernel::resolve`, which detected SSSE3 on this CPU.
        ResolvedKernel::Ssse3 => unsafe {
            x86::scan_all_ssse3::<C, S>(grouped, tables, threshold, sink)
        },
        #[cfg(all(target_arch = "x86_64", feature = "avx2"))]
        // SAFETY: as above, with AVX2 detected.
        ResolvedKernel::Avx2 => unsafe {
            x86::scan_all_avx2::<C, S>(grouped, tables, threshold, sink)
        },
    }
}

/// Candidate bitmask of one block, portable reference: bit `lane` is set
/// when the saturated lower bound of that lane is `<= threshold` (the
/// vector survives pruning).
fn block_mask_portable(
    c: usize,
    block: &[u8],
    small: &[[u8; PORTION]; FS_M],
    threshold: u8,
) -> u16 {
    let pairs = c / 2;
    let odd = c % 2 == 1;
    let mut mask = 0u16;
    for lane in 0..FS_BLOCK {
        let mut acc = 0u8;
        let mut array = 0usize;
        for p in 0..pairs {
            let byte = block[array * FS_BLOCK + lane];
            array += 1;
            acc = acc.saturating_add(small[2 * p][(byte & 0x0F) as usize]);
            acc = acc.saturating_add(small[2 * p + 1][(byte >> 4) as usize]);
        }
        if odd {
            let byte = block[array * FS_BLOCK + lane];
            array += 1;
            acc = acc.saturating_add(small[c - 1][(byte & 0x0F) as usize]);
        }
        for j in c..FS_M {
            let byte = block[array * FS_BLOCK + lane];
            array += 1;
            acc = acc.saturating_add(small[j][(byte >> 4) as usize]);
        }
        if acc <= threshold {
            mask |= 1 << lane;
        }
    }
    mask
}

/// The portable kernel: scalar emulation of the SSSE3 one, block for block.
fn scan_all_portable<const C: usize, S: BlockSink>(
    grouped: &GroupedCodes,
    tables: &ScanTables,
    mut threshold: u8,
    sink: &mut S,
) {
    let mut small = tables.small;
    for (gi, g) in grouped.groups().iter().enumerate() {
        for j in 0..C {
            let portion = g.key[j] as usize * PORTION;
            small[j].copy_from_slice(&tables.grouped[j][portion..portion + PORTION]);
        }
        let blocks = grouped.group_blocks(g).chunks_exact(bytes_per_block(C));
        for (b, block) in blocks.enumerate() {
            let valid = (g.len - b * FS_BLOCK).min(FS_BLOCK);
            let mask =
                block_mask_portable(C, block, &small, threshold) & (u16::MAX >> (16 - valid));
            if mask != 0 {
                threshold = sink.block::<C>(gi, b, mask);
            }
        }
    }
}

#[cfg(all(target_arch = "x86_64", feature = "avx2"))]
mod x86 {
    //! The SSSE3 implementation (the paper's actual kernel) and its AVX2
    //! widening, monomorphized on the grouping-component count `C`.

    use super::*;
    use std::arch::x86_64::*;

    /// Candidate bitmask of one block — SSSE3, unrolled for constant `C`.
    ///
    /// # Safety
    ///
    /// CPU must support SSSE3 and `block` must point at
    /// `bytes_per_block(C)` readable bytes.
    #[target_feature(enable = "ssse3")]
    #[inline]
    unsafe fn block_mask_ssse3<const C: usize>(
        block: *const u8,
        regs: &[__m128i; FS_M],
        threshold_vec: __m128i,
    ) -> u16 {
        let low = _mm_set1_epi8(0x0F);
        let mut acc = _mm_setzero_si128();
        let mut array = 0usize;

        // `array` counts component arrays already consumed; it stays
        // strictly below `C/2 + C%2 + (FS_M - C)`, so every unaligned
        // 16-byte load below reads inside the `bytes_per_block(C)` bytes
        // the caller guarantees.

        // Packed pairs of grouped components (low nibble = even component,
        // high nibble = odd component).
        for p in 0..C / 2 {
            // SAFETY: in-bounds unaligned load, see `array` invariant above.
            let bytes = unsafe { _mm_loadu_si128(block.add(array * FS_BLOCK) as *const __m128i) };
            array += 1;
            let lo = _mm_and_si128(bytes, low);
            acc = _mm_adds_epu8(acc, _mm_shuffle_epi8(regs[2 * p], lo));
            let hi = _mm_and_si128(_mm_srli_epi16::<4>(bytes), low);
            acc = _mm_adds_epu8(acc, _mm_shuffle_epi8(regs[2 * p + 1], hi));
        }
        // Unpaired grouped component (odd C).
        if C % 2 == 1 {
            // SAFETY: in-bounds unaligned load, see `array` invariant above.
            let bytes = unsafe { _mm_loadu_si128(block.add(array * FS_BLOCK) as *const __m128i) };
            array += 1;
            let lo = _mm_and_si128(bytes, low);
            acc = _mm_adds_epu8(acc, _mm_shuffle_epi8(regs[C - 1], lo));
        }
        // Ungrouped components: full bytes, high nibble indexes the minimum
        // table.
        for j in C..FS_M {
            // SAFETY: in-bounds unaligned load, see `array` invariant above.
            let bytes = unsafe { _mm_loadu_si128(block.add(array * FS_BLOCK) as *const __m128i) };
            array += 1;
            let hi = _mm_and_si128(_mm_srli_epi16::<4>(bytes), low);
            acc = _mm_adds_epu8(acc, _mm_shuffle_epi8(regs[j], hi));
        }

        // Unsigned `acc <= threshold` as min(acc, t) == acc.
        let cand = _mm_cmpeq_epi8(_mm_min_epu8(acc, threshold_vec), acc);
        _mm_movemask_epi8(cand) as u16
    }

    /// One unaligned 128-bit load of the first 16 bytes of `table`: a small
    /// table, or the start of a portion of a quantized full table.
    #[inline]
    fn load_table(table: &[u8]) -> __m128i {
        let table = &table[..PORTION];
        // SAFETY: `table` is 16 readable bytes, and `_mm_loadu_si128` is
        // SSE2, which every x86_64 CPU has.
        unsafe { _mm_loadu_si128(table.as_ptr() as *const __m128i) }
    }

    /// SSSE3 whole-partition scan; same contract as
    /// [`scan_all_portable`](super::scan_all_portable).
    ///
    /// # Safety
    ///
    /// CPU must support SSSE3. (`C` must be `grouped.layout().c()`, the
    /// layout the codes were packed for, or the results are wrong; memory
    /// safety does not depend on it, the group's byte length is asserted.)
    #[target_feature(enable = "ssse3")]
    pub(crate) unsafe fn scan_all_ssse3<const C: usize, S: BlockSink>(
        grouped: &GroupedCodes,
        tables: &ScanTables,
        threshold: u8,
        sink: &mut S,
    ) {
        // Minimum tables: loaded once, resident for the entire scan.
        let mut regs = [_mm_setzero_si128(); FS_M];
        for j in C..FS_M {
            regs[j] = load_table(&tables.small[j]);
        }
        let mut tvec = _mm_set1_epi8(threshold as i8);
        let bpb = bytes_per_block(C);

        for (gi, g) in grouped.groups().iter().enumerate() {
            // Portion registers for this group (Figure 13, solid arrows).
            for j in 0..C {
                regs[j] = load_table(&tables.grouped[j][g.key[j] as usize * PORTION..]);
            }
            let blocks = grouped.group_blocks(g);
            assert!(
                blocks.len() >= g.num_blocks() * bpb,
                "kernel/layout c mismatch"
            );
            let base = blocks.as_ptr();
            let full_blocks = g.len / FS_BLOCK;

            // Hot loop over full blocks.
            for b in 0..full_blocks {
                // SAFETY: SSSE3 is a caller precondition; `blocks` holds
                // `num_blocks()` blocks of `bpb` bytes (asserted above) and
                // `b < full_blocks <= num_blocks()`, so the block pointer
                // covers `bytes_per_block(C)` readable bytes.
                let mask = unsafe { block_mask_ssse3::<C>(base.add(b * bpb), &regs, tvec) };
                if mask != 0 {
                    tvec = _mm_set1_epi8(sink.block::<C>(gi, b, mask) as i8);
                }
            }
            // Ragged tail block: the padding lanes are masked out.
            let tail = g.len % FS_BLOCK;
            if tail != 0 {
                // SAFETY: as above; a ragged tail means `num_blocks() ==
                // full_blocks + 1`, so block `full_blocks` is in range.
                let mask =
                    unsafe { block_mask_ssse3::<C>(base.add(full_blocks * bpb), &regs, tvec) }
                        & ((1u16 << tail) - 1);
                if mask != 0 {
                    tvec = _mm_set1_epi8(sink.block::<C>(gi, full_blocks, mask) as i8);
                }
            }
        }
    }

    /// Candidate bitmask of **two adjacent blocks** — AVX2: each small
    /// table is broadcast to both 128-bit lanes, each 256-bit load fetches
    /// the same component array of block `b` (low lane) and block `b+1`
    /// (high lane). Bits 0–15 of the result are block `b`, bits 16–31
    /// block `b+1`.
    ///
    /// # Safety
    ///
    /// CPU must support AVX2 and `block` must point at
    /// `2 × bytes_per_block(C)` readable bytes.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn block_pair_mask_avx2<const C: usize>(
        block: *const u8,
        regs: &[__m256i; FS_M],
        threshold_vec: __m256i,
    ) -> u32 {
        let bpb = bytes_per_block(C);
        let low = _mm256_set1_epi8(0x0F);
        let mut acc = _mm256_setzero_si256();
        let mut array = 0usize;

        // One 256-bit vector = array `k` of block b (low) and b+1 (high).
        // The caller guarantees `block` points at `2 * bytes_per_block(C)`
        // readable bytes and `array` stays below `bpb / FS_BLOCK`, so both
        // unaligned 16-byte loads are in bounds.
        let load_pair = |array: usize| -> __m256i {
            // SAFETY: offset `array * FS_BLOCK` is inside the first block.
            let lo = unsafe { _mm_loadu_si128(block.add(array * FS_BLOCK) as *const __m128i) };
            // SAFETY: offset `bpb + array * FS_BLOCK` is inside the second.
            let hi =
                unsafe { _mm_loadu_si128(block.add(bpb + array * FS_BLOCK) as *const __m128i) };
            _mm256_set_m128i(hi, lo)
        };

        for p in 0..C / 2 {
            let bytes = load_pair(array);
            array += 1;
            let lo = _mm256_and_si256(bytes, low);
            acc = _mm256_adds_epu8(acc, _mm256_shuffle_epi8(regs[2 * p], lo));
            let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(bytes), low);
            acc = _mm256_adds_epu8(acc, _mm256_shuffle_epi8(regs[2 * p + 1], hi));
        }
        if C % 2 == 1 {
            let bytes = load_pair(array);
            array += 1;
            let lo = _mm256_and_si256(bytes, low);
            acc = _mm256_adds_epu8(acc, _mm256_shuffle_epi8(regs[C - 1], lo));
        }
        for j in C..FS_M {
            let bytes = load_pair(array);
            array += 1;
            let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(bytes), low);
            acc = _mm256_adds_epu8(acc, _mm256_shuffle_epi8(regs[j], hi));
        }

        let cand = _mm256_cmpeq_epi8(_mm256_min_epu8(acc, threshold_vec), acc);
        _mm256_movemask_epi8(cand) as u32
    }

    /// AVX2 whole-partition scan; returns exactly the same neighbors as the
    /// other kernels (blocks are handed off in the same order; only the
    /// pruning statistics may differ marginally, because a block pair is
    /// masked against a single threshold snapshot).
    ///
    /// # Safety
    ///
    /// CPU must support AVX2. (`C` must be `grouped.layout().c()`, as for
    /// [`scan_all_ssse3`].)
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn scan_all_avx2<const C: usize, S: BlockSink>(
        grouped: &GroupedCodes,
        tables: &ScanTables,
        mut threshold: u8,
        sink: &mut S,
    ) {
        // 128-bit registers for the single-block path and their 256-bit
        // broadcasts for the pair path.
        let mut regs128 = [_mm_setzero_si128(); FS_M];
        let mut regs256 = [_mm256_setzero_si256(); FS_M];
        for j in C..FS_M {
            regs128[j] = load_table(&tables.small[j]);
            regs256[j] = _mm256_broadcastsi128_si256(regs128[j]);
        }
        let mut tvec128 = _mm_set1_epi8(threshold as i8);
        let mut tvec256 = _mm256_set1_epi8(threshold as i8);
        let bpb = bytes_per_block(C);

        for (gi, g) in grouped.groups().iter().enumerate() {
            for j in 0..C {
                regs128[j] = load_table(&tables.grouped[j][g.key[j] as usize * PORTION..]);
                regs256[j] = _mm256_broadcastsi128_si256(regs128[j]);
            }
            let blocks = grouped.group_blocks(g);
            assert!(
                blocks.len() >= g.num_blocks() * bpb,
                "kernel/layout c mismatch"
            );
            let base = blocks.as_ptr();
            let full_blocks = g.len / FS_BLOCK;
            let paired = full_blocks & !1;

            // Two full blocks per iteration.
            for b in (0..paired).step_by(2) {
                // SAFETY: AVX2 is a caller precondition; `blocks` holds
                // `num_blocks()` blocks of `bpb` bytes (asserted above) and
                // `b + 1 < paired <= num_blocks()`, so the pointer covers
                // `2 * bytes_per_block(C)` readable bytes.
                let mask =
                    unsafe { block_pair_mask_avx2::<C>(base.add(b * bpb), &regs256, tvec256) };
                if mask != 0 {
                    if mask as u16 != 0 {
                        threshold = sink.block::<C>(gi, b, mask as u16);
                    }
                    if mask >> 16 != 0 {
                        threshold = sink.block::<C>(gi, b + 1, (mask >> 16) as u16);
                    }
                    tvec128 = _mm_set1_epi8(threshold as i8);
                    tvec256 = _mm256_set1_epi8(threshold as i8);
                }
            }
            // Odd full block, then the ragged tail: 128-bit path.
            for b in paired..g.num_blocks() {
                // SAFETY: AVX2 implies SSSE3; `b < num_blocks()`, so the
                // block pointer covers `bytes_per_block(C)` readable bytes
                // (length asserted above).
                let mut mask =
                    unsafe { block_mask_ssse3::<C>(base.add(b * bpb), &regs128, tvec128) };
                if b == full_blocks {
                    // Only a ragged tail reaches past the full blocks, so
                    // `len % 16 != 0` here: mask out the padding lanes.
                    mask &= (1u16 << (g.len % FS_BLOCK)) - 1;
                }
                if mask != 0 {
                    threshold = sink.block::<C>(gi, b, mask);
                    tvec128 = _mm_set1_epi8(threshold as i8);
                    tvec256 = _mm256_set1_epi8(threshold as i8);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqfs_core::RowMajorCodes;

    fn sample_tables(c: usize, seed: u8) -> ScanTables {
        let mut small = [[0u8; PORTION]; FS_M];
        for (j, table) in small.iter_mut().enumerate() {
            for (i, slot) in table.iter_mut().enumerate() {
                *slot = ((i * 17 + j * 31 + seed as usize * 7) % 93) as u8;
            }
        }
        let grouped = (0..c)
            .map(|j| {
                (0..256)
                    .map(|i| ((i * 13 + j * 59 + seed as usize * 3) % 97) as u8)
                    .collect::<Vec<u8>>()
            })
            .collect();
        ScanTables { grouped, small }
    }

    fn sample_grouped(n: usize, c: usize) -> GroupedCodes {
        let bytes: Vec<u8> = (0..n * FS_M).map(|i| ((i * 41 + 5) % 256) as u8).collect();
        GroupedCodes::build(&RowMajorCodes::new(bytes, FS_M), c)
    }

    /// Oracle: lower bound of one vector from its reconstructed code and
    /// the logical small tables (portions + minimum tables).
    fn oracle_bound(grouped: &GroupedCodes, tables: &ScanTables, g: usize, idx: usize) -> u8 {
        let c = grouped.layout().c();
        let meta = grouped.groups()[g];
        let code = grouped.read_code(&meta, idx);
        let mut acc = 0u8;
        for (j, &byte) in code.iter().enumerate() {
            let v = if j < c {
                tables.grouped[j][byte as usize]
            } else {
                tables.small[j][(byte >> 4) as usize]
            };
            acc = acc.saturating_add(v);
        }
        acc
    }

    type Blocks = Vec<(usize, usize, u16)>;

    /// The hand-off sequence of one scan under the frozen threshold `t`.
    fn collect_blocks(
        kernel: ResolvedKernel,
        grouped: &GroupedCodes,
        tables: &ScanTables,
        t: u8,
    ) -> Blocks {
        let mut blocks = Blocks::new();
        scan_all(kernel, grouped, tables, t, &mut |g, b, mask| {
            blocks.push((g, b, mask));
            t
        });
        blocks
    }

    /// The resolved SIMD back-end, or `None` (test skipped) without it.
    #[cfg(all(target_arch = "x86_64", feature = "avx2"))]
    fn simd(kernel: Kernel) -> Option<ResolvedKernel> {
        let resolved = kernel.resolve().ok();
        if resolved.is_none() {
            eprintln!("skipping: no {kernel:?}");
        }
        resolved
    }

    #[test]
    fn portable_scan_matches_per_vector_oracle() {
        for c in [0usize, 1, 2, 3, 4] {
            let grouped = sample_grouped(600, c);
            let tables = sample_tables(c, c as u8);
            for t in [0u8, 40, 90, 200, 255] {
                let blocks = collect_blocks(ResolvedKernel::Portable, &grouped, &tables, t);
                assert!(blocks.iter().all(|&(_, _, mask)| mask != 0));
                let mut handed = blocks.iter().peekable();
                for (gi, g) in grouped.groups().iter().enumerate() {
                    for b in 0..g.num_blocks() {
                        let mask = handed
                            .next_if(|&&(hg, hb, _)| (hg, hb) == (gi, b))
                            .map_or(0, |&(_, _, mask)| mask);
                        for lane in 0..FS_BLOCK {
                            let idx = b * FS_BLOCK + lane;
                            // The oracle uses the *exact* quantized entry
                            // for grouped components, which equals the
                            // portion value the kernel looks up. Padding
                            // lanes must never be handed off.
                            let survives =
                                idx < g.len && oracle_bound(&grouped, &tables, gi, idx) <= t;
                            assert_eq!(
                                mask >> lane & 1 == 1,
                                survives,
                                "c={c} t={t} g={gi} idx={idx}"
                            );
                        }
                    }
                }
                assert!(handed.next().is_none(), "hand-off out of storage order");
            }
        }
    }

    #[cfg(all(target_arch = "x86_64", feature = "avx2"))]
    #[test]
    fn simd_scans_match_portable_under_static_threshold() {
        // With a static threshold the pair kernel's masks decompose into
        // exactly the per-block masks: full equality of hand-off sequences.
        for kernel in [Kernel::Ssse3, Kernel::Avx2] {
            let Some(resolved) = simd(kernel) else {
                continue;
            };
            for c in [0usize, 1, 2, 3, 4] {
                for n in [15usize, 16, 31, 32, 33, 40, 700] {
                    let grouped = sample_grouped(n, c);
                    let tables = sample_tables(c, c as u8 + 11);
                    for t in [0u8, 1, 63, 128, 254, 255] {
                        assert_eq!(
                            collect_blocks(ResolvedKernel::Portable, &grouped, &tables, t),
                            collect_blocks(resolved, &grouped, &tables, t),
                            "{kernel:?} c={c} n={n} t={t}"
                        );
                    }
                }
            }
        }
    }

    #[cfg(all(target_arch = "x86_64", feature = "avx2"))]
    #[test]
    fn kernels_agree_under_dynamic_thresholds() {
        let Some(ssse3) = simd(Kernel::Ssse3) else {
            return;
        };
        let grouped = sample_grouped(900, 4);
        let tables = sample_tables(4, 5);
        let run = |kernel: ResolvedKernel| -> Blocks {
            let mut t = 255u8;
            let mut blocks = Blocks::new();
            scan_all(kernel, &grouped, &tables, 255, &mut |g, b, mask| {
                blocks.push((g, b, mask));
                t = t.saturating_sub(16);
                t
            });
            blocks
        };
        assert_eq!(run(ResolvedKernel::Portable), run(ssse3));
    }

    #[test]
    fn threshold_zero_with_nonzero_tables_prunes_everything() {
        let grouped = sample_grouped(200, 4);
        let mut tables = sample_tables(4, 2);
        for table in &mut tables.grouped {
            for v in table.iter_mut() {
                *v = (*v).max(1);
            }
        }
        for table in &mut tables.small {
            for v in table.iter_mut() {
                *v = (*v).max(1);
            }
        }
        assert!(collect_blocks(ResolvedKernel::Portable, &grouped, &tables, 0).is_empty());
    }

    #[test]
    fn kernel_resolution() {
        assert!(Kernel::Auto.resolve().is_ok());
        assert_eq!(
            Kernel::Portable.resolve().unwrap(),
            ResolvedKernel::Portable
        );
        #[cfg(all(target_arch = "x86_64", feature = "avx2"))]
        {
            if std::arch::is_x86_feature_detected!("ssse3") {
                assert_eq!(Kernel::Ssse3.resolve().unwrap(), ResolvedKernel::Ssse3);
            }
        }
    }
}
