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
//! oracle. An x86-64 build always contains the SIMD kernels, and
//! [`Kernel::Auto`] picks one from the running CPU; every other target has
//! the portable kernel only.
//!
//! **Traversal.** Every kernel visits the partition through `traverse`:
//! the runs of the grouped layout in the caller's order, nearest to the query
//! first, passing over each run and group whose quantized lower bound
//! (`GroupBounds`) is above the threshold of the moment — its blocks would
//! all mask to zero, and none of its code is read (docs/FASTSCAN.md §6).
//!
//! **Second bound.** The minimum tables exist because `pshufb` holds 16
//! entries. The `Avx512Vbmi` kernel is the AVX2 kernel plus one step: a block
//! the first bound lets through is bounded again with each ungrouped
//! component looked up in its whole 256-entry quantized table, and only the
//! lanes that pass both bounds are handed over (docs/FASTSCAN.md §7). The
//! portable kernel has the same mode as that kernel's oracle.
//!
//! **Hand-off.** A kernel never looks at a survivor itself. Each block whose
//! mask is non-zero goes to a `BlockSink` as `(group, block, lane mask)`,
//! once, together with the kernel's own `C`; the sink verifies the masked
//! lanes and returns the quantized threshold to prune the following blocks
//! with (docs/FASTSCAN.md §3). `scan_all` is the one
//! entry point: it picks the `C` instantiation and the back-end, and when
//! `PQFS_CHECK_RATE` is set shadow-runs the portable oracle
//! ([`crate::checked`]).

// The kernels index fixed-size register arrays with the component number
// `j`; explicit `j in c..FS_M` loops mirror the paper's per-component
// notation and keep the grouped/min-table split visible.
#![allow(clippy::needless_range_loop)]

use crate::fastscan::grouping::{GroupKey, GroupMeta, GroupedCodes};
use crate::fastscan::layout::{bytes_per_block, FS_BLOCK, FS_M, PORTION};
use crate::ScanError;
use std::ops::Range;

/// Kernel back-end selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Pick the fastest back-end supported by the running CPU
    /// (AVX-512 VBMI → AVX2 → SSSE3 → portable).
    #[default]
    Auto,
    /// The scalar emulation (available everywhere; test oracle).
    Portable,
    /// The SSSE3 `pshufb` kernel the paper describes.
    Ssse3,
    /// Extension: 256-bit kernel processing two blocks (32 codes) per
    /// iteration with the small tables broadcast to both 128-bit lanes —
    /// the step the paper's §6 anticipates for wider SIMD. Returns the
    /// exact same neighbors and passes over the same groups; `verified` may
    /// differ marginally because a block pair shares one threshold snapshot.
    Avx2,
    /// Extension: the AVX2 kernel with a second bound. Every block the
    /// `pshufb` bound lets through is bounded again with the ungrouped
    /// components looked up in their whole 256-entry quantized tables, four
    /// `zmm` registers each (`vpermi2b`), and only the lanes that pass both
    /// are handed over (docs/FASTSCAN.md §7). Needs AVX2 and AVX-512 BW, VL
    /// and VBMI. Same neighbors, same groups passed over; `verified` is
    /// several times lower than under the minimum-table kernels.
    Avx512Vbmi,
}

/// A concrete back-end after CPU-feature resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResolvedKernel {
    Portable,
    /// The portable kernel bounding the ungrouped components by their full
    /// tables: the oracle of `Avx512Vbmi`, which no [`Kernel`] resolves to.
    #[cfg_attr(not(any(test, target_arch = "x86_64")), allow(dead_code))]
    PortableFull,
    #[cfg(target_arch = "x86_64")]
    Ssse3,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512Vbmi,
}

impl ResolvedKernel {
    /// Whether the kernel bounds the ungrouped components a second time by
    /// their full quantized tables, so that [`ScanTables::full`] must hold
    /// all eight.
    pub(crate) fn refines(self) -> bool {
        match self {
            ResolvedKernel::PortableFull => true,
            #[cfg(target_arch = "x86_64")]
            ResolvedKernel::Avx512Vbmi => true,
            _ => false,
        }
    }

    /// The portable kernel that hands over the same blocks and masks under a
    /// frozen threshold.
    #[cfg(any(test, target_arch = "x86_64"))]
    fn oracle(self) -> ResolvedKernel {
        if self.refines() {
            ResolvedKernel::PortableFull
        } else {
            ResolvedKernel::Portable
        }
    }
}

/// AVX2 plus the AVX-512 subsets the refining kernel uses.
#[cfg(target_arch = "x86_64")]
fn has_avx512vbmi() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
        && std::arch::is_x86_feature_detected!("avx512vl")
        && std::arch::is_x86_feature_detected!("avx512vbmi")
}

impl Kernel {
    /// The back-end a scan with this selection runs on: `Auto` replaced by
    /// what it picks on this CPU, any other selection itself.
    ///
    /// # Errors
    ///
    /// [`ScanError::KernelUnavailable`] when an explicitly requested SIMD
    /// back-end is unsupported.
    pub fn resolved(self) -> Result<Kernel, ScanError> {
        Ok(match self.resolve()? {
            ResolvedKernel::Portable | ResolvedKernel::PortableFull => Kernel::Portable,
            #[cfg(target_arch = "x86_64")]
            ResolvedKernel::Ssse3 => Kernel::Ssse3,
            #[cfg(target_arch = "x86_64")]
            ResolvedKernel::Avx2 => Kernel::Avx2,
            #[cfg(target_arch = "x86_64")]
            ResolvedKernel::Avx512Vbmi => Kernel::Avx512Vbmi,
        })
    }

    /// Resolves against the running CPU.
    ///
    /// # Errors
    ///
    /// [`ScanError::KernelUnavailable`] when an explicitly requested SIMD
    /// back-end is unsupported.
    pub(crate) fn resolve(self) -> Result<ResolvedKernel, ScanError> {
        match self {
            Kernel::Auto => {
                #[cfg(target_arch = "x86_64")]
                {
                    if has_avx512vbmi() {
                        return Ok(ResolvedKernel::Avx512Vbmi);
                    }
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
                #[cfg(target_arch = "x86_64")]
                {
                    if std::arch::is_x86_feature_detected!("ssse3") {
                        return Ok(ResolvedKernel::Ssse3);
                    }
                }
                Err(ScanError::KernelUnavailable { kernel: "ssse3" })
            }
            Kernel::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    if std::arch::is_x86_feature_detected!("avx2") {
                        return Ok(ResolvedKernel::Avx2);
                    }
                }
                Err(ScanError::KernelUnavailable { kernel: "avx2" })
            }
            Kernel::Avx512Vbmi => {
                #[cfg(target_arch = "x86_64")]
                {
                    if has_avx512vbmi() {
                        return Ok(ResolvedKernel::Avx512Vbmi);
                    }
                }
                Err(ScanError::KernelUnavailable {
                    kernel: "avx512vbmi",
                })
            }
        }
    }
}

/// The per-query quantized tables a scan consumes.
#[derive(Debug, Clone, Default)]
pub(crate) struct ScanTables {
    /// The full 256-entry quantized tables, from component 0 up: those of
    /// the grouped components `j < c` (16-entry portions selected per
    /// group), and all eight for a kernel that
    /// [`refines`](ResolvedKernel::refines).
    pub full: Vec<Vec<u8>>,
    /// For each component: the 16-entry small table. Entries `c..8` hold
    /// the quantized minimum tables; entries `0..c` are unused (the kernels
    /// load the group's portions of `full` instead).
    pub small: [[u8; PORTION]; FS_M],
}

/// Receiver of the kernels' per-block hand-off.
pub(crate) trait BlockSink {
    /// Takes the survivors of block `block` of group `group`: bit `lane` of
    /// `mask` is set when the lower bound of that lane passed the threshold.
    /// `mask` is never zero and never names a padding lane of a ragged tail.
    /// `C` is the grouping-component count the calling kernel is
    /// monomorphized on (`C == grouped.layout().c()`). Returns the quantized
    /// threshold the kernel prunes with from the next block on. A group's
    /// blocks arrive ascending and back to back, groups in traversal order.
    fn block<const C: usize>(&mut self, group: usize, block: usize, mask: u16) -> u8;

    /// The traversal passed over `groups` (a run, or one group of a visited
    /// run) under the threshold last returned: no block of theirs follows.
    fn skip(&mut self, _groups: Range<usize>) {}
}

/// Closures are sinks that ignore `C` (recorders in tests and in the
/// shadow check).
impl<F: FnMut(usize, usize, u16) -> u8> BlockSink for F {
    #[inline]
    fn block<const C: usize>(&mut self, group: usize, block: usize, mask: u16) -> u8 {
        self(group, block, mask)
    }
}

/// Scans the grouped partition with `kernel`: the runs `order` lists (indices
/// into `grouped.runs()`, each at most once) in that order, every block with
/// survivors handed to `sink`, every run or group without one passed over.
pub(crate) fn scan_all<S: BlockSink>(
    kernel: ResolvedKernel,
    grouped: &GroupedCodes,
    tables: &ScanTables,
    order: &[u8],
    threshold: u8,
    sink: &mut S,
) {
    dispatch(kernel, grouped, tables, order, threshold, sink);

    #[cfg(target_arch = "x86_64")]
    if kernel != kernel.oracle() && crate::checked::should_check() {
        shadow_check(kernel, grouped, tables, order, threshold);
    }
}

/// Differential shadow execution ([`crate::checked`], off unless
/// `PQFS_CHECK_RATE` is set): re-runs the partition with both the SIMD
/// kernel and its portable oracle (same run order, same skip rule, the
/// full-table bound for a kernel that refines) under a frozen threshold and
/// asserts the hand-off sequences are identical. Frozen, because the pair
/// kernels mask a block pair against one threshold snapshot, so only
/// static-threshold runs are defined to be bit-identical (the unit tests
/// have the dynamic-threshold equivalence of the SSSE3 kernel).
#[cfg(target_arch = "x86_64")]
#[cold]
#[inline(never)]
fn shadow_check(
    kernel: ResolvedKernel,
    grouped: &GroupedCodes,
    tables: &ScanTables,
    order: &[u8],
    threshold: u8,
) {
    let record = |kernel: ResolvedKernel| {
        let mut blocks = Vec::new();
        let mut push = |g, b, mask| {
            blocks.push((g, b, mask));
            threshold
        };
        dispatch(kernel, grouped, tables, order, threshold, &mut push);
        blocks
    };
    let name = match kernel {
        ResolvedKernel::Avx512Vbmi => "fastscan.avx512vbmi",
        ResolvedKernel::Avx2 => "fastscan.avx2",
        _ => "fastscan.ssse3",
    };
    crate::checked::assert_blocks_match(name, &record(kernel), &record(kernel.oracle()));
}

/// Instantiates the kernels for the layout's grouping count.
fn dispatch<S: BlockSink>(
    kernel: ResolvedKernel,
    grouped: &GroupedCodes,
    tables: &ScanTables,
    order: &[u8],
    threshold: u8,
    sink: &mut S,
) {
    match grouped.layout().c() {
        0 => scan_all_c::<0, S>(kernel, grouped, tables, order, threshold, sink),
        1 => scan_all_c::<1, S>(kernel, grouped, tables, order, threshold, sink),
        2 => scan_all_c::<2, S>(kernel, grouped, tables, order, threshold, sink),
        3 => scan_all_c::<3, S>(kernel, grouped, tables, order, threshold, sink),
        4 => scan_all_c::<4, S>(kernel, grouped, tables, order, threshold, sink),
        c => unreachable!("grouping is defined for c <= 4, got {c}"),
    }
}

/// `C` must equal `grouped.layout().c()` (which [`dispatch`] passes).
fn scan_all_c<const C: usize, S: BlockSink>(
    kernel: ResolvedKernel,
    grouped: &GroupedCodes,
    tables: &ScanTables,
    order: &[u8],
    threshold: u8,
    sink: &mut S,
) {
    match kernel {
        ResolvedKernel::Portable | ResolvedKernel::PortableFull => {
            let full = kernel.refines();
            scan_all_portable::<C, S>(grouped, tables, order, threshold, sink, full)
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the SIMD variants of `ResolvedKernel` only come out of
        // `Kernel::resolve`, which detected SSSE3 on this CPU.
        ResolvedKernel::Ssse3 => unsafe {
            x86::scan_all_ssse3::<C, S>(grouped, tables, order, threshold, sink)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, with AVX2 detected.
        ResolvedKernel::Avx2 => unsafe {
            x86::scan_all_avx2::<C, S>(grouped, tables, order, threshold, sink)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, with AVX2 and AVX-512 F, BW, VL and VBMI detected.
        ResolvedKernel::Avx512Vbmi => unsafe {
            x86::scan_all_avx512vbmi::<C, S>(grouped, tables, order, threshold, sink)
        },
    }
}

/// Quantized lower bounds of whole groups and runs, from the very tables the
/// kernels look up: the saturating sum a lane accumulates, with each entry
/// replaced by the smallest its portion (or small table) holds. A group whose
/// bound is above the threshold has no lane at or below it — all its blocks
/// would mask to zero (docs/FASTSCAN.md §6).
struct GroupBounds<const C: usize> {
    /// `portion[j][p]`: the smallest entry of portion `p` of the quantized
    /// table of grouped component `j`.
    portion: [[u8; PORTION]; 4],
    /// Saturating sum of the smallest entries of `S_C … S_7`.
    tail: u8,
    /// `tail` plus the smallest entry of each grouped table beyond the run
    /// prefix: the least the groups of any run add to their prefix.
    beyond_prefix: u8,
}

impl<const C: usize> GroupBounds<C> {
    fn new(tables: &ScanTables) -> Self {
        let smallest = |entries: &[u8]| entries.iter().copied().fold(u8::MAX, u8::min);
        let mut portion = [[0u8; PORTION]; 4];
        for j in 0..C {
            for (min, entries) in portion[j].iter_mut().zip(tables.full[j].chunks(PORTION)) {
                *min = smallest(entries);
            }
        }
        let add = |sum: u8, min: u8| sum.saturating_add(min);
        let tail = (C..FS_M).fold(0, |sum, j| add(sum, smallest(&tables.small[j])));
        let beyond_prefix = (C.min(2)..C).fold(tail, |sum, j| add(sum, smallest(&portion[j])));
        GroupBounds {
            portion,
            tail,
            beyond_prefix,
        }
    }

    /// `from` plus what the first `components` nibbles of `key` add at least.
    #[inline]
    fn bound(&self, from: u8, key: &GroupKey, components: usize) -> u8 {
        (0..components).fold(from, |sum, j| {
            sum.saturating_add(self.portion[j][key[j] as usize])
        })
    }
}

/// The one walk over the partition, shared by the three kernels: runs in
/// `order`, groups of a run in storage order, `scan_group(index, metadata,
/// threshold, sink)` — the kernel's block loop, returning the threshold it
/// ended with — for each group that may hold a survivor, [`BlockSink::skip`]
/// for the others. `#[inline(always)]` makes the walk part of the calling
/// kernel and of its `#[target_feature]` context.
#[inline(always)]
fn traverse<const C: usize, S: BlockSink>(
    grouped: &GroupedCodes,
    tables: &ScanTables,
    order: &[u8],
    mut threshold: u8,
    sink: &mut S,
    mut scan_group: impl FnMut(usize, &GroupMeta, u8, &mut S) -> u8,
) {
    let bounds = GroupBounds::<C>::new(tables);
    let (groups, runs) = (grouped.groups(), grouped.runs());
    for &run in order {
        let run = runs[run as usize].start as usize..runs[run as usize].end as usize;
        // The whole run first (for `C <= 2` a run is one group and the two
        // bounds coincide), then group by group.
        let key = &groups[run.start].key;
        if C > 2 && bounds.bound(bounds.beyond_prefix, key, 2) > threshold {
            sink.skip(run);
            continue;
        }
        for gi in run {
            let g = &groups[gi];
            if bounds.bound(bounds.tail, &g.key, C) > threshold {
                sink.skip(gi..gi + 1);
            } else {
                threshold = scan_group(gi, g, threshold, sink);
            }
        }
    }
}

/// Candidate bitmask of one block, portable reference: bit `lane` is set
/// when the saturated lower bound of that lane is `<= threshold` (the
/// vector survives pruning). An ungrouped component adds the minimum of its
/// portion, or with `full` tables its own entry: the second bound of the
/// refining kernel, lane for lane at or above the first.
fn block_mask_portable(
    c: usize,
    block: &[u8],
    small: &[[u8; PORTION]; FS_M],
    full: Option<&[Vec<u8>]>,
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
            acc = acc.saturating_add(match full {
                Some(full) => full[j][byte as usize],
                None => small[j][(byte >> 4) as usize],
            });
        }
        if acc <= threshold {
            mask |= 1 << lane;
        }
    }
    mask
}

/// The portable kernel: scalar emulation of the SSSE3 one, block for block,
/// or with `full` of the refining one.
fn scan_all_portable<const C: usize, S: BlockSink>(
    grouped: &GroupedCodes,
    tables: &ScanTables,
    order: &[u8],
    threshold: u8,
    sink: &mut S,
    full: bool,
) {
    let full = full.then_some(&tables.full[..]);
    let mut small = tables.small;
    let scan_group = |gi: usize, g: &GroupMeta, mut threshold: u8, sink: &mut S| {
        for j in 0..C {
            let portion = g.key[j] as usize * PORTION;
            small[j].copy_from_slice(&tables.full[j][portion..portion + PORTION]);
        }
        let blocks = grouped.group_blocks(g).chunks_exact(bytes_per_block(C));
        for (b, block) in blocks.enumerate() {
            let valid = (g.len - b * FS_BLOCK).min(FS_BLOCK);
            let mask =
                block_mask_portable(C, block, &small, full, threshold) & (u16::MAX >> (16 - valid));
            if mask != 0 {
                threshold = sink.block::<C>(gi, b, mask);
            }
        }
        threshold
    };
    traverse::<C, S>(grouped, tables, order, threshold, sink, scan_group);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The SSSE3 implementation (the paper's actual kernel) and its AVX2
    //! widening, monomorphized on the grouping-component count `C`.

    use super::*;
    use crate::fastscan::layout::KSUB;
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
        order: &[u8],
        threshold: u8,
        sink: &mut S,
    ) {
        // Minimum tables: loaded once, resident for the entire scan.
        let mut regs = [_mm_setzero_si128(); FS_M];
        for j in C..FS_M {
            regs[j] = load_table(&tables.small[j]);
        }
        let bpb = bytes_per_block(C);

        let scan_group = |gi: usize, g: &GroupMeta, mut threshold: u8, sink: &mut S| {
            let mut tvec = _mm_set1_epi8(threshold as i8);
            // Portion registers for this group (Figure 13, solid arrows).
            for j in 0..C {
                regs[j] = load_table(&tables.full[j][g.key[j] as usize * PORTION..]);
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
                    threshold = sink.block::<C>(gi, b, mask);
                    tvec = _mm_set1_epi8(threshold as i8);
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
                    threshold = sink.block::<C>(gi, full_blocks, mask);
                }
            }
            threshold
        };
        traverse::<C, S>(grouped, tables, order, threshold, sink, scan_group);
    }

    /// Component array `array` of two blocks as one vector: block `lo` in
    /// the low 128-bit lane, block `hi` in the high one.
    ///
    /// # Safety
    ///
    /// CPU must support AVX2, and `lo` and `hi` must each point at
    /// `(array + 1) * FS_BLOCK` readable bytes.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load_pair(lo: *const u8, hi: *const u8, array: usize) -> __m256i {
        // SAFETY: the caller guarantees 16 readable bytes at this offset of
        // block `lo`...
        let lo = unsafe { _mm_loadu_si128(lo.add(array * FS_BLOCK) as *const __m128i) };
        // SAFETY: ...and of block `hi`.
        let hi = unsafe { _mm_loadu_si128(hi.add(array * FS_BLOCK) as *const __m128i) };
        _mm256_set_m128i(hi, lo)
    }

    /// What the grouped components add to the 32 lower bounds of two blocks:
    /// the saturating sum of their portion lookups, from the blocks' first
    /// `(C + 1) / 2` component arrays.
    ///
    /// # Safety
    ///
    /// CPU must support AVX2, and `lo` and `hi` must each point at
    /// `bytes_per_block(C)` readable bytes.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn grouped_pair_sum<const C: usize>(
        lo: *const u8,
        hi: *const u8,
        regs: &[__m256i; FS_M],
    ) -> __m256i {
        let low = _mm256_set1_epi8(0x0F);
        let mut acc = _mm256_setzero_si256();
        for p in 0..C / 2 {
            // SAFETY: array `p < C / 2` is inside `bytes_per_block(C)`.
            let bytes = unsafe { load_pair(lo, hi, p) };
            let even = _mm256_and_si256(bytes, low);
            acc = _mm256_adds_epu8(acc, _mm256_shuffle_epi8(regs[2 * p], even));
            let odd = _mm256_and_si256(_mm256_srli_epi16::<4>(bytes), low);
            acc = _mm256_adds_epu8(acc, _mm256_shuffle_epi8(regs[2 * p + 1], odd));
        }
        if C % 2 == 1 {
            // SAFETY: array `C / 2` holds the unpaired grouped component.
            let bytes = unsafe { load_pair(lo, hi, C / 2) };
            let last = _mm256_and_si256(bytes, low);
            acc = _mm256_adds_epu8(acc, _mm256_shuffle_epi8(regs[C - 1], last));
        }
        acc
    }

    /// Lanes of `acc` at or below the threshold, as a bitmask: unsigned
    /// `acc <= threshold` as `min(acc, t) == acc`.
    ///
    /// # Safety
    ///
    /// CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn pair_mask(acc: __m256i, threshold_vec: __m256i) -> u32 {
        let cand = _mm256_cmpeq_epi8(_mm256_min_epu8(acc, threshold_vec), acc);
        _mm256_movemask_epi8(cand) as u32
    }

    /// Candidate bitmask of **two blocks** — AVX2: each small table is
    /// broadcast to both 128-bit lanes, each 256-bit vector holds the same
    /// component array of block `lo` (low lane) and block `hi` (high lane).
    /// Bits 0–15 of the result are block `lo`, bits 16–31 block `hi`.
    ///
    /// # Safety
    ///
    /// CPU must support AVX2, and `lo` and `hi` must each point at
    /// `bytes_per_block(C)` readable bytes.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn block_pair_mask_avx2<const C: usize>(
        lo: *const u8,
        hi: *const u8,
        regs: &[__m256i; FS_M],
        threshold_vec: __m256i,
    ) -> u32 {
        let low = _mm256_set1_epi8(0x0F);
        // SAFETY: the caller's contract is this function's.
        let mut acc = unsafe { grouped_pair_sum::<C>(lo, hi, regs) };
        for j in C..FS_M {
            // SAFETY: the ungrouped components follow the `(C + 1) / 2`
            // grouped arrays, one array each, `bytes_per_block(C)` in all.
            let bytes = unsafe { load_pair(lo, hi, C.div_ceil(2) + j - C) };
            let portion = _mm256_and_si256(_mm256_srli_epi16::<4>(bytes), low);
            acc = _mm256_adds_epu8(acc, _mm256_shuffle_epi8(regs[j], portion));
        }
        pair_mask(acc, threshold_vec)
    }

    /// The second bound of two blocks — AVX-512 VBMI (docs/FASTSCAN.md §7):
    /// the grouped components as in [`block_pair_mask_avx2`], each ungrouped
    /// component looked up in its whole quantized table `full[j]`. The 256
    /// entries fill four `zmm` registers; `vpermi2b` picks from the lower
    /// and from the upper two by the index's low seven bits, and the
    /// index's top bit decides between the halves. Only the low 32 lanes
    /// carry vectors. Same bit order as [`block_pair_mask_avx2`], and lane
    /// for lane a subset of its mask, a table entry being at or above its
    /// portion's minimum.
    ///
    /// # Safety
    ///
    /// CPU must support AVX2 and AVX-512 F, BW, VL and VBMI, and `lo` and
    /// `hi` must each point at `bytes_per_block(C)` readable bytes.
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vl,avx512vbmi")]
    #[inline]
    unsafe fn refine_pair_avx512vbmi<const C: usize>(
        lo: *const u8,
        hi: *const u8,
        regs: &[__m256i; FS_M],
        full: &[&[u8; KSUB]; FS_M],
        threshold_vec: __m256i,
    ) -> u32 {
        // SAFETY: the caller's contract is this function's.
        let mut acc = unsafe { grouped_pair_sum::<C>(lo, hi, regs) };
        for j in C..FS_M {
            // SAFETY: array layout as in `block_pair_mask_avx2`.
            let index = unsafe { load_pair(lo, hi, C.div_ceil(2) + j - C) };
            let index = _mm512_zextsi256_si512(index);
            let quarter = |q: usize| {
                let entries: &[u8] = &full[j][q * 64..][..64];
                // SAFETY: `entries` is 64 readable bytes.
                unsafe { _mm512_loadu_si512(entries.as_ptr().cast()) }
            };
            let lower = _mm512_permutex2var_epi8(quarter(0), index, quarter(1));
            let upper = _mm512_permutex2var_epi8(quarter(2), index, quarter(3));
            let value = _mm512_mask_blend_epi8(_mm512_movepi8_mask(index), lower, upper);
            acc = _mm256_adds_epu8(acc, _mm512_castsi512_si256(value));
        }
        pair_mask(acc, threshold_vec)
    }

    /// One value per path of the 256-bit kernels: a 128-bit register for the
    /// single-block path and a 256-bit one for the pair path.
    #[derive(Clone, Copy)]
    struct PerPath {
        single: __m128i,
        pair: __m256i,
    }

    impl PerPath {
        /// `threshold` in every lane.
        ///
        /// # Safety
        ///
        /// CPU must support AVX2.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn splat(threshold: u8) -> Self {
            PerPath {
                single: _mm_set1_epi8(threshold as i8),
                pair: _mm256_set1_epi8(threshold as i8),
            }
        }

        /// A 16-entry table, broadcast to both lanes for the pair path.
        ///
        /// # Safety
        ///
        /// CPU must support AVX2.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn table(table: &[u8]) -> Self {
            let single = load_table(table);
            PerPath {
                single,
                pair: _mm256_broadcastsi128_si256(single),
            }
        }
    }

    /// The block loop of the 256-bit kernels: two full blocks per iteration,
    /// the odd full block and the ragged tail on the 128-bit path. Before a
    /// non-zero mask is handed over it is ANDed with `refine(lo, hi, small
    /// tables, threshold)`, the caller's second bound of blocks `lo` and
    /// `hi` in [`block_pair_mask_avx2`]'s bit order (a single block is
    /// passed as both and read from the low half): all ones for the plain
    /// AVX2 kernel. `#[inline(always)]` makes this body part of the calling
    /// wrapper and of its `#[target_feature]` context.
    ///
    /// # Safety
    ///
    /// CPU must support AVX2 and what `refine` needs. (`C` must be
    /// `grouped.layout().c()`, as for [`scan_all_ssse3`].)
    #[inline(always)]
    unsafe fn scan_all_pairs<const C: usize, S: BlockSink>(
        grouped: &GroupedCodes,
        tables: &ScanTables,
        order: &[u8],
        threshold: u8,
        sink: &mut S,
        refine: impl Fn(*const u8, *const u8, &[__m256i; FS_M], __m256i) -> u32,
    ) {
        // The small tables of both paths; the minimum tables stay for the
        // whole scan.
        // SAFETY: AVX2 is a caller precondition, here and for every
        // `PerPath` built below.
        let zero = unsafe { PerPath::splat(0) };
        let (mut regs128, mut regs256) = ([zero.single; FS_M], [zero.pair; FS_M]);
        for j in C..FS_M {
            // SAFETY: AVX2, see above.
            let table = unsafe { PerPath::table(&tables.small[j]) };
            (regs128[j], regs256[j]) = (table.single, table.pair);
        }
        let bpb = bytes_per_block(C);

        let scan_group = |gi: usize, g: &GroupMeta, mut threshold: u8, sink: &mut S| {
            // SAFETY: AVX2, see above.
            let mut tvec = unsafe { PerPath::splat(threshold) };
            for j in 0..C {
                let portion = &tables.full[j][g.key[j] as usize * PORTION..];
                // SAFETY: AVX2, see above.
                let table = unsafe { PerPath::table(portion) };
                (regs128[j], regs256[j]) = (table.single, table.pair);
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
                // SAFETY: `blocks` holds `num_blocks()` blocks of `bpb`
                // bytes (asserted above) and `b + 1 < paired <=
                // num_blocks()`, so block `b` lies inside it...
                let lo = unsafe { base.add(b * bpb) };
                // SAFETY: ...and so does block `b + 1`.
                let hi = unsafe { lo.add(bpb) };
                // SAFETY: AVX2 is a caller precondition, and each pointer
                // covers the `bytes_per_block(C)` bytes of its block.
                let mut mask = unsafe { block_pair_mask_avx2::<C>(lo, hi, &regs256, tvec.pair) };
                if mask != 0 {
                    mask &= refine(lo, hi, &regs256, tvec.pair);
                    if mask as u16 != 0 {
                        threshold = sink.block::<C>(gi, b, mask as u16);
                    }
                    if mask >> 16 != 0 {
                        threshold = sink.block::<C>(gi, b + 1, (mask >> 16) as u16);
                    }
                    // SAFETY: AVX2, see above.
                    tvec = unsafe { PerPath::splat(threshold) };
                }
            }
            // Odd full block, then the ragged tail: 128-bit path.
            for b in paired..g.num_blocks() {
                // SAFETY: `b < num_blocks()`, inside `blocks` as above.
                let block = unsafe { base.add(b * bpb) };
                // SAFETY: AVX2 implies SSSE3, and the pointer covers the
                // `bytes_per_block(C)` bytes of block `b`.
                let mut mask = unsafe { block_mask_ssse3::<C>(block, &regs128, tvec.single) };
                if b == full_blocks {
                    // Only a ragged tail reaches past the full blocks, so
                    // `len % 16 != 0` here: mask out the padding lanes.
                    mask &= (1u16 << (g.len % FS_BLOCK)) - 1;
                }
                if mask != 0 {
                    mask &= refine(block, block, &regs256, tvec.pair) as u16;
                    if mask != 0 {
                        threshold = sink.block::<C>(gi, b, mask);
                        // SAFETY: AVX2, see above.
                        tvec = unsafe { PerPath::splat(threshold) };
                    }
                }
            }
            threshold
        };
        traverse::<C, S>(grouped, tables, order, threshold, sink, scan_group);
    }

    /// AVX2 whole-partition scan; returns exactly the same neighbors as the
    /// other kernels (same groups visited, blocks handed off in the same
    /// order; only `verified` may differ marginally, because a block pair is
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
        order: &[u8],
        threshold: u8,
        sink: &mut S,
    ) {
        let keep_all = |_, _, _: &_, _| u32::MAX;
        // SAFETY: AVX2 is this function's own precondition.
        unsafe { scan_all_pairs::<C, S>(grouped, tables, order, threshold, sink, keep_all) }
    }

    /// The AVX2 scan with every surviving block bounded a second time by the
    /// full tables of the ungrouped components ([`refine_pair_avx512vbmi`]):
    /// the same neighbors, groups and hand-off order, fewer lanes per mask.
    /// `tables.full` must hold all eight quantized tables.
    ///
    /// # Safety
    ///
    /// CPU must support AVX2 and AVX-512 F, BW, VL and VBMI. (`C` must be
    /// `grouped.layout().c()`, as for [`scan_all_ssse3`].)
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vl,avx512vbmi")]
    pub(crate) unsafe fn scan_all_avx512vbmi<const C: usize, S: BlockSink>(
        grouped: &GroupedCodes,
        tables: &ScanTables,
        order: &[u8],
        threshold: u8,
        sink: &mut S,
    ) {
        let full: [&[u8; KSUB]; FS_M] =
            std::array::from_fn(|j| match tables.full[j].first_chunk() {
                Some(table) => table,
                None => unreachable!("a refining scan quantizes 256 entries of every table"),
            });
        let refine = |lo, hi, regs: &_, tvec| {
            // SAFETY: the features are this function's own precondition, and
            // `scan_all_pairs` passes pointers to whole blocks.
            unsafe { refine_pair_avx512vbmi::<C>(lo, hi, regs, &full, tvec) }
        };
        // SAFETY: AVX2 is among this function's own preconditions.
        unsafe { scan_all_pairs::<C, S>(grouped, tables, order, threshold, sink, refine) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastscan::layout::KSUB;
    use pqfs_core::RowMajorCodes;

    /// All eight full tables, as a refining kernel needs them: arbitrary
    /// ones for the `c` grouped components, and for the others entries at or
    /// above their portion's small-table value, which one entry of the
    /// portion equals.
    fn sample_tables(c: usize, seed: u8) -> ScanTables {
        let seed = seed as usize;
        let mut small = [[0u8; PORTION]; FS_M];
        for (j, table) in small.iter_mut().enumerate() {
            for (i, slot) in table.iter_mut().enumerate() {
                *slot = ((i * 17 + j * 31 + seed * 7) % 93) as u8;
            }
        }
        let full = (0..FS_M)
            .map(|j| {
                let entry = |i: usize| match j < c {
                    true => ((i * 13 + j * 59 + seed * 3) % 97) as u8,
                    false => small[j][i / PORTION] + ((i * 7 + j * 3 + seed) % PORTION * 3) as u8,
                };
                (0..KSUB).map(entry).collect::<Vec<u8>>()
            })
            .collect();
        ScanTables { full, small }
    }

    fn sample_grouped(n: usize, c: usize) -> GroupedCodes {
        let bytes: Vec<u8> = (0..n * FS_M).map(|i| ((i * 41 + 5) % 256) as u8).collect();
        GroupedCodes::build(&RowMajorCodes::new(bytes, FS_M), c)
    }

    /// Scrambled codes whose first two components take four high nibbles
    /// only: 16 key prefixes, so for `c > 2` a run holds several groups.
    fn scrambled_grouped(n: usize, c: usize) -> GroupedCodes {
        let mut state = 0x9E37_79B9u32;
        let bytes: Vec<u8> = (0..n * FS_M)
            .map(|i| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let byte = (state >> 24) as u8;
                if i % FS_M < 2 {
                    byte & 0x3F
                } else {
                    byte
                }
            })
            .collect();
        GroupedCodes::build(&RowMajorCodes::new(bytes, FS_M), c)
    }

    /// Oracle: the lower bound `kernel` prunes one vector with, from its
    /// reconstructed code and the logical small tables (portions, and for
    /// the ungrouped components the minimum tables, or their own entries
    /// when the kernel refines).
    fn oracle_bound(
        kernel: ResolvedKernel,
        grouped: &GroupedCodes,
        tables: &ScanTables,
        g: usize,
        idx: usize,
    ) -> u8 {
        let c = grouped.layout().c();
        let meta = grouped.groups()[g];
        let code = grouped.read_code(&meta, idx);
        let mut acc = 0u8;
        for (j, &byte) in code.iter().enumerate() {
            let v = if j < c || kernel.refines() {
                tables.full[j][byte as usize]
            } else {
                tables.small[j][(byte >> 4) as usize]
            };
            acc = acc.saturating_add(v);
        }
        acc
    }

    type Blocks = Vec<(usize, usize, u16)>;

    /// A sink that records what the traversal does and lowers the threshold
    /// by `step` after every hand-off (`0` freezes it).
    struct Recorder {
        threshold: u8,
        step: u8,
        blocks: Blocks,
        /// The ranges passed over, each with the threshold of that moment.
        skipped: Vec<(Range<usize>, u8)>,
    }

    impl BlockSink for Recorder {
        fn block<const C: usize>(&mut self, group: usize, block: usize, mask: u16) -> u8 {
            self.blocks.push((group, block, mask));
            self.threshold = self.threshold.saturating_sub(self.step);
            self.threshold
        }

        fn skip(&mut self, groups: Range<usize>) {
            self.skipped.push((groups, self.threshold));
        }
    }

    fn record(
        kernel: ResolvedKernel,
        grouped: &GroupedCodes,
        tables: &ScanTables,
        order: &[u8],
        (threshold, step): (u8, u8),
    ) -> Recorder {
        let mut recorder = Recorder {
            threshold,
            step,
            blocks: Blocks::new(),
            skipped: Vec::new(),
        };
        scan_all(kernel, grouped, tables, order, threshold, &mut recorder);
        recorder
    }

    /// The runs of `grouped` front to back, back to front, and from the
    /// middle around.
    fn orders(grouped: &GroupedCodes) -> [Vec<u8>; 3] {
        let runs = grouped.runs().len();
        let storage: Vec<u8> = (0..runs).map(|r| r as u8).collect();
        let reversed = storage.iter().rev().copied().collect();
        let rotated = (0..runs).map(|i| ((i + runs / 2) % runs) as u8).collect();
        [storage, reversed, rotated]
    }

    /// The hand-off sequence of one scan in storage order of the runs under
    /// the frozen threshold `t`.
    fn collect_blocks(
        kernel: ResolvedKernel,
        grouped: &GroupedCodes,
        tables: &ScanTables,
        t: u8,
    ) -> Blocks {
        let [storage, ..] = orders(grouped);
        record(kernel, grouped, tables, &storage, (t, 0)).blocks
    }

    #[cfg(target_arch = "x86_64")]
    const SIMD: [Kernel; 3] = [Kernel::Ssse3, Kernel::Avx2, Kernel::Avx512Vbmi];

    /// Every back-end this CPU has.
    fn kernels() -> Vec<ResolvedKernel> {
        #[allow(unused_mut)]
        let mut kernels = vec![ResolvedKernel::Portable, ResolvedKernel::PortableFull];
        #[cfg(target_arch = "x86_64")]
        kernels.extend(SIMD.into_iter().filter_map(simd));
        kernels
    }

    /// Whether `kernel` masks two blocks against one threshold snapshot, so
    /// that under a moving threshold its masks may carry more lanes than its
    /// oracle's.
    fn pairs_blocks(kernel: ResolvedKernel) -> bool {
        #[cfg(target_arch = "x86_64")]
        if matches!(kernel, ResolvedKernel::Avx2 | ResolvedKernel::Avx512Vbmi) {
            return true;
        }
        let _ = kernel;
        false
    }

    /// The resolved SIMD back-end, or `None` (test skipped) without it.
    #[cfg(target_arch = "x86_64")]
    fn simd(kernel: Kernel) -> Option<ResolvedKernel> {
        let resolved = kernel.resolve().ok();
        if resolved.is_none() {
            eprintln!("skipping: no {kernel:?}");
        }
        resolved
    }

    /// Both portable kernels, the minimum-table one and the full-table one,
    /// hand over exactly the lanes whose per-vector bound passes.
    #[test]
    fn portable_scan_matches_per_vector_oracle() {
        for kernel in [ResolvedKernel::Portable, ResolvedKernel::PortableFull] {
            for c in [0usize, 1, 2, 3, 4] {
                let grouped = sample_grouped(600, c);
                let tables = sample_tables(c, c as u8);
                for order in orders(&grouped) {
                    for t in [0u8, 40, 90, 200, 255] {
                        assert_matches_per_vector_oracle(kernel, &grouped, &tables, &order, t);
                    }
                }
            }
        }
    }

    fn assert_matches_per_vector_oracle(
        kernel: ResolvedKernel,
        grouped: &GroupedCodes,
        tables: &ScanTables,
        order: &[u8],
        t: u8,
    ) {
        let case = format!("{kernel:?} c={} t={t}", grouped.layout().c());
        let got = record(kernel, grouped, tables, order, (t, 0));
        assert!(got.blocks.iter().all(|&(_, _, mask)| mask != 0));
        let passed_over = |gi: usize| {
            let ranges = got.skipped.iter().filter(|(r, _)| r.contains(&gi));
            ranges.count() == 1
        };
        // Runs in the order given, groups and blocks of a run in storage
        // order: the hand-off sequence, block for block.
        let mut handed = got.blocks.iter().peekable();
        for &run in order {
            for gi in grouped.runs()[run as usize].clone() {
                let (gi, g) = (gi as usize, grouped.groups()[gi as usize]);
                for b in 0..g.num_blocks() {
                    let mask = handed
                        .next_if(|&&(hg, hb, _)| (hg, hb) == (gi, b))
                        .map_or(0, |&(_, _, mask)| mask);
                    for lane in 0..FS_BLOCK {
                        let idx = b * FS_BLOCK + lane;
                        // The oracle uses the *exact* quantized entry for
                        // grouped components, which equals the portion value
                        // the kernel looks up. Padding lanes must never be
                        // handed off, nor a lane of a group the traversal
                        // passed over.
                        let survives =
                            idx < g.len && oracle_bound(kernel, grouped, tables, gi, idx) <= t;
                        assert_eq!(mask >> lane & 1 == 1, survives, "{case} g={gi} idx={idx}");
                        assert!(!(survives && passed_over(gi)), "{case} g={gi}");
                    }
                }
            }
        }
        assert!(handed.next().is_none(), "hand-off out of run order");
    }

    /// Every group is either scanned or passed over, once; a group is passed
    /// over only when none of its vectors has a lower bound at or below the
    /// threshold of that moment; and all kernels pass over the same groups.
    #[test]
    fn every_kernel_passes_over_only_groups_without_survivors() {
        let (mut passed_over, mut whole_runs) = (0usize, 0usize);
        for c in [0usize, 1, 2, 3, 4] {
            for n in [15usize, 40, 900, 6_000] {
                let grouped = scrambled_grouped(n, c);
                // Portions far apart, so that whole groups lie above a
                // threshold others are below.
                let mut tables = sample_tables(c, c as u8 + 3);
                for table in &mut tables.full[..c] {
                    for (i, v) in table.iter_mut().enumerate() {
                        *v = (i / PORTION * 9 + i % 5) as u8;
                    }
                }
                for order in orders(&grouped) {
                    for start in [(255u8, 1u8), (200, 3), (120, 0), (60, 1)] {
                        let case = format!("c={c} n={n} start={start:?}");
                        for kernel in kernels() {
                            let want = record(kernel.oracle(), &grouped, &tables, &order, start);
                            let got = record(kernel, &grouped, &tables, &order, start);
                            let mut seen = vec![0u8; grouped.groups().len()];
                            // Groups are passed over by the first bound,
                            // under every kernel.
                            let first_bound = ResolvedKernel::Portable;
                            for (groups, t) in &got.skipped {
                                whole_runs += (groups.len() > 1) as usize;
                                for gi in groups.clone() {
                                    seen[gi] += 1;
                                    let g = grouped.groups()[gi];
                                    let least = (0..g.len)
                                        .map(|idx| {
                                            oracle_bound(first_bound, &grouped, &tables, gi, idx)
                                        })
                                        .min();
                                    assert!(least > Some(*t), "{case} {kernel:?} g={gi}");
                                    passed_over += 1;
                                }
                            }
                            assert!(seen.iter().all(|&times| times <= 1), "{case} {kernel:?}");
                            assert!(
                                got.blocks.iter().all(|&(gi, _, _)| seen[gi] == 0),
                                "{case} {kernel:?}: a block of a group passed over"
                            );
                            // A pair kernel masks two blocks against one
                            // threshold snapshot, so its masks may carry
                            // more lanes; the thresholds a recorder returns
                            // depend on the count of hand-offs alone.
                            if pairs_blocks(kernel) && start.1 != 0 {
                                continue;
                            }
                            assert_eq!(got.skipped, want.skipped, "{case} {kernel:?}");
                            assert_eq!(got.blocks, want.blocks, "{case} {kernel:?}");
                        }
                    }
                }
            }
        }
        // The matrix must exercise both pass-overs, under every kernel.
        let kernels = kernels().len();
        assert!(passed_over > 2_000 * kernels, "{passed_over} groups");
        assert!(whole_runs > 30 * kernels, "{whole_runs} whole runs");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_scans_match_portable_under_static_threshold() {
        // With a static threshold a pair kernel's masks decompose into
        // exactly the per-block masks: full equality of hand-off sequences
        // with the kernel's oracle, the full-table one for the kernel that
        // refines.
        for resolved in SIMD.into_iter().filter_map(simd) {
            for c in [0usize, 1, 2, 3, 4] {
                for n in [15usize, 16, 17, 31, 32, 33, 40, 700, 6_000] {
                    let grouped = scrambled_grouped(n, c);
                    let tables = sample_tables(c, c as u8 + 11);
                    for order in orders(&grouped) {
                        for t in [0u8, 1, 63, 128, 254, 255] {
                            let want = record(resolved.oracle(), &grouped, &tables, &order, (t, 0));
                            let got = record(resolved, &grouped, &tables, &order, (t, 0));
                            assert_eq!(got.blocks, want.blocks, "{resolved:?} c={c} n={n} t={t}");
                        }
                    }
                }
            }
        }
    }

    /// A verifier in the quantized domain: a vector's "distance" is its
    /// full-table bound, the sink keeps the `k` smallest `(distance,
    /// position)` and prunes with the largest of them.
    struct TopBounds<'a> {
        grouped: &'a GroupedCodes,
        tables: &'a ScanTables,
        k: usize,
        kept: Vec<(u8, usize, usize)>,
    }

    impl BlockSink for TopBounds<'_> {
        fn block<const C: usize>(&mut self, group: usize, block: usize, mask: u16) -> u8 {
            for lane in (0..FS_BLOCK).filter(|lane| mask >> lane & 1 == 1) {
                let idx = block * FS_BLOCK + lane;
                let full = ResolvedKernel::PortableFull;
                let bound = oracle_bound(full, self.grouped, self.tables, group, idx);
                self.kept.push((bound, group, idx));
            }
            self.kept.sort_unstable();
            self.kept.truncate(self.k);
            match self.kept.len() == self.k {
                true => self.kept[self.k - 1].0,
                false => u8::MAX,
            }
        }
    }

    /// Under a threshold that follows the candidates accepted so far, every
    /// kernel ends with the same accepted set — whichever bound it prunes
    /// with and however many blocks share a threshold snapshot.
    #[test]
    fn every_kernel_accepts_the_same_candidates_under_a_dynamic_threshold() {
        for c in [0usize, 1, 2, 3, 4] {
            for n in [15usize, 16, 17, 31, 33, 700, 6_000] {
                let grouped = scrambled_grouped(n, c);
                let tables = sample_tables(c, c as u8 + 5);
                for order in orders(&grouped) {
                    for k in [1usize, 10, 300] {
                        let accepted = |kernel| {
                            let (grouped, tables) = (&grouped, &tables);
                            let mut sink = TopBounds {
                                grouped,
                                tables,
                                k,
                                kept: Vec::new(),
                            };
                            scan_all(kernel, grouped, tables, &order, u8::MAX, &mut sink);
                            sink.kept
                        };
                        let want = accepted(ResolvedKernel::Portable);
                        assert_eq!(want.len(), k.min(n));
                        for kernel in kernels() {
                            assert_eq!(accepted(kernel), want, "{kernel:?} c={c} n={n} k={k}");
                        }
                    }
                }
            }
        }
    }

    /// The second bound only ever drops lanes, and only lanes whose
    /// full-table sum is above the threshold: under a frozen threshold the
    /// refining kernels' masks are subsets of the minimum-table kernels'.
    #[test]
    fn refined_masks_are_subsets_that_drop_only_lanes_above_the_threshold() {
        let mut state = 0x2545_F491u32;
        let mut next = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 24) as u8
        };
        #[allow(unused_mut)]
        let mut pairs = vec![(ResolvedKernel::Portable, ResolvedKernel::PortableFull)];
        #[cfg(target_arch = "x86_64")]
        if let (Some(avx2), Some(vbmi)) = (simd(Kernel::Avx2), simd(Kernel::Avx512Vbmi)) {
            pairs.push((avx2, vbmi));
        }
        let (mut dropped, mut kept) = (0usize, 0usize);
        for round in 0..12usize {
            let c = round % 5;
            let grouped = scrambled_grouped(1_500 + 37 * round, c);
            // Random full tables of entries below 64, so that the sums of
            // eight spread over the thresholds; the small tables are their
            // portions' minima, as the scan builds them.
            let full: Vec<Vec<u8>> = (0..FS_M)
                .map(|_| (0..KSUB).map(|_| next() % 64).collect())
                .collect();
            let mut small = [[0u8; PORTION]; FS_M];
            for (small, full) in small.iter_mut().zip(&full) {
                for (min, portion) in small.iter_mut().zip(full.chunks(PORTION)) {
                    *min = portion.iter().copied().fold(u8::MAX, u8::min);
                }
            }
            let tables = ScanTables { full, small };
            let [storage, ..] = orders(&grouped);
            for t in [40u8, 90, 140, 200, 255] {
                for &(first, second) in &pairs {
                    let coarse = record(first, &grouped, &tables, &storage, (t, 0)).blocks;
                    let refined = record(second, &grouped, &tables, &storage, (t, 0)).blocks;
                    let mut refined = refined.iter().peekable();
                    for &(g, b, mask) in &coarse {
                        let fine = refined
                            .next_if(|&&(rg, rb, _)| (rg, rb) == (g, b))
                            .map_or(0, |&(_, _, fine)| fine);
                        assert_eq!(fine & !mask, 0, "{second:?} c={c} t={t} g={g} b={b}");
                        for lane in (0..FS_BLOCK).filter(|lane| mask >> lane & 1 == 1) {
                            let idx = b * FS_BLOCK + lane;
                            let bound = oracle_bound(second, &grouped, &tables, g, idx);
                            assert_eq!(fine >> lane & 1 == 1, bound <= t, "{second:?} c={c} t={t}");
                            dropped += (bound > t) as usize;
                            kept += (bound <= t) as usize;
                        }
                    }
                    assert!(
                        refined.next().is_none(),
                        "a refined block the first bound pruned"
                    );
                }
            }
        }
        assert!(
            dropped > 10_000 && kept > 10_000,
            "{dropped} dropped, {kept} kept"
        );
    }

    #[test]
    fn threshold_zero_with_nonzero_tables_prunes_everything() {
        let grouped = sample_grouped(200, 4);
        let mut tables = sample_tables(4, 2);
        for table in &mut tables.full {
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
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("ssse3") {
                assert_eq!(Kernel::Ssse3.resolve().unwrap(), ResolvedKernel::Ssse3);
            }
            if has_avx512vbmi() {
                let refining = ResolvedKernel::Avx512Vbmi;
                assert_eq!(Kernel::Avx512Vbmi.resolve().unwrap(), refining);
                assert_eq!(Kernel::Auto.resolve().unwrap(), refining);
                assert_eq!(refining.oracle(), ResolvedKernel::PortableFull);
                return;
            }
        }
        // Asked for by name on a CPU (or a target) without it: a typed
        // error, as for the other SIMD kernels; `Auto` settles for less.
        assert!(!Kernel::Auto.resolve().unwrap().refines());
        assert_eq!(
            Kernel::Avx512Vbmi.resolve(),
            Err(ScanError::KernelUnavailable {
                kernel: "avx512vbmi"
            })
        );
    }

    /// The SIMD kernels are compiled into every x86-64 build: `Auto` is the
    /// widest one the CPU reports, detected here independently of
    /// [`Kernel::resolve`].
    #[test]
    fn auto_resolves_to_the_widest_kernel_the_cpu_has() {
        #[cfg(target_arch = "x86_64")]
        let widest = {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2")
                && has!("avx512f")
                && has!("avx512bw")
                && has!("avx512vl")
                && has!("avx512vbmi")
            {
                Kernel::Avx512Vbmi
            } else if has!("avx2") {
                Kernel::Avx2
            } else if has!("ssse3") {
                Kernel::Ssse3
            } else {
                Kernel::Portable
            }
        };
        #[cfg(not(target_arch = "x86_64"))]
        let widest = Kernel::Portable;
        assert_eq!(Kernel::Auto.resolved(), Ok(widest));
    }
}
