//! The grouped, nibble-packed code layout of PQ Fast Scan (paper §4.2).
//!
//! Within a group, codes are stored in **blocks of 16 vectors**, transposed
//! component-major so one 16-byte SIMD load fetches the same component of
//! 16 vectors. Grouping fixes the high nibble of the first `c` components
//! (it *is* the group id), so only their low nibbles are stored — packed two
//! per byte. With the paper's `c = 4` this stores 6 bytes per vector instead
//! of 8, the §4.2 "25 % memory saving", and each lower-bound computation
//! loads exactly 6 bytes per vector.
//!
//! Block layout for grouping on `c` components (byte offsets within one
//! block of 16 vectors):
//!
//! ```text
//! [pair 0: comps 0&1 packed]  16 bytes   (low nibble = comp 0, high = comp 1)
//! …
//! [pair c/2−1]                16 bytes
//! [odd grouped comp]          16 bytes   (only when c is odd; low nibble)
//! [comp c   full bytes]       16 bytes
//! …
//! [comp 7   full bytes]       16 bytes
//! ```

use crate::fastscan::grouping::GroupKey;

/// Number of components Fast Scan codes must have (`PQ 8×8`).
pub const FS_M: usize = 8;

/// Vectors per packed block (one SIMD register width of bytes).
pub const FS_BLOCK: usize = 16;

/// Entries per small table / distance-table portion.
pub const PORTION: usize = 16;

/// Entries per distance table (`PQ 8×8`: one per value of a code byte).
pub const KSUB: usize = 256;

/// Bytes of one block of 16 vectors for grouping on `c` components; `const`
/// so the kernels and the verification loop, monomorphized on `c`, fold it.
pub const fn bytes_per_block(c: usize) -> usize {
    (c / 2 + c % 2 + (FS_M - c)) * FS_BLOCK
}

/// The exact ADC distance of the vector at `lane` of `block`, read straight
/// from the packed arrays: the fusion of [`BlockLayout::read_code`] and
/// `DistanceTables::distance` that verification runs per survivor.
///
/// `tables` holds the eight float distance tables `D_0 … D_7` back to back
/// (`DistanceTables::raw` of a `PQ 8×8` query); `high[j]` is the group key's
/// nibble of grouped component `j` already shifted into the high half
/// (`key[j] << 4`), so every lookup is one `u8`-indexed read at a constant
/// offset from one base pointer, with no bounds check left to make. The
/// eight entries are added **in component order 0..7** starting from `0.0`,
/// exactly as `DistanceTables::distance` does, so the sum is bit-identical
/// to the one every other backend computes. `#[inline(always)]` with `c` a
/// constant at the verification call site unrolls every loop.
///
/// # Panics
///
/// Panics if `block` is shorter than [`bytes_per_block`]`(c)`, if
/// `lane >= FS_BLOCK` reaches past it, or if `c > 4`.
#[inline(always)]
pub(crate) fn lane_distance(
    c: usize,
    tables: &[f32; FS_M * KSUB],
    high: [u8; 4],
    block: &[u8],
    lane: usize,
) -> f32 {
    let entry = |j: usize, index: u8| tables[j * KSUB + index as usize];
    let mut d = 0f32;
    let mut array = 0usize;
    for p in 0..c / 2 {
        let byte = block[array * FS_BLOCK + lane];
        array += 1;
        d += entry(2 * p, high[2 * p] | (byte & 0x0F));
        d += entry(2 * p + 1, high[2 * p + 1] | (byte >> 4));
    }
    if c % 2 == 1 {
        let byte = block[array * FS_BLOCK + lane];
        array += 1;
        d += entry(c - 1, high[c - 1] | (byte & 0x0F));
    }
    for j in c..FS_M {
        d += entry(j, block[array * FS_BLOCK + lane]);
        array += 1;
    }
    d
}

/// Describes the packed block layout for a given number of grouping
/// components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLayout {
    c: usize,
}

impl BlockLayout {
    /// Creates the layout for grouping on `c ∈ 0..=4` components.
    ///
    /// # Panics
    ///
    /// Panics if `c > 4`.
    pub fn new(c: usize) -> Self {
        assert!(c <= 4, "grouping is defined on at most 4 components");
        BlockLayout { c }
    }

    /// Number of grouping components.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Number of packed nibble pairs among the grouped components.
    pub fn pairs(&self) -> usize {
        self.c / 2
    }

    /// Whether an unpaired grouped component exists (odd `c`).
    pub fn has_odd(&self) -> bool {
        self.c % 2 == 1
    }

    /// Number of 16-byte arrays per block.
    pub fn arrays(&self) -> usize {
        bytes_per_block(self.c) / FS_BLOCK
    }

    /// Bytes of one block of 16 vectors.
    pub fn bytes_per_block(&self) -> usize {
        bytes_per_block(self.c)
    }

    /// Average stored bytes per vector (`6.0` for the paper's `c = 4`).
    pub fn bytes_per_vector(&self) -> f64 {
        self.bytes_per_block() as f64 / FS_BLOCK as f64
    }

    /// Byte offset of packed pair `p` (components `2p` and `2p+1`).
    #[inline]
    pub fn pair_offset(&self, p: usize) -> usize {
        debug_assert!(p < self.pairs());
        p * FS_BLOCK
    }

    /// Byte offset of the unpaired grouped component (odd `c` only).
    #[inline]
    pub fn odd_offset(&self) -> usize {
        debug_assert!(self.has_odd());
        self.pairs() * FS_BLOCK
    }

    /// Byte offset of ungrouped component `j` (`j ≥ c`), stored as full
    /// bytes.
    #[inline]
    pub fn ungrouped_offset(&self, j: usize) -> usize {
        debug_assert!(j >= self.c && j < FS_M);
        (self.pairs() + self.c % 2 + (j - self.c)) * FS_BLOCK
    }

    /// Writes the code of the vector at `lane` into `block`.
    ///
    /// Only the low nibbles of the first `c` components are stored; their
    /// high nibbles must equal the owning group's key.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on shape violations.
    pub fn write_code(&self, block: &mut [u8], lane: usize, code: &[u8]) {
        debug_assert_eq!(block.len(), self.bytes_per_block());
        debug_assert!(lane < FS_BLOCK);
        debug_assert_eq!(code.len(), FS_M);
        for p in 0..self.pairs() {
            let lo = code[2 * p] & 0x0F;
            let hi = code[2 * p + 1] & 0x0F;
            block[self.pair_offset(p) + lane] = lo | (hi << 4);
        }
        if self.has_odd() {
            block[self.odd_offset() + lane] = code[self.c - 1] & 0x0F;
        }
        for j in self.c..FS_M {
            block[self.ungrouped_offset(j) + lane] = code[j];
        }
    }

    /// Reconstructs the full 8-component code of the vector at `lane`,
    /// restoring grouped high nibbles from the group `key`.
    #[inline]
    pub fn read_code(&self, block: &[u8], lane: usize, key: &GroupKey) -> [u8; FS_M] {
        debug_assert!(lane < FS_BLOCK);
        let mut code = [0u8; FS_M];
        for p in 0..self.pairs() {
            let byte = block[self.pair_offset(p) + lane];
            code[2 * p] = (key[2 * p] << 4) | (byte & 0x0F);
            code[2 * p + 1] = (key[2 * p + 1] << 4) | (byte >> 4);
        }
        if self.has_odd() {
            let byte = block[self.odd_offset() + lane];
            code[self.c - 1] = (key[self.c - 1] << 4) | (byte & 0x0F);
        }
        for j in self.c..FS_M {
            code[j] = block[self.ungrouped_offset(j) + lane];
        }
        code
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastscan::grouping::group_key;

    #[test]
    fn paper_layout_is_six_bytes_per_vector() {
        let l = BlockLayout::new(4);
        assert_eq!(l.arrays(), 6);
        assert_eq!(l.bytes_per_block(), 96);
        assert!((l.bytes_per_vector() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn ungrouped_only_layout_is_eight_bytes() {
        let l = BlockLayout::new(0);
        assert_eq!(l.bytes_per_block(), 128);
        assert_eq!(l.pairs(), 0);
        assert!(!l.has_odd());
    }

    #[test]
    fn odd_c_layout_has_a_single_nibble_array() {
        let l = BlockLayout::new(3);
        assert_eq!(l.pairs(), 1);
        assert!(l.has_odd());
        // 1 pair + 1 odd + 5 full = 7 arrays.
        assert_eq!(l.arrays(), 7);
        assert_eq!(l.odd_offset(), 16);
        assert_eq!(l.ungrouped_offset(3), 32);
        assert_eq!(l.ungrouped_offset(7), 96);
    }

    #[test]
    fn write_read_roundtrip_for_every_c() {
        for c in 0..=4usize {
            let layout = BlockLayout::new(c);
            let mut block = vec![0u8; layout.bytes_per_block()];
            // Codes whose grouped high nibbles all equal the key.
            let mut codes = Vec::new();
            for lane in 0..FS_BLOCK {
                let mut code = [0u8; FS_M];
                for (j, slot) in code.iter_mut().enumerate() {
                    *slot = ((lane * 13 + j * 29) % 256) as u8;
                }
                // Force the grouped components into one group.
                for slot in code.iter_mut().take(c) {
                    *slot = (*slot & 0x0F) | 0xA0;
                }
                codes.push(code);
            }
            let key = group_key(&codes[0], c);
            for (lane, code) in codes.iter().enumerate() {
                layout.write_code(&mut block, lane, code);
            }
            for (lane, code) in codes.iter().enumerate() {
                assert_eq!(
                    layout.read_code(&block, lane, &key),
                    *code,
                    "c={c} lane={lane}"
                );
            }
        }
    }

    #[test]
    fn lane_distance_is_the_adc_distance_of_the_read_code() {
        // Floats whose sum depends on the order of the additions.
        let raw: Vec<f32> = (0..FS_M * KSUB)
            .map(|i| ((i as u64 * 2_654_435_761) % 100_003) as f32 / 977.0)
            .collect();
        let raw_array: &[f32; FS_M * KSUB] = raw.as_slice().try_into().unwrap();
        let tables = pqfs_core::DistanceTables::from_raw(raw.clone(), FS_M, KSUB);
        for c in 0..=4usize {
            let layout = BlockLayout::new(c);
            let mut block = vec![0u8; layout.bytes_per_block()];
            let key: GroupKey =
                std::array::from_fn(|j| if j < c { [0x3, 0xF, 0x0, 0x9][j] } else { 0 });
            for lane in 0..FS_BLOCK {
                let mut code: [u8; FS_M] =
                    std::array::from_fn(|j| ((lane * 37 + j * 101 + c * 7) % 256) as u8);
                for j in 0..c {
                    code[j] = (key[j] << 4) | (code[j] & 0x0F);
                }
                layout.write_code(&mut block, lane, &code);
            }
            for lane in 0..FS_BLOCK {
                let code = layout.read_code(&block, lane, &key);
                let fused = lane_distance(c, raw_array, key.map(|k| k << 4), &block, lane);
                assert_eq!(
                    fused.to_bits(),
                    tables.distance(&code).to_bits(),
                    "c={c} lane={lane}"
                );
            }
        }
    }

    #[test]
    fn offsets_do_not_overlap() {
        for c in 0..=4usize {
            let layout = BlockLayout::new(c);
            let mut seen = vec![false; layout.bytes_per_block()];
            let mut mark = |off: usize| {
                for b in &mut seen[off..off + FS_BLOCK] {
                    assert!(!*b, "overlap at array offset {off} (c={c})");
                    *b = true;
                }
            };
            for p in 0..layout.pairs() {
                mark(layout.pair_offset(p));
            }
            if layout.has_odd() {
                mark(layout.odd_offset());
            }
            for j in c..FS_M {
                mark(layout.ungrouped_offset(j));
            }
            assert!(
                seen.iter().all(|&b| b),
                "layout must cover the whole block (c={c})"
            );
        }
    }
}
