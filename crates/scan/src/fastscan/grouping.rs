//! Vector grouping (paper §4.2).
//!
//! Vectors are grouped on the **high nibbles of their first `c`
//! components**: all vectors of group `(i0, …, i_{c−1})` hit the same
//! 16-entry *portion* of the distance tables `D_0 … D_{c−1}`, so those
//! portions can be loaded into SIMD registers once per group and reused for
//! every vector in it.
//!
//! Sizing ([`auto_components`]): a partition of at least 800 vectors groups
//! on the largest `c ≥ 1` whose groups average at least 128 vectors,
//! `n ≥ 128 · 16^c`, and a smaller one does not group. The paper's §4.2
//! rule, `n_min(c) = 50 · 16^c`, was fitted to its 128-bit kernel with
//! minimum tables only; on these kernels a group below ~128 vectors costs
//! more in per-group work than it prunes (docs/FASTSCAN.md §10).
//!
//! Storage is **one contiguous buffer** for the whole partition (groups
//! back to back in key order, each zero-padded to a whole block), like the
//! paper's grouped database layout. A scan visits its
//! [`runs`](GroupedCodes::runs) nearest-first (docs/FASTSCAN.md §6) and reads
//! memory linearly within a run.

use crate::fastscan::layout::{BlockLayout, FS_BLOCK, FS_M};
use pqfs_core::RowMajorCodes;
use std::ops::Range;

/// A group identifier: the high nibbles of the first `c` components
/// (entries `c..4` are zero).
pub type GroupKey = [u8; 4];

/// Extracts the group key of a code for grouping on `c` components.
///
/// # Panics
///
/// Panics in debug builds if `code.len() < c` or `c > 4`.
#[inline]
pub fn group_key(code: &[u8], c: usize) -> GroupKey {
    debug_assert!(c <= 4);
    let mut key = [0u8; 4];
    for (j, slot) in key.iter_mut().enumerate().take(c) {
        *slot = code[j] >> 4;
    }
    key
}

/// [`group_key`] as one integer, the first component most significant, so
/// ascending integers are ascending keys.
#[inline]
fn packed_key(code: &[u8], c: usize) -> usize {
    code[..c]
        .iter()
        .fold(0, |packed, &byte| (packed << 4) | (byte >> 4) as usize)
}

/// The smallest partition that groups at all: the paper's `n_min(1)`, kept.
/// At `c = 0` the one group is the whole partition, so the warm-up is an
/// exact scan of it; `c = 1` measured faster at topk 10 and 100 from 1 024
/// vectors up (docs/FASTSCAN.md §10).
pub const MIN_GROUPED_PARTITION: usize = 800;

/// The smallest average group size worth grouping on one more component
/// for (the paper's §4.2 used 50; docs/FASTSCAN.md §10 measures 128).
pub const MIN_GROUP_SIZE: usize = 128;

/// Minimum partition size for grouping on `c` components:
/// [`MIN_GROUPED_PARTITION`] for `c = 1`, `128 · 16^c` from `c = 2` up.
pub fn min_partition_size(c: usize) -> usize {
    match c {
        0 => 0,
        1 => MIN_GROUPED_PARTITION,
        c => MIN_GROUP_SIZE << (4 * c),
    }
}

/// Picks the largest `c ∈ 0..=4` whose minimum partition size `n` reaches:
/// `c = 1` from 800 vectors, 2 from 32 768, 3 from 524 288 and 4 from
/// 8 388 608.
pub fn auto_components(n: usize) -> usize {
    let mut c = 0;
    while c < 4 && n >= min_partition_size(c + 1) {
        c += 1;
    }
    c
}

/// Metadata of one group inside [`GroupedCodes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupMeta {
    /// High nibbles of the grouped components.
    pub key: GroupKey,
    /// Index of the group's first vector in storage order (into `ids`).
    pub start: usize,
    /// Number of member vectors.
    pub len: usize,
    /// Byte offset of the group's first block in the shared buffer.
    pub block_offset: usize,
}

impl GroupMeta {
    /// Number of 16-vector blocks (including the padded tail).
    pub fn num_blocks(&self) -> usize {
        self.len.div_ceil(FS_BLOCK)
    }
}

/// A partition's codes, grouped and packed into the Fast Scan layout.
#[derive(Debug, Clone)]
pub struct GroupedCodes {
    layout: BlockLayout,
    /// All groups' blocks, concatenated (each group zero-padded to whole
    /// blocks).
    blocks: Vec<u8>,
    /// Original partition positions, in storage order.
    ids: Vec<u32>,
    groups: Vec<GroupMeta>,
    /// See [`runs`](Self::runs). Derived from `groups`, never persisted.
    runs: Vec<Range<u32>>,
    n: usize,
}

impl GroupedCodes {
    /// Groups a partition's codes on `c` components. Groups are ordered by
    /// ascending key (so a key prefix's groups form one run) and vectors keep
    /// their relative order within a group.
    ///
    /// # Panics
    ///
    /// Panics if `codes.m() != 8` or `c > 4`.
    pub fn build(codes: &RowMajorCodes, c: usize) -> Self {
        assert_eq!(codes.m(), FS_M, "fast scan requires PQ 8x8 codes");
        assert!(c <= 4);
        let layout = BlockLayout::new(c);
        let bpb = layout.bytes_per_block();

        // Stable counting sort over the packed key: count, lay the non-empty
        // keys out in ascending order (`slot_of` then maps a key to its
        // group), and scatter each code to the next free lane of its group.
        let n = codes.len();
        let mut slot_of = vec![0u32; 1 << (4 * c)];
        for code in codes.iter() {
            slot_of[packed_key(code, c)] += 1;
        }
        let mut groups = Vec::new();
        let (mut start, mut block_offset) = (0usize, 0usize);
        for (packed, slot) in slot_of.iter_mut().enumerate() {
            let len = *slot as usize;
            if len == 0 {
                continue;
            }
            *slot = groups.len() as u32;
            let mut key = [0u8; 4];
            for (j, nibble) in key.iter_mut().enumerate().take(c) {
                *nibble = (packed >> (4 * (c - 1 - j))) as u8 & 0x0F;
            }
            groups.push(GroupMeta {
                key,
                start,
                len,
                block_offset,
            });
            start += len;
            block_offset += len.div_ceil(FS_BLOCK) * bpb;
        }
        let mut blocks = vec![0u8; block_offset];
        let mut ids = vec![0u32; n];
        let mut filled = vec![0usize; groups.len()];
        for (i, code) in codes.iter().enumerate() {
            let gi = slot_of[packed_key(code, c)] as usize;
            let (g, pos) = (&groups[gi], filled[gi]);
            filled[gi] += 1;
            ids[g.start + pos] = i as u32;
            let block = g.block_offset + (pos / FS_BLOCK) * bpb;
            layout.write_code(&mut blocks[block..block + bpb], pos % FS_BLOCK, code);
        }

        // Keys ascend, so the groups sharing a key prefix are adjacent.
        let prefix = c.min(2);
        let mut runs: Vec<Range<u32>> = Vec::new();
        for (gi, g) in groups.iter().enumerate() {
            match runs.last_mut() {
                Some(run) if groups[run.start as usize].key[..prefix] == g.key[..prefix] => {
                    run.end = gi as u32 + 1;
                }
                _ => runs.push(gi as u32..gi as u32 + 1),
            }
        }

        GroupedCodes {
            layout,
            blocks,
            ids,
            groups,
            runs,
            n,
        }
    }

    /// The block layout in use.
    pub fn layout(&self) -> &BlockLayout {
        &self.layout
    }

    /// Total number of vectors.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Group metadata, in ascending key order: the order the groups are
    /// stored in, not the one a scan visits them in ([`runs`](Self::runs)).
    pub fn groups(&self) -> &[GroupMeta] {
        &self.groups
    }

    /// The run directory: index ranges into [`groups`](Self::groups) of the
    /// contiguous groups sharing their first `min(c, 2)` key nibbles,
    /// ascending by prefix; at most 256 (16 for `c = 1`, one for `c = 0`), a
    /// prefix no vector carries has none. A scan orders the runs per query.
    pub fn runs(&self) -> &[Range<u32>] {
        &self.runs
    }

    /// Original partition position of the vector at storage position `pos`.
    #[inline]
    pub fn id(&self, pos: usize) -> u32 {
        self.ids[pos]
    }

    /// Original partition positions of group `g`'s vectors, in storage order.
    #[inline]
    pub(crate) fn group_ids(&self, g: &GroupMeta) -> &[u32] {
        &self.ids[g.start..g.start + g.len]
    }

    /// The packed blocks of group `g`.
    #[inline]
    pub fn group_blocks(&self, g: &GroupMeta) -> &[u8] {
        let bytes = g.num_blocks() * self.layout.bytes_per_block();
        &self.blocks[g.block_offset..g.block_offset + bytes]
    }

    /// Packed block `b` of group `g` (its vectors `16 b .. 16 b + 16`).
    #[inline]
    pub fn block(&self, g: &GroupMeta, b: usize) -> &[u8] {
        debug_assert!(b < g.num_blocks());
        let bpb = self.layout.bytes_per_block();
        let start = g.block_offset + b * bpb;
        &self.blocks[start..start + bpb]
    }

    /// Reconstructs the full code of the vector at storage position
    /// `g.start + idx`.
    #[inline]
    pub fn read_code(&self, g: &GroupMeta, idx: usize) -> [u8; FS_M] {
        debug_assert!(idx < g.len);
        self.layout
            .read_code(self.block(g, idx / FS_BLOCK), idx % FS_BLOCK, &g.key)
    }

    /// The codes back in partition-position order: the inverse of
    /// [`build`](Self::build), so `build(&codes, c).to_row_major() == codes`.
    pub fn to_row_major(&self) -> RowMajorCodes {
        let mut rows = vec![0u8; self.n * FS_M];
        for g in &self.groups {
            for idx in 0..g.len {
                let at = self.ids[g.start + idx] as usize * FS_M;
                rows[at..at + FS_M].copy_from_slice(&self.read_code(g, idx));
            }
        }
        RowMajorCodes::new(rows, FS_M)
    }

    /// Bytes of packed code storage (padding included) — the §4.2 memory
    /// claim compares this against `8 × n` row-major bytes.
    pub fn code_memory_bytes(&self) -> usize {
        self.blocks.len()
    }

    /// Bytes of the id permutation (bookkeeping row-major storage doesn't
    /// need).
    pub fn ids_memory_bytes(&self) -> usize {
        self.ids.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_codes(n: usize) -> RowMajorCodes {
        let bytes: Vec<u8> = (0..n * FS_M).map(|i| ((i * 37 + 11) % 256) as u8).collect();
        RowMajorCodes::new(bytes, FS_M)
    }

    #[test]
    fn min_partition_sizes_keep_groups_of_128() {
        assert_eq!(min_partition_size(0), 0);
        assert_eq!(min_partition_size(1), 800);
        assert_eq!(min_partition_size(2), 32_768);
        assert_eq!(min_partition_size(3), 524_288);
        assert_eq!(min_partition_size(4), 8_388_608);
    }

    #[test]
    fn auto_components_switches_at_each_boundary() {
        let boundaries = [
            (0, 0),
            (799, 0),
            (800, 1),
            (32_767, 1),
            (32_768, 2),
            (524_287, 2),
            (524_288, 3),
            (8_388_607, 3),
            (8_388_608, 4),
            (25_000_000, 4),
        ];
        for (n, c) in boundaries {
            assert_eq!(auto_components(n), c, "n = {n}");
        }
    }

    #[test]
    fn groups_partition_all_vectors_exactly_once() {
        for c in 0..=4usize {
            let codes = sample_codes(500);
            let grouped = GroupedCodes::build(&codes, c);
            assert_eq!(grouped.len(), 500, "c={c}");
            let mut seen: Vec<u32> = (0..500).map(|pos| grouped.id(pos)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..500u32).collect::<Vec<_>>(), "c={c}");
            // Group metadata tiles the storage exactly.
            let total: usize = grouped.groups().iter().map(|g| g.len).sum();
            assert_eq!(total, 500);
            for pair in grouped.groups().windows(2) {
                assert_eq!(pair[0].start + pair[0].len, pair[1].start, "c={c}");
                assert!(pair[0].key < pair[1].key, "c={c}");
            }
        }
    }

    #[test]
    fn runs_tile_the_groups_by_key_prefix() {
        for c in 0..=4usize {
            let grouped = GroupedCodes::build(&sample_codes(3_000), c);
            let (groups, runs) = (grouped.groups(), grouped.runs());
            let prefix = c.min(2);
            assert!(runs.len() <= 1 << (4 * prefix), "c={c}");
            assert_eq!(runs.first().map(|r| r.start), Some(0), "c={c}");
            assert_eq!(runs.last().map(|r| r.end), Some(groups.len() as u32));
            for pair in runs.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "c={c}");
                let key = |r: &Range<u32>| groups[r.start as usize].key;
                assert!(key(&pair[0])[..prefix] < key(&pair[1])[..prefix], "c={c}");
            }
            for run in runs {
                let run = &groups[run.start as usize..run.end as usize];
                assert!(!run.is_empty(), "c={c}");
                assert!(run.iter().all(|g| g.key[..prefix] == run[0].key[..prefix]));
            }
        }
    }

    #[test]
    fn group_members_share_their_key_nibbles() {
        let codes = sample_codes(300);
        let grouped = GroupedCodes::build(&codes, 4);
        for g in grouped.groups() {
            for idx in 0..g.len {
                let id = grouped.id(g.start + idx);
                assert_eq!(group_key(codes.code(id as usize), 4), g.key);
            }
        }
    }

    #[test]
    fn to_row_major_inverts_build_and_members_keep_their_order() {
        for c in 0..=4usize {
            for n in [0usize, 1, 15, 16, 17, 5_000] {
                let codes = sample_codes(n);
                let grouped = GroupedCodes::build(&codes, c);
                assert_eq!(grouped.to_row_major(), codes, "c={c} n={n}");
                for g in grouped.groups() {
                    let members: Vec<u32> = (0..g.len).map(|i| grouped.id(g.start + i)).collect();
                    assert!(members.windows(2).all(|w| w[0] < w[1]), "c={c} n={n}");
                }
            }
        }
    }

    #[test]
    fn c_zero_produces_a_single_group() {
        let codes = sample_codes(64);
        let grouped = GroupedCodes::build(&codes, 0);
        assert_eq!(grouped.groups().len(), 1);
        assert_eq!(grouped.runs().len(), 1);
        assert_eq!(grouped.runs()[0], 0..1);
        assert_eq!(grouped.groups()[0].len, 64);
        assert_eq!(grouped.groups()[0].key, [0; 4]);
    }

    #[test]
    fn empty_partition_yields_no_groups() {
        let codes = RowMajorCodes::new(vec![], FS_M);
        let grouped = GroupedCodes::build(&codes, 4);
        assert!(grouped.is_empty());
        assert!(grouped.groups().is_empty());
        assert!(grouped.runs().is_empty());
        assert_eq!(grouped.code_memory_bytes(), 0);
    }

    #[test]
    fn memory_accounting_matches_layout() {
        let codes = sample_codes(320); // multiples of 16 avoid padding at c=0
        let grouped = GroupedCodes::build(&codes, 0);
        assert_eq!(grouped.code_memory_bytes(), 320 * 8);
        assert_eq!(grouped.ids_memory_bytes(), 320 * 4);
        // c = 4: 6 bytes per vector plus padding.
        let grouped = GroupedCodes::build(&codes, 4);
        assert!(grouped.code_memory_bytes() >= 320 * 6);
    }
}
