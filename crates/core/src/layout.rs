//! The universal layout for stored PQ codes: [`RowMajorCodes`], the paper's
//! Figure 1 — vector after vector, each a run of `m` component bytes. The
//! naive and libpq scans read it, encoding writes it, and every other
//! layout is built from it: the grouped, nibble-packed Fast Scan layout in
//! `pqfs_scan::fastscan::layout`, next to its scan kernel, and the
//! Figure 5 transposition of the "gather" experiment in
//! `pqfs_bench::baselines`.

/// Codes stored row-major (Figure 1): vector `i` occupies bytes
/// `[i*m, (i+1)*m)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMajorCodes {
    codes: Vec<u8>,
    m: usize,
}

impl RowMajorCodes {
    /// Wraps a flat code buffer.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `codes.len()` is not a multiple of `m`.
    pub fn new(codes: Vec<u8>, m: usize) -> Self {
        assert!(m > 0, "m must be positive");
        assert_eq!(codes.len() % m, 0, "codes length must be a multiple of m");
        RowMajorCodes { codes, m }
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.codes.len() / self.m
    }

    /// True when no codes are stored.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Components per code (`m`).
    pub fn m(&self) -> usize {
        self.m
    }

    /// The code of vector `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn code(&self, i: usize) -> &[u8] {
        &self.codes[i * self.m..(i + 1) * self.m]
    }

    /// Iterator over all codes in storage order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.codes.chunks_exact(self.m)
    }

    /// The raw flat buffer.
    pub fn as_bytes(&self) -> &[u8] {
        &self.codes
    }

    /// Bytes of memory used by the code storage.
    pub fn memory_bytes(&self) -> usize {
        self.codes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_codes(n: usize, m: usize) -> RowMajorCodes {
        let codes: Vec<u8> = (0..n * m).map(|i| (i * 7 % 256) as u8).collect();
        RowMajorCodes::new(codes, m)
    }

    #[test]
    fn row_major_accessors() {
        let codes = sample_codes(5, 8);
        assert_eq!(codes.len(), 5);
        assert_eq!(codes.m(), 8);
        assert_eq!(codes.code(0).len(), 8);
        assert_eq!(codes.iter().count(), 5);
        assert_eq!(codes.memory_bytes(), 40);
        assert!(!codes.is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple of m")]
    fn row_major_rejects_ragged_buffer() {
        RowMajorCodes::new(vec![1, 2, 3], 2);
    }
}
