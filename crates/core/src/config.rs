//! `PQ m×b` configurations (paper §2.1).
//!
//! The paper writes `PQ m×log2(k*)` for a product quantizer with `m`
//! sub-quantizers of `k*` centroids each; any configuration with
//! `m × log2(k*) = 64` yields `2^64` product centroids. Table 1 compares
//! `PQ 16×4` (L1-resident tables), `PQ 8×8` (L1) and `PQ 4×16` (L3) and the
//! paper settles on `PQ 8×8`, which is also this crate's default.

use crate::PqError;

/// Shape of a product quantizer: `m` sub-quantizers with `2^nbits` centroids
/// each over `dim`-dimensional vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PqConfig {
    dim: usize,
    m: usize,
    nbits: u8,
}

impl PqConfig {
    /// Builds and validates a configuration.
    ///
    /// # Errors
    ///
    /// * [`PqError::BadConfig`] if `dim`, `m` or `nbits` is zero, `dim` is
    ///   not a multiple of `m`, or `nbits > 16`.
    pub fn new(dim: usize, m: usize, nbits: u8) -> Result<Self, PqError> {
        if dim == 0 || m == 0 || nbits == 0 || nbits > 16 || !dim.is_multiple_of(m) {
            return Err(PqError::BadConfig { dim, m, nbits });
        }
        Ok(PqConfig { dim, m, nbits })
    }

    /// The paper's preferred `PQ 8×8` (8 sub-quantizers × 256 centroids).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not a positive multiple of 8.
    pub fn pq8x8(dim: usize) -> Self {
        PqConfig::new(dim, 8, 8)
            // Documented panic: the `# Panics` section is this constructor's
            // contract. pqfs-lint: allow(forbidden-panic)
            .expect("dim must be a positive multiple of 8")
    }

    /// `PQ 16×4` (16 sub-quantizers × 16 centroids), Table 1's first row.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not a positive multiple of 16.
    pub fn pq16x4(dim: usize) -> Self {
        PqConfig::new(dim, 16, 4)
            // Documented panic: the `# Panics` section is this constructor's
            // contract. pqfs-lint: allow(forbidden-panic)
            .expect("dim must be a positive multiple of 16")
    }

    /// `PQ 4×16` (4 sub-quantizers × 65536 centroids), Table 1's third row.
    /// Representable for size/cost analysis; training is rejected because a
    /// 65536-centroid sub-quantizer is intractable (as the paper notes).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not a positive multiple of 4.
    pub fn pq4x16(dim: usize) -> Self {
        PqConfig::new(dim, 4, 16)
            // Documented panic: the `# Panics` section is this constructor's
            // contract. pqfs-lint: allow(forbidden-panic)
            .expect("dim must be a positive multiple of 4")
    }

    /// Vector dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of sub-quantizers `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Bits per component index, `log2(k*)`.
    pub fn nbits(&self) -> u8 {
        self.nbits
    }

    /// Centroids per sub-quantizer, `k* = 2^nbits`.
    pub fn ksub(&self) -> usize {
        1usize << self.nbits
    }

    /// Sub-vector dimensionality `d* = d / m`.
    pub fn dsub(&self) -> usize {
        self.dim / self.m
    }

    /// Total number of product centroids, `k = (k*)^m`, as a `log2` so the
    /// paper's `2^64` configurations don't overflow.
    pub fn log2_k(&self) -> u32 {
        self.m as u32 * self.nbits as u32
    }

    /// Bytes of one stored code (`m` indexes of `nbits` bits, rounded up to
    /// whole bytes per the row-major layout of Figure 1).
    pub fn code_bytes(&self) -> usize {
        (self.m * self.nbits as usize).div_ceil(8)
    }

    /// Bytes of the per-query distance tables: `m × k* × sizeof(f32)`
    /// (§3.1: this size decides which cache level holds them — Table 1).
    pub fn table_bytes(&self) -> usize {
        self.m * self.ksub() * std::mem::size_of::<f32>()
    }

    /// Whether this configuration can be trained by this crate (codes are
    /// stored one byte per component, so `nbits ≤ 8`).
    pub fn trainable(&self) -> bool {
        self.nbits <= 8
    }
}

impl std::fmt::Display for PqConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PQ {}x{} (dim {})", self.m, self.nbits, self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations_have_correct_shapes() {
        let p8 = PqConfig::pq8x8(128);
        assert_eq!((p8.m(), p8.ksub(), p8.dsub()), (8, 256, 16));
        assert_eq!(p8.log2_k(), 64);
        assert_eq!(p8.code_bytes(), 8);
        // Table 1: PQ 8x8 tables are 8 KiB -> L1-resident (32 KiB L1).
        assert_eq!(p8.table_bytes(), 8 * 256 * 4);

        let p16 = PqConfig::pq16x4(128);
        assert_eq!((p16.m(), p16.ksub(), p16.dsub()), (16, 16, 8));
        assert_eq!(p16.log2_k(), 64);
        // 16 × 16 × 4 B = 1 KiB -> L1.
        assert_eq!(p16.table_bytes(), 1024);

        let p4 = PqConfig::pq4x16(128);
        assert_eq!((p4.m(), p4.ksub(), p4.dsub()), (4, 65536, 32));
        assert_eq!(p4.log2_k(), 64);
        // 4 × 65536 × 4 B = 1 MiB -> L3 only.
        assert_eq!(p4.table_bytes(), 1 << 20);
        assert!(!p4.trainable());
    }

    #[test]
    fn rejects_invalid_shapes() {
        assert!(PqConfig::new(0, 8, 8).is_err());
        assert!(PqConfig::new(128, 0, 8).is_err());
        assert!(PqConfig::new(128, 8, 0).is_err());
        assert!(PqConfig::new(128, 8, 17).is_err());
        assert!(PqConfig::new(130, 8, 8).is_err(), "dim must divide by m");
    }

    #[test]
    fn code_bytes_rounds_up_for_sub_byte_indexes() {
        // PQ 16×4: 16 indexes of 4 bits = 8 bytes.
        assert_eq!(PqConfig::pq16x4(128).code_bytes(), 8);
        // 3 sub-quantizers of 4 bits = 12 bits -> 2 bytes.
        assert_eq!(PqConfig::new(12, 3, 4).unwrap().code_bytes(), 2);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(PqConfig::pq8x8(128).to_string(), "PQ 8x8 (dim 128)");
    }
}
