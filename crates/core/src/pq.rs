//! The product quantizer itself (paper §2.1).
//!
//! A [`ProductQuantizer`] divides a `dim`-dimensional vector into `m`
//! sub-vectors and quantizes each with its own codebook, producing a compact
//! code of `m` centroid indexes. With `PQ 8×8` a 128-d float vector
//! (512 bytes) becomes an 8-byte code while still supporting distance
//! computations through per-query lookup tables.

use crate::codebook::Codebook;
use crate::config::PqConfig;
use crate::layout::RowMajorCodes;
use crate::PqError;
use pqfs_kmeans::{train as kmeans_train, train_same_size, KMeansConfig, SameSizeConfig};

/// A trained product quantizer: `m` codebooks of `k*` centroids each.
#[derive(Debug, Clone)]
pub struct ProductQuantizer {
    config: PqConfig,
    codebooks: Vec<Codebook>,
}

impl ProductQuantizer {
    /// Trains the `m` sub-quantizers on row-major training vectors
    /// (`n × dim`, flattened). Each sub-quantizer is an independent k-means
    /// codebook over the corresponding sub-vector slice.
    ///
    /// Determinism: sub-quantizer `j` is seeded with `seed + j`, so a fixed
    /// seed reproduces the exact same quantizer.
    ///
    /// # Errors
    ///
    /// * [`PqError::Untrainable`] for `nbits > 8` configurations;
    /// * [`PqError::DimMismatch`] if `data` is not a multiple of `dim`;
    /// * [`PqError::Training`] if k-means rejects the training set (too few
    ///   points, NaNs, …). Training needs at least `k* = 2^nbits` vectors.
    pub fn train(data: &[f32], config: &PqConfig, seed: u64) -> Result<Self, PqError> {
        if !config.trainable() {
            return Err(PqError::Untrainable {
                nbits: config.nbits(),
            });
        }
        let dim = config.dim();
        if data.is_empty() || !data.len().is_multiple_of(dim) {
            return Err(PqError::DimMismatch {
                expected: dim,
                actual: data.len(),
            });
        }
        let n = data.len() / dim;
        let dsub = config.dsub();
        let m = config.m();

        let mut codebooks = Vec::with_capacity(m);
        let mut sub = vec![0f32; n * dsub];
        for j in 0..m {
            // Gather the j-th sub-vector of every training vector.
            for (i, v) in data.chunks_exact(dim).enumerate() {
                sub[i * dsub..(i + 1) * dsub].copy_from_slice(&v[j * dsub..(j + 1) * dsub]);
            }
            let cfg = KMeansConfig::new(config.ksub()).with_seed(seed.wrapping_add(j as u64));
            let model = kmeans_train(&sub, dsub, &cfg)?;
            codebooks.push(Codebook::new(model.centroids().to_vec(), dsub));
        }
        Ok(ProductQuantizer {
            config: *config,
            codebooks,
        })
    }

    /// Builds a quantizer from pre-existing codebooks (deserialization,
    /// tests, hand-crafted fixtures).
    ///
    /// # Panics
    ///
    /// Panics if the number or shape of codebooks contradicts `config`.
    pub fn from_codebooks(config: PqConfig, codebooks: Vec<Codebook>) -> Self {
        assert_eq!(
            codebooks.len(),
            config.m(),
            "need one codebook per sub-quantizer"
        );
        for cb in &codebooks {
            assert_eq!(cb.ksub(), config.ksub());
            assert_eq!(cb.dsub(), config.dsub());
        }
        ProductQuantizer { config, codebooks }
    }

    /// The configuration this quantizer was trained with.
    pub fn config(&self) -> &PqConfig {
        &self.config
    }

    /// The codebook of sub-quantizer `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= m`.
    pub fn codebook(&self, j: usize) -> &Codebook {
        &self.codebooks[j]
    }

    /// Encodes one vector into `out` (one byte per component).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim` or `out.len() != m` (hot path; the checked
    /// variant is [`encode`](Self::encode)).
    pub fn encode_into(&self, v: &[f32], out: &mut [u8]) {
        assert_eq!(v.len(), self.config.dim());
        assert_eq!(out.len(), self.config.m());
        let dsub = self.config.dsub();
        for (j, slot) in out.iter_mut().enumerate() {
            let (idx, _) = self.codebooks[j].quantize(&v[j * dsub..(j + 1) * dsub]);
            *slot = idx as u8;
        }
    }

    /// Encodes one vector, returning its `pqcode` (paper §2.1).
    ///
    /// # Errors
    ///
    /// [`PqError::DimMismatch`] if `v.len() != dim`.
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        let mut out = vec![0u8; self.config.m()];
        self.encode_into(v, &mut out);
        out
    }

    /// Encodes a row-major batch into the Figure-1 row-major code layout.
    ///
    /// # Errors
    ///
    /// [`PqError::DimMismatch`] if `data` is not a multiple of `dim`.
    pub fn encode_batch(&self, data: &[f32]) -> Result<RowMajorCodes, PqError> {
        let dim = self.config.dim();
        if !data.len().is_multiple_of(dim) {
            return Err(PqError::DimMismatch {
                expected: dim,
                actual: data.len(),
            });
        }
        let n = data.len() / dim;
        let m = self.config.m();
        let mut codes = vec![0u8; n * m];
        for (i, v) in data.chunks_exact(dim).enumerate() {
            self.encode_into(v, &mut codes[i * m..(i + 1) * m]);
        }
        Ok(RowMajorCodes::new(codes, m))
    }

    /// Encodes a row-major batch on `pool` (encoding is embarrassingly
    /// parallel and dominates index-build time).
    ///
    /// Results are identical to [`encode_batch`](Self::encode_batch): every
    /// row is encoded independently and written to its own output slot, so
    /// neither thread count nor scheduling affects the codes.
    ///
    /// # Errors
    ///
    /// [`PqError::DimMismatch`] if `data` is not a multiple of `dim`.
    pub fn encode_batch_parallel(
        &self,
        data: &[f32],
        pool: &pqfs_pool::ThreadPool,
    ) -> Result<RowMajorCodes, PqError> {
        let dim = self.config.dim();
        if !data.len().is_multiple_of(dim) {
            return Err(PqError::DimMismatch {
                expected: dim,
                actual: data.len(),
            });
        }
        let m = self.config.m();
        // Chunks of whole rows, many more than threads, so the pool's queue
        // balances the load.
        const CHUNK_ROWS: usize = 256;
        let mut codes = vec![0u8; data.len() / dim * m];
        let mut chunks: Vec<&mut [u8]> = codes.chunks_mut(CHUNK_ROWS * m).collect();
        pool.parallel_map_mut(&mut chunks, |c, out| {
            let rows = data[c * CHUNK_ROWS * dim..].chunks_exact(dim);
            for (code, row) in out.chunks_exact_mut(m).zip(rows) {
                self.encode_into(row, code);
            }
        });
        Ok(RowMajorCodes::new(codes, m))
    }

    /// Decodes a code back to its reconstruction `q_p(x)` — the
    /// concatenation of the selected centroids.
    ///
    /// # Errors
    ///
    /// [`PqError::CodeLenMismatch`] if `code.len() != m`.
    pub fn decode(&self, code: &[u8]) -> Result<Vec<f32>, PqError> {
        if code.len() != self.config.m() {
            return Err(PqError::CodeLenMismatch {
                expected: self.config.m(),
                actual: code.len(),
            });
        }
        let mut out = Vec::with_capacity(self.config.dim());
        for (j, &idx) in code.iter().enumerate() {
            debug_assert!((idx as usize) < self.codebooks[j].ksub());
            out.extend_from_slice(self.codebooks[j].centroid(idx as usize));
        }
        Ok(out)
    }

    /// Squared quantization error of one vector, `||x − q_p(x)||²`.
    pub fn quantization_error(&self, v: &[f32]) -> Result<f32, PqError> {
        if v.len() != self.config.dim() {
            return Err(PqError::DimMismatch {
                expected: self.config.dim(),
                actual: v.len(),
            });
        }
        let dsub = self.config.dsub();
        let mut err = 0f32;
        for (j, cb) in self.codebooks.iter().enumerate() {
            let (_, d) = cb.quantize(&v[j * dsub..(j + 1) * dsub]);
            err += d;
        }
        Ok(err)
    }

    /// Applies the §4.3 **optimized assignment of centroid indexes**.
    ///
    /// Each codebook's centroids are clustered with same-size k-means into
    /// `portions` balanced clusters; centroids of a cluster receive
    /// consecutive indexes, so each distance-table *portion* (16 consecutive
    /// entries for Fast Scan) holds mutually close centroids and the §4.3
    /// minimum tables become tight.
    ///
    /// Relabeling is a bijection: geometry, quantization error and ADC
    /// distances are untouched. **Codes produced before the call are
    /// invalidated** — optimize first, then encode the database.
    ///
    /// Returns the permutation applied to each codebook (`perm[j][new] =
    /// old`), which tests and tooling can use to translate codes.
    ///
    /// # Errors
    ///
    /// [`PqError::BadPortioning`] if `k*` is not divisible by `portions`, or
    /// a clustering failure as [`PqError::Training`].
    pub fn optimize_assignment(
        &mut self,
        portions: usize,
        seed: u64,
    ) -> Result<Vec<Vec<usize>>, PqError> {
        let ksub = self.config.ksub();
        if portions == 0 || !ksub.is_multiple_of(portions) {
            return Err(PqError::BadPortioning { ksub, portions });
        }
        let mut perms = Vec::with_capacity(self.codebooks.len());
        for (j, cb) in self.codebooks.iter_mut().enumerate() {
            let cfg = SameSizeConfig::new(portions).with_seed(seed.wrapping_add(j as u64));
            let clustering = train_same_size(cb.centroids(), cb.dsub(), &cfg)?;
            // Consecutive indexes per cluster: concatenate the groups.
            let perm: Vec<usize> = clustering.groups().into_iter().flatten().collect();
            cb.permute(&perm);
            perms.push(perm);
        }
        Ok(perms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqfs_kmeans::distance::l2_sq;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn training_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(0.0..255.0f32)).collect()
    }

    fn small_pq() -> (ProductQuantizer, Vec<f32>) {
        let config = PqConfig::new(16, 4, 4).unwrap(); // 4 sub-quantizers × 16 centroids
        let data = training_data(200, 16, 7);
        let pq = ProductQuantizer::train(&data, &config, 1).unwrap();
        (pq, data)
    }

    #[test]
    fn encode_decode_roundtrip_reduces_error() {
        let (pq, data) = small_pq();
        for v in data.chunks_exact(16).take(10) {
            let code = pq.encode(v);
            let rec = pq.decode(&code).unwrap();
            assert_eq!(rec.len(), 16);
            let err = l2_sq(v, &rec);
            // Same quantity, different float accumulation order.
            let per_sub = pq.quantization_error(v).unwrap();
            assert!((err - per_sub).abs() <= 1e-3 * err.max(1.0));
            // Reconstruction must beat a random reconstruction by far.
            assert!(err < l2_sq(v, &[0.0; 16]));
        }
    }

    #[test]
    fn encode_is_deterministic_and_in_range() {
        let (pq, data) = small_pq();
        let v = &data[..16];
        let a = pq.encode(v);
        let b = pq.encode(v);
        assert_eq!(a, b);
        assert!(a.iter().all(|&c| (c as usize) < 16));
    }

    #[test]
    fn encode_batch_matches_single_encodes() {
        let (pq, data) = small_pq();
        let codes = pq.encode_batch(&data[..16 * 20]).unwrap();
        for (i, v) in data[..16 * 20].chunks_exact(16).enumerate() {
            assert_eq!(codes.code(i), pq.encode(v).as_slice());
        }
        assert_eq!(codes.len(), 20);
    }

    #[test]
    fn encode_batch_parallel_is_bit_identical_to_serial() {
        let (pq, _) = small_pq();
        let data = training_data(3000, 16, 9);
        let serial = pq.encode_batch(&data).unwrap();
        for threads in [1usize, 2, 8] {
            let pool = pqfs_pool::ThreadPool::new(threads);
            let parallel = pq.encode_batch_parallel(&data, &pool).unwrap();
            assert_eq!(parallel.as_bytes(), serial.as_bytes(), "{threads} threads");
        }
        let global = pq
            .encode_batch_parallel(&data, pqfs_pool::ThreadPool::global())
            .unwrap();
        assert_eq!(global.as_bytes(), serial.as_bytes());
    }

    #[test]
    fn training_is_deterministic() {
        let config = PqConfig::new(8, 2, 4).unwrap();
        let data = training_data(100, 8, 3);
        let a = ProductQuantizer::train(&data, &config, 5).unwrap();
        let b = ProductQuantizer::train(&data, &config, 5).unwrap();
        for j in 0..2 {
            assert_eq!(a.codebook(j).centroids(), b.codebook(j).centroids());
        }
    }

    #[test]
    fn train_rejects_untrainable_and_bad_shapes() {
        let cfg16 = PqConfig::pq4x16(128);
        let data = training_data(10, 128, 0);
        assert_eq!(
            ProductQuantizer::train(&data, &cfg16, 0).unwrap_err(),
            PqError::Untrainable { nbits: 16 }
        );
        let cfg = PqConfig::new(16, 4, 4).unwrap();
        assert!(matches!(
            ProductQuantizer::train(&data[..100], &cfg, 0),
            Err(PqError::DimMismatch { .. })
        ));
        // Too few training vectors for 16 centroids.
        let tiny = training_data(4, 16, 0);
        assert!(matches!(
            ProductQuantizer::train(&tiny, &cfg, 0),
            Err(PqError::Training(_))
        ));
    }

    #[test]
    fn decode_rejects_wrong_code_length() {
        let (pq, _) = small_pq();
        assert_eq!(
            pq.decode(&[0, 1]).unwrap_err(),
            PqError::CodeLenMismatch {
                expected: 4,
                actual: 2
            }
        );
    }

    #[test]
    fn optimized_assignment_preserves_geometry() {
        let (mut pq, data) = small_pq();
        let v = &data[..16];
        let before_err = pq.quantization_error(v).unwrap();
        let before_rec = pq.decode(&pq.encode(v)).unwrap();

        let perms = pq.optimize_assignment(4, 11).unwrap(); // 4 portions of 4
        assert_eq!(perms.len(), 4);

        let after_err = pq.quantization_error(v).unwrap();
        let after_rec = pq.decode(&pq.encode(v)).unwrap();
        assert_eq!(
            before_err, after_err,
            "relabeling must not change the error"
        );
        assert_eq!(before_rec, after_rec, "reconstruction must be identical");
    }

    #[test]
    fn optimized_assignment_translates_codes_via_returned_perm() {
        let (mut pq, data) = small_pq();
        let v = &data[16..32];
        let old_code = pq.encode(v);
        let perms = pq.optimize_assignment(4, 2).unwrap();
        let new_code = pq.encode(v);
        // perm[j][new] = old: the new code position must point at the old
        // centroid index.
        for j in 0..4 {
            assert_eq!(perms[j][new_code[j] as usize], old_code[j] as usize);
        }
    }

    #[test]
    fn optimize_assignment_rejects_bad_portions() {
        let (mut pq, _) = small_pq();
        assert_eq!(
            pq.optimize_assignment(0, 0).unwrap_err(),
            PqError::BadPortioning {
                ksub: 16,
                portions: 0
            }
        );
        assert_eq!(
            pq.optimize_assignment(3, 0).unwrap_err(),
            PqError::BadPortioning {
                ksub: 16,
                portions: 3
            }
        );
    }
}
