//! Dictionary-compressed columns and their exact scans.

use super::dict::Dictionary;

/// A column stored as one byte per row plus a shared dictionary.
#[derive(Debug, Clone)]
pub struct CompressedColumn {
    dict: Dictionary,
    codes: Vec<u8>,
}

impl CompressedColumn {
    /// Compresses raw values with a quantile dictionary of `dict_size`
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `dict_size ∉ 1..=256`.
    pub fn compress(data: &[f32], dict_size: usize) -> Self {
        let dict = Dictionary::from_quantiles(data, dict_size);
        let codes = data.iter().map(|&v| dict.encode(v)).collect();
        CompressedColumn { dict, codes }
    }

    /// Wraps pre-encoded codes.
    ///
    /// # Panics
    ///
    /// Panics if any code is out of dictionary range.
    pub fn from_codes(dict: Dictionary, codes: Vec<u8>) -> Self {
        assert!(
            codes.iter().all(|&c| (c as usize) < dict.len()),
            "code out of dictionary range"
        );
        CompressedColumn { dict, codes }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The shared dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// The raw codes.
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Decoded value of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> f32 {
        self.dict.decode(self.codes[i])
    }

    /// Exact mean via per-row dictionary lookups (the cache-resident
    /// baseline the §6 approximate aggregate is compared against).
    pub fn exact_mean(&self) -> f32 {
        if self.codes.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.codes.iter().map(|&c| self.dict.decode(c) as f64).sum();
        (sum / self.codes.len() as f64) as f32
    }

    /// Exact top-k **largest** values as `(row, value)`, ordered by
    /// descending value with ascending-row tie-break. Baseline for the
    /// fast top-k.
    pub fn topk_max_exact(&self, k: usize) -> Vec<(u32, f32)> {
        let mut all: Vec<(u32, f32)> = self
            .codes
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u32, self.dict.decode(c)))
            .collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Maximum compression error of this column (half the largest gap
    /// between adjacent dictionary entries bounds it for in-range values).
    pub fn reconstruction_error(&self, original: &[f32]) -> f32 {
        assert_eq!(original.len(), self.codes.len());
        original
            .iter()
            .zip(&self.codes)
            .map(|(&v, &c)| (v - self.dict.decode(c)).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 31) % 997) as f32).collect()
    }

    #[test]
    fn compress_roundtrips_within_dictionary_error() {
        let data = ramp(5000);
        let col = CompressedColumn::compress(&data, 256);
        assert_eq!(col.len(), 5000);
        // 256 quantiles over 997 distinct values: max error ~ half a bin.
        assert!(col.reconstruction_error(&data) <= 4.0);
    }

    #[test]
    fn exact_mean_matches_decoded_average() {
        let data = ramp(1000);
        let col = CompressedColumn::compress(&data, 64);
        let manual: f64 = (0..1000).map(|i| col.get(i) as f64).sum::<f64>() / 1000.0;
        assert!((col.exact_mean() as f64 - manual).abs() < 1e-3);
    }

    #[test]
    fn topk_exact_is_sorted_and_tie_broken() {
        let dict = Dictionary::new(vec![1.0, 2.0, 3.0]);
        let col = CompressedColumn::from_codes(dict, vec![0, 2, 1, 2, 0]);
        let top = col.topk_max_exact(3);
        assert_eq!(top, vec![(1, 3.0), (3, 3.0), (2, 2.0)]);
    }

    #[test]
    fn empty_topk_and_small_k() {
        let dict = Dictionary::new(vec![5.0]);
        let col = CompressedColumn::from_codes(dict, vec![0, 0]);
        assert_eq!(col.topk_max_exact(0).len(), 0);
        assert_eq!(col.topk_max_exact(10).len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of dictionary range")]
    fn from_codes_validates_range() {
        CompressedColumn::from_codes(Dictionary::new(vec![1.0]), vec![0, 1]);
    }
}
