//! Dictionaries for compressed columns.
//!
//! Paper §6: "In the case of dictionary-based compression (or quantization),
//! the database stores compact codes. A dictionary (or codebook) holds the
//! actual values corresponding to the compact codes."
//!
//! The dictionary here is built from **quantiles** of the column values and
//! is therefore *sorted* — the 1-dimensional analogue of the paper's §4.3
//! optimized assignment: each 16-entry portion holds close values, so the
//! portion maxima (for top-k upper bounds) and portion means (for
//! approximate aggregates) are tight.

/// Entries per portion (one SIMD small table).
pub const PORTION: usize = 16;

/// Maximum dictionary size (codes are single bytes).
pub const MAX_DICT: usize = 256;

/// A sorted dictionary of at most 256 float values.
#[derive(Debug, Clone, PartialEq)]
pub struct Dictionary {
    values: Vec<f32>,
}

impl Dictionary {
    /// Builds a dictionary from explicit values (sorted internally).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty, longer than 256, or contains
    /// non-finite entries.
    pub fn new(mut values: Vec<f32>) -> Self {
        assert!(
            !values.is_empty() && values.len() <= MAX_DICT,
            "1..=256 values required"
        );
        assert!(
            values.iter().all(|v| v.is_finite()),
            "values must be finite"
        );
        values.sort_by(f32::total_cmp); // entries asserted finite above
        Dictionary { values }
    }

    /// Builds a quantile dictionary: `size` evenly spaced quantiles of the
    /// data, deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, `size == 0` or `size > 256`.
    pub fn from_quantiles(data: &[f32], size: usize) -> Self {
        assert!(!data.is_empty(), "cannot build a dictionary from no data");
        assert!(size > 0 && size <= MAX_DICT);
        let mut sorted = data.to_vec();
        sorted.sort_by(f32::total_cmp);
        let mut values: Vec<f32> = (0..size)
            .map(|i| {
                let rank = i as f64 / (size.max(2) - 1) as f64 * (sorted.len() - 1) as f64;
                sorted[rank.round() as usize]
            })
            .collect();
        values.dedup();
        Dictionary { values }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false: a dictionary is never empty (kept beside
    /// [`Dictionary::len`]).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The decoded value of `code`.
    ///
    /// # Panics
    ///
    /// Panics if `code as usize >= len()`.
    #[inline]
    pub fn decode(&self, code: u8) -> f32 {
        self.values[code as usize]
    }

    /// All values, ascending.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Code of the entry nearest to `v` (ties toward the lower code).
    pub fn encode(&self, v: f32) -> u8 {
        // Binary search on the sorted dictionary, then compare neighbors.
        let idx = self.values.partition_point(|&d| d < v);
        let candidates = [idx.saturating_sub(1), idx.min(self.values.len() - 1)];
        let mut best = candidates[0];
        for &c in &candidates {
            if (self.values[c] - v).abs() < (self.values[best] - v).abs() {
                best = c;
            }
        }
        best as u8
    }

    /// Maximum of each portion — the §6 *maximum tables* for top-k upper
    /// bounds. Always 16 entries; portions beyond the dictionary replicate
    /// the global minimum so they can never win a max comparison.
    pub fn portion_maxima(&self) -> [f32; PORTION] {
        let fill = self.values[0];
        let mut out = [fill; PORTION];
        for (p, chunk) in self.values.chunks(PORTION).enumerate() {
            out[p] = chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        }
        out
    }

    /// Minimum of each portion (for top-k-smallest queries / lower bounds).
    pub fn portion_minima(&self) -> [f32; PORTION] {
        let fill = self.values[self.values.len() - 1]; // never empty
        let mut out = [fill; PORTION];
        for (p, chunk) in self.values.chunks(PORTION).enumerate() {
            out[p] = chunk.iter().copied().fold(f32::INFINITY, f32::min);
        }
        out
    }

    /// Mean of each portion — the §6 *tables of aggregates* for approximate
    /// aggregation.
    pub fn portion_means(&self) -> [f32; PORTION] {
        let mut out = [0f32; PORTION];
        for (p, chunk) in self.values.chunks(PORTION).enumerate() {
            out[p] = chunk.iter().sum::<f32>() / chunk.len() as f32;
        }
        out
    }

    /// Largest distance between a value and its portion mean — an a-priori
    /// error bound for portion-mean aggregation.
    pub fn max_portion_spread(&self) -> f32 {
        let means = self.portion_means();
        self.values
            .chunks(PORTION)
            .enumerate()
            .flat_map(|(p, chunk)| chunk.iter().map(move |&v| (v - means[p]).abs()))
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_values() {
        let d = Dictionary::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(d.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn quantile_dictionary_spans_the_data() {
        let data: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let d = Dictionary::from_quantiles(&data, 256);
        assert!(d.len() > 200);
        assert_eq!(d.values()[0], 0.0);
        assert_eq!(*d.values().last().unwrap(), 999.0);
    }

    #[test]
    fn encode_decode_picks_nearest() {
        let d = Dictionary::new(vec![0.0, 10.0, 20.0]);
        assert_eq!(d.encode(-5.0), 0);
        assert_eq!(d.encode(4.0), 0);
        assert_eq!(d.encode(6.0), 1);
        assert_eq!(d.encode(14.0), 1);
        assert_eq!(d.encode(19.0), 2);
        assert_eq!(d.encode(100.0), 2);
        assert_eq!(d.decode(1), 10.0);
    }

    #[test]
    fn portion_maxima_bound_every_member() {
        let values: Vec<f32> = (0..100).map(|i| ((i * 37) % 83) as f32).collect();
        let d = Dictionary::new(values);
        let maxima = d.portion_maxima();
        for (i, &v) in d.values().iter().enumerate() {
            assert!(maxima[i / PORTION] >= v);
        }
    }

    #[test]
    fn portion_minima_bound_every_member() {
        let values: Vec<f32> = (0..60).map(|i| ((i * 53) % 71) as f32).collect();
        let d = Dictionary::new(values);
        let minima = d.portion_minima();
        for (i, &v) in d.values().iter().enumerate() {
            assert!(minima[i / PORTION] <= v);
        }
    }

    #[test]
    fn sorted_dictionary_has_tight_portions() {
        // Sorted portions: spread within a portion is far below the global
        // spread — the reason quantile dictionaries act like the optimized
        // assignment.
        let values: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let d = Dictionary::new(values);
        assert!(d.max_portion_spread() <= 8.0);
    }

    #[test]
    fn portion_means_average_their_chunk() {
        let d = Dictionary::new((0..32).map(|i| i as f32).collect());
        let means = d.portion_means();
        assert_eq!(means[0], 7.5);
        assert_eq!(means[1], 23.5);
    }

    #[test]
    #[should_panic(expected = "1..=256")]
    fn oversized_dictionary_is_rejected() {
        Dictionary::new(vec![0.0; 257]);
    }
}
