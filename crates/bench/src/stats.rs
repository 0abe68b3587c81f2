//! Summary statistics for response-time distributions.
//!
//! The paper characterizes scan times by mean and quartiles (Table 4:
//! mean / 25 % / median / 75 % / 95 %) and plots empirical CDFs (Figure 14).

/// Summary of a sample of measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
}

impl Summary {
    /// Builds a summary from raw values (NaNs are rejected).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains NaN.
    pub fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarize an empty sample");
        assert!(values.iter().all(|v| !v.is_nan()), "sample contains NaN");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp); // NaNs rejected above
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Summary { sorted, mean }
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest value.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest value.
    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1] // never empty: checked at construction
    }

    /// Linear-interpolation percentile, `p ∈ [0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let rank = p / 100.0 * (self.sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The paper's Table 4 row: `(mean, p25, median, p75, p95)`.
    pub fn table4_row(&self) -> (f64, f64, f64, f64, f64) {
        (
            self.mean(),
            self.percentile(25.0),
            self.median(),
            self.percentile(75.0),
            self.percentile(95.0),
        )
    }

    /// Empirical CDF sampled at `points` evenly spaced values across the
    /// data range — the Figure 14 curve as `(value, fraction ≤ value)`.
    pub fn cdf(&self, points: usize) -> Vec<(f64, f64)> {
        let points = points.max(2);
        let (lo, hi) = (self.min(), self.max());
        let n = self.sorted.len() as f64;
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                let count = self.sorted.partition_point(|&v| v <= x);
                (x, count as f64 / n)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let s = Summary::from_values(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Summary::from_values(&[0.0, 10.0]);
        assert_eq!(s.percentile(0.0), 0.0);
        assert_eq!(s.percentile(50.0), 5.0);
        assert_eq!(s.percentile(100.0), 10.0);
        assert_eq!(s.percentile(25.0), 2.5);
    }

    #[test]
    fn single_value_sample() {
        let s = Summary::from_values(&[7.0]);
        assert_eq!(s.median(), 7.0);
        assert_eq!(s.percentile(95.0), 7.0);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let s = Summary::from_values(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median(), 3.0);
    }

    #[test]
    fn table4_row_matches_individual_calls() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = Summary::from_values(&values);
        let (mean, p25, med, p75, p95) = s.table4_row();
        assert_eq!(mean, s.mean());
        assert_eq!(p25, s.percentile(25.0));
        assert_eq!(med, s.median());
        assert_eq!(p75, s.percentile(75.0));
        assert_eq!(p95, s.percentile(95.0));
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let values: Vec<f64> = (0..50).map(|i| ((i * 17) % 23) as f64).collect();
        let s = Summary::from_values(&values);
        let cdf = s.cdf(20);
        assert_eq!(cdf.len(), 20);
        for pair in cdf.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "CDF must be monotone");
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_is_rejected() {
        Summary::from_values(&[]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_is_rejected() {
        Summary::from_values(&[1.0, f64::NAN]);
    }
}
