//! Recall metrics for approximate nearest-neighbor results.
//!
//! The paper does not re-measure PQ accuracy (Fast Scan returns the exact
//! PQ Scan results), but the IVFADC pipeline tests and examples report
//! recall against brute-force ground truth, as \[14\] does.

/// Recall@R for one query: 1 if the true nearest neighbor appears among the
/// first `r` returned ids, else 0.
pub fn recall_at_r(true_nn: u64, returned: &[u64], r: usize) -> f64 {
    if returned.iter().take(r).any(|&id| id == true_nn) {
        1.0
    } else {
        0.0
    }
}

/// Mean Recall@R over a batch: `true_nns[i]` is the exact nearest neighbor
/// of query `i`, `returned[i]` its (ordered) approximate result list.
///
/// # Panics
///
/// Panics if the two batches have different lengths or are empty.
pub fn mean_recall_at_r(true_nns: &[u64], returned: &[Vec<u64>], r: usize) -> f64 {
    assert_eq!(true_nns.len(), returned.len(), "batch length mismatch");
    assert!(!true_nns.is_empty(), "empty batch");
    let hits: f64 = true_nns
        .iter()
        .zip(returned)
        .map(|(&nn, res)| recall_at_r(nn, res, r))
        .sum();
    hits / true_nns.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recall_at_r_respects_cutoff() {
        let returned = vec![5, 3, 9];
        assert_eq!(recall_at_r(3, &returned, 1), 0.0);
        assert_eq!(recall_at_r(3, &returned, 2), 1.0);
        assert_eq!(recall_at_r(7, &returned, 3), 0.0);
    }

    #[test]
    fn mean_recall_averages() {
        let truth = vec![1u64, 2, 3, 4];
        let results = vec![vec![1, 9], vec![9, 2], vec![9, 9], vec![4, 9]];
        assert_eq!(mean_recall_at_r(&truth, &results, 1), 0.5);
        assert_eq!(mean_recall_at_r(&truth, &results, 2), 0.75);
    }
}
