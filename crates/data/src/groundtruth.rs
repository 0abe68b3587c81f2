//! Exact brute-force nearest neighbors, used as recall ground truth.
//!
//! ANN_SIFT1B ships precomputed ground truth as `.ivecs`, which this crate
//! does not read; it is computed here exactly, by a linear scan over the
//! float vectors.

/// One exact neighbor: base-set position and squared distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrueNeighbor {
    /// Position in the base set.
    pub id: u32,
    /// Squared L2 distance.
    pub dist: f32,
}

fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Exact `k` nearest base vectors of one query, ascending by
/// `(distance, id)` (the same tie-break every scan in the workspace uses).
///
/// # Panics
///
/// Panics if `base` is not a multiple of `dim` or the query has the wrong
/// dimensionality.
pub fn exact_knn(base: &[f32], dim: usize, query: &[f32], k: usize) -> Vec<TrueNeighbor> {
    assert!(
        dim > 0 && base.len().is_multiple_of(dim),
        "base must be n x dim"
    );
    assert_eq!(query.len(), dim, "query dimensionality mismatch");
    let mut all: Vec<TrueNeighbor> = base
        .chunks_exact(dim)
        .enumerate()
        .map(|(i, v)| TrueNeighbor {
            id: i as u32,
            dist: l2_sq(query, v),
        })
        .collect();
    all.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_obvious_neighbor() {
        let base = [0.0f32, 0.0, 10.0, 0.0, 0.0, 10.0];
        let result = exact_knn(&base, 2, &[9.0, 1.0], 2);
        assert_eq!(result[0].id, 1);
        assert_eq!(result[0].dist, 2.0);
        assert_eq!(result[1].id, 0); // (0,0) at 82 beats (0,10) at 162
    }

    #[test]
    fn ties_resolve_by_id() {
        let base = [1.0f32, 1.0, 1.0, 1.0]; // two identical points
        let result = exact_knn(&base, 2, &[0.0, 0.0], 2);
        assert_eq!(result[0].id, 0);
        assert_eq!(result[1].id, 1);
    }

    #[test]
    fn k_larger_than_base_returns_all() {
        let base = [0.0f32, 0.0];
        let result = exact_knn(&base, 2, &[1.0, 1.0], 10);
        assert_eq!(result.len(), 1);
    }
}
