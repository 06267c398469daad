//! Numeric distance functions (paper §2.3: duplicate detection compares
//! matched attributes "using edit distance and numerical distance
//! functions").

/// Relative numeric similarity in `[0, 1]`:
/// `1 − |a − b| / max(|a|, |b|)`, with the conventions that equal values
/// (including both zero) are fully similar and opposite-magnitude values
/// floor at 0.
pub fn relative_similarity(a: f64, b: f64) -> f64 {
    if a == b {
        return 1.0;
    }
    let denom = a.abs().max(b.abs());
    if denom == 0.0 || !denom.is_finite() {
        return 0.0;
    }
    (1.0 - (a - b).abs() / denom).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_fully_similar() {
        assert_eq!(relative_similarity(5.0, 5.0), 1.0);
        assert_eq!(relative_similarity(0.0, 0.0), 1.0);
    }

    #[test]
    fn relative_scales_with_magnitude() {
        // 100 vs 99 is much closer than 2 vs 1.
        assert!(relative_similarity(100.0, 99.0) > relative_similarity(2.0, 1.0));
        assert_eq!(relative_similarity(2.0, 1.0), 0.5);
    }

    #[test]
    fn relative_floors_at_zero() {
        assert_eq!(relative_similarity(5.0, -5.0), 0.0);
        assert_eq!(relative_similarity(0.0, 3.0), 0.0);
    }

    #[test]
    fn relative_symmetry() {
        for (a, b) in [(1.5, 2.5), (-3.0, 7.0), (100.0, 101.0)] {
            assert_eq!(relative_similarity(a, b), relative_similarity(b, a));
        }
    }

    #[test]
    fn non_finite_inputs_are_dissimilar() {
        assert_eq!(relative_similarity(f64::INFINITY, 1.0), 0.0);
        assert_eq!(relative_similarity(f64::NAN, f64::NAN), 0.0);
    }
}
