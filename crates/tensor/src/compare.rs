//! Numeric comparison helpers for kernel-equivalence testing.
//!
//! Every fused kernel in this repository has an unfused reference, and every
//! optimized attention/encoder variant must produce the same numbers as the
//! baseline on valid tokens. These helpers quantify "the same numbers" in
//! floating point.

/// Maximum absolute difference between two equally sized slices.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "compared slices must match in length");
    a.iter().zip(b).map(|(&x, &y)| (x - y).abs()).fold(0.0f32, f32::max)
}

/// Asserts two slices are element-wise close within an absolute tolerance,
/// reporting the first offending index on failure.
///
/// # Panics
/// Panics (with context) when any element pair differs by more than `tol`,
/// when either slice contains NaN, or when lengths mismatch.
#[track_caller]
pub fn assert_close(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(a.len(), b.len(), "compared slices must match in length");
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        assert!(!x.is_nan() && !y.is_nan(), "NaN at index {i}: left={x}, right={y}");
        assert!(
            (x - y).abs() <= tol,
            "mismatch at index {i}: left={x}, right={y}, |diff|={} > tol={tol}",
            (x - y).abs()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abs_diff_basics() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }

    #[test]
    fn close_passes_and_fails() {
        assert_close(&[1.0, 2.0], &[1.0 + 1e-7, 2.0], 1e-6);
        let r = std::panic::catch_unwind(|| assert_close(&[1.0], &[1.1], 1e-3));
        assert!(r.is_err());
    }

    #[test]
    fn close_rejects_nan() {
        let r = std::panic::catch_unwind(|| assert_close(&[f32::NAN], &[0.0], 1.0));
        assert!(r.is_err());
    }
}
