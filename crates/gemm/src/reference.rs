//! Naive triple-loop GEMM used as the oracle in tests and property checks.

/// Reference GEMM: `C = alpha * A · op(B)`.
///
/// * `a` is `m×k` row-major,
/// * `b` is `k×n` row-major (or `n×k` if `transb`),
/// * `c` is `m×n` row-major; its contents are overwritten, never read.
///
/// Unoptimized by design — this is the correctness oracle for every tuned
/// GEMM path in the crate.
///
/// # Panics
/// Panics if any slice is too short for its declared shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_ref(transb: bool, m: usize, n: usize, k: usize, alpha: f32, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= m * k, "A too short: {} < {}", a.len(), m * k);
    assert!(b.len() >= k * n, "B too short: {} < {}", b.len(), k * n);
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                let bv = if transb { b[j * k + p] } else { b[p * n + j] };
                acc += a[i * k + p] * bv;
            }
            c[i * n + j] = alpha * acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_matrix() {
        let a = [1.0, 0.0, 0.0, 1.0]; // I2
        let b = [1.0, 2.0, 3.0, 4.0];
        let mut c = [0.0; 4];
        gemm_ref(false, 2, 2, 2, 1.0, &a, &b, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        gemm_ref(false, 2, 2, 2, 1.0, &a, &b, &mut c);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transb_matches_manual_transpose() {
        // B stored as n×k, consumed as k×n.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let b_t = [1.0, 0.0, 2.0, 0.0, 1.0, 1.0]; // 2x3 (n=2, k=3)
        let mut c1 = [0.0; 4];
        gemm_ref(true, 2, 2, 3, 1.0, &a, &b_t, &mut c1);
        // Manual transpose to k×n.
        let b = [1.0, 0.0, 0.0, 1.0, 2.0, 1.0]; // 3x2
        let mut c2 = [0.0; 4];
        gemm_ref(false, 2, 2, 3, 1.0, &a, &b, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn alpha_scales_the_product() {
        let a = [2.0];
        let b = [3.0];
        let mut c = [10.0];
        gemm_ref(false, 1, 1, 1, 2.0, &a, &b, &mut c);
        assert_eq!(c, [2.0 * 6.0]);
    }
}
