//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 1]`).
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of `samples` (all finite).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median of unsorted samples; 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Mean of the samples; 0 for none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// How many samples lie strictly beyond the nearest-rank `p` percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// Median, first and third quartile as `statistics.quantiles(v, n=4)` gives
/// them in Python (the "exclusive" method), so `aa` prints the same spread
/// the acceptance rule is stated in.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let q = |k: usize| {
        // position k*(n+1)/4, 1-based, linear interpolation, clamped
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + (s[lo] - s[lo - 1]) * frac
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert_eq!(samples_beyond(100, 0.95), 5);
        assert_eq!(samples_beyond(45, 0.75), 11);
        assert_eq!(samples_beyond(20, 0.75), 5);
        assert_eq!(samples_beyond(0, 0.75), 0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q2, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((q1, q2, q3), (1.5, 4.0, 12.0));
    }
}
