//! Synthetic variable-length workload generators.
//!
//! The paper evaluates on batches whose *average* sequence length is 60% of
//! the maximum (Fig. 14 caption; Table II's α = 0.6). Production traces from
//! TikTok/Douyin are not available, so these generators provide the closest
//! synthetic equivalents: the paper's own uniform-α distribution plus Zipf
//! and clamped-normal shapes for the serving example's request streams.

use crate::mask::BatchMask;
use bt_tensor::rng::Xoshiro256StarStar;
use bt_tensor::Tensor;

/// A distribution over sequence lengths, all bounded by a maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LengthDistribution {
    /// Every sequence has exactly the maximum length (the fixed-shape case
    /// conventional frameworks assume).
    Fixed,
    /// Uniform over `[ceil((2α−1)·max), max]`, whose mean is `α·max`; with
    /// the paper's α = 0.6 this is uniform on `[0.2·max, max]`. Requires
    /// `0.5 ≤ α ≤ 1.0`.
    PaperUniform {
        /// Target ratio of average length to maximum length.
        alpha: f64,
    },
    /// Uniform over `[lo, max]`.
    Uniform {
        /// Inclusive lower bound on lengths.
        lo: usize,
    },
    /// Zipf-like: lengths cluster near short values with a heavy tail up to
    /// the maximum — a common shape for user-generated text.
    Zipf {
        /// Skew exponent (larger ⇒ shorter sequences dominate). Must be > 0.
        exponent: f64,
    },
    /// Normal with the given mean fraction and coefficient of variation,
    /// clamped to `[1, max]`.
    NormalClamped {
        /// Mean length as a fraction of the maximum.
        mean_frac: f64,
        /// Standard deviation as a fraction of the maximum.
        std_frac: f64,
    },
}

impl LengthDistribution {
    /// Samples `batch` sequence lengths bounded by `max_seq_len`.
    ///
    /// # Panics
    /// Panics if `max_seq_len == 0`, or on invalid distribution parameters
    /// (`alpha` outside `[0.5, 1]`, non-positive Zipf exponent).
    pub fn sample(&self, batch: usize, max_seq_len: usize, seed: u64) -> Vec<usize> {
        assert!(max_seq_len > 0, "max_seq_len must be positive");
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..batch).map(|_| self.sample_one(max_seq_len, &mut rng)).collect()
    }

    fn sample_one(&self, max: usize, rng: &mut Xoshiro256StarStar) -> usize {
        match *self {
            LengthDistribution::Fixed => max,
            LengthDistribution::PaperUniform { alpha } => {
                assert!(
                    (0.5..=1.0).contains(&alpha),
                    "PaperUniform alpha must be in [0.5, 1], got {alpha}"
                );
                let lo = (((2.0 * alpha - 1.0) * max as f64).ceil() as usize).max(1);
                rng.range_inclusive(lo as u64, max as u64) as usize
            }
            LengthDistribution::Uniform { lo } => {
                let lo = lo.clamp(1, max);
                rng.range_inclusive(lo as u64, max as u64) as usize
            }
            LengthDistribution::Zipf { exponent } => {
                assert!(exponent > 0.0, "Zipf exponent must be positive");
                // Inverse-CDF sampling of a truncated power law on [1, max].
                let u = rng.next_f64().max(1e-12);
                let a = 1.0 - exponent;
                let len = if a.abs() < 1e-9 {
                    // exponent == 1: CDF is log.
                    (max as f64).powf(u)
                } else {
                    (u * ((max as f64).powf(a) - 1.0) + 1.0).powf(1.0 / a)
                };
                (len as usize).clamp(1, max)
            }
            LengthDistribution::NormalClamped { mean_frac, std_frac } => {
                let x = mean_frac * max as f64 + std_frac * max as f64 * rng.normal() as f64;
                (x.round() as isize).clamp(1, max as isize) as usize
            }
        }
    }

    /// Samples lengths and wraps them in a [`BatchMask`].
    ///
    /// # Panics
    /// As [`LengthDistribution::sample`].
    pub fn sample_mask(&self, batch: usize, max_seq_len: usize, seed: u64) -> BatchMask {
        let lens = self.sample(batch, max_seq_len, seed);
        BatchMask::from_lens(lens, max_seq_len).expect("sampled lengths are bounded by max")
    }
}

/// The paper's evaluation distribution: average length = 0.6 × maximum.
pub fn paper_workload(batch: usize, max_seq_len: usize, seed: u64) -> BatchMask {
    LengthDistribution::PaperUniform { alpha: 0.6 }.sample_mask(batch, max_seq_len, seed)
}

/// Convenience: a fully padded (fixed-length) mask.
pub fn fixed_workload(batch: usize, max_seq_len: usize) -> BatchMask {
    BatchMask::from_lens(vec![max_seq_len; batch], max_seq_len).expect("fixed lengths equal the maximum")
}

/// Zero-padded random input for a masked batch: a `[batch, max_seq,
/// hidden]` [`Tensor::randn`] draw with every row past a sequence's length
/// zeroed. The packed pipeline never reads padded rows, but padded
/// baselines do, so every path compared on one input sees the same words.
pub fn masked_randn(mask: &BatchMask, hidden: usize, seed: u64) -> Tensor {
    let mut t = Tensor::randn([mask.batch(), mask.max_seq_len(), hidden], seed);
    for (b, &len) in mask.seq_lens().iter().enumerate() {
        for s in len..mask.max_seq_len() {
            for h in 0..hidden {
                t.set(&[b, s, h], 0.0).expect("within shape");
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_randn_zeroes_padding() {
        let mask = BatchMask::from_lens(vec![2, 1], 3).unwrap();
        let t = masked_randn(&mask, 4, 1);
        assert_eq!(t.at(&[0, 2, 0]).unwrap(), 0.0);
        assert_eq!(t.at(&[1, 1, 3]).unwrap(), 0.0);
        assert_ne!(t.at(&[0, 0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn fixed_is_all_max() {
        let m = fixed_workload(4, 128);
        assert!(m.seq_lens().iter().all(|&l| l == 128));
        assert_eq!(m.alpha(), 1.0);
    }

    #[test]
    fn paper_uniform_mean_is_alpha_max() {
        let lens = LengthDistribution::PaperUniform { alpha: 0.6 }.sample(20_000, 1000, 42);
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        assert!((mean / 1000.0 - 0.6).abs() < 0.01, "mean ratio {}", mean / 1000.0);
        assert!(lens.iter().all(|&l| (200..=1000).contains(&l)));
    }

    #[test]
    fn paper_uniform_alpha_09() {
        let lens = LengthDistribution::PaperUniform { alpha: 0.9 }.sample(20_000, 500, 1);
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        assert!((mean / 500.0 - 0.9).abs() < 0.01);
    }

    #[test]
    fn zipf_skews_short() {
        let lens = LengthDistribution::Zipf { exponent: 1.5 }.sample(10_000, 512, 7);
        let short = lens.iter().filter(|&&l| l <= 64).count();
        assert!(short > 5_000, "zipf should be mostly short, got {short}");
        assert!(lens.iter().all(|&l| (1..=512).contains(&l)));
    }

    #[test]
    fn normal_clamped_in_bounds() {
        let d = LengthDistribution::NormalClamped {
            mean_frac: 0.5,
            std_frac: 0.3,
        };
        let lens = d.sample(5_000, 256, 3);
        assert!(lens.iter().all(|&l| (1..=256).contains(&l)));
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        assert!((mean - 128.0).abs() < 8.0, "mean {mean}");
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = paper_workload(16, 384, 5);
        let b = paper_workload(16, 384, 5);
        let c = paper_workload(16, 384, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        LengthDistribution::PaperUniform { alpha: 0.3 }.sample(1, 10, 0);
    }
}
