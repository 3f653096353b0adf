//! Seeded input generation. Everything the runtime sees is made here from
//! `--seed` (tensors through `bt_tensor`'s seeded generators); the same seed
//! gives byte-identical lengths, tensors and arrival schedules.
//!
//! Lengths follow the paper's evaluation law (`PaperUniform { alpha: 0.6 }`:
//! uniform on `[ceil(0.2·max), max]`, mean `0.6·max`), but are drawn
//! *stratified*: `n` lengths take one jittered quantile from each of `n`
//! equal slices of the law, in seeded order. The marginal law is unchanged
//! while the token total of a run barely moves with the seed, so a run on
//! another seed measures the same amount of work on different inputs.

use bt_tensor::rng::Xoshiro256StarStar;

/// The paper's α: average length over maximum length.
pub const ALPHA: f64 = 0.6;

/// Inclusive length range of `PaperUniform { alpha: ALPHA }` at `max`.
pub fn length_range(max: usize) -> (usize, usize) {
    let lo = (((2.0 * ALPHA - 1.0) * max as f64).ceil() as usize).max(1);
    (lo, max)
}

/// The length at quantile `q ∈ [0, 1]` of the law.
fn length_at(q: f64, max: usize) -> usize {
    let (lo, hi) = length_range(max);
    let span = (hi - lo + 1) as f64;
    (lo + (q * span) as usize).min(hi)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, rng: &mut Xoshiro256StarStar) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i as u64 + 1) as usize);
    }
    p
}

/// `n` stratified lengths bounded by `max`, in seeded order.
pub fn stratified_lengths(n: usize, max: usize, rng: &mut Xoshiro256StarStar) -> Vec<usize> {
    permutation(n, rng)
        .into_iter()
        .map(|slot| length_at((slot as f64 + rng.next_f64()) / n as f64, max))
        .collect()
}

/// `batches` length vectors of `batch` sequences each (`batch` even).
///
/// Sequences come in antithetic pairs — quantiles `q` and `1 − q` — so every
/// batch holds `batch · α · max` valid tokens (±1 per pair from rounding)
/// while the spread *inside* a batch, which is what attention cost depends
/// on, still varies from batch to batch; the `q`s of one pair position are
/// stratified across the batches.
pub fn antithetic_batches(batches: usize, batch: usize, max: usize, rng: &mut Xoshiro256StarStar) -> Vec<Vec<usize>> {
    assert!(batch.is_multiple_of(2), "antithetic pairs need an even batch");
    let mut out = vec![Vec::with_capacity(batch); batches];
    for _pair in 0..batch / 2 {
        for (lens, slot) in out.iter_mut().zip(permutation(batches, rng)) {
            // q covers [0, 0.5): the pair (q, 1 − q) then covers the law once.
            let q = (slot as f64 + rng.next_f64()) / (2 * batches) as f64;
            lens.push(length_at(q, max));
            lens.push(length_at(1.0 - q, max));
        }
    }
    for lens in &mut out {
        let order = permutation(batch, rng);
        *lens = order.iter().map(|&i| lens[i]).collect();
    }
    out
}

/// `n` arrival times over `[0, horizon)` seconds, ascending: one arrival
/// in each of `n` equal slots, uniform within its slot. The mean rate is
/// `n / horizon` as for a Poisson process, but arrivals cannot clump: with
/// the few dozen requests one run has room for, Poisson clumping alone moved
/// the median request latency by half between seeds.
pub fn paced_schedule(n: usize, horizon: f64, rng: &mut Xoshiro256StarStar) -> Vec<f64> {
    let slot = horizon / n as f64;
    (0..n).map(|i| (i as f64 + rng.next_f64()) * slot).collect()
}

/// Sub-seed `stream` of the run seed (splitmix64 step), so each generated
/// object draws from its own sequence.
pub fn subseed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the bit patterns of `values` — the informational
/// `output_digest` that makes parent-vs-change output drift visible.
pub fn digest(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn same_seed_gives_identical_batches_and_schedules() {
        let a = antithetic_batches(16, 4, 256, &mut rng(7));
        let b = antithetic_batches(16, 4, 256, &mut rng(7));
        assert_eq!(a, b);
        assert_ne!(a, antithetic_batches(16, 4, 256, &mut rng(8)));
        let sa = paced_schedule(40, 10.0, &mut rng(3));
        let sb = paced_schedule(40, 10.0, &mut rng(3));
        assert_ne!(sa, paced_schedule(40, 10.0, &mut rng(4)));
        assert_eq!(
            sa.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            sb.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        );
        assert!(sa.windows(2).all(|w| w[0] <= w[1]) && sa.iter().all(|&t| (0.0..10.0).contains(&t)));
        assert!(
            sa.iter().enumerate().all(|(i, &t)| (t / 0.25) as usize == i),
            "one arrival per slot"
        );
        assert_eq!(digest(&[1.0, -0.0, f32::NAN]), digest(&[1.0, -0.0, f32::NAN]));
        assert_ne!(digest(&[0.0]), digest(&[-0.0]), "the digest is over bit patterns");
    }

    #[test]
    fn lengths_follow_the_law_and_totals_hold_across_seeds() {
        let (lo, hi) = length_range(256);
        assert_eq!((lo, hi), (52, 256));
        for seed in 0..20 {
            let batches = antithetic_batches(16, 4, 256, &mut rng(seed));
            for lens in &batches {
                assert!(lens.iter().all(|&l| (lo..=hi).contains(&l)));
                let total: usize = lens.iter().sum();
                // 4 · 0.6 · 256 = 614.4, ±1 per pair from rounding.
                assert!((612..=618).contains(&total), "batch total {total}");
            }
            let lens = stratified_lengths(60, 256, &mut rng(seed));
            let total: usize = lens.iter().sum();
            let mean = total as f64 / 60.0;
            assert!((mean - 154.0).abs() < 2.0, "stratified mean {mean}");
            assert!(lens.iter().all(|&l| (lo..=hi).contains(&l)));
        }
    }
}
