//! Softmax kernels: padded-with-masking (the conventional cost) and the
//! zero-padding variant that skips dead query rows (paper Figs. 11–12,
//! "cuBLAS + zero padding").
//!
//! Attention logits live in a `[batch, heads, seq, seq]` tensor whose cost is
//! quadratic in the padded length. The conventional kernel processes every
//! row with an additive mask; the zero-padding variant uses the known
//! sequence lengths to touch only the `len_b` valid query rows per sequence
//! (and only their `len_b` valid columns), zeroing the masked columns so the
//! following `P·V` batched GEMM stays exact.
//!
//! Every softmax in the runtime — [`softmax_row`] (the short fused kernel and
//! the padded baselines), the grouped kernel's partial-reduction epilogue,
//! full reduction and `P·V` load transform, and the FlashAttention baseline —
//! exponentiates through the one [`exp`] below: Cody–Waite range reduction, a
//! minimax polynomial and `2ⁿ` built from exponent bits, all in plain f32
//! `*`, `+` and `-`. No libm call and no data-dependent branch, so a loop
//! over it autovectorises; Rust never contracts or reassociates, so the same
//! input gives the same bits on every ISA tier, vectorised or not. Its
//! contract (tested below): within 1 ulp (≤ 8.2e-8 relative) of the exact
//! `eˣ` wherever that is a normal f32, monotone non-decreasing,
//! `exp(0) = 1`, `exp(−∞) = +0` exactly (masked logits rely on it),
//! underflow to `+0`, `+∞` and overflow to `+∞`, NaN to NaN.
//!
//! The row `max` / `Σ` folds ([`row_max`], [`exp_sum`], [`softmax_row`]) run
//! in [`LANES`] fixed accumulators, element `j` always in lane `j % LANES`,
//! then combine the lanes in one fixed order. The max is exact in any order;
//! the sum's order is a property of the row length alone — the same on every
//! ISA tier and every pool width.

use bt_device::{Device, KernelSpec};
use rayon::prelude::*;

/// `log₂ e`.
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// High part of `ln 2`: 9 significant bits, so `n · LN2_HI` is exact for
/// every `|n| ≤ 150` the clamp admits.
const LN2_HI: f32 = 0.693_359_4;
/// `ln 2 − LN2_HI`.
const LN2_LO: f32 = -2.121_944_4e-4;
/// `1.5 · 2²³`: adding it rounds an f32 of magnitude `< 2²²` to the nearest
/// integer (ties to even), which lands in the low mantissa bits.
const ROUND: f32 = 12_582_912.0;
/// Lower input clamp: `n = −150`, so `p · 2⁻¹⁵⁰` with `p < 1` rounds to
/// exactly `+0` — the result for `−∞` and every underflowing input.
const EXP_MIN: f32 = -104.0;
/// Upper input clamp: past `ln(f32::MAX) ≈ 88.72`, so `+∞` and every
/// overflowing input round to `+∞`.
const EXP_MAX: f32 = 89.0;

/// `eˣ` in plain f32 arithmetic, branch-free (see the module docs for the
/// contract). `x` is clamped to `[−104, 89]`, split as `x = n·ln 2 + r` with
/// `|r| ≤ ln 2 / 2` (Cody–Waite: `n · ln 2` in two parts), `eʳ` is the
/// degree-7 minimax polynomial of Cephes' `expf`, and `2ⁿ` is applied as two
/// exponent-bit factors `2^⌊n/2⌋ · 2^⌈n/2⌉` so that results near the
/// overflow and underflow edges round once, correctly.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    const P0: f32 = 1.987_569_2e-4;
    const P1: f32 = 1.398_199_9e-3;
    const P2: f32 = 8.333_452e-3;
    const P3: f32 = 4.166_579_6e-2;
    const P4: f32 = 1.666_666_5e-1;
    const P5: f32 = 0.5;
    let x = x.clamp(EXP_MIN, EXP_MAX);
    let t = x * LOG2E + ROUND;
    let n = t - ROUND;
    let r = x - n * LN2_HI - n * LN2_LO;
    let p = (((((P0 * r + P1) * r + P2) * r + P3) * r + P4) * r + P5) * (r * r) + r + 1.0;
    // `t`'s low mantissa bits hold `n` (NaN takes some finite `n`, and NaN
    // propagates through `p`).
    let n = t.to_bits() as i32 - ROUND.to_bits() as i32;
    let lo = n >> 1;
    let scale = |e: i32| f32::from_bits(((e + 127) as u32) << 23);
    p * scale(lo) * scale(n - lo)
}

/// Fixed accumulator lanes of the row folds: element `j` of a row always
/// folds into lane `j % LANES`.
pub const LANES: usize = 16;

/// Combines the lanes of a fold pairwise, in one fixed order.
#[inline(always)]
fn combine(mut lanes: [f32; LANES], f: impl Fn(f32, f32) -> f32) -> f32 {
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        for i in 0..width {
            lanes[i] = f(lanes[i], lanes[i + width]);
        }
    }
    lanes[0]
}

/// Largest element of `row` (`−∞` for an empty row), folded in [`LANES`]
/// lanes — the serial `f32::max` fold's value, since a max is order-free.
#[inline]
pub fn row_max(row: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; LANES];
    let mut chunks = row.chunks_exact(LANES);
    for c in &mut chunks {
        for (l, &x) in lanes.iter_mut().zip(c) {
            *l = l.max(x);
        }
    }
    for (l, &x) in lanes.iter_mut().zip(chunks.remainder()) {
        *l = l.max(x);
    }
    combine(lanes, f32::max)
}

/// `Σ exp(x − max)` over `row`, in [`LANES`] lanes, without writing the row
/// (the grouped kernel's partial-reduction epilogue keeps the raw logits).
#[inline]
pub fn exp_sum(row: &[f32], max: f32) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let mut chunks = row.chunks_exact(LANES);
    for c in &mut chunks {
        for (l, &x) in lanes.iter_mut().zip(c) {
            *l += exp(x - max);
        }
    }
    for (l, &x) in lanes.iter_mut().zip(chunks.remainder()) {
        *l += exp(x - max);
    }
    combine(lanes, |a, b| a + b)
}

/// In-place numerically stable softmax of one row: `x ← exp(x−max)/Σ`, with
/// the [`LANES`]-lane folds of [`row_max`] / [`exp_sum`].
#[inline]
pub fn softmax_row(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row_max(row);
    let mut lanes = [0.0f32; LANES];
    let mut chunks = row.chunks_exact_mut(LANES);
    for c in &mut chunks {
        for (l, x) in lanes.iter_mut().zip(c) {
            *x = exp(*x - max);
            *l += *x;
        }
    }
    for (l, x) in lanes.iter_mut().zip(chunks.into_remainder()) {
        *x = exp(*x - max);
        *l += *x;
    }
    let inv = 1.0 / combine(lanes, |a, b| a + b);
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Plain row-wise softmax over a dense `rows × cols` tensor (launched).
///
/// # Panics
/// Panics if `data.len() != rows * cols`.
pub fn softmax_rows(device: &Device, data: &mut [f32], rows: usize, cols: usize) {
    assert_eq!(data.len(), rows * cols, "softmax shape mismatch");
    let nbytes = (rows * cols * 4) as u64;
    device.launch(
        KernelSpec::new("softmax.rows")
            .flops((rows * cols * 4) as u64)
            .reads(nbytes)
            .writes(nbytes),
        || {
            data.par_chunks_mut(cols.max(1)).for_each(softmax_row);
        },
    );
}

/// Conventional padded softmax over `[batch, heads, seq, seq]` logits with
/// an additive key mask: every one of the `batch·heads·seq` rows is
/// processed over all `seq` columns (`exp(-inf) = 0` kills padded keys).
/// Cost is the full quadratic `batch·heads·seq²` regardless of how short the
/// real sentences are — the waste the zero-padding algorithm removes.
///
/// # Panics
/// Panics on shape mismatches.
pub fn masked_softmax_padded(
    device: &Device,
    name: &str,
    logits: &mut [f32],
    batch: usize,
    heads: usize,
    seq: usize,
    seq_lens: &[usize],
) {
    assert_eq!(logits.len(), batch * heads * seq * seq, "logits shape mismatch");
    assert_eq!(seq_lens.len(), batch, "seq_lens length mismatch");
    let nbytes = (logits.len() * 4) as u64;
    device.launch(
        KernelSpec::new(format!("{name}.padded"))
            .flops((logits.len() * 4) as u64)
            .reads(nbytes)
            .writes(nbytes),
        || {
            logits.par_chunks_mut(seq).enumerate().for_each(|(row_idx, row)| {
                let b = row_idx / (heads * seq);
                let len = seq_lens[b];
                // Additive mask: padded keys -> -inf before the softmax.
                for v in row[len..].iter_mut() {
                    *v = f32::NEG_INFINITY;
                }
                if len == 0 {
                    // Fully masked row: conventional kernels emit zeros.
                    row.fill(0.0);
                } else {
                    softmax_row(row);
                }
            });
        },
    );
}

/// Zero-padding softmax: touches only the valid query rows of each
/// `(batch, head)` and reads only their valid columns, writing zeros to the
/// masked columns so the downstream padded `P·V` GEMM remains exact. Padded
/// query rows are left untouched (their outputs are dead and are dropped by
/// the re-pack after MHA, Fig. 2c).
///
/// Declared traffic is proportional to `Σ_b len_b·seq + Σ_b len_b²` instead
/// of `batch·seq²` — the measured +9%/+17% of Figs. 11–12 comes from exactly
/// this difference.
///
/// # Panics
/// Panics on shape mismatches.
pub fn masked_softmax_zeropad(
    device: &Device,
    name: &str,
    logits: &mut [f32],
    batch: usize,
    heads: usize,
    seq: usize,
    seq_lens: &[usize],
) {
    assert_eq!(logits.len(), batch * heads * seq * seq, "logits shape mismatch");
    assert_eq!(seq_lens.len(), batch, "seq_lens length mismatch");
    let valid_rows: u64 = seq_lens.iter().map(|&l| (l * heads) as u64).sum();
    let valid_sq: u64 = seq_lens.iter().map(|&l| (l * l * heads) as u64).sum();
    device.launch(
        KernelSpec::new(format!("{name}.zeropad"))
            .flops(valid_sq * 4)
            .reads(valid_sq * 4)
            .writes(valid_rows * seq as u64 * 4),
        || {
            logits.par_chunks_mut(seq * seq).enumerate().for_each(|(bh, mat)| {
                let b = bh / heads;
                let len = seq_lens[b];
                for row in mat.chunks_mut(seq).take(len) {
                    softmax_row(&mut row[..len]);
                    row[len..].fill(0.0);
                }
            });
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_device::CostModel;
    use bt_tensor::compare::assert_close;
    use bt_tensor::Tensor;
    use proptest::prelude::*;

    fn device() -> Device {
        Device::with_model(CostModel::unit())
    }

    /// The next f32 above `x` (finite `x`).
    fn next_up(x: f32) -> f32 {
        if x == 0.0 {
            f32::from_bits(1)
        } else if x > 0.0 {
            f32::from_bits(x.to_bits() + 1)
        } else {
            f32::from_bits(x.to_bits() - 1)
        }
    }

    /// The next f32 below `x` (finite `x`).
    fn next_down(x: f32) -> f32 {
        -next_up(-x)
    }

    #[test]
    fn exp_tracks_f64_and_is_monotone_over_its_range() {
        // A dense sweep over [−104, 89] (the whole clamp range, through the
        // subnormal and overflow edges), then runs of consecutive f32s across
        // the range-reduction seams x = (k + ½)·ln 2 where `n` steps — the
        // places a polynomial's end-point error could break monotonicity.
        // (An exhaustive pass over every f32 in the range reads a worst
        // relative error of 8.2e-8 and no decrease.)
        let steps = 1 << 21;
        let sweep = (0..=steps).map(|i| -104.0 + 193.0 * i as f32 / steps as f32);
        let seams = (-150..128).flat_map(|k| {
            let seam = ((k as f32 + 0.5) * std::f32::consts::LN_2).clamp(-104.0, 89.0);
            let start = (0..64).fold(seam, |x, _| next_down(x));
            std::iter::successors(Some(start), |&x| Some(next_up(x))).take(128)
        });
        let mut worst = 0.0f64;
        for run in [sweep.collect::<Vec<_>>(), seams.collect()] {
            let mut prev = 0.0f32;
            for x in run {
                let (got, want) = (exp(x), f64::from(x).exp());
                if want >= f64::from(f32::MIN_POSITIVE) && want <= f64::from(f32::MAX) {
                    worst = worst.max((f64::from(got) - want).abs() / want);
                }
                assert!(got >= prev, "exp not monotone at {x:e}: {got:e} < {prev:e}");
                prev = got;
            }
        }
        assert!(worst <= 3e-7, "worst relative error {worst:e}");
    }

    #[test]
    fn exp_special_values() {
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        for x in [f32::NEG_INFINITY, f32::MIN, -1e30, -200.0, -104.0, -103.98] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x:e}) must underflow to +0");
        }
        // Gradual underflow: exp(−100) ≈ 3.7e-44 is subnormal, not flushed.
        let sub = exp(-100.0);
        assert!(sub > 0.0 && sub < f32::MIN_POSITIVE);
        for x in [f32::INFINITY, f32::MAX, 1e30, 89.0, 88.73] {
            assert_eq!(exp(x), f32::INFINITY, "exp({x:e}) must overflow to +inf");
        }
        assert!(exp(88.72).is_finite());
        assert!(exp(f32::NAN).is_nan());
        assert!(exp(-f32::NAN).is_nan());
    }

    #[test]
    fn lane_folds_cover_every_element() {
        for len in [0usize, 1, 15, 16, 17, 64, 100] {
            let row: Vec<f32> = (0..len).map(|i| ((i * 37) % 23) as f32 - 11.0).collect();
            let serial = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(row_max(&row).to_bits(), serial.to_bits(), "len {len}");
            let want: f64 = row.iter().map(|&x| f64::from(x - serial).exp()).sum();
            let got = f64::from(exp_sum(&row, serial));
            assert!((got - want).abs() <= 1e-6 * want.max(1.0), "len {len}: {got} vs {want}");
        }
    }

    #[test]
    fn row_softmax_sums_to_one() {
        let mut row = vec![1.0f32, 2.0, 3.0, 4.0];
        softmax_row(&mut row);
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(row.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn row_softmax_shift_invariant() {
        let mut a = vec![1.0f32, 5.0, -2.0];
        let mut b = vec![101.0f32, 105.0, 98.0];
        softmax_row(&mut a);
        softmax_row(&mut b);
        assert_close(&a, &b, 1e-6);
    }

    #[test]
    fn row_softmax_extreme_values_stable() {
        let mut row = vec![1000.0f32, 1000.0, -1000.0];
        softmax_row(&mut row);
        assert!((row[0] - 0.5).abs() < 1e-6);
        assert!(row[2].abs() < 1e-6);
        assert!(row.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_row_is_noop() {
        softmax_row(&mut []);
    }

    #[test]
    fn padded_and_zeropad_agree_on_valid_region() {
        let batch = 3;
        let heads = 2;
        let seq = 8;
        let seq_lens = vec![8, 3, 5];
        let logits = Tensor::randn([batch, heads, seq, seq], 1).into_vec();
        let dev = device();
        let mut a = logits.clone();
        masked_softmax_padded(&dev, "softmax", &mut a, batch, heads, seq, &seq_lens);
        let mut b = logits;
        masked_softmax_zeropad(&dev, "softmax", &mut b, batch, heads, seq, &seq_lens);
        for bh in 0..batch * heads {
            let len = seq_lens[bh / heads];
            for r in 0..len {
                let off = bh * seq * seq + r * seq;
                // Valid rows agree over all columns (masked cols are 0 in both).
                assert_close(&a[off..off + seq], &b[off..off + seq], 1e-6);
            }
        }
    }

    #[test]
    fn zeropad_declares_less_traffic() {
        let batch = 4;
        let heads = 2;
        let seq = 64;
        let seq_lens = vec![16, 16, 16, 16];
        let logits = vec![0.5f32; batch * heads * seq * seq];
        let dev_p = device();
        let mut a = logits.clone();
        masked_softmax_padded(&dev_p, "softmax", &mut a, batch, heads, seq, &seq_lens);
        let dev_z = device();
        let mut b = logits;
        masked_softmax_zeropad(&dev_z, "softmax", &mut b, batch, heads, seq, &seq_lens);
        assert!(dev_z.total_bytes() < dev_p.total_bytes() / 2);
        assert!(dev_z.total_flops() < dev_p.total_flops() / 4);
    }

    #[test]
    fn fully_masked_row_zeroed_in_padded_kernel() {
        let dev = device();
        let mut logits = vec![3.0f32; 4];
        masked_softmax_padded(&dev, "softmax", &mut logits, 1, 1, 2, &[0]);
        assert_eq!(logits, vec![0.0; 4]);
    }

    proptest! {
        #[test]
        fn prop_valid_rows_sum_to_one(
            lens in proptest::collection::vec(1usize..10, 1..5),
            heads in 1usize..4
        ) {
            let batch = lens.len();
            let seq = *lens.iter().max().unwrap();
            let logits = Tensor::randn([batch, heads, seq, seq], 9).into_vec();
            let dev = device();
            let mut data = logits;
            masked_softmax_zeropad(&dev, "softmax", &mut data, batch, heads, seq, &lens);
            for bh in 0..batch * heads {
                let len = lens[bh / heads];
                for r in 0..len {
                    let off = bh * seq * seq + r * seq;
                    let sum: f32 = data[off..off + seq].iter().sum();
                    prop_assert!((sum - 1.0).abs() < 1e-5);
                    // Masked columns are exactly zero.
                    for &v in &data[off + len..off + seq] {
                        prop_assert_eq!(v, 0.0);
                    }
                }
            }
        }
    }
}
