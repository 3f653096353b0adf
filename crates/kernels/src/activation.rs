//! GELU activation and the add-bias + activation pipelines (paper §III.C.2,
//! Fig. 10).
//!
//! After the FFN up-projection, BERT adds a bias and applies GELU. The
//! unfused pipeline stores the GEMM output, then launches a kernel that
//! re-reads it, adds bias, applies GELU, and writes again. ByteTransformer
//! fuses the element-wise work into the GEMM epilogue so the result "matrix
//! is held in registers" — [`bias_gelu_epilogue`] is that epilogue, an
//! implementation of the GEMM drivers' one output contract
//! ([`TileEpilogue`]) that `bt_gemm::sgemm_epilogue` runs on every region of
//! the product a GEMM task finishes, while it is still in cache.
//!
//! Every GELU here is one function, [`gelu_tanh`], built on a branch-free
//! rational `tanh` in plain f32 arithmetic. Rust neither contracts `a*b + c`
//! into an FMA nor reassociates, so the same input gives the same bits
//! whether a loop autovectorises or not: the fused kernel, the unfused
//! kernel and the GEMM epilogue agree bitwise, on every ISA tier.

use bt_device::{Device, KernelSpec};
use bt_gemm::TileEpilogue;
use rayon::prelude::*;

/// √(2/π), the constant of the tanh GELU approximation.
const SQRT_2_OVER_PI: f32 = 0.797_884_6;

/// Input clamp of [`half_one_plus_tanh`]: the smallest `|u|` at which the
/// rational `tanh` below evaluates to exactly `±1.0` in f32, so the clamped
/// function saturates at `1` / `0` and never leaves `[0, 1]`.
const TANH_CLAMP: f32 = 7.905_311;

/// `(1 + tanh(u)) / 2`, with `tanh` the 13/6 odd/even rational in `u` of
/// Eigen's `generic_fast_tanh_float` on `u` clamped to `±TANH_CLAMP`
/// (within 4.2e-7 of `tanh` there). Evaluated as `0.5 + p(u)/q(u)` by Horner
/// in plain f32 `*`, `+` and `/`, with `p`'s coefficients halved — exact, so
/// this is bit for bit half of `1 + p/q`. No branch and no libm call, so a
/// loop over it autovectorises. NaN propagates.
#[inline(always)]
fn half_one_plus_tanh(u: f32) -> f32 {
    const A1: f32 = 4.893_524_6e-3 / 2.0;
    const A3: f32 = 6.372_619_5e-4 / 2.0;
    const A5: f32 = 1.485_722_35e-5 / 2.0;
    const A7: f32 = 5.122_297_3e-8 / 2.0;
    const A9: f32 = -8.604_672e-11 / 2.0;
    const A11: f32 = 2.000_188e-13 / 2.0;
    const A13: f32 = -2.760_768_4e-16 / 2.0;
    const B0: f32 = 4.893_525e-3;
    const B2: f32 = 2.268_434_7e-3;
    const B4: f32 = 1.185_347_1e-4;
    const B6: f32 = 1.198_258_4e-6;
    let u = u.clamp(-TANH_CLAMP, TANH_CLAMP);
    let u2 = u * u;
    let p = ((((((A13 * u2 + A11) * u2 + A9) * u2 + A7) * u2 + A5) * u2 + A3) * u2 + A1) * u;
    let q = ((B6 * u2 + B4) * u2 + B2) * u2 + B0;
    0.5 + p / q
}

/// GELU, tanh approximation (the form used by BERT and by the paper's
/// reference \[31\]): `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`, computed
/// as `x · (1 + tanh(x·(√(2/π) + √(2/π)·0.044715·x²)))/2` with the rational
/// `tanh` above. Within 2e-6 absolute of the formula with an exact `tanh`;
/// `gelu_tanh(±0) = ±0`, `+∞ → +∞`, `NaN → NaN`, and `−∞ → NaN`
/// (`−∞ · 0`, as with libm's `tanh`).
#[inline(always)]
pub fn gelu_tanh(x: f32) -> f32 {
    const C3: f32 = SQRT_2_OVER_PI * 0.044715;
    x * half_one_plus_tanh(x * (SQRT_2_OVER_PI + C3 * (x * x)))
}

/// Exact GELU: `x/2 · (1 + erf(x/√2))`, using a high-accuracy rational
/// erf approximation (Abramowitz & Stegun 7.1.26, |ε| ≤ 1.5e-7).
#[inline]
pub fn gelu_erf(x: f32) -> f32 {
    0.5 * x as f64 as f32 * (1.0 + erf((x as f64) / std::f64::consts::SQRT_2) as f32)
}

/// Error function via Abramowitz & Stegun 7.1.26 (double precision,
/// |ε| ≤ 1.5e-7). `std` ships no `erf`, so the substrate provides one.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Unfused pipeline: **two launches**. Kernel 1 adds the per-column bias and
/// writes the intermediate; kernel 2 re-reads it and applies GELU. This is
/// the right-hand stacked bar of Fig. 10.
///
/// `data` is `rows × cols` row-major; `bias` has length `cols`.
///
/// # Panics
/// Panics on shape mismatches.
pub fn add_bias_gelu_unfused(device: &Device, name: &str, data: &mut [f32], rows: usize, cols: usize, bias: &[f32]) {
    assert_eq!(data.len(), rows * cols, "data shape mismatch");
    assert_eq!(bias.len(), cols, "bias length mismatch");
    let nbytes = (rows * cols * 4) as u64;
    device.launch(
        KernelSpec::new(format!("{name}.add_bias"))
            .flops((rows * cols) as u64)
            .reads(nbytes + (cols * 4) as u64)
            .writes(nbytes),
        || {
            data.par_chunks_mut(cols).for_each(|row| {
                for (v, &b) in row.iter_mut().zip(bias) {
                    *v += b;
                }
            });
        },
    );
    device.launch(
        KernelSpec::new(format!("{name}.gelu"))
            .flops((rows * cols * 8) as u64)
            .reads(nbytes)
            .writes(nbytes),
        || {
            data.par_chunks_mut(cols).for_each(|row| {
                for v in row {
                    *v = gelu_tanh(*v);
                }
            });
        },
    );
}

/// Fused kernel: **one launch, one pass** — bias-add and GELU applied while
/// each element is loaded once (the standalone-fused middle ground; the full
/// ByteTransformer fuses into the GEMM epilogue via
/// [`bias_gelu_epilogue`]).
///
/// # Panics
/// Panics on shape mismatches.
pub fn add_bias_gelu_fused(device: &Device, name: &str, data: &mut [f32], rows: usize, cols: usize, bias: &[f32]) {
    assert_eq!(data.len(), rows * cols, "data shape mismatch");
    assert_eq!(bias.len(), cols, "bias length mismatch");
    let nbytes = (rows * cols * 4) as u64;
    device.launch(
        KernelSpec::new(format!("{name}.fused"))
            .flops((rows * cols * 9) as u64)
            .reads(nbytes + (cols * 4) as u64)
            .writes(nbytes),
        || {
            data.par_chunks_mut(cols).for_each(|row| {
                for (v, &b) in row.iter_mut().zip(bias) {
                    *v = gelu_tanh(*v + b);
                }
            });
        },
    );
}

/// The GEMM epilogue `x ↦ gelu(x + bias[col])` that hides add-bias + GELU
/// entirely inside the FFN GEMM (paper: "a customized and fused CUTLASS
/// epilogue"). Pass it to `bt_gemm::sgemm_epilogue`; each call is one
/// straight-line loop over a finished region of the output, in place.
pub fn bias_gelu_epilogue(bias: &[f32]) -> impl TileEpilogue + '_ {
    BiasGelu { bias }
}

/// [`bias_gelu_epilogue`]'s contract implementation.
struct BiasGelu<'a> {
    bias: &'a [f32],
}

impl TileEpilogue for BiasGelu<'_> {
    fn apply(&self, _: usize, _: usize, col0: usize, rows: usize, cols: usize, tile: &mut [f32]) {
        let bias = &self.bias[col0..col0 + cols];
        for i in 0..rows {
            for (v, &b) in tile[i * cols..(i + 1) * cols].iter_mut().zip(bias) {
                *v = gelu_tanh(*v + b);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // oracle-style index loops
mod tests {
    use super::*;
    use bt_device::CostModel;
    use bt_tensor::rng::Xoshiro256StarStar;

    fn device() -> Device {
        Device::with_model(CostModel::unit())
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn erf_known_values() {
        // A&S 7.1.26 has |ε| ≤ 1.5e-7, including at the origin.
        assert!((erf(0.0)).abs() < 2e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 2e-7);
        assert!((erf(-1.0) + 0.8427007929).abs() < 2e-7);
        assert!((erf(3.0) - 0.9999779095).abs() < 2e-7);
    }

    #[test]
    fn gelu_known_values() {
        assert_eq!(gelu_tanh(0.0), 0.0);
        // Exact GELU(1) = 0.5·(1 + erf(1/√2)) = 0.8413447.
        assert!((gelu_erf(1.0) - 0.8413447).abs() < 1e-5);
        assert!((gelu_tanh(1.0) - 0.8413447).abs() < 1e-3);
        // Large |x| limits: identity / zero.
        assert!((gelu_tanh(10.0) - 10.0).abs() < 1e-4);
        assert!(gelu_tanh(-10.0).abs() < 1e-4);
    }

    #[test]
    fn tanh_approx_close_to_erf_form() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        for _ in 0..1_000 {
            let x = rng.uniform(-6.0, 6.0);
            assert!((gelu_tanh(x) - gelu_erf(x)).abs() < 3e-3, "x={x}");
        }
    }

    /// The tanh GELU as it was defined before the rational `tanh`, in f64
    /// with an exact `tanh`: the reference of the accuracy contract.
    fn gelu_exact_tanh(x: f32) -> f64 {
        let x = f64::from(x);
        let c = (2.0 / std::f64::consts::PI).sqrt();
        0.5 * x * (1.0 + (c * (x + 0.044715 * x * x * x)).tanh())
    }

    #[test]
    fn gelu_within_2e6_of_the_exact_tanh_form() {
        // Dense sweep of [-20, 20] at a 1e-3 step: past ±20 both forms are
        // the identity / zero to within an ulp.
        let mut worst = (0.0f64, 0.0f32);
        for i in -20_000..=20_000 {
            let x = i as f32 * 1e-3;
            let err = (f64::from(gelu_tanh(x)) - gelu_exact_tanh(x)).abs();
            if err > worst.0 {
                worst = (err, x);
            }
        }
        assert!(worst.0 <= 2e-6, "max abs error {} at x = {}", worst.0, worst.1);
        // Log sweep of tiny |x|, where the absolute bound says nothing: the
        // relative error stays at rounding level.
        for e in -370..=-30 {
            for sign in [1.0f32, -1.0] {
                let x = sign * 10f32.powf(e as f32 / 10.0);
                let want = gelu_exact_tanh(x);
                let rel = (f64::from(gelu_tanh(x)) - want).abs() / want.abs();
                assert!(rel <= 1e-6, "x = {x}: relative error {rel}");
            }
        }
    }

    #[test]
    fn gelu_specials_match_the_libm_form() {
        let libm = |x: f32| 0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044715 * x * x * x)).tanh());
        assert_eq!(gelu_tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(gelu_tanh(-0.0).to_bits(), libm(-0.0).to_bits());
        assert_eq!(gelu_tanh(f32::INFINITY), f32::INFINITY);
        assert!(gelu_tanh(f32::NAN).is_nan());
        assert!(libm(f32::NEG_INFINITY).is_nan());
        assert!(gelu_tanh(f32::NEG_INFINITY).is_nan());
        // The clamp saturates exactly, so (1 + tanh) / 2 never leaves [0, 1].
        for u in [TANH_CLAMP, 10.0, f32::MAX, f32::INFINITY] {
            assert_eq!(half_one_plus_tanh(u), 1.0);
            assert_eq!(half_one_plus_tanh(-u), 0.0);
        }
        let below = f32::from_bits(TANH_CLAMP.to_bits() - 1);
        assert!(half_one_plus_tanh(below) < 1.0);
    }

    #[test]
    fn fused_matches_unfused() {
        let dev = device();
        let rows = 33;
        let cols = 48;
        let bias: Vec<f32> = (0..cols).map(|j| 0.01 * j as f32 - 0.2).collect();
        let mut a = bt_tensor::Tensor::randn([rows, cols], 3).into_vec();
        let mut b = a.clone();
        add_bias_gelu_unfused(&dev, "bias_act", &mut a, rows, cols, &bias);
        add_bias_gelu_fused(&dev, "bias_act", &mut b, rows, cols, &bias);
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn fused_declares_less_traffic_and_fewer_launches() {
        let rows = 64;
        let cols = 768;
        let bias = vec![0.0f32; cols];
        let dev_u = device();
        let mut x = vec![1.0f32; rows * cols];
        add_bias_gelu_unfused(&dev_u, "bias_act", &mut x, rows, cols, &bias);
        let dev_f = device();
        let mut y = vec![1.0f32; rows * cols];
        add_bias_gelu_fused(&dev_f, "bias_act", &mut y, rows, cols, &bias);
        assert_eq!(dev_u.launches(), 2);
        assert_eq!(dev_f.launches(), 1);
        assert!(dev_f.total_bytes() < dev_u.total_bytes());
        // Fused moves exactly half the tensor traffic plus one bias read:
        // unfused = 4 tensor passes + bias, fused = 2 passes + bias.
        let tensor_bytes = (rows * cols * 4) as u64;
        assert_eq!(dev_u.total_bytes(), 4 * tensor_bytes + (cols * 4) as u64);
        assert_eq!(dev_f.total_bytes(), 2 * tensor_bytes + (cols * 4) as u64);
    }

    #[test]
    fn epilogue_contract_matches_fused_kernel() {
        // A 3-row tile at column offset 5 of a 24-column output, as the
        // grouped engine hands it over, and the same columns row by row, as
        // the dense drivers do.
        let (rows, cols, col0, n) = (3, 16, 5, 24);
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.1 - 1.2).collect();
        let x: Vec<f32> = (0..rows * cols).map(|i| -4.0 + i as f32 * 0.17).collect();
        let mut want = x.clone();
        add_bias_gelu_fused(&device(), "bias_act", &mut want, rows, cols, &bias[col0..col0 + cols]);
        let epi = bias_gelu_epilogue(&bias);
        let mut tile = x.clone();
        epi.apply(0, 7, col0, rows, cols, &mut tile);
        assert_eq!(bits(&tile), bits(&want));
        let mut by_row = x;
        for (i, row) in by_row.chunks_exact_mut(cols).enumerate() {
            epi.apply(0, i, col0, 1, cols, row);
        }
        assert_eq!(bits(&by_row), bits(&want));
    }

    #[test]
    #[should_panic(expected = "bias length mismatch")]
    fn shape_mismatch_panics() {
        let dev = device();
        let mut x = vec![0.0f32; 6];
        add_bias_gelu_fused(&dev, "bias_act", &mut x, 2, 3, &[0.0; 4]);
    }
}
