//! Tests for the `BYTE_GEMM_PREC` axis of dispatch: request parsing, the
//! precision × ISA resolution on this host (`isa_dispatch.rs` walks the
//! resolver over synthetic hosts), and end-to-end dispatch accuracy for
//! every precision through the public `sgemm` entry point.
//!
//! Like `isa_dispatch.rs`, env-var integration is exercised by the
//! `scripts/check.sh` matrix, which reruns this binary under every
//! `BYTE_GEMM_PREC` × `BYTE_GEMM_ISA` combination. One combined test first
//! asserts the env selection was honored (before any programmatic override
//! can shadow it), then walks every precision programmatically.

use bt_gemm::dispatch::{self, host, resolve, Host};
use bt_gemm::{
    active_precision, available_isas, dot_error_bound, int8_dot_error_bound, lowp_impl, parse_prec_request,
    set_active_precision, sgemm, GemmSpec, Isa, Precision,
};
use bt_tensor::rng::Xoshiro256StarStar;

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

#[test]
fn removed_tier_name_is_rejected_with_the_accepted_set() {
    let err = parse_prec_request("bf16").expect_err("the bf16 tier was removed");
    for name in ["f32", "f16", "int8"] {
        assert!(err.contains(&format!("`{name}`")), "error must list `{name}`: {err}");
    }
}

#[test]
fn f32_never_resolves_a_lowp_kernel() {
    for isa in available_isas() {
        let (selection, warning) = resolve(Some(isa), Precision::F32, host());
        assert_eq!((selection.isa, selection.prec_isa), (isa, isa));
        assert!(warning.is_none());
        assert!(lowp_impl(Precision::F32, isa).is_none());
    }
}

#[test]
fn every_low_precision_has_a_scalar_implementation() {
    for prec in [Precision::F16, Precision::Int8] {
        let kern = lowp_impl(prec, Isa::Scalar).unwrap();
        assert_eq!(kern.prec, prec);
        assert_eq!(kern.isa, Isa::Scalar);
    }
}

#[test]
fn resolution_degrades_downward_never_upward() {
    // A scalar pin must stay scalar even when wider impls exist.
    let everything = Host {
        avx2: true,
        fma: true,
        f16c: true,
        avx512f: true,
        avx512bw: true,
        avx512vnni: true,
        avx512fp16: true,
    };
    let (selection, warn) = resolve(Some(Isa::Scalar), Precision::F16, everything);
    assert_eq!(selection.prec_isa, Isa::Scalar);
    assert!(warn.is_none());
    // A wide request with only scalar available degrades with a warning
    // that names the precision, the request, and the substitute.
    let (selection, warn) = resolve(Some(Isa::Avx512), Precision::Int8, Host::default());
    assert_eq!(selection.prec_isa, Isa::Scalar);
    let warn = warn.expect("degrade must warn");
    assert!(warn.contains("int8"), "warning names the precision: {warn}");
    assert!(warn.contains("avx512"), "warning names the request: {warn}");
    assert!(warn.contains("scalar"), "warning names the substitute: {warn}");
}

#[test]
fn resolved_kernel_matches_requested_precision_on_this_host() {
    for prec in [Precision::F16, Precision::Int8] {
        for isa in available_isas() {
            let (selection, _) = resolve(Some(isa), prec, host());
            assert_eq!((selection.isa, selection.prec), (isa, prec));
            assert!(
                selection.prec_isa <= isa,
                "resolved {} above the {isa} request",
                selection.prec_isa
            );
            let kern = lowp_impl(prec, selection.prec_isa).expect("resolution picks an implementation this host runs");
            assert_eq!((kern.prec, kern.isa), (prec, selection.prec_isa));
        }
    }
}

/// Runs `sgemm` at the current active precision and asserts every output
/// element tracks the f64 reference product within the precision's
/// documented error bound.
fn check_sgemm_tracks_reference(prec: Precision, m: usize, n: usize, k: usize) {
    let a = rand_vec(m * k, 0xA5 + (m * 31 + k) as u64);
    let b = rand_vec(k * n, 0xB6 + (n * 17 + k) as u64);
    let mut c = vec![f32::NAN; m * n];
    sgemm(GemmSpec::nn(), m, n, k, &a, &b, &mut c);
    // Int8 scales are deterministic from the operands: per-row |max|/127 for
    // A, per-column for B (1.0 when the vector is all-zero).
    let sa: Vec<f32> = (0..m)
        .map(|i| bt_gemm::lowp::int8_scale(a[i * k..(i + 1) * k].iter().fold(0.0f32, |x, &v| x.max(v.abs()))))
        .collect();
    let sb: Vec<f32> = (0..n)
        .map(|j| bt_gemm::lowp::int8_scale((0..k).fold(0.0f32, |x, p| x.max(b[p * n + j].abs()))))
        .collect();
    for i in 0..m {
        for j in 0..n {
            let a_row: Vec<f32> = a[i * k..(i + 1) * k].to_vec();
            let b_col: Vec<f32> = (0..k).map(|p| b[p * n + j]).collect();
            let exact: f64 = a_row.iter().zip(&b_col).map(|(&x, &y)| x as f64 * y as f64).sum();
            let sum_abs: f64 = a_row
                .iter()
                .zip(&b_col)
                .map(|(&x, &y)| (x as f64 * y as f64).abs())
                .sum();
            let bound = match prec {
                Precision::Int8 => int8_dot_error_bound(&a_row, &b_col, sa[i], sb[j]),
                _ => dot_error_bound(prec, k, sum_abs),
            };
            let got = c[i * n + j] as f64;
            assert!(
                (got - exact).abs() <= bound,
                "{prec} ({m}x{n}x{k}) c[{i},{j}] = {got}, exact {exact}, bound {bound}"
            );
        }
    }
}

/// First asserts the lazy env selection (check.sh reruns this binary under
/// every `BYTE_GEMM_PREC` value), then pins each precision programmatically
/// and verifies dispatch accuracy — including the 1-token and empty shapes
/// the variable-length serving path produces.
#[test]
fn env_selection_honored_then_every_precision_dispatches_accurately() {
    let expect = std::env::var("BYTE_GEMM_PREC")
        .map(|s| parse_prec_request(&s).expect("driver sets only valid values"))
        .unwrap_or(Precision::F32);
    assert_eq!(
        active_precision(),
        expect,
        "BYTE_GEMM_PREC must drive the first active_precision() read"
    );
    let lowp = dispatch::active().lowp;
    assert_eq!(
        lowp.map_or(Precision::F32, |k| k.prec),
        expect,
        "the launch kernels match"
    );
    assert!(lowp.is_none_or(|k| k.isa <= bt_gemm::active_isa()));

    for prec in Precision::ALL {
        set_active_precision(prec);
        assert_eq!(active_precision(), prec);
        check_sgemm_tracks_reference(prec, 33, 29, 48);
        check_sgemm_tracks_reference(prec, 1, 7, 16); // 1-token sequence
        check_sgemm_tracks_reference(prec, 4, 3, 0); // degenerate depth
        check_sgemm_tracks_reference(prec, 0, 5, 8); // empty output
    }
    set_active_precision(expect);
}
