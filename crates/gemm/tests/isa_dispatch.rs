//! Tests for GEMM kernel selection (`bt_gemm::dispatch`): knob parsing, the
//! one resolver — a pure function of the request and a host's features, so
//! both axes are exercised here on synthetic hosts — the strict setter, and
//! the regression guard that the scalar tier's arithmetic is independent of
//! which tier is (or was) selected.
//!
//! The env-var integration itself is covered by the `scripts/check.sh`
//! matrix, which reruns the GEMM suites under `BYTE_GEMM_ISA=scalar` and
//! `BYTE_GEMM_ISA=auto` — in-process env mutation would race the lazy
//! one-shot selection, so these tests exercise the pure resolution layer
//! plus the programmatic setter instead.

use bt_gemm::dispatch::{self, parse_isa_request, resolve, Host, Selection};
use bt_gemm::{available_isas, set_active_isa, sgemm, GemmSpec, Isa, Precision};
use bt_tensor::rng::Xoshiro256StarStar;
use std::sync::Mutex;

/// Serializes tests that flip the process-wide active tier.
static ISA_LOCK: Mutex<()> = Mutex::new(());

/// Every feature the kernel family uses.
const FULL: Host = Host {
    avx2: true,
    fma: true,
    f16c: true,
    avx512f: true,
    avx512bw: true,
    avx512vnni: true,
    avx512fp16: true,
};

/// AVX2 + FMA + F16C, no AVX-512.
const AVX2_ONLY: Host = Host {
    avx512f: false,
    avx512bw: false,
    avx512vnni: false,
    avx512fp16: false,
    ..FULL
};

/// Nothing past the portable tier.
const SCALAR_ONLY: Host = Host {
    avx2: false,
    fma: false,
    f16c: false,
    ..AVX2_ONLY
};

/// `(f32 tier, precision tier)` of a resolution, and its warning.
fn tiers(request: Option<Isa>, prec: Precision, host: Host) -> ((Isa, Isa), Option<String>) {
    let (Selection { isa, prec: p, prec_isa }, warning) = resolve(request, prec, host);
    assert_eq!(p, prec, "the precision is never substituted, only its tier");
    ((isa, prec_isa), warning)
}

/// Asserts a warning names the precision, the request and the substitute.
fn assert_names(warning: Option<String>, words: &[&str]) {
    let w = warning.expect("a degraded selection must warn");
    for word in words {
        assert!(w.contains(word), "warning must name `{word}`: {w}");
    }
}

#[test]
fn parse_accepts_every_tier_name() {
    assert_eq!(parse_isa_request("auto"), Ok(None));
    assert_eq!(parse_isa_request("scalar"), Ok(Some(Isa::Scalar)));
    assert_eq!(parse_isa_request("avx2"), Ok(Some(Isa::Avx2)));
    assert_eq!(parse_isa_request("avx512"), Ok(Some(Isa::Avx512)));
}

#[test]
fn parse_is_case_and_whitespace_insensitive() {
    assert_eq!(parse_isa_request("  AVX512 \n"), Ok(Some(Isa::Avx512)));
    assert_eq!(parse_isa_request("Auto"), Ok(None));
}

#[test]
fn parse_rejects_unknown_value_with_clear_message() {
    let err = parse_isa_request("sse9").unwrap_err();
    assert!(err.contains("unknown value `sse9`"), "got: {err}");
    // The message must teach the accepted set.
    for name in ["scalar", "avx2", "avx512", "auto"] {
        assert!(err.contains(name), "message must list `{name}`: {err}");
    }
}

#[test]
fn resolve_auto_picks_widest_available() {
    let (t, warn) = tiers(None, Precision::F32, AVX2_ONLY);
    assert_eq!(t, (Isa::Avx2, Isa::Avx2));
    assert!(warn.is_none());
    assert_eq!(tiers(None, Precision::F32, FULL).0, (Isa::Avx512, Isa::Avx512));
    assert_eq!(
        tiers(None, Precision::F32, SCALAR_ONLY),
        ((Isa::Scalar, Isa::Scalar), None)
    );
}

#[test]
fn resolve_exact_available_is_honored_without_warning() {
    assert_eq!(
        tiers(Some(Isa::Scalar), Precision::F32, FULL),
        ((Isa::Scalar, Isa::Scalar), None)
    );
}

#[test]
fn resolve_unavailable_tier_falls_back_with_warning() {
    // `avx512` requested on a host that only has AVX2: graceful downgrade,
    // and the warning names the precision, the request and the substitute.
    let (t, warn) = tiers(Some(Isa::Avx512), Precision::F32, AVX2_ONLY);
    assert_eq!(t, (Isa::Avx2, Isa::Avx2));
    assert_names(warn, &["f32", "avx512", "`avx2`"]);
}

#[test]
fn avx512_host_without_fp16_runs_f16_on_avx2_and_f32_on_avx512() {
    // AVX-512 with VNNI but no AVX512-FP16.
    let host = Host {
        avx512fp16: false,
        ..FULL
    };
    for request in [None, Some(Isa::Avx512)] {
        let (t, warn) = tiers(request, Precision::F16, host);
        assert_eq!(t, (Isa::Avx512, Isa::Avx2), "{request:?}");
        assert_names(warn, &["f16", "`avx512`", "`avx2`"]);
        assert_eq!(tiers(request, Precision::F32, host), ((Isa::Avx512, Isa::Avx512), None));
        assert_eq!(
            tiers(request, Precision::Int8, host),
            ((Isa::Avx512, Isa::Avx512), None)
        );
    }
    // A narrower pin has the f16 implementation of its own tier.
    assert_eq!(
        tiers(Some(Isa::Avx2), Precision::F16, host),
        ((Isa::Avx2, Isa::Avx2), None)
    );
}

#[test]
fn avx512_host_without_vnni_runs_int8_on_avx2() {
    let host = Host {
        avx512vnni: false,
        ..FULL
    };
    let (t, warn) = tiers(None, Precision::Int8, host);
    assert_eq!(t, (Isa::Avx512, Isa::Avx2));
    assert_names(warn, &["int8", "`avx512`", "`avx2`"]);
    assert_eq!(tiers(None, Precision::F16, host), ((Isa::Avx512, Isa::Avx512), None));
    assert_eq!(tiers(None, Precision::F32, host), ((Isa::Avx512, Isa::Avx512), None));
}

#[test]
fn scalar_only_host_runs_every_precision_on_scalar() {
    for prec in Precision::ALL {
        for request in [None, Some(Isa::Scalar), Some(Isa::Avx2), Some(Isa::Avx512)] {
            let (t, warn) = tiers(request, prec, SCALAR_ONLY);
            assert_eq!(t, (Isa::Scalar, Isa::Scalar), "{prec} {request:?}");
            match request {
                None | Some(Isa::Scalar) => assert!(warn.is_none(), "{prec} {request:?}: {warn:?}"),
                Some(asked) => assert_names(warn, &[prec.name(), asked.name(), "`scalar`"]),
            }
        }
    }
}

#[test]
fn a_precision_never_resolves_above_its_request() {
    // A scalar pin stays scalar even when wider implementations exist, and
    // an exact availability match does not warn.
    assert_eq!(
        tiers(Some(Isa::Scalar), Precision::Int8, FULL),
        ((Isa::Scalar, Isa::Scalar), None)
    );
    assert_eq!(
        tiers(Some(Isa::Avx2), Precision::Int8, AVX2_ONLY),
        ((Isa::Avx2, Isa::Avx2), None)
    );
    // Only scalar f16 under an avx512 request: degrade and warn.
    let (t, warn) = tiers(Some(Isa::Avx512), Precision::F16, SCALAR_ONLY);
    assert_eq!(t, (Isa::Scalar, Isa::Scalar));
    assert_names(warn, &["f16", "avx512", "scalar"]);
}

#[test]
fn f32_runs_the_f32_tier_itself() {
    for host in [
        FULL,
        AVX2_ONLY,
        SCALAR_ONLY,
        Host {
            avx512fp16: false,
            ..FULL
        },
    ] {
        for request in [None, Some(Isa::Scalar), Some(Isa::Avx2), Some(Isa::Avx512)] {
            let ((isa, prec_isa), _) = tiers(request, Precision::F32, host);
            assert_eq!(isa, prec_isa, "{host:?} {request:?}");
        }
    }
    for isa in Isa::ALL {
        assert!(bt_gemm::lowp_impl(Precision::F32, isa).is_none());
    }
}

#[test]
fn strict_setter_refuses_a_tier_the_host_lacks() {
    // The check `set_active_isa` makes, on synthetic hosts.
    for isa in Isa::ALL {
        assert_eq!(FULL.require(isa), Ok(()));
    }
    for isa in [Isa::Avx2, Isa::Avx512] {
        let err = SCALAR_ONLY.require(isa).unwrap_err();
        assert!(err.contains(isa.name()), "error names the tier: {err}");
    }
    assert_eq!(SCALAR_ONLY.require(Isa::Scalar), Ok(()));
}

#[test]
fn set_active_isa_is_strict_about_availability() {
    let _g = ISA_LOCK.lock().unwrap();
    let prev = bt_gemm::active_isa();
    for tier in Isa::ALL {
        if available_isas().contains(&tier) {
            assert!(set_active_isa(tier).is_ok());
            assert_eq!(bt_gemm::active_isa(), tier);
        } else {
            let err = set_active_isa(tier).unwrap_err();
            assert!(err.contains(tier.name()), "error names the tier: {err}");
        }
    }
    set_active_isa(prev).unwrap();
}

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

fn sgemm_bits(m: usize, n: usize, k: usize) -> Vec<u32> {
    let a = rand_vec(m * k, 11);
    let b = rand_vec(k * n, 12);
    let mut c = vec![0.0f32; m * n];
    sgemm(GemmSpec::nn(), m, n, k, &a, &b, &mut c);
    c.into_iter().map(f32::to_bits).collect()
}

/// Regression guard for the PR 1 `fmadd` latent bug: the scalar tier's
/// contraction mode is pinned at kernel definition, so its results must be
/// **bitwise identical** no matter which other tier was active before, is
/// active concurrently elsewhere, or runs in between.
#[test]
fn scalar_results_independent_of_selected_tier() {
    let _g = ISA_LOCK.lock().unwrap();
    let prev = bt_gemm::active_isa();
    let (m, n, k) = (33, 29, 65);

    set_active_isa(Isa::Scalar).unwrap();
    let reference = sgemm_bits(m, n, k);

    for tier in available_isas() {
        // Interleave a run on another tier, then return to scalar.
        set_active_isa(tier).unwrap();
        let _ = sgemm_bits(m, n, k);
        set_active_isa(Isa::Scalar).unwrap();
        let again = sgemm_bits(m, n, k);
        assert_eq!(reference, again, "scalar output changed after running the {tier} tier");
    }
    set_active_isa(prev).unwrap();
}

/// The scalar kernel reached through dispatch is the same arithmetic as the
/// kernel invoked directly — dispatch adds routing, never rounding.
#[test]
fn scalar_dispatch_matches_direct_kernel_invocation() {
    let _g = ISA_LOCK.lock().unwrap();
    let kern = bt_gemm::isa::kernel_for(Isa::Scalar).unwrap();
    let (mr, nr) = (kern.mr, kern.nr);
    let kc = 37;
    let a = rand_vec(kc * mr, 21);
    let b = rand_vec(kc * nr, 22);
    let mut direct = vec![0.5f32; mr * nr];
    kern.run(kc, &a, &b, &mut direct);

    let prev = bt_gemm::active_isa();
    set_active_isa(Isa::Scalar).unwrap();
    let mut via_active = vec![0.5f32; mr * nr];
    dispatch::active().micro.run(kc, &a, &b, &mut via_active);
    set_active_isa(prev).unwrap();

    let direct: Vec<u32> = direct.into_iter().map(f32::to_bits).collect();
    let via_active: Vec<u32> = via_active.into_iter().map(f32::to_bits).collect();
    assert_eq!(direct, via_active);
}
