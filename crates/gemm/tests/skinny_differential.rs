//! Differential suite for the skinny-`M` driver: on every ISA tier the host
//! has, what `sgemm` / `sgemm_epilogue` return for `m ≤ SKINNY_MAX_M` (the
//! in-place-`B`, column-parallel driver) is **bit-equal** to the same rows
//! computed inside a tall product on the packed driver — the
//! `MicroKernel::fused_fma` invariant the paged≡contiguous and
//! chunked≡whole suites rest on, extended across the two drivers — and
//! both drivers reading a weight's [`PackedB`] panels store the bits they
//! store reading its row-major slice.
//!
//! `scripts/check.sh` runs this file under `BYTE_GEMM_ISA=scalar|auto` and
//! under `BYTE_POOL_THREADS=1`; the tests pin each tier programmatically on
//! top of that, so every tier is covered whatever the environment says.

use bt_gemm::isa::Isa;
use bt_gemm::{
    gemm_ref, sgemm, sgemm_epilogue, sgemm_pinned, sgemm_prepacked, sgemm_prepacked_pinned, Driver, GemmSpec, PackedB,
    TileEpilogue, SKINNY_MAX_M,
};
use bt_tensor::rng::Xoshiro256StarStar;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that flip the process-wide active tier.
static ISA_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` once per available tier with that tier active, restoring the
/// previous selection afterwards.
fn for_each_tier(mut f: impl FnMut(Isa)) {
    let _g = lock();
    let prev = bt_gemm::active_isa();
    for tier in bt_gemm::available_isas() {
        bt_gemm::set_active_isa(tier).expect("tier reported available");
        f(tier);
    }
    bt_gemm::set_active_isa(prev).expect("previous tier was active");
}

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A column-dependent epilogue (bias + clamp), so a store that passed the
/// wrong global column would show. (Not row-dependent: the rows under test
/// sit at a different offset inside the tall product.)
struct BiasClamp;

impl TileEpilogue for BiasClamp {
    fn apply(&self, _: usize, _: usize, col0: usize, rows: usize, cols: usize, tile: &mut [f32]) {
        for i in 0..rows {
            for (j, v) in tile[i * cols..(i + 1) * cols].iter_mut().enumerate() {
                *v = (*v + (col0 + j) as f32 * 0.125 - 1.0).max(-0.5);
            }
        }
    }
}

/// One differential case: `A` is row-major `m×k`.
#[derive(Debug, Clone, Copy)]
struct Case {
    spec: GemmSpec,
    m: usize,
    n: usize,
    k: usize,
    with_epilogue: bool,
    seed: u64,
}

/// Rows above and below the rows under test inside the tall product; the
/// total is always past the crossover, and `TOP` is off every tile grid.
const TOP: usize = 5;
const BELOW: usize = SKINNY_MAX_M + 9;

/// Computes the case through the public entry points (shape-driven driver
/// choice) and, for the same operands, as rows `TOP..TOP+m` of a tall
/// product pinned to the packed driver; returns `(got, want)`.
fn run_case(case: Case) -> (Vec<f32>, Vec<f32>) {
    let Case {
        spec,
        m,
        n,
        k,
        with_epilogue,
        seed,
    } = case;
    let a = rand_vec(m * k, seed);
    let b = rand_vec(k * n, seed + 1);
    let c0 = rand_vec(m * n, seed + 2);

    let mut got = c0.clone();
    if with_epilogue {
        sgemm_epilogue(spec, m, n, k, &a, &b, &mut got, &BiasClamp);
    } else {
        sgemm(spec, m, n, k, &a, &b, &mut got);
    }

    let tall = TOP + m + BELOW;
    let mut a_tall = rand_vec(tall * k, seed + 3);
    a_tall[TOP * k..(TOP + m) * k].copy_from_slice(&a);
    let mut c_tall = rand_vec(tall * n, seed + 4);
    c_tall[TOP * n..(TOP + m) * n].copy_from_slice(&c0);
    let epi: Option<&dyn TileEpilogue> = if with_epilogue { Some(&BiasClamp) } else { None };
    sgemm_pinned(Driver::Packed, spec, tall, n, k, &a_tall, &b, &mut c_tall, epi);
    (got, c_tall[TOP * n..(TOP + m) * n].to_vec())
}

fn assert_case(tier: Isa, case: Case) {
    let (got, want) = run_case(case);
    assert_eq!(bits(&got), bits(&want), "{tier}: {case:?}");
}

#[test]
fn every_m_up_to_the_crossover_equals_tall_packed_rows() {
    // Shapes cycle with m: ragged n on every tier's strip width (16/48),
    // n below every strip width, k = 1, k straddling the 16-row K chunk.
    let shapes = [(97usize, 33usize), (7, 20), (48, 1), (130, 53), (49, 16), (23, 17)];
    for_each_tier(|tier| {
        for m in 1..=SKINNY_MAX_M + 1 {
            let (n, k) = shapes[m % shapes.len()];
            assert_case(
                tier,
                Case {
                    spec: GemmSpec::nn(),
                    m,
                    n,
                    k,
                    with_epilogue: m.is_multiple_of(3),
                    seed: m as u64,
                },
            );
        }
    });
}

#[test]
fn ragged_shapes_transposes_scaling_and_epilogue() {
    let ms = [1usize, 2, 3, 7, 8, 9, 17, SKINNY_MAX_M];
    let ns = [1usize, 15, 16, 17, 24, 25, 47, 48, 49, 101];
    let ks = [0usize, 1, 2, 15, 16, 17, 40];
    for_each_tier(|tier| {
        let mut seed = 0u64;
        for &m in &ms {
            for &n in &ns {
                for &k in &ks {
                    seed += 1;
                    // Rotate the remaining axes instead of crossing them:
                    // every (scaling, epilogue) combination still meets
                    // every row count and every remainder class.
                    let alpha = if seed.is_multiple_of(3) { 1.0 } else { 0.5 };
                    assert_case(
                        tier,
                        Case {
                            spec: GemmSpec::nn().alpha(alpha),
                            m,
                            n,
                            k,
                            with_epilogue: seed % 5 < 2,
                            seed,
                        },
                    );
                }
            }
        }
    });
}

#[test]
fn model_shapes_at_decode_row_counts() {
    // The launches the decode step makes (hidden 768 scaled down 4× to keep
    // a debug run short, same remainder structure), multi-block and
    // multi-chunk on every tier.
    for_each_tier(|tier| {
        for &(k, n) in &[(192usize, 576usize), (192, 768), (768, 192)] {
            for &m in &[1usize, 8, 16] {
                assert_case(
                    tier,
                    Case {
                        spec: GemmSpec::nn(),
                        m,
                        n,
                        k,
                        with_epilogue: false,
                        seed: (m * n) as u64,
                    },
                );
            }
        }
    });
}

#[test]
fn prepacked_panels_equal_the_raw_slice_on_both_drivers() {
    // Decode- and prefill-shaped weight products (hidden 768 scaled down 8×
    // to keep a debug run short, plus a ragged n that leaves a partial panel
    // and a partial AVX-512 strip): both drivers pinned and the shape-chosen one, with and
    // without an epilogue, read the panels (row stride 16, one panel per
    // 16 columns) to the bits they read off the row-major slice.
    for_each_tier(|tier| {
        for &(k, n) in &[(96usize, 288usize), (96, 386), (384, 96), (17, 33)] {
            let b = rand_vec(k * n, (k + n) as u64);
            let w = PackedB::pack(&b, false, k, n);
            for &m in &[1usize, 8, 17, SKINNY_MAX_M + 1] {
                let a = rand_vec(m * k, m as u64);
                for epi in [None, Some(&BiasClamp as &dyn TileEpilogue)] {
                    let run = |f: &dyn Fn(&mut [f32])| {
                        let mut c = vec![f32::NAN; m * n];
                        f(&mut c);
                        bits(&c)
                    };
                    let label = format!("{tier}: m={m} n={n} k={k} epilogue={}", epi.is_some());
                    let raw = run(&|c| match epi {
                        None => sgemm(GemmSpec::nn(), m, n, k, &a, &b, c),
                        Some(e) => sgemm_epilogue(GemmSpec::nn(), m, n, k, &a, &b, c, e),
                    });
                    assert_eq!(run(&|c| sgemm_prepacked(m, &a, &w, c, epi)), raw, "{label}");
                    for driver in [Driver::Packed, Driver::Skinny] {
                        let raw = run(&|c| sgemm_pinned(driver, GemmSpec::nn(), m, n, k, &a, &b, c, epi));
                        let packed = run(&|c| sgemm_prepacked_pinned(driver, m, &a, &w, c, epi));
                        assert_eq!(packed, raw, "{label} {}", driver.name());
                    }
                }
            }
        }
    });
}

#[test]
fn b_ending_exactly_at_k_times_n_is_never_read_past() {
    // `B` is the tail of an allocation with no spare capacity: its last
    // element is the allocation's last, so a full-width load on a tail strip
    // would leave the slice (the scalar tier bounds-checks it; the masked
    // intrinsic loads must not touch the lanes at all). Every tail width of
    // every tier's strip, with the last row the only row and not.
    for_each_tier(|tier| {
        for &n in &[1usize, 5, 17, 25, 47, 49, 95] {
            for &k in &[1usize, 16, 17, 33] {
                let m = 8;
                let lead = 3;
                let buf = rand_vec(lead + k * n, (n * k) as u64).into_boxed_slice();
                let b = &buf[lead..];
                assert_eq!(b.len(), k * n);
                let a = rand_vec(m * k, 9);
                let mut got = vec![0.0f32; m * n];
                sgemm_pinned(Driver::Skinny, GemmSpec::nn(), m, n, k, &a, b, &mut got, None);
                let mut packed = vec![0.0f32; m * n];
                sgemm_pinned(Driver::Packed, GemmSpec::nn(), m, n, k, &a, b, &mut packed, None);
                assert_eq!(bits(&got), bits(&packed), "{tier}: n={n} k={k}");
                let mut want = vec![0.0f32; m * n];
                gemm_ref(false, m, n, k, 1.0, &a, b, &mut want);
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() < 1e-4 * k as f32, "{tier}: n={n} k={k}: {g} vs {w}");
                }
            }
        }
    });
}

#[test]
fn skinny_driver_pinned_on_a_fat_shape_still_matches() {
    // The bench pins the skinny driver past the crossover to find it; the
    // driver must stay correct there (many row groups, ragged last group).
    for_each_tier(|tier| {
        let (m, n, k) = (2 * SKINNY_MAX_M + 3, 70, 45);
        let a = rand_vec(m * k, 1);
        let b = rand_vec(k * n, 2);
        let c0 = rand_vec(m * n, 3);
        let (mut skinny, mut packed) = (c0.clone(), c0);
        let s = GemmSpec::nn().alpha(1.5);
        sgemm_pinned(Driver::Skinny, s, m, n, k, &a, &b, &mut skinny, Some(&BiasClamp));
        sgemm_pinned(Driver::Packed, s, m, n, k, &a, &b, &mut packed, Some(&BiasClamp));
        assert_eq!(bits(&skinny), bits(&packed), "{tier}");
    });
}

#[test]
fn selection_is_by_shape_alone() {
    // m ≤ crossover without transb → skinny; one row more, or transb →
    // packed; either way the launch is one `gemm.calls` entry, so a snapshot
    // splits the call count by driver.
    for_each_tier(|tier| {
        let skinny = bt_obs::counter(&format!("{}{tier}", bt_obs::names::GEMM_SKINNY_LAUNCHES_PREFIX));
        let packed = bt_obs::counter(&format!("{}{tier}", bt_obs::names::GEMM_BLOCKED_LAUNCHES_PREFIX));
        let calls = bt_obs::counter(&format!("{}{tier}.f32", bt_obs::names::GEMM_CALLS_PREFIX));
        let (n, k) = (20, 12);
        let launch = |m: usize, s: GemmSpec| {
            let a = rand_vec(m * k, 1);
            let b = rand_vec(k * n, 2);
            let mut c = vec![0.0f32; m * n];
            let before = (skinny.get(), packed.get(), calls.get());
            sgemm(s, m, n, k, &a, &b, &mut c);
            assert_eq!(calls.get() - before.2, 1, "{tier}: one call per launch");
            (skinny.get() - before.0, packed.get() - before.1)
        };
        assert_eq!(launch(1, GemmSpec::nn()), (1, 0), "{tier}: m = 1");
        assert_eq!(launch(SKINNY_MAX_M, GemmSpec::nn()), (1, 0), "{tier}: m = crossover");
        assert_eq!(
            launch(SKINNY_MAX_M + 1, GemmSpec::nn()),
            (0, 1),
            "{tier}: m = crossover + 1"
        );
        assert_eq!(launch(8, GemmSpec::nt()), (0, 1), "{tier}: transb");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_skinny_rows_equal_tall_packed_rows(
        m in 1usize..=SKINNY_MAX_M + 1,
        n in 1usize..200,
        k in 0usize..100,
        alpha in -2.0f32..2.0,
        with_epilogue: bool,
        tier_pick in 0usize..3,
        seed in 0u64..1000,
    ) {
        let _g = lock();
        let prev = bt_gemm::active_isa();
        let tiers = bt_gemm::available_isas();
        let tier = tiers[tier_pick % tiers.len()];
        bt_gemm::set_active_isa(tier).expect("tier reported available");
        let case = Case { spec: GemmSpec::nn().alpha(alpha), m, n, k, with_epilogue, seed };
        let (got, want) = run_case(case);
        bt_gemm::set_active_isa(prev).expect("previous tier was active");
        prop_assert_eq!(bits(&got), bits(&want), "{}: {:?}", tier, case);
    }
}
