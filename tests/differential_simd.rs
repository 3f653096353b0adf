//! Cross-ISA differential harness: every SIMD dispatch tier must compute
//! exactly what the scalar tier computes.
//!
//! For each available tier this runs blocked, grouped (both schedulers,
//! contiguous + strided), batched GEMM, both fused-MHA kernels and the
//! decoder's two row-dot attentions on
//! randomized shapes — including `MR`/`NR` remainder edges, `k = 0`,
//! empty groups and single-token sequences — and compares against the
//! forced-`scalar` run:
//!
//! * **Bitwise** (`f32::to_bits`) when the tiers share a contraction mode
//!   ([`MicroKernel::fused_fma`]): every stored element is one
//!   multiply-accumulate chain in `p`-order regardless of tile geometry,
//!   so identical rounding means identical bits. On an FMA-native build
//!   (ours: `target-cpu=native`) this is the path that runs — the strongest
//!   statement the dispatch layer can make, mirroring the PR 2
//!   pooled-vs-sequential harness.
//! * Otherwise (scalar tier compiled without hardware FMA, intrinsic tiers
//!   fusing by definition) the per-step rounding differs, and the
//!   comparison degrades to a `k`-scaled relative tolerance: a fused chain
//!   and an unfused chain of `k` steps can each accumulate up to `k/2` ULP
//!   of drift, so exact equality is unachievable *by design*, not by bug.
//!
//! Tiers the host lacks are **skipped with a logged reason** (stderr), not
//! silently: the suite's log always accounts for all three tiers.
//!
//! One test is not tier-against-tier: GEMM + bias + GELU fused into the
//! epilogue must equal the GEMM followed by the standalone fused kernel,
//! bitwise, on every driver and at every precision, which it sweeps itself
//! — `scripts/check.sh` runs this file across its ISA matrix only.
//!
//! [`MicroKernel::fused_fma`]: bt_gemm::micro::MicroKernel::fused_fma

use bt_core::attention::{fused_grouped_attention, fused_short_attention, DEFAULT_SPLIT_SEQ_LEN};
use bt_gemm::batched::{batched_sgemm, BatchedArgs};
use bt_gemm::grouped::{
    grouped_sgemm, grouped_sgemm_strided, GroupedConfig, GroupedProblem, NoEpilogue, NoTransform, Scheduler,
    StridedOutput,
};
use bt_gemm::isa::{self, Isa};
use bt_gemm::lowp::lowp_impl;
use bt_gemm::{
    active_precision, dot_error_bound, int8_dot_error_bound, set_active_precision, sgemm, sgemm_epilogue, sgemm_pinned,
    sgemm_prepacked, sgemm_prepacked_pinned, Driver, GemmSpec, PackedB, Precision, TileEpilogue,
};
use bt_kernels::activation::{add_bias_gelu_fused, bias_gelu_epilogue};
use bt_tensor::rng::Xoshiro256StarStar;
use bt_tensor::Tensor;
use bt_varlen::{BatchMask, PackingIndex};
use bytetransformer::prelude::*;
use std::sync::Mutex;

/// Serializes the tier-flipping harness: the active tier is process-wide.
static ISA_LOCK: Mutex<()> = Mutex::new(());

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

/// Largest `k` (accumulation-chain length) a case touches — scales the
/// tolerance used when contraction modes differ.
fn assert_matches(label: &str, tier: Isa, reference: &[f32], got: &[f32], same_contraction: bool, max_k: usize) {
    assert_eq!(reference.len(), got.len(), "{label} [{tier}]: output lengths differ");
    if same_contraction {
        for (i, (r, g)) in reference.iter().zip(got).enumerate() {
            assert!(
                r.to_bits() == g.to_bits(),
                "{label} [{tier}][{i}]: scalar {r:?} != {tier} {g:?} (bitwise)"
            );
        }
    } else {
        // Mixed contraction: bounded relative drift, one rounding per step.
        let tol = (max_k.max(1) as f32) * f32::EPSILON * 4.0;
        for (i, (r, g)) in reference.iter().zip(got).enumerate() {
            let denom = r.abs().max(g.abs()).max(1.0);
            assert!(
                (r - g).abs() <= tol * denom,
                "{label} [{tier}][{i}]: scalar {r} vs {tier} {g} exceeds mixed-contraction tolerance"
            );
        }
    }
}

/// The harness: runs `case` once per tier, scalar first as the reference,
/// and logs (never silently drops) unavailable tiers.
fn differential(label: &str, max_k: usize, case: impl Fn() -> Vec<f32>) {
    let _g = ISA_LOCK.lock().unwrap();
    let prev = bt_gemm::active_isa();
    // This harness asserts the *f32 family's* bitwise contract; the
    // precision axis has its own chain-aware section below. Pin f32 so a
    // `BYTE_GEMM_PREC` env selection doesn't reroute these cases through
    // the tolerance-only low-precision kernels.
    let prev_prec = active_precision();
    set_active_precision(Precision::F32);
    let available = bt_gemm::available_isas();
    for tier in Isa::ALL {
        if !available.contains(&tier) {
            eprintln!("differential_simd: {label}: skipping {tier} — not supported on this host");
        }
    }
    bt_gemm::set_active_isa(Isa::Scalar).unwrap();
    let reference = case();
    let scalar_fused = isa::kernel_for(Isa::Scalar).unwrap().fused_fma;
    for &tier in available.iter().filter(|&&t| t != Isa::Scalar) {
        bt_gemm::set_active_isa(tier).unwrap();
        let got = case();
        let same = isa::kernel_for(tier).unwrap().fused_fma == scalar_fused;
        assert_matches(label, tier, &reference, &got, same, max_k);
    }
    bt_gemm::set_active_isa(prev).unwrap();
    set_active_precision(prev_prec);
}

// --- blocked ---------------------------------------------------------------

#[test]
fn blocked_sgemm_all_tiers() {
    // Shapes straddling every remainder class of every tile geometry in the
    // family (8×8, 8×16, 16×16), plus k = 0 and single elements.
    for &(m, n, k) in &[
        (1usize, 1usize, 1usize),
        (7, 9, 5),
        (8, 16, 8),
        (16, 16, 16),
        (17, 15, 33),
        (15, 17, 1),
        (33, 65, 127),
        (9, 31, 0), // degenerate k: C = 0, kernel-independent
        (100, 30, 300),
    ] {
        for (ti, transb) in [false, true].into_iter().enumerate() {
            differential(&format!("sgemm {m}x{n}x{k} t{ti}"), k, || {
                let a = rand_vec(m * k, 1 + ti as u64);
                let b = rand_vec(k * n, 2 + ti as u64);
                let mut c = rand_vec(m * n, 3);
                let spec = GemmSpec { transb, alpha: 1.25 };
                sgemm(spec, m, n, k, &a, &b, &mut c);
                c
            });
        }
    }
}

#[test]
fn blocked_epilogue_all_tiers() {
    let (m, n, k) = (23, 19, 41);
    differential("sgemm_epilogue bias_gelu", k, || {
        let a = rand_vec(m * k, 7);
        let b = rand_vec(k * n, 8);
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.1 - 0.5).collect();
        let mut c = vec![0.0f32; m * n];
        sgemm_epilogue(GemmSpec::nn(), m, n, k, &a, &b, &mut c, &bias_gelu_epilogue(&bias));
        c
    });
}

/// One GEMM launch into `c`, with or without an epilogue.
type GemmLaunch<'a> = &'a dyn Fn(&mut [f32], Option<&dyn TileEpilogue>);

/// §III.C.2's fusion is exact: a GEMM followed by the standalone fused
/// bias + GELU kernel stores the same bits as the GEMM with the bias + GELU
/// epilogue. Checked on the shape-chosen path at every precision (each one
/// runs the one packed driver and its store path) under whatever ISA tier
/// the environment selects, and on both f32 drivers pinned, at row counts
/// around the skinny crossover and a ragged `n`.
#[test]
fn bias_gelu_epilogue_equals_gemm_then_fused_kernel() {
    let _g = ISA_LOCK.lock().unwrap();
    let prev_prec = active_precision();
    let dev = Device::new();
    let (n, k) = (77, 40);
    let bias = rand_vec(n, 0x61);
    let epi = bias_gelu_epilogue(&bias);
    for m in [1usize, 7, 8, 255, 256, 257, 1024] {
        let a = rand_vec(m * k, 0x62 + m as u64);
        let b = rand_vec(k * n, 0x63);
        let compare = |label: &str, gemm: GemmLaunch| {
            let mut unfused = vec![0.0f32; m * n];
            gemm(&mut unfused, None);
            add_bias_gelu_fused(&dev, "bias_act", &mut unfused, m, n, &bias);
            let mut fused = vec![0.0f32; m * n];
            gemm(&mut fused, Some(&epi));
            for (i, (u, f)) in unfused.iter().zip(&fused).enumerate() {
                assert!(
                    u.to_bits() == f.to_bits(),
                    "{label} m={m} [{i}]: unfused {u:?} != fused {f:?} ({}, {})",
                    active_precision(),
                    bt_gemm::active_isa()
                );
            }
        };
        for prec in Precision::ALL {
            set_active_precision(prec);
            compare("shape-chosen", &|c, e| match e {
                None => sgemm(GemmSpec::nn(), m, n, k, &a, &b, c),
                Some(e) => sgemm_epilogue(GemmSpec::nn(), m, n, k, &a, &b, c, e),
            });
        }
        set_active_precision(prev_prec);
        for driver in [Driver::Packed, Driver::Skinny] {
            compare(driver.name(), &|c, e| {
                sgemm_pinned(driver, GemmSpec::nn(), m, n, k, &a, &b, c, e)
            });
        }
    }
}

/// A weight packed once ([`PackedB`]) multiplies to the bits its row-major
/// slice does, on every tier at every precision: the shape-chosen path at
/// f32 / f16 / int8 (f32 panels read in place; narrow formats quantised
/// from the panels rather than from the slice) and both f32 drivers pinned,
/// with and without the bias + GELU epilogue, at every row count through
/// the skinny crossover and at `enc_short` / `enc_long` heights, `n` mostly
/// off the 16-column panel grid.
#[test]
fn prepacked_weight_equals_raw_slice_bitwise() {
    let _g = ISA_LOCK.lock().unwrap();
    let (prev, prev_prec) = (bt_gemm::active_isa(), active_precision());
    let shapes = [(37usize, 4usize), (77, 3), (16, 2)];
    for tier in bt_gemm::available_isas() {
        bt_gemm::set_active_isa(tier).unwrap();
        for m in (1..=257).chain([614, 1229]) {
            let (n, k) = shapes[m % shapes.len()];
            let a = rand_vec(m * k, m as u64);
            let b = rand_vec(k * n, 0x70 + n as u64);
            let w = PackedB::pack(&b, false, k, n);
            let bias = rand_vec(n, 0x71);
            let gelu = bias_gelu_epilogue(&bias);
            for epi in [None, Some(&gelu as &dyn TileEpilogue)] {
                let run = |f: &dyn Fn(&mut [f32])| {
                    let mut c = vec![f32::NAN; m * n];
                    f(&mut c);
                    c.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
                };
                let label = |what: &str| format!("{tier} {what} m={m} n={n} k={k} epilogue={}", epi.is_some());
                for prec in Precision::ALL {
                    set_active_precision(prec);
                    let raw = run(&|c| match epi {
                        None => sgemm(GemmSpec::nn(), m, n, k, &a, &b, c),
                        Some(e) => sgemm_epilogue(GemmSpec::nn(), m, n, k, &a, &b, c, e),
                    });
                    assert_eq!(
                        run(&|c| sgemm_prepacked(m, &a, &w, c, epi)),
                        raw,
                        "{}",
                        label(prec.name())
                    );
                }
                set_active_precision(Precision::F32);
                for driver in [Driver::Packed, Driver::Skinny] {
                    let raw = run(&|c| sgemm_pinned(driver, GemmSpec::nn(), m, n, k, &a, &b, c, epi));
                    let packed = run(&|c| sgemm_prepacked_pinned(driver, m, &a, &w, c, epi));
                    assert_eq!(packed, raw, "{}", label(driver.name()));
                }
            }
        }
    }
    bt_gemm::set_active_isa(prev).unwrap();
    set_active_precision(prev_prec);
}

// --- grouped ---------------------------------------------------------------

fn grouped_case(shapes: &[(usize, usize, usize)], transb: bool, scheduler: Scheduler) -> Vec<f32> {
    let a_bufs: Vec<Vec<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, _, k))| rand_vec(m * k, i as u64 * 2 + 1))
        .collect();
    let b_bufs: Vec<Vec<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(_, n, k))| rand_vec(k * n, i as u64 * 2 + 2))
        .collect();
    let problems: Vec<GroupedProblem<'_>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, n, k))| GroupedProblem {
            m,
            n,
            k,
            transb,
            alpha: 1.0,
            a: &a_bufs[i],
            b: &b_bufs[i],
        })
        .collect();
    let mut cs: Vec<Vec<f32>> = shapes.iter().map(|&(m, n, _)| vec![0.0; m * n]).collect();
    grouped_sgemm(
        &problems,
        cs.iter_mut().map(|c| c.as_mut_slice()).collect(),
        GroupedConfig {
            scheduler,
            num_ctas: 13,
            ..Default::default()
        },
        &NoEpilogue,
        &NoTransform,
    );
    cs.concat()
}

#[test]
fn grouped_sgemm_all_tiers() {
    // Mixed shapes: remainder edges, an empty group (m = 0), a k = 0 group,
    // a single-element group.
    let shapes: &[(usize, usize, usize)] = &[
        (17, 23, 31),
        (64, 64, 64),
        (0, 10, 8), // empty group: contributes no tiles
        (1, 1, 1),
        (5, 7, 0), // k = 0 group: all-zero output
        (130, 5, 70),
    ];
    let max_k = 70;
    for scheduler in [Scheduler::PerTile, Scheduler::WarpPrefetch] {
        for transb in [false, true] {
            differential(&format!("grouped {scheduler:?} transb={transb}"), max_k, || {
                grouped_case(shapes, transb, scheduler)
            });
        }
    }
}

#[test]
fn grouped_empty_problem_list_all_tiers() {
    differential("grouped empty list", 1, || {
        grouped_sgemm(&[], vec![], GroupedConfig::default(), &NoEpilogue, &NoTransform);
        vec![]
    });
}

#[test]
fn grouped_strided_all_tiers() {
    // Two problems packed side by side in one [m, 3+5] buffer — the
    // fused-MHA context-store pattern.
    differential("grouped strided", 16, || {
        let a0 = rand_vec(70 * 16, 1);
        let b0 = rand_vec(16 * 3, 2);
        let a1 = rand_vec(70 * 16, 3);
        let b1 = rand_vec(16 * 5, 4);
        let problems = vec![
            GroupedProblem {
                m: 70,
                n: 3,
                k: 16,
                transb: false,
                alpha: 1.0,
                a: &a0,
                b: &b0,
            },
            GroupedProblem {
                m: 70,
                n: 5,
                k: 16,
                transb: false,
                alpha: 2.0,
                a: &a1,
                b: &b1,
            },
        ];
        let placements = vec![StridedOutput { offset: 0, ld: 8 }, StridedOutput { offset: 3, ld: 8 }];
        let mut out = vec![0.0f32; 70 * 8];
        grouped_sgemm_strided(
            &problems,
            &mut out,
            &placements,
            GroupedConfig::default(),
            &NoEpilogue,
            &NoTransform,
        );
        out
    });
}

// --- batched ---------------------------------------------------------------

#[test]
fn batched_sgemm_all_tiers() {
    for &(batch, m, n, k) in &[(1usize, 9usize, 17usize, 25usize), (5, 13, 17, 19), (3, 8, 8, 0)] {
        differential(&format!("batched {batch}x{m}x{n}x{k}"), k, || {
            let args = BatchedArgs::dense(batch, m, n, k);
            let a = rand_vec(batch * m * k, 31);
            let b = rand_vec(batch * k * n, 32);
            let mut c = vec![0.0f32; batch * m * n];
            batched_sgemm(GemmSpec::nt().alpha(0.5), args, &a, &b, &mut c);
            c
        });
    }
}

// --- fused MHA -------------------------------------------------------------

/// Random packed `[heads, valid, head]` Q/K/V for the given lengths.
fn packed_qkv(lens: &[usize], max_seq: usize, heads: usize, head: usize, seed: u64) -> (PackingIndex, [Tensor; 3]) {
    let mask = BatchMask::from_lens(lens.to_vec(), max_seq).unwrap();
    let idx = PackingIndex::from_mask(&mask);
    let valid = idx.valid_words();
    let qkv =
        [0u64, 1, 2].map(|i| Tensor::from_vec(rand_vec(heads * valid * head, seed + i), [heads, valid, head]).unwrap());
    (idx, qkv)
}

#[test]
fn fused_short_mha_all_tiers() {
    // Variable lengths incl. a single-token sequence and an empty batch mix.
    differential("fused_short_attention", 64, || {
        let (idx, [q, k, v]) = packed_qkv(&[5, 1, 12, 7], 12, 3, 16, 41);
        let dev = Device::new();
        let out = fused_short_attention(&dev, &q, &k, &v, &idx, DEFAULT_SPLIT_SEQ_LEN);
        out.as_slice().to_vec()
    });
    // BERT width: Q tiles and key counts crossing every `MR`/`NR` remainder
    // of the 8×8, 8×16 and 16×16 register tiles.
    let lens = [33usize, 1, 17, 64, 0];
    for split in [32, 48] {
        differential(&format!("fused_short_attention head 64 split {split}"), 64, || {
            let (idx, [q, k, v]) = packed_qkv(&lens, 64, 2, 64, 47);
            let dev = Device::new();
            fused_short_attention(&dev, &q, &k, &v, &idx, split).as_slice().to_vec()
        });
    }
}

#[test]
fn decoder_attention_all_tiers() {
    // The teacher-forced decoder's two attentions, the rows form over the
    // packed planes. Causal: key counts across the 16-lane chain block and
    // the 64-key softmax tile, one sequence past FUSED_SHORT_MAX_SEQ.
    differential("causal_fused_attention head 64", 400, || {
        let (idx, [q, k, v]) = packed_qkv(&[33, 1, 17, 64, 0, 400], 400, 2, 64, 53);
        let dev = Device::new();
        causal_fused_attention(&dev, &q, &k, &v, &idx).as_slice().to_vec()
    });
    // Cross: rectangular units whose target and memory lengths vary apart,
    // empty on either axis, head widths on both sides of the 64-column P·V
    // block.
    for head in [64, 72] {
        differential(&format!("cross_attention head {head}"), 130, || {
            let (tgt, mem) = ([5usize, 1, 0, 70, 3], [17usize, 130, 9, 1, 0]);
            let (tgt_idx, [q, ..]) = packed_qkv(&tgt, 70, 2, head, 59);
            let (mem_idx, [k, v, _]) = packed_qkv(&mem, 130, 2, head, 61);
            let dev = Device::new();
            cross_attention(&dev, &q, &k, &v, &tgt_idx, &mem_idx)
                .as_slice()
                .to_vec()
        });
    }
}

#[test]
fn fused_grouped_mha_all_tiers() {
    for scheduler in [Scheduler::PerTile, Scheduler::WarpPrefetch] {
        differential(&format!("fused_grouped_attention {scheduler:?}"), 96, || {
            let (idx, [q, k, v]) = packed_qkv(&[33, 1, 96, 17], 96, 2, 32, 43);
            let dev = Device::new();
            let out = fused_grouped_attention(&dev, &q, &k, &v, &idx, scheduler);
            out.as_slice().to_vec()
        });
    }
}

// --- precision × ISA -------------------------------------------------------
//
// The low-precision family trades bitwise equality for *documented* error
// bounds (`dot_error_bound` / `int8_dot_error_bound`): every precision × ISA
// implementation must track the f64 reference product within its bound, and
// implementations sharing a contraction [`Chain`] must still agree bitwise
// (int8 is exact in i32, so all its tiers agree; the AVX512 f16 tier
// accumulates in f16 and is tolerance-only by design).
//
// [`Chain`]: bt_gemm::Chain

const LOW_PRECS: [Precision; 2] = [Precision::F16, Precision::Int8];

/// Implementations of `prec` this host can actually dispatch to, with the
/// missing ones logged (never silently dropped) — every precision × ISA
/// combination is accounted for in the suite's log.
fn lowp_tiers_logged(prec: Precision, what: &str) -> Vec<Isa> {
    let impls: Vec<Isa> = bt_gemm::available_isas()
        .into_iter()
        .filter(|&t| lowp_impl(prec, t).is_some())
        .collect();
    for tier in Isa::ALL {
        if !impls.contains(&tier) {
            eprintln!(
                "differential_simd: {what}: no {prec}×{tier} implementation on this host — \
                 resolution degrades it to a narrower tier (asserted by prec_dispatch)"
            );
        }
    }
    impls
}

/// Asserts every element of `got` is within the precision's documented
/// error bound of the f64 reference of `alpha * A·B` (A `m×k`, B `k×n`,
/// both row-major).
#[allow(clippy::too_many_arguments)] // the GEMM operand set is the point
fn assert_tracks_f64(
    label: &str,
    prec: Precision,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    got: &[f32],
) {
    assert_eq!(got.len(), m * n, "{label}: output length");
    // Int8 scales are deterministic from the operands (|max|/127 per A row
    // and per B column; 1.0 for all-zero vectors).
    let sa: Vec<f32> = (0..m)
        .map(|i| bt_gemm::lowp::int8_scale(a[i * k..(i + 1) * k].iter().fold(0.0f32, |x, &v| x.max(v.abs()))))
        .collect();
    let sb: Vec<f32> = (0..n)
        .map(|j| bt_gemm::lowp::int8_scale((0..k).fold(0.0f32, |x, p| x.max(b[p * n + j].abs()))))
        .collect();
    for i in 0..m {
        for j in 0..n {
            let a_row = &a[i * k..(i + 1) * k];
            let b_col: Vec<f32> = (0..k).map(|p| b[p * n + j]).collect();
            let exact: f64 = a_row.iter().zip(&b_col).map(|(&x, &y)| x as f64 * y as f64).sum();
            let sum_abs: f64 = a_row
                .iter()
                .zip(&b_col)
                .map(|(&x, &y)| (x as f64 * y as f64).abs())
                .sum();
            let bound = match prec {
                Precision::Int8 => int8_dot_error_bound(a_row, &b_col, sa[i], sb[j]),
                _ => dot_error_bound(prec, k, sum_abs),
            } * (alpha.abs() as f64).max(1.0);
            let got_ij = got[i * n + j] as f64;
            let want = alpha as f64 * exact;
            assert!(
                (got_ij - want).abs() <= bound,
                "{label}: c[{i},{j}] = {got_ij}, reference {want}, documented bound {bound}"
            );
        }
    }
}

#[test]
fn lowp_blocked_every_precision_and_tier_tracks_reference() {
    let _g = ISA_LOCK.lock().unwrap();
    let (prev_isa, prev_prec) = (bt_gemm::active_isa(), active_precision());
    // Remainder edges of every lowp tile geometry (8×8, 16×16, 16×32),
    // depths crossing the int8 k-step groups (2 and 4) and odd against
    // both, plus k = 0 and a 1-token row.
    let shapes: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (7, 9, 5),
        (17, 15, 33),
        (16, 32, 64),
        (33, 65, 127),
        (9, 31, 0),
        (1, 7, 16),
    ];
    let alpha = 1.25f32;
    for prec in LOW_PRECS {
        let impls = lowp_tiers_logged(prec, "blocked");
        set_active_precision(prec);
        let scalar_chain = lowp_impl(prec, Isa::Scalar).unwrap().chain;
        for &(m, n, k) in shapes {
            let a = rand_vec(m * k, 0x51 + k as u64);
            let b = rand_vec(k * n, 0x52 + n as u64);
            let run = |tier: Isa| {
                bt_gemm::set_active_isa(tier).unwrap();
                let mut c = vec![f32::NAN; m * n];
                sgemm(GemmSpec::nn().alpha(alpha), m, n, k, &a, &b, &mut c);
                c
            };
            let reference = run(Isa::Scalar);
            assert_tracks_f64(
                &format!("{prec}/scalar {m}x{n}x{k}"),
                prec,
                m,
                n,
                k,
                alpha,
                &a,
                &b,
                &reference,
            );
            for &tier in impls.iter().filter(|&&t| t != Isa::Scalar) {
                let got = run(tier);
                assert_tracks_f64(
                    &format!("{prec}/{tier} {m}x{n}x{k}"),
                    prec,
                    m,
                    n,
                    k,
                    alpha,
                    &a,
                    &b,
                    &got,
                );
                if lowp_impl(prec, tier).unwrap().chain == scalar_chain {
                    for (i, (r, g)) in reference.iter().zip(&got).enumerate() {
                        assert!(
                            r.to_bits() == g.to_bits(),
                            "{prec} {m}x{n}x{k} [{i}]: equal chains must agree bitwise: scalar {r:?} != {tier} {g:?}"
                        );
                    }
                }
            }
        }
    }
    bt_gemm::set_active_isa(prev_isa).unwrap();
    set_active_precision(prev_prec);
}

/// The grouped engine is f32 at every precision: under f16 and int8 it
/// stores bitwise the bits of the f32 run on the same tier — on mixed
/// shapes with an empty group, a `k = 0` group, 1-token sequences and
/// remainder-edge tiles, under both schedulers, on every tier.
#[test]
fn lowp_grouped_every_precision_empty_and_single_token() {
    let _g = ISA_LOCK.lock().unwrap();
    let (prev_isa, prev_prec) = (bt_gemm::active_isa(), active_precision());
    let shapes: &[(usize, usize, usize)] = &[(17, 23, 31), (0, 10, 8), (1, 1, 1), (5, 7, 0), (1, 64, 32), (40, 5, 70)];
    let a_bufs: Vec<Vec<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, _, k))| rand_vec(m * k, i as u64 * 2 + 61))
        .collect();
    let b_bufs: Vec<Vec<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(_, n, k))| rand_vec(k * n, i as u64 * 2 + 62))
        .collect();
    let problems: Vec<GroupedProblem<'_>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, n, k))| GroupedProblem {
            m,
            n,
            k,
            transb: false,
            alpha: 1.0,
            a: &a_bufs[i],
            b: &b_bufs[i],
        })
        .collect();
    for tier in bt_gemm::available_isas() {
        bt_gemm::set_active_isa(tier).unwrap();
        for scheduler in [Scheduler::PerTile, Scheduler::WarpPrefetch] {
            let run = |prec: Precision| {
                set_active_precision(prec);
                let mut cs: Vec<Vec<f32>> = shapes.iter().map(|&(m, n, _)| vec![f32::NAN; m * n]).collect();
                grouped_sgemm(
                    &problems,
                    cs.iter_mut().map(|c| c.as_mut_slice()).collect(),
                    GroupedConfig {
                        scheduler,
                        num_ctas: 13,
                        ..Default::default()
                    },
                    &NoEpilogue,
                    &NoTransform,
                );
                cs
            };
            let reference = run(Precision::F32);
            for prec in LOW_PRECS {
                for (i, (r, g)) in reference.iter().zip(run(prec)).enumerate() {
                    for (e, (r, g)) in r.iter().zip(&g).enumerate() {
                        assert!(
                            r.to_bits() == g.to_bits(),
                            "grouped {prec}/{tier} #{i} [{e}] {scheduler:?}: f32 {r:?} != {g:?}"
                        );
                    }
                }
            }
        }
    }
    bt_gemm::set_active_isa(prev_isa).unwrap();
    set_active_precision(prev_prec);
}

/// Fused attention (Algorithm III.2 on the grouped engine) is f32 at every
/// precision: under f16 and int8 it stores bitwise the f32 run's bits, on
/// every tier.
#[test]
fn lowp_fused_mha_every_precision_is_bitwise_f32() {
    let _g = ISA_LOCK.lock().unwrap();
    let (prev_isa, prev_prec) = (bt_gemm::active_isa(), active_precision());
    let (idx, [q, k, v]) = packed_qkv(&[33, 1, 96, 17], 96, 2, 32, 53);
    let dev = Device::new();
    for tier in bt_gemm::available_isas() {
        bt_gemm::set_active_isa(tier).unwrap();
        let run = |prec: Precision| {
            set_active_precision(prec);
            fused_grouped_attention(&dev, &q, &k, &v, &idx, Scheduler::WarpPrefetch)
        };
        let reference = run(Precision::F32);
        for prec in LOW_PRECS {
            for (i, (r, g)) in reference.as_slice().iter().zip(run(prec).as_slice()).enumerate() {
                assert!(
                    r.to_bits() == g.to_bits(),
                    "fused MHA {prec}/{tier} [{i}]: f32 {r:?} != {g:?}"
                );
            }
        }
    }
    bt_gemm::set_active_isa(prev_isa).unwrap();
    set_active_precision(prev_prec);
}

/// `sgemm` and a one-problem grouped GEMM pack the same f32 panels and run
/// the same kernel, one chain per element, so at alpha 1 they store the
/// same bits — on every tier, on shapes ragged against every tile geometry
/// (8×8, 8×16, 16×16, the grouped 64×64 tile and the packed driver's
/// 32-row panels), both `B` layouts, and past the skinny crossover. The
/// grid covers every side of the grouped engine's pack-once rule: one tile,
/// `A` re-read (> 1 tile column), `B` re-read (> 1 tile row), and both
/// (≥ 2 × 2 tiles, with an `A` deeper than one staging chunk).
#[test]
fn grouped_and_packed_agree_bitwise() {
    let _g = ISA_LOCK.lock().unwrap();
    let (prev_isa, prev_prec) = (bt_gemm::active_isa(), active_precision());
    let shapes: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (7, 9, 5),
        (5, 7, 0),
        (16, 32, 64),
        (17, 33, 31),
        (33, 65, 130),
        (70, 17, 3),
        (257, 37, 40),
        (65, 65, 1),
        (130, 129, 70),
        (200, 150, 300),
    ];
    set_active_precision(Precision::F32);
    for tier in bt_gemm::available_isas() {
        bt_gemm::set_active_isa(tier).unwrap();
        for &(m, n, k) in shapes {
            for transb in [false, true] {
                let a = rand_vec(m * k, 0x71 + k as u64);
                let b = rand_vec(k * n, 0x72 + n as u64);
                let mut packed = vec![f32::NAN; m * n];
                sgemm(
                    GemmSpec {
                        transb,
                        ..GemmSpec::nn()
                    },
                    m,
                    n,
                    k,
                    &a,
                    &b,
                    &mut packed,
                );
                let problem = GroupedProblem {
                    m,
                    n,
                    k,
                    transb,
                    alpha: 1.0,
                    a: &a,
                    b: &b,
                };
                let mut grouped = vec![f32::NAN; m * n];
                grouped_sgemm(
                    &[problem],
                    vec![grouped.as_mut_slice()],
                    GroupedConfig::default(),
                    &NoEpilogue,
                    &NoTransform,
                );
                for (i, (p, g)) in packed.iter().zip(&grouped).enumerate() {
                    assert!(
                        p.to_bits() == g.to_bits(),
                        "{tier} {m}x{n}x{k} transb={transb} [{i}]: sgemm {p:?} != grouped {g:?}"
                    );
                }
            }
        }
    }
    bt_gemm::set_active_isa(prev_isa).unwrap();
    set_active_precision(prev_prec);
}

/// One launch mixing problems whose panels are packed once before the CTA
/// walk (> 1 tile column: `A`; > 1 tile row: `B`) with single-use ones
/// packed per tile, empty ones and `k = 0`, so the launch buffer holds
/// panels of several depths side by side: every problem is still bitwise
/// its own f32 `sgemm` on every tier, both `B` layouts.
#[test]
fn grouped_mixed_reuse_list_is_bitwise_per_problem_sgemm() {
    let _g = ISA_LOCK.lock().unwrap();
    let (prev_isa, prev_prec) = (bt_gemm::active_isa(), active_precision());
    let shapes: &[(usize, usize, usize)] = &[
        (130, 129, 70),
        (17, 33, 31),
        (0, 10, 8),
        (257, 37, 40),
        (33, 65, 130),
        (5, 7, 0),
        (70, 70, 1),
        (64, 64, 16),
        (65, 200, 9),
    ];
    let a_bufs: Vec<Vec<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, _, k))| rand_vec(m * k, 0x81 + i as u64))
        .collect();
    let b_bufs: Vec<Vec<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(_, n, k))| rand_vec(k * n, 0x91 + i as u64))
        .collect();
    set_active_precision(Precision::F32);
    for tier in bt_gemm::available_isas() {
        bt_gemm::set_active_isa(tier).unwrap();
        for transb in [false, true] {
            let problems: Vec<GroupedProblem<'_>> = shapes
                .iter()
                .enumerate()
                .map(|(i, &(m, n, k))| GroupedProblem {
                    m,
                    n,
                    k,
                    transb,
                    alpha: 1.0,
                    a: &a_bufs[i],
                    b: &b_bufs[i],
                })
                .collect();
            let mut grouped: Vec<Vec<f32>> = shapes.iter().map(|&(m, n, _)| vec![f32::NAN; m * n]).collect();
            grouped_sgemm(
                &problems,
                grouped.iter_mut().map(|c| c.as_mut_slice()).collect(),
                GroupedConfig {
                    num_ctas: 7,
                    ..Default::default()
                },
                &NoEpilogue,
                &NoTransform,
            );
            for (i, (&(m, n, k), got)) in shapes.iter().zip(&grouped).enumerate() {
                let mut want = vec![f32::NAN; m * n];
                sgemm(
                    GemmSpec {
                        transb,
                        ..GemmSpec::nn()
                    },
                    m,
                    n,
                    k,
                    &a_bufs[i],
                    &b_bufs[i],
                    &mut want,
                );
                for (e, (w, g)) in want.iter().zip(got).enumerate() {
                    assert!(
                        w.to_bits() == g.to_bits(),
                        "{tier} #{i} {m}x{n}x{k} transb={transb} [{e}]: sgemm {w:?} != grouped {g:?}"
                    );
                }
            }
        }
    }
    bt_gemm::set_active_isa(prev_isa).unwrap();
    set_active_precision(prev_prec);
}

#[test]
fn fused_grouped_mha_single_token_sequences_all_tiers() {
    differential("fused_grouped_attention 1-token", 8, || {
        let (idx, [q, k, v]) = packed_qkv(&[1, 1, 1], 1, 2, 8, 47);
        let dev = Device::new();
        let out = fused_grouped_attention(&dev, &q, &k, &v, &idx, Scheduler::WarpPrefetch);
        out.as_slice().to_vec()
    });
}
