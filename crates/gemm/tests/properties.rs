//! Property-based tests: every tuned GEMM path agrees with the naive
//! reference on arbitrary shapes, `B` transposes and scaling factors.

use bt_gemm::batched::{batched_sgemm, BatchedArgs};
use bt_gemm::grouped::{
    grouped_sgemm, grouped_sgemm_strided, GroupedConfig, GroupedProblem, NoEpilogue, NoTransform, Scheduler,
    StridedOutput,
};
use bt_gemm::lowp::{
    a_panel_code, b_panel_code, f16_bits, int8_scale, lowp_impl, pack_a_panel_lowp, pack_b_panel_lowp, quantize_i8,
};
use bt_gemm::micro::{pack_a_panel, pack_b_panel};
use bt_gemm::{gemm_ref, sgemm, sgemm_epilogue, GemmSpec, Isa, PackedB, Precision, TileEpilogue, PANEL_NR};
use bt_tensor::compare::max_abs_diff;
use bt_tensor::half::f16;
use bt_tensor::rng::Xoshiro256StarStar;
use proptest::prelude::*;

/// Decoded narrow value the packer must have stored for source value `x`,
/// plus the round-trip tolerance the storage format guarantees (f16:
/// half-ulp relative; int8: half a quantization step).
fn lowp_expected(prec: Precision, x: f32, inv_scale: f32) -> (f32, f64) {
    match prec {
        Precision::F16 => (f16::from_bits(f16_bits(x)).to_f32(), x.abs() as f64 / 2048.0 + 1e-7),
        Precision::Int8 => (quantize_i8(x, inv_scale) as f32, 0.5000001 / inv_scale as f64 + 1e-7),
        Precision::F32 => unreachable!("f32 has no lowp packer"),
    }
}

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

/// `x ↦ tanh(x + bias[col])` through the tile contract.
struct BiasTanh<'a>(&'a [f32]);

impl TileEpilogue for BiasTanh<'_> {
    fn apply(&self, _: usize, _: usize, col0: usize, rows: usize, cols: usize, tile: &mut [f32]) {
        for i in 0..rows {
            for (j, v) in tile[i * cols..(i + 1) * cols].iter_mut().enumerate() {
                *v = (*v + self.0[col0 + j]).tanh();
            }
        }
    }
}

#[test]
fn packed_b_degenerate_depths() {
    // k = 0 holds no element whatever n is; k = 1 is one row per panel.
    for n in [0usize, 1, 15, 16, 17, 33] {
        let empty = PackedB::pack(&[], false, 0, n);
        assert!(
            empty.panels().is_empty() && empty.to_row_major().is_empty(),
            "k = 0, n = {n}"
        );
        let row: Vec<f32> = (0..n).map(|j| j as f32 + 1.0).collect();
        let one = PackedB::pack(&row, false, 1, n);
        assert_eq!(one.panels().len(), n.div_ceil(PANEL_NR) * PANEL_NR, "k = 1, n = {n}");
        assert_eq!(&one.panels()[..n], &row[..], "k = 1, n = {n}");
        assert!(one.panels()[n..].iter().all(|&v| v == 0.0), "k = 1, n = {n}: pads");
        assert_eq!(one.to_row_major(), row);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_sgemm_matches_reference(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..96,
        transb: bool,
        alpha in -2.0f32..2.0,
        seed in 0u64..1000,
    ) {
        let a = rand_vec(m * k, seed);
        let b = rand_vec(k * n, seed + 1);
        let mut c1 = rand_vec(m * n, seed + 2);
        let mut c2 = c1.clone();
        let spec = GemmSpec { transb, alpha };
        sgemm(spec, m, n, k, &a, &b, &mut c1);
        gemm_ref(transb, m, n, k, alpha, &a, &b, &mut c2);
        prop_assert!(max_abs_diff(&c1, &c2) < 1e-3, "diff {}", max_abs_diff(&c1, &c2));
    }

    #[test]
    fn prop_microkernel_remainders_and_degenerate_k(
        // m and n are drawn as q·8 + r with r in 1..8, so every case lands
        // off the MR/NR grid — the edge strips the microkernel must pad.
        mq in 0usize..4,
        mr in 1usize..8,
        nq in 0usize..4,
        nr in 1usize..8,
        k in 0usize..64, // includes the degenerate k = 0 (C = 0)
        transb: bool,
        alpha in -2.0f32..2.0,
        seed in 0u64..1000,
    ) {
        let m = mq * 8 + mr;
        let n = nq * 8 + nr;
        let a = rand_vec(m * k, seed);
        let b = rand_vec(k * n, seed + 1);
        let mut c1 = rand_vec(m * n, seed + 2);
        let mut c2 = c1.clone();
        let spec = GemmSpec { transb, alpha };
        sgemm(spec, m, n, k, &a, &b, &mut c1);
        gemm_ref(transb, m, n, k, alpha, &a, &b, &mut c2);
        prop_assert!(max_abs_diff(&c1, &c2) < 1e-3, "diff {}", max_abs_diff(&c1, &c2));
    }

    #[test]
    fn prop_epilogue_composes_with_plain_gemm(
        m in 1usize..24,
        n in 1usize..24,
        k in 1usize..48,
        seed in 0u64..1000,
    ) {
        let a = rand_vec(m * k, seed);
        let b = rand_vec(k * n, seed + 1);
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.1 - 0.5).collect();
        let mut fused = vec![0.0f32; m * n];
        sgemm_epilogue(GemmSpec::nn(), m, n, k, &a, &b, &mut fused, &BiasTanh(&bias));
        let mut plain = vec![0.0f32; m * n];
        sgemm(GemmSpec::nn(), m, n, k, &a, &b, &mut plain);
        for i in 0..m {
            for j in 0..n {
                let expect = (plain[i * n + j] + bias[j]).tanh();
                prop_assert_eq!(fused[i * n + j].to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn prop_batched_matches_per_problem_gemm(
        batch in 1usize..6,
        m in 1usize..16,
        n in 1usize..16,
        k in 1usize..24,
        transb: bool,
        seed in 0u64..1000,
    ) {
        let args = BatchedArgs::dense(batch, m, n, k);
        let a = rand_vec(batch * m * k, seed);
        let b = rand_vec(batch * k * n, seed + 1);
        let mut c = vec![0.0f32; batch * m * n];
        let spec = GemmSpec { transb, ..GemmSpec::nn() };
        batched_sgemm(spec, args, &a, &b, &mut c);
        for i in 0..batch {
            let mut expect = vec![0.0f32; m * n];
            gemm_ref(transb, m, n, k, 1.0, &a[i * m * k..], &b[i * k * n..], &mut expect);
            prop_assert!(max_abs_diff(&c[i * m * n..(i + 1) * m * n], &expect) < 1e-3);
        }
    }

    #[test]
    fn prop_grouped_matches_reference_any_shapes(
        shapes in proptest::collection::vec((1usize..40, 1usize..40, 1usize..32), 1..8),
        per_tile: bool,
        seed in 0u64..1000,
    ) {
        let a_bufs: Vec<Vec<f32>> = shapes.iter().enumerate()
            .map(|(i, &(m, _, k))| rand_vec(m * k, seed + i as u64 * 2)).collect();
        let b_bufs: Vec<Vec<f32>> = shapes.iter().enumerate()
            .map(|(i, &(_, n, k))| rand_vec(k * n, seed + i as u64 * 2 + 1)).collect();
        let problems: Vec<GroupedProblem<'_>> = shapes.iter().enumerate()
            .map(|(i, &(m, n, k))| GroupedProblem {
                m, n, k, transb: false, alpha: 1.0, a: &a_bufs[i], b: &b_bufs[i],
            }).collect();
        let mut cs: Vec<Vec<f32>> = shapes.iter().map(|&(m, n, _)| vec![0.0; m * n]).collect();
        let config = GroupedConfig {
            scheduler: if per_tile { Scheduler::PerTile } else { Scheduler::WarpPrefetch },
            num_ctas: 7, // deliberately odd to stress the round-robin walk
            ..Default::default()
        };
        grouped_sgemm(
            &problems,
            cs.iter_mut().map(|c| c.as_mut_slice()).collect(),
            config,
            &NoEpilogue,
            &NoTransform,
        );
        for (i, &(m, n, k)) in shapes.iter().enumerate() {
            let mut expect = vec![0.0f32; m * n];
            gemm_ref(false, m, n, k, 1.0, &a_bufs[i], &b_bufs[i], &mut expect);
            prop_assert!(max_abs_diff(&cs[i], &expect) < 1e-3);
        }
    }

    #[test]
    fn prop_pack_b_zero_pads_and_roundtrips(
        // Geometry is drawn independently of the active kernel: the packers
        // must hold their invariants for every NR in the family (and any
        // future NEON-width tier).
        nr_sel in 0usize..3,
        n in 1usize..40,
        k in 0usize..24,
        trans: bool,
        panel in 0usize..4,
        seed in 0u64..1000,
    ) {
        let nr = [8usize, 16, 4][nr_sel];
        let col0 = (panel * nr).min(n.saturating_sub(1));
        let c = nr.min(n - col0);
        let b = rand_vec(k * n, seed);
        // Row-major k×n or its n×k transpose must pack identically.
        let src = if trans {
            let mut t = vec![0.0f32; n * k];
            for p in 0..k {
                for j in 0..n {
                    t[j * k + p] = b[p * n + j];
                }
            }
            t
        } else {
            b.clone()
        };
        // NaN canary: every lane of the panel must be overwritten.
        let mut dst = vec![f32::NAN; k * nr];
        pack_b_panel(&mut dst, &src, trans, col0, c, n, k, nr);
        for p in 0..k {
            for j in 0..nr {
                let got = dst[p * nr + j];
                if j < c {
                    // k-major interleave round-trip: lane (p, j) holds B[p, col0+j].
                    prop_assert_eq!(got.to_bits(), b[p * n + col0 + j].to_bits());
                } else {
                    prop_assert_eq!(got.to_bits(), 0.0f32.to_bits(), "short strip must be zero-padded");
                }
            }
        }
    }

    #[test]
    fn prop_packed_b_roundtrips_and_zero_pads(
        n in 1usize..70,
        k in 0usize..24,
        trans: bool,
        seed in 0u64..1000,
    ) {
        // Ragged n and k: every panel slot holds its element, every pad lane
        // of the last panel is zero, and the row-major view round-trips —
        // whether packed from B, from its transpose, or drawn in row order.
        let b = rand_vec(k * n, seed);
        let src = if trans {
            let mut t = vec![0.0f32; n * k];
            for p in 0..k {
                for j in 0..n {
                    t[j * k + p] = b[p * n + j];
                }
            }
            t
        } else {
            b.clone()
        };
        let packed = PackedB::pack(&src, trans, k, n);
        prop_assert_eq!(&packed, &PackedB::from_fn(k, n, |p, j| b[p * n + j]));
        prop_assert_eq!((packed.k(), packed.n()), (k, n));
        let panels = packed.panels();
        prop_assert_eq!(panels.len(), n.div_ceil(PANEL_NR) * k * PANEL_NR);
        for (i, &v) in panels.iter().enumerate() {
            let (jb, p, lane) = (i / (k * PANEL_NR), (i / PANEL_NR) % k, i % PANEL_NR);
            let j = jb * PANEL_NR + lane;
            let want = if j < n { b[p * n + j] } else { 0.0 };
            prop_assert_eq!(v.to_bits(), want.to_bits(), "slot ({}, {})", p, j);
        }
        prop_assert_eq!(packed.to_row_major(), b);
    }

    #[test]
    fn prop_pack_a_zero_pads_and_roundtrips(
        mr_sel in 0usize..3,
        m in 1usize..40,
        k in 0usize..24,
        panel in 0usize..4,
        seed in 0u64..1000,
    ) {
        let mr = [8usize, 16, 4][mr_sel];
        let row0 = (panel * mr).min(m.saturating_sub(1));
        let r = mr.min(m - row0);
        let a = rand_vec(m * k, seed);
        let mut dst = vec![f32::NAN; k * mr];
        pack_a_panel(&mut dst, &a, row0, r, k, mr);
        for p in 0..k {
            for i in 0..mr {
                let got = dst[p * mr + i];
                if i < r {
                    prop_assert_eq!(got.to_bits(), a[(row0 + i) * k + p].to_bits());
                } else {
                    prop_assert_eq!(got.to_bits(), 0.0f32.to_bits(), "short strip must be zero-padded");
                }
            }
        }
    }

    #[test]
    fn prop_padded_lanes_never_reach_a_tile_store(
        // Strided grouped outputs with gaps between placements: if any
        // padded microkernel lane leaked through a `TileStore`, it would
        // land in a gap (or trip the DisjointWriter claim map in debug).
        // NaN sentinels in the gaps must survive every tier's remainder
        // handling.
        shapes in proptest::collection::vec((1usize..34, 1usize..18, 0usize..20), 1..4),
        pad in 1usize..7,
        seed in 0u64..1000,
    ) {
        let a_bufs: Vec<Vec<f32>> = shapes.iter().enumerate()
            .map(|(i, &(m, _, k))| rand_vec(m * k, seed + i as u64 * 2)).collect();
        let b_bufs: Vec<Vec<f32>> = shapes.iter().enumerate()
            .map(|(i, &(_, n, k))| rand_vec(k * n, seed + i as u64 * 2 + 1)).collect();
        let problems: Vec<GroupedProblem<'_>> = shapes.iter().enumerate()
            .map(|(i, &(m, n, k))| GroupedProblem {
                m, n, k, transb: false, alpha: 1.0, a: &a_bufs[i], b: &b_bufs[i],
            }).collect();
        // Placements side by side in one row, `pad` sentinel columns apart.
        let max_m = shapes.iter().map(|&(m, ..)| m).max().unwrap();
        let ld: usize = shapes.iter().map(|&(_, n, _)| n + pad).sum();
        let mut offset = 0;
        let placements: Vec<StridedOutput> = shapes.iter().map(|&(_, n, _)| {
            let pl = StridedOutput { offset, ld };
            offset += n + pad;
            pl
        }).collect();
        let mut out = vec![f32::NAN; max_m * ld];
        grouped_sgemm_strided(&problems, &mut out, &placements, GroupedConfig::default(), &NoEpilogue, &NoTransform);
        for (i, &(m, n, k)) in shapes.iter().enumerate() {
            let mut expect = vec![0.0f32; m * n];
            gemm_ref(false, m, n, k, 1.0, &a_bufs[i], &b_bufs[i], &mut expect);
            for r in 0..m {
                for j in 0..n {
                    let got = out[placements[i].offset + r * ld + j];
                    prop_assert!((got - expect[r * n + j]).abs() < 1e-3, "valid region wrong at ({r},{j})");
                }
                for j in n..n + pad {
                    let got = out[placements[i].offset + r * ld + j];
                    prop_assert!(got.is_nan(), "padded lane leaked into the gap at ({r},{j}): {got}");
                }
            }
            // Rows past this problem's m (shorter than the tallest problem)
            // are also never-stored territory.
            for r in m..max_m {
                for j in 0..n + pad {
                    let got = out[placements[i].offset + r * ld + j];
                    prop_assert!(got.is_nan(), "write past problem rows at ({r},{j}): {got}");
                }
            }
        }
    }

    #[test]
    fn prop_lowp_pack_b_neutral_pads_and_roundtrips(
        // Every available precision × ISA implementation must uphold the
        // same packing invariants the f32 packers guarantee: pad lanes hold
        // the format's neutral code (decoding to 0), valid lanes hold the
        // exact deterministic narrowing of the source, and dequantizing
        // round-trips within the format's documented step.
        prec_sel in 0usize..2,
        n in 1usize..40,
        k in 0usize..24,
        trans: bool,
        panel in 0usize..3,
        seed in 0u64..1000,
    ) {
        let prec = [Precision::F16, Precision::Int8][prec_sel];
        let b = rand_vec(k * n, seed);
        let src = if trans {
            let mut t = vec![0.0f32; n * k];
            for p in 0..k {
                for j in 0..n {
                    t[j * k + p] = b[p * n + j];
                }
            }
            t
        } else {
            b.clone()
        };
        let packed = PackedB::pack(&src, trans, k, n);
        for kern in Isa::ALL.into_iter().filter_map(|isa| lowp_impl(prec, isa)) {
            let isa = kern.isa;
            let nr = kern.nr;
            let col0 = (panel * nr).min(n.saturating_sub(1));
            let c = nr.min(n - col0);
            // 0xAB canary: every packed byte must be overwritten.
            let mut dst = vec![0xABu8; kern.b_panel_bytes(k)];
            let mut sb = vec![f32::NAN; nr];
            let mut colsum = vec![i32::MIN; nr];
            let mut cvt = vec![0u16; k.max(nr)];
            pack_b_panel_lowp(kern, &mut dst, &mut sb, &mut colsum, &packed, col0, c, &mut cvt);
            for j in 0..nr {
                let (scale, expect_sum) = if j < c && prec == Precision::Int8 {
                    let colmax = (0..k).fold(0.0f32, |x, p| x.max(b[p * n + col0 + j].abs()));
                    prop_assert_eq!(sb[j], int8_scale(colmax), "{} {}: sb[{}]", prec, isa, j);
                    let sum: i32 = (0..k).map(|p| b_panel_code(kern, &dst, p, j) as i32).sum();
                    (sb[j], sum)
                } else {
                    prop_assert_eq!(sb[j], 1.0, "{} {}: sb[{}] of a float/pad column", prec, isa, j);
                    (1.0, 0)
                };
                prop_assert_eq!(colsum[j], expect_sum, "{} {}: colsum[{}]", prec, isa, j);
                for p in 0..kern.padded_k(k) {
                    let code = b_panel_code(kern, &dst, p, j);
                    if j < c && p < k {
                        let x = b[p * n + col0 + j];
                        let (expect, tol) = lowp_expected(prec, x, scale.recip());
                        prop_assert_eq!(code.to_bits(), expect.to_bits(), "{} {}: lane ({p},{j})", prec, isa);
                        let scale = if prec == Precision::Int8 { scale } else { 1.0 };
                        prop_assert!(
                            ((code * scale) as f64 - x as f64).abs() <= tol,
                            "{} {}: round-trip at ({p},{j}): {} vs {x}", prec, isa, code * scale
                        );
                    } else {
                        prop_assert_eq!(code.to_bits(), 0.0f32.to_bits(), "{} {}: pad lane ({p},{j}) not neutral", prec, isa);
                    }
                }
            }
        }
    }

    #[test]
    fn prop_lowp_pack_a_neutral_pads_and_roundtrips(
        prec_sel in 0usize..2,
        m in 1usize..40,
        k in 0usize..24,
        panel in 0usize..3,
        seed in 0u64..1000,
    ) {
        let prec = [Precision::F16, Precision::Int8][prec_sel];
        let a = rand_vec(m * k, seed);
        for kern in Isa::ALL.into_iter().filter_map(|isa| lowp_impl(prec, isa)) {
            let isa = kern.isa;
            let mr = kern.mr;
            let row0 = (panel * mr).min(m.saturating_sub(1));
            let r = mr.min(m - row0);
            let mut dst = vec![0xABu8; kern.a_panel_bytes(k)];
            let mut sa = vec![f32::NAN; mr];
            let mut cvt = vec![0u16; k.max(1)];
            pack_a_panel_lowp(kern, &mut dst, &mut sa, &a, row0, r, k, &mut cvt);
            for i in 0..mr {
                let scale = if i < r && prec == Precision::Int8 {
                    let rowmax = a[(row0 + i) * k..(row0 + i) * k + k].iter().fold(0.0f32, |x, &v| x.max(v.abs()));
                    prop_assert_eq!(sa[i], int8_scale(rowmax), "{} {}: sa[{}]", prec, isa, i);
                    sa[i]
                } else {
                    prop_assert_eq!(sa[i], 1.0, "{} {}: sa[{}] of a float/pad row", prec, isa, i);
                    1.0
                };
                for p in 0..kern.padded_k(k) {
                    let code = a_panel_code(kern, &dst, p, i);
                    if i < r && p < k {
                        let x = a[(row0 + i) * k + p];
                        let (expect, tol) = lowp_expected(prec, x, scale.recip());
                        prop_assert_eq!(code.to_bits(), expect.to_bits(), "{} {}: lane ({p},{i})", prec, isa);
                        let scale = if prec == Precision::Int8 { scale } else { 1.0 };
                        prop_assert!(
                            ((code * scale) as f64 - x as f64).abs() <= tol,
                            "{} {}: round-trip at ({p},{i}): {} vs {x}", prec, isa, code * scale
                        );
                    } else {
                        prop_assert_eq!(code.to_bits(), 0.0f32.to_bits(), "{} {}: pad lane ({p},{i}) not neutral", prec, isa);
                    }
                }
            }
        }
    }

    #[test]
    fn prop_strided_grouped_matches_contiguous(
        m in 1usize..64,
        heads in 1usize..4,
        head in 1usize..16,
        seed in 0u64..1000,
    ) {
        // heads problems of shape m×head writing side by side into one
        // [m, heads*head] buffer — the fused-MHA store pattern.
        let hidden = heads * head;
        let k = 8;
        let a_bufs: Vec<Vec<f32>> = (0..heads).map(|h| rand_vec(m * k, seed + h as u64)).collect();
        let b_bufs: Vec<Vec<f32>> = (0..heads).map(|h| rand_vec(k * head, seed + 100 + h as u64)).collect();
        let problems: Vec<GroupedProblem<'_>> = (0..heads).map(|h| GroupedProblem {
            m, n: head, k, transb: false, alpha: 1.0, a: &a_bufs[h], b: &b_bufs[h],
        }).collect();
        let placements: Vec<StridedOutput> = (0..heads).map(|h| StridedOutput {
            offset: h * head, ld: hidden,
        }).collect();
        let mut out = vec![0.0f32; m * hidden];
        grouped_sgemm_strided(&problems, &mut out, &placements, GroupedConfig::default(), &NoEpilogue, &NoTransform);
        for h in 0..heads {
            let mut expect = vec![0.0f32; m * head];
            gemm_ref(false, m, head, k, 1.0, &a_bufs[h], &b_bufs[h], &mut expect);
            for i in 0..m {
                for j in 0..head {
                    prop_assert!((out[i * hidden + h * head + j] - expect[i * head + j]).abs() < 1e-4);
                }
            }
        }
    }
}
