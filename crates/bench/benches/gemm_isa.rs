//! Per-ISA-tier GEMM throughput sweep: GFLOP/s of every available dispatch
//! tier (scalar / avx2 / avx512) at the paper shapes, against the seed's
//! pre-microkernel scalar path.
//!
//! The `scalar` tier *is* the PR 1 autovectorized microkernel, so the
//! `best-vs-scalar` speedups printed at the end measure exactly what the
//! explicit-SIMD tentpole bought over the previous PR, same process, same
//! build flags, same run.
//!
//! The `weights` section times the encoder's four weight products at
//! `enc_short`-, `enc_long`- and a short-batch height on every tier, once
//! from a raw row-major slice (`sgemm`: the packed driver packs `B` per
//! launch) and once from a `PackedB` laid out ahead of time
//! (`sgemm_prepacked`: what a forward runs) — the per-launch pack the
//! weights no longer pay.
//!
//! The `skinny` section sweeps the row count at the decode step's weight
//! shapes with **both f32 drivers pinned** (the row-panel packed driver and
//! the in-place-`B` column-block skinny driver), on raw slices
//! (`sgemm_pinned`; the packed driver repacks `B` per launch) and on
//! `PackedB` weights (`sgemm_prepacked_pinned`, drivers `*_prepacked`: what
//! a forward runs), cycling through enough distinct weight matrices that
//! `B` streams from memory as it does in a decode step. It reports GFLOP/s
//! and GB/s of `B` streamed per tier, and the row count through which the
//! skinny driver is no slower than the packed one, on each form — the
//! prepacked one is the measurement `bt_gemm::SKINNY_MAX_M` is read off.
//!
//! Owns `BENCH_gemm.json` at the repo root (every entry carries a `tier`
//! field).
//!
//! Run with `cargo bench -p bt-bench --bench gemm_isa` (`BT_BENCH_FAST=1`
//! shrinks the shapes for smoke runs).

use bt_bench::{banner, fast_mode, wall};
use bt_gemm::dispatch;
use bt_gemm::grouped::{grouped_sgemm, GroupedConfig, GroupedProblem, NoEpilogue, NoTransform};
use bt_gemm::{
    available_isas, set_active_isa, set_active_precision, sgemm, sgemm_pinned, sgemm_prepacked, sgemm_prepacked_pinned,
    Driver, GemmSpec, Isa, PackedB, Precision, SKINNY_MAX_M,
};
use bt_tensor::rng::Xoshiro256StarStar;
use rayon::prelude::*;
use std::fmt::Write as _;

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

/// The seed's scalar GEMM (pre-microkernel): row-parallel axpy loops over
/// `KC`-blocked panels, no packing, no register tile.
fn seed_scalar_sgemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    const KC: usize = 64;
    c[..m * n].par_chunks_mut(n).enumerate().for_each(|(i, c_row)| {
        c_row.fill(0.0);
        for p0 in (0..k).step_by(KC) {
            let pc = KC.min(k - p0);
            for p in p0..p0 + pc {
                let aip = a[i * k + p];
                let b_row = &b[p * n..(p + 1) * n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                    *cv += aip * bv;
                }
            }
        }
    });
}

/// Times `f` (1 warm-up + best of `reps`) and returns GFLOP/s for `flops`.
fn gflops(flops: u64, reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let ((), secs) = wall(&mut f);
        best = best.min(secs);
    }
    (flops as f64 / best / 1e9, best)
}

struct Row {
    name: &'static str,
    tier: String,
    prec: String,
    m: usize,
    n: usize,
    k: usize,
    gflops: f64,
    secs: f64,
}

const SHAPES: [&str; 4] = ["square_768", "ffn_up", "ffn_down", "grouped_qk"];
const DENSE_SHAPES: [&str; 3] = ["square_768", "ffn_up", "ffn_down"];
const LOW_PRECS: [Precision; 2] = [Precision::F16, Precision::Int8];

/// Runs the paper shapes on the currently active dispatch path (ISA tier ×
/// precision) and appends one row per shape tagged `tier`/`prec`: all four
/// at f32, the three dense ones at a low precision.
fn sweep(tier: &str, prec: &str, reps: usize, scale: usize, rows: &mut Vec<Row>) {
    let dense: &[(&'static str, usize, usize, usize)] = &[
        ("square_768", 768 / scale, 768 / scale, 768 / scale),
        ("ffn_up", 768 / scale, 3072 / scale, 768 / scale),
        ("ffn_down", 768 / scale, 768 / scale, 3072 / scale),
    ];
    for &(name, m, n, k) in dense {
        let a = rand_vec(m * k, 1);
        let b = rand_vec(k * n, 2);
        let mut c = vec![0.0f32; m * n];
        let flops = 2 * (m * n * k) as u64;
        let (gf, secs) = if tier == "seed_scalar" {
            gflops(flops, reps, || seed_scalar_sgemm(m, n, k, &a, &b, &mut c))
        } else {
            gflops(flops, reps, || sgemm(GemmSpec::nn(), m, n, k, &a, &b, &mut c))
        };
        rows.push(Row {
            name,
            tier: tier.to_string(),
            prec: prec.to_string(),
            m,
            n,
            k,
            gflops: gf,
            secs,
        });
    }

    // Grouped path: batch 4 x 12 heads of Q·Kᵀ at seq 256, head 64 — the
    // fused-MHA GEMM-1 shape. The seed path has no grouped analogue, and the
    // engine is f32 at every precision, so only the f32 sweep times it.
    if tier != "seed_scalar" && prec == "f32" {
        let (units, seq, head) = (48 / scale, 256 / scale, 64);
        let a_bufs: Vec<Vec<f32>> = (0..units).map(|i| rand_vec(seq * head, i as u64)).collect();
        let b_bufs: Vec<Vec<f32>> = (0..units).map(|i| rand_vec(seq * head, 100 + i as u64)).collect();
        let problems: Vec<GroupedProblem<'_>> = (0..units)
            .map(|i| GroupedProblem {
                m: seq,
                n: seq,
                k: head,
                transb: true,
                alpha: 1.0,
                a: &a_bufs[i],
                b: &b_bufs[i],
            })
            .collect();
        let mut c_bufs: Vec<Vec<f32>> = (0..units).map(|_| vec![0.0f32; seq * seq]).collect();
        let flops = 2 * (units * seq * seq * head) as u64;
        let (gf, secs) = gflops(flops, reps, || {
            grouped_sgemm(
                &problems,
                c_bufs.iter_mut().map(|c| c.as_mut_slice()).collect(),
                GroupedConfig::default(),
                &NoEpilogue,
                &NoTransform,
            );
        });
        rows.push(Row {
            name: "grouped_qk",
            tier: tier.to_string(),
            prec: prec.to_string(),
            m: seq,
            n: seq,
            k: head,
            gflops: gf,
            secs,
        });
    }
}

/// One point of the `weights` section: a weight product from a raw slice
/// (`B` packed per launch) and from a `PackedB`.
struct WeightPoint {
    name: &'static str,
    tier: &'static str,
    m: usize,
    n: usize,
    k: usize,
    /// Best seconds per call: `[raw, prepacked]`.
    secs: [f64; 2],
}

const WEIGHT_FORMS: [&str; 2] = ["raw", "prepacked"];
/// `(name, k, n)` of the encoder's four weights at BERT-base width.
const WEIGHT_SHAPES: [(&str, usize, usize); 4] = [
    ("qkv", 768, 2304),
    ("proj", 768, 768),
    ("ffn_up", 768, 3072),
    ("ffn_down", 3072, 768),
];
/// Rows: a short serving batch, `enc_short` (4 × ~154) and `enc_long`
/// (2 × ~614) forwards.
const WEIGHT_MS: [usize; 3] = [155, 614, 1229];

/// The encoder's weight products on the active tier, raw and prepacked
/// alternating rep by rep (best of `reps` after one warm-up each).
fn weight_sweep(tier: &'static str, reps: usize, scale: usize, points: &mut Vec<WeightPoint>) {
    for (name, k, n) in WEIGHT_SHAPES {
        let (k, n) = (k / scale, n / scale);
        let b = rand_vec(k * n, 300);
        let w = PackedB::pack(&b, false, k, n);
        for m in WEIGHT_MS.map(|m| m / scale) {
            let a = rand_vec(m * k, 301);
            let mut c = vec![0.0f32; m * n];
            let mut secs = [f64::INFINITY; 2];
            for rep in 0..=reps {
                for (f, best) in secs.iter_mut().enumerate() {
                    let ((), t) = wall(|| match f {
                        0 => sgemm(GemmSpec::nn(), m, n, k, &a, &b, &mut c),
                        _ => sgemm_prepacked(m, &a, &w, &mut c, None),
                    });
                    if rep > 0 {
                        *best = best.min(t);
                    }
                }
            }
            points.push(WeightPoint {
                name,
                tier,
                m,
                n,
                k,
                secs,
            });
        }
    }
}

/// One point of the skinny sweep: both drivers on the same operands.
struct SkinnyPoint {
    name: &'static str,
    tier: &'static str,
    m: usize,
    n: usize,
    k: usize,
    /// Best seconds per call, indexed like [`SKINNY_VARIANTS`].
    secs: [f64; 4],
}

/// Both drivers on a raw slice, then on a `PackedB`: `(driver, prepacked)`.
const SKINNY_VARIANTS: [(Driver, bool); 4] = [
    (Driver::Packed, false),
    (Driver::Skinny, false),
    (Driver::Packed, true),
    (Driver::Skinny, true),
];

fn variant_name(v: usize) -> String {
    let (driver, prepacked) = SKINNY_VARIANTS[v];
    format!("{}{}", driver.name(), if prepacked { "_prepacked" } else { "" })
}

impl SkinnyPoint {
    fn gflops(&self, v: usize) -> f64 {
        2.0 * (self.m * self.n * self.k) as f64 / self.secs[v] / 1e9
    }

    /// GB/s of `B` streamed (one pass over the `k×n` weights per call).
    fn b_gbs(&self, v: usize) -> f64 {
        (self.k * self.n * 4) as f64 / self.secs[v] / 1e9
    }

    /// Packed time over skinny time on raw slices (`form` 0) or on
    /// `PackedB` weights (`form` 1).
    fn skinny_vs_packed(&self, form: usize) -> f64 {
        self.secs[2 * form] / self.secs[2 * form + 1]
    }
}

/// Row counts of the skinny sweep: the decode range, the issue's candidates
/// for the crossover, and far enough past them to see the packed driver
/// catch up.
const SKINNY_MS: [usize; 10] = [1, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
/// `(name, k, n)` of the decode step's three distinct weight shapes.
const SKINNY_SHAPES: [(&str, usize, usize); 3] = [("qkv", 768, 2304), ("ffn_up", 768, 3072), ("ffn_down", 3072, 768)];
/// Bytes of distinct weights cycled per timing pass at the decode row
/// counts — a decoder's worth, so `B` comes from memory, not from L2.
const SKINNY_WORKING_SET: usize = 64 << 20;
/// Decode-range rows whose skinny/packed ratio the gate holds to a floor
/// (measured 2.5–11× over the full runs made; the floor leaves room for a
/// steal episode).
const SKINNY_DECODE_MAX_M: usize = 16;
const SKINNY_DECODE_SPEEDUP_FLOOR: f64 = 1.5;
/// A driver is "no slower" down to this ratio: the same row's
/// skinny/packed ratio moved by up to ±0.1 between two full runs of this
/// bench on the reference guest.
const SKINNY_PARITY: f64 = 0.9;

/// Timed passes per driver and point in the skinny sweep.
const SKINNY_REPS: usize = 5;

/// Both drivers on the active tier at every `SKINNY_MS × SKINNY_SHAPES`
/// point: per-call time is the best pass over the weight set divided by
/// its size.
fn skinny_sweep(tier: &'static str, scale: usize, points: &mut Vec<SkinnyPoint>) {
    // Fast mode folds the smallest row counts together.
    let mut ms: Vec<usize> = SKINNY_MS.iter().map(|m| (m / scale).max(1)).collect();
    ms.dedup();
    for (name, k, n) in SKINNY_SHAPES {
        let (k, n) = (k / scale, n / scale);
        let copies = (SKINNY_WORKING_SET / scale / scale).div_ceil(k * n * 4).max(2);
        let weights: Vec<Vec<f32>> = (0..copies).map(|i| rand_vec(k * n, 200 + i as u64)).collect();
        let packed: Vec<PackedB> = weights.iter().map(|b| PackedB::pack(b, false, k, n)).collect();
        for &m in &ms {
            // Past the decode range B is reused across row groups/panels and
            // where it comes from stops mattering; two matrices keep the
            // large-m points affordable.
            let count = if m <= SKINNY_MAX_M { copies } else { 2 };
            let a = rand_vec(m * k, 1);
            let mut c = vec![0.0f32; m * n];
            // The variants alternate pass by pass, so a steal episode that
            // outlasts a pass costs all of them the same passes; best pass
            // per variant after one warm-up each.
            let mut secs = [f64::INFINITY; 4];
            for rep in 0..=SKINNY_REPS {
                for (v, &(driver, prepacked)) in SKINNY_VARIANTS.iter().enumerate() {
                    let ((), pass) = wall(|| {
                        for (b, w) in weights.iter().zip(&packed).take(count) {
                            if prepacked {
                                sgemm_prepacked_pinned(driver, m, &a, w, &mut c, None);
                            } else {
                                sgemm_pinned(driver, GemmSpec::nn(), m, n, k, &a, b, &mut c, None);
                            }
                        }
                    });
                    if rep > 0 {
                        secs[v] = secs[v].min(pass / count as f64);
                    }
                }
            }
            points.push(SkinnyPoint {
                name,
                tier,
                m,
                n,
                k,
                secs,
            });
        }
    }
}

fn main() {
    banner(
        "GEMM throughput per ISA dispatch tier",
        "substrate for Figs. 3/9/10/14 at every BYTE_GEMM_ISA setting",
        "best tier >= 1.5x GFLOP/s over the scalar (autovectorized) tier at >= 3 shapes",
    );
    let reps = if fast_mode() { 2 } else { 3 };
    let scale = if fast_mode() { 4 } else { 1 };
    let mut rows: Vec<Row> = Vec::new();

    let mut skinny_points: Vec<SkinnyPoint> = Vec::new();
    let mut weight_points: Vec<WeightPoint> = Vec::new();

    sweep("seed_scalar", "f32", reps, scale, &mut rows);
    let available = available_isas();
    for tier in [Isa::Scalar, Isa::Avx2, Isa::Avx512] {
        if !available.contains(&tier) {
            println!("tier {tier}: unavailable on this host, skipped");
            continue;
        }
        set_active_isa(tier).expect("tier just reported available");
        sweep(tier.name(), "f32", reps, scale, &mut rows);
        weight_sweep(tier.name(), reps, scale, &mut weight_points);
        skinny_sweep(tier.name(), scale, &mut skinny_points);
        // Low-precision sweeps on this tier — only combinations the
        // dispatcher serves natively (a degraded combination would just
        // duplicate the row of the tier it degrades to).
        for prec in LOW_PRECS {
            set_active_precision(prec);
            let served = dispatch::active().lowp.is_some_and(|lk| lk.isa == tier);
            if served {
                sweep(tier.name(), prec.name(), reps, scale, &mut rows);
            } else {
                println!(
                    "{}/{}: no native kernel on this host, skipped",
                    tier.name(),
                    prec.name()
                );
            }
        }
        set_active_precision(Precision::F32);
    }

    println!(
        "\n{:<12} {:<12} {:<6} {:>5} {:>5} {:>5} {:>10} {:>12}",
        "shape", "tier", "prec", "m", "n", "k", "GFLOP/s", "secs"
    );
    for r in &rows {
        println!(
            "{:<12} {:<12} {:<6} {:>5} {:>5} {:>5} {:>10.2} {:>12.6}",
            r.name, r.tier, r.prec, r.m, r.n, r.k, r.gflops, r.secs
        );
    }

    let lookup = |name: &str, tier: &str, prec: &str| {
        rows.iter()
            .find(|r| r.name == name && r.tier == tier && r.prec == prec)
            .map(|r| r.gflops)
    };
    let best_tier = available.last().copied().unwrap_or(Isa::Scalar).name().to_string();
    println!("\nbest tier: {best_tier}");
    let mut wins = 0usize;
    let mut speedups: Vec<(&str, f64)> = Vec::new();
    for name in SHAPES {
        if let (Some(best), Some(scalar)) = (lookup(name, &best_tier, "f32"), lookup(name, "scalar", "f32")) {
            let x = best / scalar;
            println!("{name}: {best_tier} {x:.2}x over scalar tier");
            if x >= 1.5 {
                wins += 1;
            }
            speedups.push((name, x));
        }
    }
    println!("shapes at >= 1.5x over the scalar tier: {wins}/{}", SHAPES.len());

    // §III.C gate: at the dense paper shapes, the best same-tier speedup of
    // each low precision over f32 must reach 1.4x (f16) or 2x (int8)
    // on at least one ISA tier.
    let tier_names: Vec<&str> = available.iter().map(|t| t.name()).collect();
    let mut lowp_speedups: Vec<(&str, &str, f64, &str)> = Vec::new();
    println!();
    for prec in LOW_PRECS {
        let target = if prec == Precision::Int8 { 2.0 } else { 1.4 };
        let mut prec_wins = 0usize;
        for name in DENSE_SHAPES {
            let (mut best_x, mut best_at) = (0.0f64, "-");
            for &tier in &tier_names {
                if let (Some(lp), Some(f)) = (lookup(name, tier, prec.name()), lookup(name, tier, "f32")) {
                    if lp / f > best_x {
                        best_x = lp / f;
                        best_at = tier;
                    }
                }
            }
            if best_x > 0.0 {
                println!("{} {name}: {best_x:.2}x over f32 (at {best_at})", prec.name());
                if best_x >= target {
                    prec_wins += 1;
                }
                lowp_speedups.push((prec.name(), name, best_x, best_at));
            }
        }
        println!(
            "{}: dense shapes at >= {target}x over same-tier f32: {prec_wins}/{}",
            prec.name(),
            DENSE_SHAPES.len()
        );
    }

    // Weights section: each encoder weight product from a raw slice (B
    // packed per launch) and from a PackedB, side by side.
    println!(
        "\n{:<9} {:<7} {:>5} {:>5} {:>5} | {:>8} {:>10} | {:>7}",
        "weight", "tier", "m", "n", "k", "raw GF", "prepacked", "gain"
    );
    let wgf = |p: &WeightPoint, f: usize| 2.0 * (p.m * p.n * p.k) as f64 / p.secs[f] / 1e9;
    for p in &weight_points {
        println!(
            "{:<9} {:<7} {:>5} {:>5} {:>5} | {:>8.2} {:>10.2} | {:>6.2}x",
            p.name,
            p.tier,
            p.m,
            p.n,
            p.k,
            wgf(p, 0),
            wgf(p, 1),
            p.secs[0] / p.secs[1]
        );
    }

    // Skinny section: both drivers side by side on each form of B, then per
    // tier and form the largest row count through which the skinny driver
    // is no slower than the packed one at every shape. The crossover
    // `SKINNY_MAX_M` is the smallest of the prepacked ones (every weight
    // is a PackedB): one constant has to be right on every tier.
    println!(
        "\n{:<9} {:<7} {:>5} {:>5} {:>5} | {:>10} {:>8} | {:>10} {:>8} | {:>7} | {:>10} {:>10} | {:>7}",
        "shape",
        "tier",
        "m",
        "n",
        "k",
        "packed GF",
        "B GB/s",
        "skinny GF",
        "B GB/s",
        "skinny/p",
        "packed_pre",
        "skinny_pre",
        "skinny/p"
    );
    let mut skinny_ms: Vec<usize> = skinny_points.iter().map(|p| p.m).collect();
    skinny_ms.sort_unstable();
    skinny_ms.dedup();
    // Per form (raw, prepacked): `(tier, no slower through m)`.
    let mut no_slower_through: [Vec<(&str, usize)>; 2] = [Vec::new(), Vec::new()];
    for tier in available.iter().map(|t| t.name()) {
        let mut through = [0usize; 2];
        let mut still_level = [true; 2];
        for &m in &skinny_ms {
            for p in skinny_points.iter().filter(|p| p.tier == tier && p.m == m) {
                println!(
                    "{:<9} {:<7} {:>5} {:>5} {:>5} | {:>10.2} {:>8.2} | {:>10.2} {:>8.2} | {:>7.2} | {:>10.2} {:>10.2} | {:>7.2}",
                    p.name,
                    tier,
                    m,
                    p.n,
                    p.k,
                    p.gflops(0),
                    p.b_gbs(0),
                    p.gflops(1),
                    p.b_gbs(1),
                    p.skinny_vs_packed(0),
                    p.gflops(2),
                    p.gflops(3),
                    p.skinny_vs_packed(1),
                );
                for (form, level) in still_level.iter_mut().enumerate() {
                    *level &= p.skinny_vs_packed(form) >= SKINNY_PARITY;
                }
            }
            for form in 0..2 {
                if still_level[form] {
                    through[form] = m;
                }
            }
        }
        println!(
            "{tier}: skinny driver no slower (>= {SKINNY_PARITY}x) at every shape through m = {} on raw slices, {} on PackedB",
            through[0], through[1]
        );
        for form in 0..2 {
            no_slower_through[form].push((tier, through[form]));
        }
    }
    let measured = no_slower_through[1].iter().map(|&(_, m)| m).min().unwrap_or(0);
    println!("measured crossover on PackedB (smallest over tiers): {measured}; bt_gemm::SKINNY_MAX_M = {SKINNY_MAX_M}");

    // BENCH_gemm.json at the repo root (hand-rolled — no serde in-tree).
    // The header is the shared RunMeta schema (host, pool, ISA, rev, time).
    let mut json = bt_bench::report::RunMeta::collect("gemm", "GFLOP/s").header_json();
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"tier\": \"{}\", \"prec\": \"{}\", \"m\": {}, \"n\": {}, \"k\": {}, \"gflops\": {:.3}, \"secs\": {:.6}}}{}",
            r.name,
            r.tier,
            r.prec,
            r.m,
            r.n,
            r.k,
            r.gflops,
            r.secs,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],\n  \"best_tier\": \"{best_tier}\",");
    json.push_str("  \"speedup_best_vs_scalar_tier\": {\n");
    for (i, (name, x)) in speedups.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{}\": {:.2}{}",
            name,
            x,
            if i + 1 == speedups.len() { "" } else { "," }
        );
    }
    json.push_str("  },\n  \"speedup_lowp_vs_f32_same_tier\": [\n");
    for (i, (prec, name, x, at)) in lowp_speedups.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"prec\": \"{prec}\", \"name\": \"{name}\", \"speedup\": {x:.2}, \"at_tier\": \"{at}\"}}{}",
            if i + 1 == lowp_speedups.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n  \"weights\": [\n");
    for (i, p) in weight_points.iter().enumerate() {
        for (f, form) in WEIGHT_FORMS.iter().enumerate() {
            let _ = writeln!(
                json,
                "    {{\"name\": \"{}\", \"tier\": \"{}\", \"form\": \"{form}\", \"m\": {}, \"n\": {}, \"k\": {}, \"gflops\": {:.3}, \"secs\": {:.6}}}{}",
                p.name,
                p.tier,
                p.m,
                p.n,
                p.k,
                wgf(p, f),
                p.secs[f],
                if i + 1 == weight_points.len() && f == 1 { "" } else { "," }
            );
        }
    }
    json.push_str("  ],\n  \"skinny\": [\n");
    for (i, p) in skinny_points.iter().enumerate() {
        for v in 0..SKINNY_VARIANTS.len() {
            let _ = writeln!(
                json,
                "    {{\"name\": \"{}\", \"tier\": \"{}\", \"driver\": \"{}\", \"m\": {}, \"n\": {}, \"k\": {}, \"gflops\": {:.3}, \"b_gbs\": {:.3}, \"secs\": {:.6}}}{}",
                p.name,
                p.tier,
                variant_name(v),
                p.m,
                p.n,
                p.k,
                p.gflops(v),
                p.b_gbs(v),
                p.secs[v],
                if i + 1 == skinny_points.len() && v + 1 == SKINNY_VARIANTS.len() { "" } else { "," }
            );
        }
    }
    let decode_points: Vec<&SkinnyPoint> = skinny_points.iter().filter(|p| p.m <= SKINNY_DECODE_MAX_M).collect();
    json.push_str("  ],\n  \"skinny_decode_speedup\": [\n");
    for (i, p) in decode_points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"tier\": \"{}\", \"m\": {}, \"skinny_vs_packed\": {:.2}, \"skinny_vs_packed_prepacked\": {:.2}, \"speedup_floor\": {SKINNY_DECODE_SPEEDUP_FLOOR:.1}}}{}",
            p.name,
            p.tier,
            p.m,
            p.skinny_vs_packed(0),
            p.skinny_vs_packed(1),
            if i + 1 == decode_points.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    for (form, key) in ["skinny_no_slower_through_m", "skinny_no_slower_through_m_prepacked"]
        .iter()
        .enumerate()
    {
        let _ = writeln!(json, "  \"{key}\": {{");
        for (i, (tier, m)) in no_slower_through[form].iter().enumerate() {
            let _ = writeln!(
                json,
                "    \"{tier}\": {m}{}",
                if i + 1 == no_slower_through[form].len() {
                    ""
                } else {
                    ","
                }
            );
        }
        json.push_str("  },\n");
    }
    let _ = writeln!(
        json,
        "  \"skinny_measured_crossover_m\": {measured},\n  \"skinny_max_m\": {SKINNY_MAX_M}\n}}"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json");
    std::fs::write(path, &json).expect("write BENCH_gemm.json");
    println!("\nwrote {path}");
}
