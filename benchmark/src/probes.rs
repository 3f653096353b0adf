//! Same-run host and kernel probes of the traced run. Roofline fractions are
//! only ever reported against these: the peak a `sgemm` reaches and the
//! bandwidth a triad reaches in *this* process on *this* host.

use bt_gemm::{sgemm, sgemm_epilogue, GemmSpec};
use bt_kernels::activation::bias_gelu_epilogue;
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Bytes of each of the three triad arrays: four times the 4 MiB private L2
/// of the reference host. The L3 that host reports (260 MiB) belongs to the
/// physical machine, not to this 2-vCPU guest, and first-touching hundreds
/// of MiB of fresh guest memory costs tens of seconds of system time under
/// this hypervisor, so the arrays are not sized against it. What the triad
/// reaches is therefore "bandwidth beyond L2", labelled so in the README.
pub const TRIAD_ARRAY_BYTES: usize = 16 << 20;

#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// Best of 5 `sgemm` 768³ on the active ISA.
    pub peak_gflops: f64,
    pub triad_gbs: f64,
    /// `sgemm` M×3072×768 at M = 8 and M = 1024.
    pub gemm_m8_gflops: f64,
    pub gemm_m1024_gflops: f64,
    /// `1 − t(sgemm) / t(sgemm_epilogue + bias_gelu_epilogue)` at M 1024.
    pub gelu_epilogue_cost_frac: f64,
    /// One `par_iter` over `width` empty items.
    pub empty_launch_us: f64,
}

/// Seconds of the fastest of `reps` calls.
fn best_s(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn filled(n: usize, seed: u64) -> Vec<f32> {
    bt_tensor::Tensor::rand_uniform([n], -1.0, 1.0, seed).into_vec()
}

/// Best-of-`reps` GFLOP/s of a plain `sgemm` at `m × n × k`.
fn sgemm_gflops(m: usize, n: usize, k: usize, reps: usize) -> (f64, f64) {
    let (a, b) = (filled(m * k, 1), filled(k * n, 2));
    let mut c = vec![0.0f32; m * n];
    let s = best_s(reps, || sgemm(GemmSpec::nn(), m, n, k, &a, &b, black_box(&mut c)));
    (2.0 * (m * n * k) as f64 / s / 1e9, s)
}

/// `a[i] = b[i] + s·c[i]` over the pool, best of 5, counted as 12 bytes per
/// element (two reads, one write; write-allocate traffic not counted).
fn triad(reps: usize) -> f64 {
    let n = TRIAD_ARRAY_BYTES / 4;
    let (b, c) = (vec![1.0f32; n], vec![2.0f32; n]);
    let mut a = vec![0.0f32; n];
    let chunk = n.div_ceil(4 * rayon::current_num_threads());
    let s = best_s(reps, || {
        a.par_chunks_mut(chunk)
            .zip(b.par_chunks(chunk))
            .zip(c.par_chunks(chunk))
            .for_each(|((a, b), c)| {
                for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                    *x = y + 3.0 * z;
                }
            });
        black_box(&mut a);
    });
    12.0 * n as f64 / s / 1e9
}

/// Runs every probe (≈ 1 s on the reference host); `quick` takes one
/// repetition of each instead of the best of several (`--smoke`).
pub fn run(quick: bool) -> Probes {
    let reps = |n: usize| if quick { 1 } else { n };
    let (peak_gflops, _) = sgemm_gflops(768, 768, 768, reps(5));
    let (gemm_m8_gflops, _) = sgemm_gflops(8, 3072, 768, reps(5));
    let (gemm_m1024_gflops, plain_s) = sgemm_gflops(1024, 3072, 768, reps(3));

    let (m, n, k) = (1024, 3072, 768);
    let (a, b, bias) = (filled(m * k, 1), filled(k * n, 2), filled(n, 3));
    let mut c = vec![0.0f32; m * n];
    let epi = bias_gelu_epilogue(&bias);
    let fused_s = best_s(reps(3), || {
        sgemm_epilogue(GemmSpec::nn(), m, n, k, &a, &b, black_box(&mut c), &epi)
    });

    let width = rayon::current_num_threads();
    let launches = reps(2000);
    let t = Instant::now();
    for _ in 0..launches {
        (0..width).into_par_iter().for_each(|i| {
            black_box(i);
        });
    }
    let empty_launch_us = t.elapsed().as_secs_f64() * 1e6 / launches as f64;

    let triad_gbs = triad(reps(5));
    Probes {
        peak_gflops,
        triad_gbs,
        gemm_m8_gflops,
        gemm_m1024_gflops,
        gelu_epilogue_cost_frac: 1.0 - plain_s / fused_s,
        empty_launch_us,
    }
}
