//! Fig. 10 — kernel fusion for GEMM + add-bias + GELU. Output tensor
//! `(batch·seq) × (4·hidden)`, hidden = 768, scale 4.
//!
//! Paper reading: fusing the element-wise tail into the GEMM epilogue
//! "perfectly hides the memory latency of bias and GELU into GEMM": ~24%
//! average improvement over the unfused (GEMM, then separate bias+GELU
//! kernels) pipeline. The harness prints the unfused stack (GEMM | bias |
//! GELU) exactly like the paper's stacked bars, all modeled, then the
//! measured wall time of both pipelines on this host (best of
//! `WALL_REPS`). The two outputs must be bit-identical: the epilogue runs
//! the same `gelu_tanh` on the same values as the standalone kernels.

use bt_bench::{banner, bench_batch, bench_config, pct_faster, seq_sweep, wall};
use bt_core::weights::LayerWeights;
use bt_device::{Device, TraceReport};
use bt_gemm::{gemm_kernel_spec, sgemm_prepacked};
use bt_kernels::activation::{add_bias_gelu_unfused, bias_gelu_epilogue};
use bt_tensor::Tensor;

/// Timed repetitions per variant; the fastest is reported.
const WALL_REPS: usize = 3;

fn main() {
    banner(
        "Fig. 10: GEMM + add-bias + GELU fusion",
        "Figure 10",
        "epilogue fusion hides the element-wise tail: ~1.1-1.4x, bigger at short seq",
    );
    let config = bench_config();
    let hidden = config.hidden();
    let inter = config.intermediate();
    let batch = bench_batch();
    let w = LayerWeights::new_random(&config, 5);
    println!("output tensor: (batch·seq) × {inter}, batch = {batch}\n");
    println!(
        "{:>6} {:>12} {:>11} {:>11} {:>11} {:>12} {:>9} {:>12} {:>12} {:>9}",
        "seq",
        "unfused_µs",
        "=gemm",
        "+bias",
        "+gelu",
        "fused_µs",
        "speedup",
        "wall_unf_µs",
        "wall_fus_µs",
        "wall_gain"
    );

    for seq in seq_sweep() {
        let rows = batch * seq;
        let x = Tensor::randn([rows, hidden], 1).into_vec();
        // Unfused: GEMM kernel, then the separate bias and GELU kernels.
        let unfused = |dev: &Device, out: &mut [f32]| {
            dev.launch(gemm_kernel_spec("gemm2.ffn_up", rows, inter, hidden, 4), || {
                sgemm_prepacked(rows, &x, &w.ffn_up_weight, out, None)
            });
            add_bias_gelu_unfused(dev, "bias_act", out, rows, inter, &w.ffn_up_bias);
        };
        // Fused: one GEMM with the bias+GELU epilogue.
        let fused = |dev: &Device, out: &mut [f32]| {
            let epi = bias_gelu_epilogue(&w.ffn_up_bias);
            let mut spec = gemm_kernel_spec("gemm2.ffn_up_fused", rows, inter, hidden, 4);
            spec.cost.flops += (rows * inter * 9) as u64;
            dev.launch(spec, || sgemm_prepacked(rows, &x, &w.ffn_up_weight, out, Some(&epi)));
        };

        let dev_u = Device::new();
        let mut out_u = vec![0.0f32; rows * inter];
        unfused(&dev_u, &mut out_u);
        let report = TraceReport::by_prefix(&dev_u.trace());
        let gemm_part = report.bucket("gemm2").map(|b| b.modeled).unwrap_or(0.0);
        let stack = dev_u.trace();
        let bias_part: f64 = stack
            .iter()
            .filter(|r| r.name.contains("add_bias"))
            .map(|r| r.modeled)
            .sum();
        let gelu_part: f64 = stack
            .iter()
            .filter(|r| r.name.contains(".gelu"))
            .map(|r| r.modeled)
            .sum();
        let dev_f = Device::new();
        let mut out_f = vec![0.0f32; rows * inter];
        fused(&dev_f, &mut out_f);

        // The epilogue computes exactly what the separate kernels compute.
        for (i, (u, f)) in out_u.iter().zip(&out_f).enumerate() {
            assert!(
                u.to_bits() == f.to_bits(),
                "fused/unfused differ at {i}: {u:?} vs {f:?}"
            );
        }

        // Measured: fastest of WALL_REPS runs each, alternating, on the
        // warm output buffers.
        let (mut w_u, mut w_f) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..WALL_REPS {
            let (dev_u, dev_f) = (Device::new(), Device::new());
            w_u = w_u.min(wall(|| unfused(&dev_u, &mut out_u)).1);
            w_f = w_f.min(wall(|| fused(&dev_f, &mut out_f)).1);
        }

        println!(
            "{:>6} {:>12.1} {:>11.1} {:>11.1} {:>11.1} {:>12.1} {:>9} {:>12.0} {:>12.0} {:>9}",
            seq,
            dev_u.modeled_total() * 1e6,
            gemm_part * 1e6,
            bias_part * 1e6,
            gelu_part * 1e6,
            dev_f.modeled_total() * 1e6,
            pct_faster(dev_u.modeled_total(), dev_f.modeled_total()),
            w_u * 1e6,
            w_f * 1e6,
            pct_faster(w_u, w_f),
        );
    }
    println!("\npaper: fusing element-wise ops into the GEMM epilogue gives ~24% on average");
}
