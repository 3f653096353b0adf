//! Fig. 12 — fused MHA for long sequences (≥ 512) via grouped GEMM,
//! heads 12 × 64, average length = 0.6 × max.
//!
//! Paper reading: grouped fused MHA beats PyTorch / cuBLAS / cuBLAS+zeropad
//! by ~451% / 110% / 79%; the separate full-reduction kernel costs ~2% of
//! fused MHA (`reduce_pct`). Every column but the last two is modeled; they
//! are measured, the median host wall time of [`WALL_REPS`] runs after one
//! warm-up: `fused_wall_ms` of the grouped kernel and `tiled_wall_ms` of the
//! tiled Algorithm III.1 kernel, which the encoder runs at these lengths on
//! the CPU (the 384-token cap is the GPU's shared memory). Both outputs must
//! match the cuBLAS-style baseline on every valid row within [`TOL`], or the
//! bench exits nonzero.

use bt_bench::{banner, bench_config, pct_faster, wall};
use bt_core::attention::{
    batched_attention, fused_grouped_attention, fused_short_attention, naive_attention, DEFAULT_SPLIT_SEQ_LEN,
};
use bt_device::Device;
use bt_gemm::grouped::Scheduler;
use bt_kernels::layout::{add_bias_split_qkv_packed, add_bias_unpack_split_qkv};
use bt_tensor::Tensor;
use bt_varlen::{workload, PackingIndex};

/// Timed runs per row and kernel; the median is reported.
const WALL_REPS: usize = 5;
/// Largest |fused − batched| or |tiled − batched| allowed on a valid row
/// (the cross-level tolerance of `tests/cross_level_equivalence.rs`).
const TOL: f32 = 5e-3;

fn main() {
    banner(
        "Fig. 12: MHA for long sequences (grouped GEMM)",
        "Figure 12",
        "grouped fused >> cuBLAS+zeropad > cuBLAS > PyTorch (paper: +451%/+110%/+79%); full-reduce ≈ 2%",
    );
    let config = bench_config();
    let (heads, head) = (config.heads, config.head_size);
    let hidden = config.hidden();
    let scale = config.attention_scale();
    let batch = if bt_bench::fast_mode() {
        2
    } else if bt_bench::full_mode() {
        16
    } else {
        8 // paper uses 16; 8 keeps a single-core run tractable (ratios hold)
    };
    let seqs: Vec<usize> = if bt_bench::fast_mode() {
        vec![576] // one sequence (413 tokens) past FUSED_SHORT_MAX_SEQ
    } else {
        vec![512, 768, 1024]
    };
    println!("batch {batch}, {heads} heads × {head}, avg len = 0.6·max\n");
    println!(
        "{:>6} {:>12} {:>12} {:>13} {:>11} {:>12} {:>12} {:>12} {:>11} {:>24} {:>24}",
        "seq",
        "pytorch_µs",
        "cublas_µs",
        "cublas+zp_µs",
        "fused_µs",
        "vs_pytorch",
        "vs_cublas",
        "vs_zp",
        "reduce_pct",
        "fused_wall_ms(measured)",
        "tiled_wall_ms(measured)"
    );

    for &seq in &seqs {
        let mask = workload::paper_workload(batch, seq, 33);
        let idx = PackingIndex::from_mask(&mask);
        let setup = Device::untraced(bt_device::CostModel::a100());
        let qkv = Tensor::randn([idx.valid_words(), 3 * hidden], 3);
        let bias = vec![0.0f32; 3 * hidden];
        let (q_pad, k_pad, v_pad) = add_bias_unpack_split_qkv(&setup, &qkv, &bias, &idx, heads);
        let (q_pk, k_pk, v_pk) = add_bias_split_qkv_packed(&setup, &qkv, &bias, heads, scale);

        let dev_pt = Device::new();
        naive_attention(&dev_pt, &q_pad, &k_pad, &v_pad, mask.seq_lens(), scale, 8e-6);
        let dev_cb = Device::new();
        let batched = batched_attention(&dev_cb, &q_pad, &k_pad, &v_pad, mask.seq_lens(), scale, false);
        let dev_zp = Device::new();
        batched_attention(&dev_zp, &q_pad, &k_pad, &v_pad, mask.seq_lens(), scale, true);
        let dev_f = Device::new();
        let fused = fused_grouped_attention(&dev_f, &q_pk, &k_pk, &v_pk, &idx, Scheduler::WarpPrefetch);
        let tiled = |dev: &Device| fused_short_attention(dev, &q_pk, &k_pk, &v_pk, &idx, DEFAULT_SPLIT_SEQ_LEN);

        // Valid rows: packed row `offset_b + s` ≡ padded `[b, h, s, ..]`.
        let (bs, pad) = (batched.as_slice(), batched.dims()[2]);
        for (kernel, out) in [("fused grouped", fused), ("tiled", tiled(&Device::new()))] {
            let mut worst = 0.0f32;
            for b in 0..idx.batch() {
                for s in 0..idx.seq_len(b) {
                    let row = &out.as_slice()[(idx.seq_offset(b) + s) * hidden..][..hidden];
                    for (h, got) in row.chunks(head).enumerate() {
                        let want = &bs[((b * heads + h) * pad + s) * head..][..head];
                        for (g, w) in got.iter().zip(want) {
                            worst = worst.max((g - w).abs());
                        }
                    }
                }
            }
            assert!(
                worst <= TOL,
                "seq {seq}: {kernel} MHA differs from batched attention by {worst} > {TOL}"
            );
        }

        // Measured: median of WALL_REPS runs after one warm-up.
        let median_wall = |run: &dyn Fn() -> Tensor| {
            run();
            let mut walls: Vec<f64> = (0..WALL_REPS).map(|_| wall(run).1).collect();
            walls.sort_by(f64::total_cmp);
            walls[WALL_REPS / 2]
        };
        let fused_wall = median_wall(&|| {
            fused_grouped_attention(&Device::new(), &q_pk, &k_pk, &v_pk, &idx, Scheduler::WarpPrefetch)
        });
        let tiled_wall = median_wall(&|| tiled(&Device::new()));

        let f = dev_f.modeled_total();
        let reduce: f64 = dev_f
            .trace()
            .iter()
            .filter(|r| r.name.contains("full_reduce"))
            .map(|r| r.modeled)
            .sum();
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>13.1} {:>11.1} {:>12} {:>12} {:>12} {:>10.1}% {:>24.2} {:>24.2}",
            seq,
            dev_pt.modeled_total() * 1e6,
            dev_cb.modeled_total() * 1e6,
            dev_zp.modeled_total() * 1e6,
            f * 1e6,
            pct_faster(dev_pt.modeled_total(), f),
            pct_faster(dev_cb.modeled_total(), f),
            pct_faster(dev_zp.modeled_total(), f),
            reduce / f * 100.0,
            fused_wall * 1e3,
            tiled_wall * 1e3,
        );
    }
}
