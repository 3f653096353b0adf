//! Fig. 11 — fused MHA for short sequences (≤ 384), batch 16, heads 12,
//! head size 64, average length = 0.6 × max.
//!
//! Variants, as in the paper: standard PyTorch-style MHA, cuBLAS batched
//! GEMM, cuBLAS + zero-padding softmax, and our fused MHA. Paper reading:
//! fused beats them by ~617% / 42% / 30% on average.

use bt_bench::{banner, bench_config, pct_faster};
use bt_core::attention::{batched_attention, fused_short_attention, naive_attention};
use bt_device::Device;
use bt_kernels::layout::{add_bias_split_qkv_packed, add_bias_unpack_split_qkv};
use bt_tensor::Tensor;
use bt_varlen::{workload, PackingIndex};

fn main() {
    banner(
        "Fig. 11: MHA for short sequences",
        "Figure 11",
        "fused >> cuBLAS+zeropad > cuBLAS > PyTorch (paper: +617%/+42%/+30%)",
    );
    let config = bench_config();
    let (heads, head) = (config.heads, config.head_size);
    let hidden = config.hidden();
    let scale = config.attention_scale();
    let batch = if bt_bench::fast_mode() { 2 } else { 16 };
    let seqs: Vec<usize> = if bt_bench::fast_mode() {
        vec![64]
    } else {
        vec![128, 256, 384]
    };
    println!("batch {batch}, {heads} heads × {head}, avg len = 0.6·max\n");
    println!(
        "{:>6} {:>12} {:>12} {:>13} {:>11} {:>12} {:>12} {:>12}",
        "seq", "pytorch_µs", "cublas_µs", "cublas+zp_µs", "fused_µs", "vs_pytorch", "vs_cublas", "vs_zp"
    );

    for &seq in &seqs {
        let mask = workload::paper_workload(batch, seq, 21);
        let idx = PackingIndex::from_mask(&mask);
        let setup = Device::untraced(bt_device::CostModel::a100());
        let qkv = Tensor::randn([idx.valid_words(), 3 * hidden], 3);
        let bias = vec![0.0f32; 3 * hidden];
        let (q_pad, k_pad, v_pad) = add_bias_unpack_split_qkv(&setup, &qkv, &bias, &idx, heads);
        let (q_pk, k_pk, v_pk) = add_bias_split_qkv_packed(&setup, &qkv, &bias, heads, scale);

        let dev_pt = Device::new();
        naive_attention(&dev_pt, &q_pad, &k_pad, &v_pad, mask.seq_lens(), scale, 8e-6);
        let dev_cb = Device::new();
        batched_attention(&dev_cb, &q_pad, &k_pad, &v_pad, mask.seq_lens(), scale, false);
        let dev_zp = Device::new();
        batched_attention(&dev_zp, &q_pad, &k_pad, &v_pad, mask.seq_lens(), scale, true);
        let dev_f = Device::new();
        fused_short_attention(&dev_f, &q_pk, &k_pk, &v_pk, &idx, 32);

        let f = dev_f.modeled_total();
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>13.1} {:>11.1} {:>12} {:>12} {:>12}",
            seq,
            dev_pt.modeled_total() * 1e6,
            dev_cb.modeled_total() * 1e6,
            dev_zp.modeled_total() * 1e6,
            f * 1e6,
            pct_faster(dev_pt.modeled_total(), f),
            pct_faster(dev_cb.modeled_total(), f),
            pct_faster(dev_zp.modeled_total(), f),
        );
    }
}
