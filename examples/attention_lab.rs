//! Attention lab: run every MHA implementation on one variable-length batch,
//! verify they agree numerically, and compare their declared work and
//! modeled time — a miniature of the paper's Figs. 11–12.
//!
//! ```text
//! cargo run --release --example attention_lab [max_seq] [batch] [heads] [head_size]
//! ```

use bytetransformer::core::attention::{
    batched_attention, flash_attention, fused_attention, fused_grouped_attention, naive_attention,
};
use bytetransformer::gemm::grouped::Scheduler;
use bytetransformer::kernels::layout::{add_bias_split_qkv_packed, add_bias_unpack_split_qkv};
use bytetransformer::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut next = |default: usize| -> usize {
        args.next()
            .map(|a| a.parse().expect("numeric argument"))
            .unwrap_or(default)
    };
    let max_seq = next(128);
    let batch = next(8);
    let heads = next(8);
    let head = next(32);
    let hidden = heads * head;
    let scale = 1.0 / (head as f32).sqrt();

    let mask = paper_workload(batch, max_seq, 11);
    let idx = PackingIndex::from_mask(&mask);
    println!(
        "batch {batch} × max_seq {max_seq} ({} valid tokens, α = {:.2}), {heads} heads × {head}\n",
        idx.valid_words(),
        mask.alpha()
    );

    // Build one set of QKV inputs in both layouts via the real layout
    // kernels, so every variant sees identical values.
    let setup_dev = Device::untraced(CostModel::a100());
    let qkv = Tensor::randn([idx.valid_words(), 3 * hidden], 3);
    let bias = vec![0.0f32; 3 * hidden];
    let (q_pad, k_pad, v_pad) = add_bias_unpack_split_qkv(&setup_dev, &qkv, &bias, &idx, heads);
    let (q_pk, k_pk, v_pk) = add_bias_split_qkv_packed(&setup_dev, &qkv, &bias, heads, scale);

    let reference =
        bytetransformer::core::attention::reference_attention(&q_pad, &k_pad, &v_pad, mask.seq_lens(), scale);
    let ref_packed = pack(&reference, &idx);

    println!(
        "{:<28} {:>12} {:>10} {:>10} {:>12}",
        "variant", "modeled_µs", "GFLOP", "GB", "max_err"
    );

    let report = |name: &str, dev: &Device, packed_out: Vec<f32>| {
        let err = packed_out
            .iter()
            .zip(&ref_packed)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        println!(
            "{:<28} {:>12.2} {:>10.3} {:>10.4} {:>12.2e}",
            name,
            dev.modeled_total() * 1e6,
            dev.total_flops() as f64 / 1e9,
            dev.total_bytes() as f64 / 1e9,
            err
        );
    };

    let dev = Device::new();
    let out = naive_attention(&dev, &q_pad, &k_pad, &v_pad, mask.seq_lens(), scale, 8e-6);
    report("PyTorch-style (naive)", &dev, pack(&out, &idx));

    let dev = Device::new();
    let out = batched_attention(&dev, &q_pad, &k_pad, &v_pad, mask.seq_lens(), scale, false);
    report("cuBLAS batched", &dev, pack(&out, &idx));

    let dev = Device::new();
    let out = batched_attention(&dev, &q_pad, &k_pad, &v_pad, mask.seq_lens(), scale, true);
    report("cuBLAS + zero padding", &dev, pack(&out, &idx));

    let dev = Device::new();
    let out = flash_attention(&dev, &q_pad, &k_pad, &v_pad, mask.seq_lens(), scale);
    report("FlashAttention-style", &dev, pack(&out, &idx));

    // The tiled Algorithm III.1 kernel the encoder runs at every length.
    let dev = Device::new();
    let out = fused_attention(&dev, &q_pk, &k_pk, &v_pk, &idx);
    report("fused MHA (tiled, ours)", &dev, out.into_vec());

    // Algorithm III.2, the paper's kernel past 384 tokens (a GPU
    // shared-memory limit); no forward here runs it.
    let dev = Device::new();
    let out = fused_grouped_attention(&dev, &q_pk, &k_pk, &v_pk, &idx, Scheduler::WarpPrefetch);
    report("grouped MHA (paper, long)", &dev, out.into_vec());

    println!("\nAll variants agree on valid tokens; the fused kernels do it with");
    println!("no padded FLOPs and no seq² round trip through global memory.");
}

/// Packs a padded `[b, h, s, d]` context into `[valid, hidden]` row-major.
fn pack(ctx: &Tensor, idx: &PackingIndex) -> Vec<f32> {
    let dims = ctx.dims();
    let (heads, seq, head) = (dims[1], dims[2], dims[3]);
    let hidden = heads * head;
    let mut out = vec![0.0f32; idx.valid_words() * hidden];
    for b in 0..idx.batch() {
        for s in 0..idx.seq_len(b) {
            let w = idx.seq_offset(b) + s;
            for h in 0..heads {
                for dd in 0..head {
                    out[w * hidden + h * head + dd] = ctx.at(&[b, h, s, dd]).expect("in range");
                }
            }
        }
    }
    let _ = seq;
    out
}
