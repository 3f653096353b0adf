//! Ablation — `split_seq_len`, the Q-tile height of the short-sequence
//! fused MHA (Algorithm III.1). The paper sets it "typically to 32 or 48";
//! this sweep shows why: small tiles re-stage K/V too often, huge tiles
//! reduce the threadblock parallelism (staging traffic as modeled time; the
//! wall-clock column is the CPU kernel, which packs K/V once per sequence
//! and head, so only its Q-tile costs follow the tile height).

use bt_bench::{banner, bench_config, wall};
use bt_core::attention::fused_short_attention;
use bt_device::Device;
use bt_kernels::layout::add_bias_split_qkv_packed;
use bt_tensor::Tensor;
use bt_varlen::{workload, PackingIndex};

fn main() {
    banner(
        "Ablation: fused-short MHA Q-tile height (split_seq_len)",
        "Algorithm III.1 parameter (\"typically set to 32 or 48\")",
        "K/V staging traffic falls monotonically with tile height; the GPU pays an occupancy cost for huge tiles that a roofline cannot see",
    );
    let config = bench_config();
    let heads = config.heads;
    let hidden = config.hidden();
    let scale = config.attention_scale();
    let batch = if bt_bench::fast_mode() { 2 } else { 16 };
    let seq = if bt_bench::fast_mode() { 64 } else { 256 };
    let mask = workload::paper_workload(batch, seq, 3);
    let idx = PackingIndex::from_mask(&mask);
    let setup = Device::untraced(bt_device::CostModel::a100());
    let qkv = Tensor::randn([idx.valid_words(), 3 * hidden], 1);
    let bias = vec![0.0f32; 3 * hidden];
    let (q, k, v) = add_bias_split_qkv_packed(&setup, &qkv, &bias, heads, scale);
    println!("batch {batch}, max_seq {seq}, {} heads × {}\n", heads, config.head_size);
    println!(
        "{:>10} {:>12} {:>14} {:>12}",
        "split_len", "modeled_µs", "kv_staged_MB", "wall_ms"
    );
    for split in [4, 8, 16, 32, 48, 64, 128, 256] {
        let dev = Device::new();
        let (_, w) = wall(|| fused_short_attention(&dev, &q, &k, &v, &idx, split));
        println!(
            "{:>10} {:>12.1} {:>14.2} {:>12.2}",
            split,
            dev.modeled_total() * 1e6,
            dev.total_bytes() as f64 / 1e6,
            w * 1e3,
        );
    }
    println!(
        "\nstaging traffic (and hence modeled time) falls monotonically with the tile height;\n\
         the paper still picks 32-48 because beyond that the kernel runs out of threadblocks\n\
         to fill the GPU (an occupancy effect the roofline model deliberately does not include).\n\
         Measured on a 2-vCPU AVX-512 host (batch 16, seq 256): the register-tiled kernel\n\
         packs K and V into microkernel panels once per sequence and head, but a tile shorter\n\
         than the microkernel's 16 rows still runs whole register tiles, so wall time falls\n\
         2.5x from 4 to 32 (3.8x when K/V were re-packed per Q tile) and is flat within\n\
         ~10% from 32 to 256"
    );
}
