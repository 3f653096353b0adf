//! Criterion microbenchmarks of the substrate kernels (real CPU wall time):
//! SGEMM, grouped GEMM under both schedulers, fused vs unfused LayerNorm,
//! softmax variants (and the one-row softmax every fused kernel runs), and
//! the two fused MHA kernels.
//!
//! These measure the *host implementation* — useful for tracking regressions
//! in this repository; the paper-figure harnesses report modeled A100 time.

use bt_core::attention::{fused_grouped_attention, fused_short_attention};
use bt_device::{CostModel, Device};
use bt_gemm::grouped::Scheduler;
use bt_gemm::{sgemm, GemmSpec};
use bt_kernels::layernorm::{add_bias_residual_layernorm_fused, add_bias_residual_layernorm_unfused};
use bt_kernels::layout::add_bias_split_qkv_packed;
use bt_kernels::softmax::{masked_softmax_padded, masked_softmax_zeropad, softmax_row};
use bt_tensor::Tensor;
use bt_varlen::{workload, PackingIndex};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_sgemm(c: &mut Criterion) {
    let (m, n, k) = (256, 768, 768);
    let a = Tensor::randn([m, k], 1).into_vec();
    let b = Tensor::randn([k, n], 2).into_vec();
    let mut out = vec![0.0f32; m * n];
    c.bench_function("sgemm_256x768x768", |bench| {
        bench.iter(|| {
            sgemm(GemmSpec::nn(), m, n, k, black_box(&a), black_box(&b), &mut out);
            black_box(&out);
        })
    });
}

fn bench_layernorm(c: &mut Criterion) {
    let rows = 2048;
    let hidden = 768;
    let bias = vec![0.01f32; hidden];
    let gamma = vec![1.0f32; hidden];
    let beta = vec![0.0f32; hidden];
    let residual = Tensor::randn([rows, hidden], 1).into_vec();
    let base = Tensor::randn([rows, hidden], 2).into_vec();
    let dev = Device::untraced(CostModel::a100());
    let mut group = c.benchmark_group("layernorm_2048x768");
    group.bench_function("unfused", |bench| {
        bench.iter(|| {
            let mut x = base.clone();
            add_bias_residual_layernorm_unfused(
                &dev, "ln", &mut x, &residual, &bias, &gamma, &beta, 1e-6, rows, hidden,
            );
            black_box(&x);
        })
    });
    group.bench_function("fused", |bench| {
        bench.iter(|| {
            let mut x = base.clone();
            add_bias_residual_layernorm_fused(&dev, "ln", &mut x, &residual, &bias, &gamma, &beta, 1e-6, rows, hidden);
            black_box(&x);
        })
    });
    group.finish();
}

fn bench_softmax(c: &mut Criterion) {
    let (batch, heads, seq) = (4, 12, 256);
    let lens = vec![154usize; batch]; // α ≈ 0.6
    let logits = Tensor::randn([batch, heads, seq, seq], 3).into_vec();
    let dev = Device::untraced(CostModel::a100());
    let mut group = c.benchmark_group("softmax_4x12x256");
    group.bench_function("padded", |bench| {
        bench.iter(|| {
            let mut x = logits.clone();
            masked_softmax_padded(&dev, "sm", &mut x, batch, heads, seq, &lens);
            black_box(&x);
        })
    });
    group.bench_function("zeropad", |bench| {
        bench.iter(|| {
            let mut x = logits.clone();
            masked_softmax_zeropad(&dev, "sm", &mut x, batch, heads, seq, &lens);
            black_box(&x);
        })
    });
    group.finish();
}

/// `softmax_row` at the row widths the kernels produce: a grouped epilogue
/// tile (64), an `enc_short` row (256) and an `enc_long` row (1024).
fn bench_softmax_row(c: &mut Criterion) {
    let mut group = c.benchmark_group("softmax_row");
    for len in [64usize, 256, 1024] {
        let row = Tensor::randn([len], 4).into_vec();
        let mut x = row.clone();
        group.bench_function(&len.to_string(), |bench| {
            bench.iter(|| {
                x.copy_from_slice(&row);
                softmax_row(black_box(&mut x));
                black_box(&x);
            })
        });
    }
    group.finish();
}

fn bench_fused_mha(c: &mut Criterion) {
    let heads = 12;
    let head = 64;
    let hidden = heads * head;
    let dev = Device::untraced(CostModel::a100());

    let mask_s = workload::paper_workload(4, 256, 5);
    let idx_s = PackingIndex::from_mask(&mask_s);
    let qkv_s = Tensor::randn([idx_s.valid_words(), 3 * hidden], 1);
    let bias = vec![0.0f32; 3 * hidden];
    let (q_s, k_s, v_s) = add_bias_split_qkv_packed(&dev, &qkv_s, &bias, heads, 0.125);
    c.bench_function("fused_mha_short_b4_s256", |bench| {
        bench.iter(|| black_box(fused_short_attention(&dev, &q_s, &k_s, &v_s, &idx_s, 32)))
    });

    let mask_l = workload::paper_workload(2, 512, 6);
    let idx_l = PackingIndex::from_mask(&mask_l);
    let qkv_l = Tensor::randn([idx_l.valid_words(), 3 * hidden], 2);
    let (q_l, k_l, v_l) = add_bias_split_qkv_packed(&dev, &qkv_l, &bias, heads, 0.125);
    let mut group = c.benchmark_group("fused_mha_grouped_b2_s512");
    for (name, sched) in [
        ("per_tile", Scheduler::PerTile),
        ("warp_prefetch", Scheduler::WarpPrefetch),
    ] {
        group.bench_function(name, |bench| {
            bench.iter(|| black_box(fused_grouped_attention(&dev, &q_l, &k_l, &v_l, &idx_l, sched)))
        });
    }
    group.finish();
}

fn bench_varlen(c: &mut Criterion) {
    // The zero-padding machinery itself: prefix sum, pack, unpack.
    let mask = workload::paper_workload(16, 512, 9);
    let dev = Device::untraced(CostModel::a100());
    let hidden = 768;
    c.bench_function("varlen_prefix_sum_b16_s512", |bench| {
        bench.iter(|| black_box(PackingIndex::from_mask(black_box(&mask))))
    });
    let idx = PackingIndex::from_mask(&mask);
    let padded = Tensor::randn([16, 512, hidden], 1);
    c.bench_function("varlen_pack_b16_s512_h768", |bench| {
        bench.iter(|| black_box(idx.pack(&dev, black_box(&padded)).expect("validated")))
    });
    let packed = idx.pack(&dev, &padded).expect("validated");
    c.bench_function("varlen_unpack_b16_s512_h768", |bench| {
        bench.iter(|| black_box(idx.unpack(&dev, black_box(&packed)).expect("validated")))
    });
}

fn bench_scan(c: &mut Criterion) {
    use bt_varlen::scan::{blelloch_scan, exclusive_scan_serial, warp_style_scan};
    let mask_bits: Vec<u32> = (0..16 * 1024).map(|i| u32::from(i % 5 != 4)).collect();
    let mut group = c.benchmark_group("prefix_scan_16k");
    group.bench_function("serial", |bench| {
        bench.iter(|| black_box(exclusive_scan_serial(black_box(&mask_bits))))
    });
    group.bench_function("warp_style", |bench| {
        bench.iter(|| black_box(warp_style_scan(black_box(&mask_bits), 16, 1024)))
    });
    group.bench_function("blelloch", |bench| {
        bench.iter(|| black_box(blelloch_scan(black_box(&mask_bits))))
    });
    group.finish();
}

fn criterion_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench_sgemm, bench_layernorm, bench_softmax, bench_softmax_row, bench_fused_mha, bench_varlen, bench_scan
}
criterion_main!(benches);
