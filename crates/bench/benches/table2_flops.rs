//! Table II — per-module FLOP counts of a single-layer BERT Transformer
//! under the three variants, cross-checked against the FLOPs the executed
//! pipeline actually declared.

use bt_bench::{banner, bench_batch, bench_config};
use bt_core::encoder::{BertModel, OptLevel};
use bt_core::flops::{layer_flops, FlopVariant};
use bt_device::Device;
use bt_varlen::workload;

fn main() {
    banner(
        "Table II: single-layer FLOP counts (m = bs·seq, k = hidden, α = 0.6)",
        "Table II",
        "zero padding scales every GEMM by α; fused MHA adds the α² MHA cut",
    );
    let config = bench_config();
    let batch = bench_batch();
    let seq = if bt_bench::fast_mode() { 128 } else { 256 };
    let mask = workload::paper_workload(batch, seq, 42);
    println!(
        "batch = {batch}, max_seq = {seq}, hidden = {}, valid = {} (α = {:.3})\n",
        config.hidden(),
        mask.valid_words(),
        mask.alpha()
    );

    println!(
        "{:<8} {:>16} {:>16} {:>16}",
        "module", "baseline", "zero padding", "zp + fused MHA"
    );
    let b = layer_flops(&mask, config.hidden(), FlopVariant::Baseline);
    let z = layer_flops(&mask, config.hidden(), FlopVariant::ZeroPadding);
    let f = layer_flops(&mask, config.hidden(), FlopVariant::ZeroPaddingFusedMha);
    let gf = |x: u64| format!("{:.3} G", x as f64 / 1e9);
    for (name, a, bb, c) in [
        ("GEMM0", b.gemm0, z.gemm0, f.gemm0),
        ("MHA", b.mha, z.mha, f.mha),
        ("GEMM1", b.gemm1, z.gemm1, f.gemm1),
        ("GEMM2", b.gemm2, z.gemm2, f.gemm2),
        ("GEMM3", b.gemm3, z.gemm3, f.gemm3),
    ] {
        println!("{:<8} {:>16} {:>16} {:>16}", name, gf(a), gf(bb), gf(c));
    }
    println!(
        "{:<8} {:>16} {:>16} {:>16}",
        "TOTAL",
        gf(b.total()),
        gf(z.total()),
        gf(f.total())
    );

    // Cross-check against the executed pipeline's declared GEMM flops.
    println!("\ncross-check vs executed trace (GEMM-portion of each pipeline):");
    let model = BertModel::new_random(config, 1, 7);
    let input = workload::masked_randn(&mask, config.hidden(), 3);
    for (variant, opt, expect) in [
        ("baseline", OptLevel::Baseline, b.total()),
        ("zero padding", OptLevel::ZeroPadding, z.total()),
        ("zp + fused MHA", OptLevel::FusedMha, f.total()),
    ] {
        let dev = Device::new();
        model.forward(&dev, &input, &mask, opt).expect("validated shapes");
        let counted: u64 = dev
            .trace()
            .iter()
            .filter(|r| {
                r.name.starts_with("gemm0")
                    || r.name.starts_with("gemm1")
                    || r.name.starts_with("gemm3")
                    || r.name.contains("batched.scores")
                    || r.name.contains("batched.ctx")
                    || r.name.contains("fused_short")
                    || r.name.contains("grouped.qk")
                    || r.name.contains("grouped.pv")
                    || r.name.starts_with("gemm2")
            })
            .map(|r| r.cost.flops)
            .sum();
        // The executed trace adds epilogue/softmax transform flops on top of
        // Table II's pure-GEMM count; report the ratio.
        println!(
            "  {:<16} formula {:>10.3} G   counted {:>10.3} G   (counted/formula = {:.3})",
            variant,
            expect as f64 / 1e9,
            counted as f64 / 1e9,
            counted as f64 / expect as f64
        );
    }
    println!("\npaper claim check: at α = 0.6, zero padding removes ~40% of non-MHA");
    println!(
        "FLOPs here: measured non-MHA ratio = {:.3} (expect ≈ α = {:.3})",
        (z.total() - z.mha) as f64 / (b.total() - b.mha) as f64,
        mask.alpha()
    );
}
