//! Fig. 3 — performance breakdown of a single-layer (baseline) BERT
//! Transformer at sequence lengths 256 and 1024.
//!
//! Paper readings (A100, batch 16): GEMMs ≈ 61%/40% of total at seq
//! 256/1024; attention grows from ~22% to ~49% as the sequence lengthens;
//! the remaining memory-bound ops take 11–17%. Fractions are computed from
//! modeled time and are batch-invariant, so the default batch-4 run
//! reproduces the paper's percentages.

use bt_bench::{banner, bench_batch, bench_config};
use bt_core::encoder::{BertModel, OptLevel};
use bt_device::{Device, TraceReport};
use bt_varlen::workload;

fn main() {
    banner(
        "Fig. 3: single-layer baseline BERT breakdown",
        "Figure 3",
        "GEMMs dominate; attention fraction grows with sequence length (22% -> 49%)",
    );
    let config = bench_config();
    let batch = bench_batch();
    let model = BertModel::new_random(config, 1, 7);
    let seqs = if bt_bench::fast_mode() {
        vec![64, 128]
    } else {
        vec![256, 1024]
    };

    let mut attention_fraction = Vec::new();
    for &seq in &seqs {
        // Fig. 3 profiles the fixed-length baseline (padding is the default
        // regime being diagnosed).
        let mask = workload::fixed_workload(batch, seq);
        let input = workload::masked_randn(&mask, config.hidden(), 3);
        let dev = Device::new();
        model
            .forward(&dev, &input, &mask, OptLevel::Baseline)
            .expect("validated shapes");
        let report = TraceReport::by_prefix(&dev.trace());
        println!("\n--- seq_len = {seq} (batch {batch}) ---");
        println!("{}", report.render());
        let gemm_frac: f64 = ["gemm0", "gemm1", "gemm2", "gemm3"]
            .iter()
            .map(|g| report.modeled_fraction(g))
            .sum();
        let attn = report.modeled_fraction("attention");
        let mem: f64 = ["layernorm0", "layernorm1", "bias_act"]
            .iter()
            .map(|g| report.modeled_fraction(g))
            .sum();
        println!(
            "summary: GEMM0-3 {:.0}%  attention {:.0}%  layernorm/bias/act {:.0}%  other {:.0}%",
            gemm_frac * 100.0,
            attn * 100.0,
            mem * 100.0,
            (1.0 - gemm_frac - attn - mem) * 100.0
        );
        attention_fraction.push(attn);
    }
    if attention_fraction.len() == 2 {
        println!(
            "\npaper shape check: attention fraction grows with seq ({:.0}% -> {:.0}%; paper 22% -> 49%)",
            attention_fraction[0] * 100.0,
            attention_fraction[1] * 100.0
        );
    }
}
