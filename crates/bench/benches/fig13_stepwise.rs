//! Fig. 13 — single-layer BERT with step-wise optimizations, each variant
//! cumulative: baseline → +layernorm fusion → +bias&GELU fusion →
//! +rm padding → +fused MHA.
//!
//! Paper readings (batch 16, avg len = 0.6·max): layernorm fusion +3.2%,
//! GELU fusion +3.8% (together +7.1%), zero padding +24%, fused MHA +20%,
//! for a total of ~60% over the baseline.

use bt_bench::{banner, bench_batch, bench_config, seq_sweep};
use bt_core::encoder::{BertModel, OptLevel};
use bt_device::Device;
use bt_varlen::workload;

fn main() {
    banner(
        "Fig. 13: single-layer step-wise optimizations (cumulative)",
        "Figure 13",
        "each step improves; total ≈ +60% over baseline at α = 0.6",
    );
    let config = bench_config();
    let batch = bench_batch();
    let model = BertModel::new_random(config, 1, 9);
    println!("batch {batch}, hidden {}, avg len = 0.6·max\n", config.hidden());
    print!("{:>6}", "seq");
    for opt in OptLevel::all() {
        print!(" {:>22}", opt.label());
    }
    println!(" {:>10}", "total_gain");

    for seq in seq_sweep() {
        let mask = workload::paper_workload(batch, seq, 13);
        let input = workload::masked_randn(&mask, config.hidden(), 3);
        let mut times = Vec::new();
        print!("{seq:>6}");
        for opt in OptLevel::all() {
            let dev = Device::new();
            model.forward(&dev, &input, &mask, opt).expect("validated shapes");
            let t = dev.modeled_total();
            let delta = times
                .last()
                .map(|&p: &f64| format!(" ({:+.1}%)", (p / t - 1.0) * 100.0))
                .unwrap_or_default();
            print!(" {:>14.1}µs{delta:<7}", t * 1e6);
            times.push(t);
        }
        println!(" {:>9.0}%", (times[0] / times[times.len() - 1] - 1.0) * 100.0);
    }
    println!("\npaper: +3.2% (layernorm) +3.8% (GELU) +24% (rm padding) +20% (fused MHA) ⇒ ~+60% total");
}
