//! Ablation — sensitivity of the end-to-end gain to α (average/max length
//! ratio). The paper evaluates at α = 0.6 everywhere; this sweep shows how
//! the zero-padding + fused-MHA advantage scales with the amount of padding
//! actually present: at α = 1 only the fusion wins remain, and the gap
//! widens as α falls (linearly for the projection/FFN GEMMs, quadratically
//! for attention).

use bt_bench::{banner, bench_batch, bench_config, pct_faster};
use bt_core::encoder::{BertModel, OptLevel};
use bt_device::Device;
use bt_varlen::workload::masked_randn;
use bt_varlen::BatchMask;

fn main() {
    banner(
        "Ablation: end-to-end gain vs α (avg/max length ratio)",
        "(the paper fixes α = 0.6; this sweeps it)",
        "gain over the padded baseline grows monotonically as α falls",
    );
    let config = bench_config();
    let batch = bench_batch();
    let seq = if bt_bench::fast_mode() { 64 } else { 256 };
    let model = BertModel::new_random(config, 1, 3);
    println!(
        "single layer, batch {batch} × max_seq {seq}, hidden {}\n",
        config.hidden()
    );
    println!(
        "{:>7} {:>14} {:>14} {:>10} {:>14} {:>10}",
        "alpha", "baseline_µs", "zeropad_µs", "zp_gain", "fused_µs", "full_gain"
    );
    for alpha in [1.0f64, 0.9, 0.8, 0.7, 0.6, 0.5] {
        // Deterministic lengths at exactly α·max (ablations want precision,
        // not sampling noise).
        let len = ((alpha * seq as f64).round() as usize).clamp(1, seq);
        let mask = BatchMask::from_lens(vec![len; batch], seq).expect("bounded lengths");
        let input = masked_randn(&mask, config.hidden(), 5);
        let run = |opt: OptLevel| {
            let dev = Device::new();
            model.forward(&dev, &input, &mask, opt).expect("validated shapes");
            dev.modeled_total()
        };
        let base = run(OptLevel::GeluFusion); // fusion on, padding on: isolates padding effects
        let zp = run(OptLevel::ZeroPadding);
        let fused = run(OptLevel::FusedMha);
        println!(
            "{:>7.2} {:>14.1} {:>14.1} {:>10} {:>14.1} {:>10}",
            mask.alpha(),
            base * 1e6,
            zp * 1e6,
            pct_faster(base, zp),
            fused * 1e6,
            pct_faster(base, fused),
        );
    }
    println!("\nat α = 1 packing has nothing to remove (gains ≈ 0, minus pack overhead);");
    println!("the fused-MHA column compounds the quadratic attention saving below it");
}
