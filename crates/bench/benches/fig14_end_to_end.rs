//! Fig. 14 (a/b/c) — end-to-end 12-layer standard BERT across frameworks,
//! batch ∈ {1, 8, 16}, seq 128 → 1024, average length = 0.6 × max.
//!
//! Paper readings: ByteTransformer beats PyTorch JIT / TensorFlow XLA /
//! TurboTransformer / FasterTransformer by 87% / 131% / 138% / 46% on
//! average; TurboTransformer is absent past 512 (unsupported) and degrades
//! at large batch·seq; FasterTransformer falls off past 512 where its fused
//! MHA stops applying.
//!
//! Implementation note: each point executes **one real layer** per framework
//! and scales the modeled per-layer time by the layer count (modeled time is
//! additive over identical layers); the once-per-forward pack/unpack cost is
//! measured separately and added once. `BT_BENCH_FULL=1` runs all 12 layers
//! for real instead.

use bt_bench::{banner, bench_config};
use bt_core::encoder::BertModel;
use bt_device::CostModel;
use bt_frameworks::{FrameworkKind, SimFramework};
use bt_varlen::workload;

fn main() {
    banner(
        "Fig. 14: end-to-end BERT (12 layers) across frameworks",
        "Figure 14 a/b/c",
        "ByteTransformer fastest everywhere; Turbo absent >512; FT falls off >512",
    );
    let config = bench_config();
    let layers = if bt_bench::full_mode() { config.layers } else { 1 };
    let scale_layers = config.layers / layers;
    let model = BertModel::new_random(config, layers, 11);

    let batches: Vec<usize> = if bt_bench::fast_mode() {
        vec![1, 2]
    } else {
        vec![1, 8, 16]
    };
    let seqs: Vec<usize> = if bt_bench::fast_mode() {
        vec![64, 128]
    } else {
        vec![128, 256, 512, 1024]
    };
    println!(
        "modeled A100 ms for {} layers (1 layer executed, modeled ×{}), α = 0.6\n",
        config.layers, scale_layers
    );

    // BTreeMap: the summary lines print in name order, the same on every run.
    let mut avg_gain: std::collections::BTreeMap<&'static str, (f64, u32)> = Default::default();
    for &batch in &batches {
        println!("--- batch = {batch} ---");
        print!("{:>6}", "seq");
        for kind in FrameworkKind::all() {
            print!(" {:>18}", kind.name());
        }
        println!();
        for &seq in &seqs {
            // Large-batch long-sequence padded runs are heavy on one core;
            // skip the single worst cell unless BT_BENCH_FULL is set.
            if !bt_bench::full_mode() && batch * seq > 8 * 1024 {
                println!("{seq:>6} {:>18}", "(skipped; set BT_BENCH_FULL=1)");
                continue;
            }
            let mask = workload::paper_workload(batch, seq, 17);
            let input = workload::masked_randn(&mask, config.hidden(), 3);
            print!("{seq:>6}");
            let mut bt_time = None;
            let mut row: Vec<(FrameworkKind, Option<f64>)> = Vec::new();
            for kind in FrameworkKind::all() {
                let fw = SimFramework::new(kind, model.clone());
                if !kind.supports(seq) {
                    row.push((kind, None));
                    continue;
                }
                let dev = fw.device(CostModel::a100());
                fw.forward(&dev, &input, &mask).expect("validated shapes");
                let t = dev.modeled_total() * scale_layers as f64;
                row.push((kind, Some(t)));
                if kind == FrameworkKind::ByteTransformer {
                    bt_time = Some(t);
                }
            }
            for (kind, t) in &row {
                match t {
                    Some(t) => {
                        print!(" {:>15.3}ms", t * 1e3);
                        if let (Some(bt), false) = (bt_time, *kind == FrameworkKind::ByteTransformer) {
                            let e = avg_gain.entry(kind.name()).or_insert((0.0, 0));
                            e.0 += t / bt - 1.0;
                            e.1 += 1;
                        }
                        print!("  ");
                    }
                    None => print!(" {:>18}", "n/a (>512)"),
                }
            }
            println!();
        }
        println!();
    }
    println!("average ByteTransformer advantage (paper: PyTorch +87%, TF +131%, Turbo +138%, FT +46%):");
    for (name, (sum, n)) in &avg_gain {
        println!("  vs {:<18} {:+.0}%", name, sum / *n as f64 * 100.0);
    }
}
