//! Ablation A1 (§III.E.2) — the warp-prefetch grouped-GEMM scheduler vs the
//! stock per-tile problem visitor on standard BERT grouped-MHA shapes.
//!
//! Paper reading: computing 32 tile assignments per scheduler interaction
//! gives 32× fewer visits and ~10% end-to-end improvement on the grouped
//! GEMM for standard BERT configurations.

use bt_bench::{banner, bench_config, pct_faster};
use bt_core::attention::fused_grouped_attention;
use bt_device::Device;
use bt_gemm::grouped::Scheduler;
use bt_kernels::layout::add_bias_split_qkv_packed;
use bt_tensor::Tensor;
use bt_varlen::{workload, PackingIndex};

/// The grouped-MHA engine's cumulative scheduler visits (0 before its
/// first launch registers the counter).
fn scheduler_visits() -> u64 {
    bt_obs::counter_values()
        .into_iter()
        .find(|(name, _)| name == bt_obs::names::MHA_GROUPED_SCHEDULER_VISITS)
        .map_or(0, |(_, v)| v)
}

fn main() {
    banner(
        "Ablation: grouped-GEMM scheduler (per-tile vs warp prefetch)",
        "§III.E.2 / Fig. 7",
        "~32× fewer scheduler visits, ~10% faster grouped fused MHA",
    );
    let config = bench_config();
    let heads = config.heads;
    let hidden = config.hidden();
    let scale = config.attention_scale();
    let batch = if bt_bench::fast_mode() { 2 } else { 8 };
    let seqs: Vec<usize> = if bt_bench::fast_mode() {
        vec![96]
    } else {
        vec![512, 768, 1024]
    };
    println!("batch {batch}, {heads} heads × {}, α = 0.6\n", config.head_size);
    println!(
        "{:>6} {:>14} {:>14} {:>12} {:>14} {:>14} {:>10}",
        "seq", "pertile_µs", "prefetch_µs", "gain", "visits_pt", "visits_wp", "ratio"
    );

    for &seq in &seqs {
        let mask = workload::paper_workload(batch, seq, 3);
        let idx = PackingIndex::from_mask(&mask);
        let setup = Device::untraced(bt_device::CostModel::a100());
        let qkv = Tensor::randn([idx.valid_words(), 3 * hidden], 1);
        let bias = vec![0.0f32; 3 * hidden];
        let (q, k, v) = add_bias_split_qkv_packed(&setup, &qkv, &bias, heads, scale);

        let run = |sched: Scheduler| {
            let dev = Device::new();
            let before = scheduler_visits();
            fused_grouped_attention(&dev, &q, &k, &v, &idx, sched);
            (dev.modeled_total(), scheduler_visits() - before)
        };
        let (t_pt, v_pt) = run(Scheduler::PerTile);
        let (t_wp, v_wp) = run(Scheduler::WarpPrefetch);
        println!(
            "{:>6} {:>14.1} {:>14.1} {:>12} {:>14} {:>14} {:>9.1}x",
            seq,
            t_pt * 1e6,
            t_wp * 1e6,
            pct_faster(t_pt, t_wp),
            v_pt,
            v_wp,
            v_pt as f64 / v_wp.max(1) as f64,
        );
    }
    println!("\npaper: ~10% improvement over the stock CUTLASS grouped scheduler");
}
