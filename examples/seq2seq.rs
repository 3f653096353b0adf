//! Encoder-decoder (seq2seq) scenario: the paper's decoder extension
//! (§II/§V) running the full padding-free optimization set on *both* sides —
//! causal fused self-attention, grouped-GEMM cross-attention over
//! variable-length memory, fused memory-bound kernels throughout.
//!
//! ```text
//! cargo run --release --example seq2seq
//! ```

use bytetransformer::device::trace_to_csv;
use bytetransformer::prelude::*;
use bytetransformer::varlen::workload::masked_randn;

fn main() {
    let config = BertConfig {
        heads: 8,
        head_size: 32,
        ffn_scale: 4,
        layers: 2,
        eps: 1e-6,
    };
    let model = Seq2SeqTransformer::new_random(config, 2, 2, 42);

    // Translation-style workload: source sentences longer than targets,
    // both variable-length.
    let batch = 6;
    let src_mask = LengthDistribution::PaperUniform { alpha: 0.6 }.sample_mask(batch, 96, 3);
    let tgt_mask = LengthDistribution::PaperUniform { alpha: 0.7 }.sample_mask(batch, 64, 4);
    println!("source lengths: {:?}", src_mask.seq_lens());
    println!("target lengths: {:?}\n", tgt_mask.seq_lens());

    let src = masked_randn(&src_mask, config.hidden(), 5);
    let tgt = masked_randn(&tgt_mask, config.hidden(), 6);

    let device = Device::new();
    let out = model
        .forward(&device, &src, &src_mask, &tgt, &tgt_mask)
        .expect("validated shapes");
    println!(
        "output: {:?}, modeled A100 time {:.3} ms over {} launches\n",
        out.dims(),
        device.modeled_total() * 1e3,
        device.launches()
    );

    println!("pipeline stages (note cross_attention's rectangular grouped GEMMs):");
    println!("{}", TraceReport::by_prefix(&device.trace()).render());

    // Demonstrate causality from the public API: perturbing the last target
    // token cannot change earlier positions.
    let mut tgt2 = tgt.clone();
    let last = tgt_mask.seq_lens()[0] - 1;
    for h in 0..config.hidden() {
        tgt2.set(&[0, last, h], 3.0).expect("in range");
    }
    let out2 = model
        .forward(&device, &src, &src_mask, &tgt2, &tgt_mask)
        .expect("validated shapes");
    let changed_earlier =
        (0..last).any(|s| (0..config.hidden()).any(|h| out.at(&[0, s, h]).unwrap() != out2.at(&[0, s, h]).unwrap()));
    println!(
        "causality check: earlier target positions changed after perturbing the last token? {}",
        changed_earlier
    );
    assert!(!changed_earlier);

    // Export the trace for offline analysis.
    let csv = trace_to_csv(&device.trace());
    let path = std::env::temp_dir().join("bytetransformer_seq2seq_trace.csv");
    std::fs::write(&path, csv).expect("temp dir writable");
    println!("full kernel trace written to {}", path.display());
}
