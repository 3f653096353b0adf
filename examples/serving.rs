//! Online serving scenario: a Poisson stream of variable-length requests is
//! continuously batched and served by a simulated single-GPU server;
//! compare frameworks on end-to-end latency (queueing included).
//!
//! This is the workload the paper's introduction motivates (real-time
//! inference behind TikTok/Douyin): requests with very different lengths
//! must share batches, and a padded runtime burns its budget on dead tokens
//! — which shows up as *queueing delay* for everyone behind them.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use bytetransformer::frameworks::admission::CutPolicy;
use bytetransformer::frameworks::server::{run_open_loop, ServeConfig};
use bytetransformer::frameworks::serving::poisson_arrivals;
use bytetransformer::prelude::*;
use bytetransformer::tensor::rng::Xoshiro256StarStar;

fn main() {
    let config = BertConfig {
        heads: 8,
        head_size: 32,
        ffn_scale: 4,
        layers: 2,
        eps: 1e-6,
    };
    let model = BertModel::new_random(config, config.layers, 1);

    // 48 requests, Zipf-ish lengths (mostly short, heavy tail), arriving as
    // a Poisson process that keeps the server busy but not saturated.
    let dist = LengthDistribution::Zipf { exponent: 1.2 };
    let requests = poisson_arrivals(48, 150.0, dist, 256, 99);
    let lens: Vec<usize> = requests.iter().map(|r| r.len).collect();
    println!(
        "{} requests over {:.2} s, lengths min/median/max = {}/{}/{}\n",
        requests.len(),
        requests.last().expect("non-empty").arrival,
        lens.iter().min().expect("non-empty"),
        {
            let mut s = lens.clone();
            s.sort_unstable();
            s[s.len() / 2]
        },
        lens.iter().max().expect("non-empty")
    );

    // Continuous batching: whenever the device is free, the next (up to)
    // eight queued requests form a batch. Nothing is shed.
    let serve = ServeConfig {
        policy: CutPolicy::Fifo { max_batch: 8 },
        queue_capacity: requests.len(),
        deadline: f64::INFINITY,
        max_len: 256,
        chunk_tokens: 0,
    };
    println!("server: continuous batching, fifo cuts of max_batch = 8\n");
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "framework", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"
    );
    for kind in [
        FrameworkKind::PyTorchJit,
        FrameworkKind::TurboTransformer,
        FrameworkKind::FasterTransformer,
        FrameworkKind::ByteTransformer,
    ] {
        let fw = SimFramework::new(kind, model.clone());
        let report = run_open_loop(&requests, &serve, |mask| {
            let input = random_batch(mask, config.hidden());
            let dev = fw.device(CostModel::a100());
            fw.forward(&dev, &input, mask).expect("supported shapes");
            dev.modeled_total()
        });
        let s = report.summary().served_latency;
        println!(
            "{:<18} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            kind.name(),
            s.mean * 1e3,
            s.p50 * 1e3,
            s.p95 * 1e3,
            s.p99 * 1e3,
            s.max * 1e3,
        );
    }
    println!(
        "\nthe padding-free pipeline shortens every batch, which compounds through the\n\
         queue (median latency improves several-fold)"
    );
}

/// Builds a padded input whose valid rows are random and padded rows zero.
fn random_batch(mask: &BatchMask, hidden: usize) -> Tensor {
    let mut rng = Xoshiro256StarStar::seed_from_u64(5);
    let mut input = Tensor::zeros([mask.batch(), mask.max_seq_len(), hidden]);
    for (b, &len) in mask.seq_lens().iter().enumerate() {
        for s in 0..len {
            for h in 0..hidden {
                input.set(&[b, s, h], rng.normal()).expect("in range");
            }
        }
    }
    input
}
