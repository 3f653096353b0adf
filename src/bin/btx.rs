//! `btx` — command-line explorer for the ByteTransformer reproduction.
//!
//! ```text
//! btx features                         # Table I
//! btx flops      [--batch 4] [--seq 256] [--alpha 0.6]
//! btx breakdown  [--batch 4] [--seq 256] [--opt fused|baseline|...]
//! btx compare    [--batch 4] [--seq 256]           # frameworks
//! btx attention  [--batch 8] [--seq 256]           # MHA variants
//! btx profile    [--batch 4] [--seq 256] [--format tree|chrome|prom|json]
//! btx serve      [--policy fifo|sorted|budget] [--load 1.0] [--requests 512]
//!                [--deadline-ms 0(auto)] [--queue 64] [--budget 0(auto)]
//!                [--chunk 0(whole)] [--burst] [--trace] [--seed 42]
//!                [--shards 0(unsharded)] [--route rr|jsq|p2c]
//!                [--hot-tokens 0(gate off)]
//! btx decode     [--sessions 8] [--tokens 24] [--prompt 16] [--requests 0(auto)]
//!                [--block 16] [--blocks 512] [--budget 0(auto)]
//!                [--deadline-ms 0(off)] [--queue 0(auto)] [--chunk 0(whole)]
//!                [--trace] [--seed 42]
//! btx trace      [--slowest 5] [--shed-only] [--deadline-missed]
//!                [serve flags: --policy --load --requests --seed ...]
//! btx top        [--windows 5] [serve flags]    # live windowed snapshots
//! ```
//!
//! `btx trace` runs the seeded open-loop serve workload with request
//! tracing on, reconstructs every offered request's causal timeline from
//! the drained profile, and prints the filtered set (slowest K by
//! end-to-end latency, shed-only, or deadline-missed). `btx top` drives
//! the same workload continuously on a background thread and refreshes a
//! windowed metrics snapshot (rates, shed breakdown, queue-wait
//! percentiles, per-path GEMM GFLOP/s) every second.
//!
//! `btx serve --shards N` routes the same calibrated open-loop trace
//! through the multi-shard router instead of one server: `--load` is the
//! *per-shard* load (the router scales the aggregate arrival rate by N),
//! `--route` picks the routing policy, and `--hot-tokens` arms the
//! hot-shard shedding gate. `--shards 1` prints byte-identical output to
//! the unsharded path on the same seed — `scripts/check.sh` diffs the two.
//!
//! All subcommands use the standard BERT configuration (12 heads × 64) and
//! print modeled A100 time from the execution trace; run with `--release`
//! for sensible wall-clock. `--heads`, `--head-size` and `--layers` override
//! the model shape.

use bytetransformer::core::flops::{layer_flops, FlopVariant};
use bytetransformer::frameworks::calibration::render_feature_matrix;
use bytetransformer::prelude::*;
use bytetransformer::varlen::paged::{PagedLayout, DEFAULT_BLOCK_TOKENS, DEFAULT_POOL_BLOCKS};
use bytetransformer::varlen::workload::masked_randn;

#[derive(Debug)]
struct Args {
    batch: usize,
    seq: usize,
    alpha: f64,
    opt: OptLevel,
    heads: usize,
    head_size: usize,
    layers: usize,
    format: String,
    policy: String,
    load: f64,
    requests: usize,
    deadline_ms: f64,
    queue: usize,
    budget: usize,
    burst: bool,
    trace: bool,
    seed: u64,
    sessions: usize,
    tokens: usize,
    prompt: usize,
    block: usize,
    blocks: usize,
    chunk: usize,
    slowest: usize,
    shed_only: bool,
    deadline_missed: bool,
    windows: usize,
    shards: usize,
    route: String,
    hot_tokens: usize,
}

/// A numeric flag's value; an unparsable one is [`invalid`].
fn numeric<T: std::str::FromStr>(flag: &str, value: String) -> T {
    value.parse().unwrap_or_else(|_| invalid(flag, &value))
}

/// A count flag that must be positive (a length, a head count, a KV pool
/// dimension, a session count).
fn positive(flag: &str, value: String) -> usize {
    match value.parse() {
        Ok(n) if n > 0 => n,
        _ => invalid(flag, &value),
    }
}

/// A real flag whose value `ok` must accept.
fn real(flag: &str, value: String, ok: impl Fn(f64) -> bool) -> f64 {
    match value.parse() {
        Ok(x) if ok(x) => x,
        _ => invalid(flag, &value),
    }
}

/// Prints a bad flag value and exits 2, like every other argument error.
fn invalid(flag: &str, value: &str) -> ! {
    eprintln!("btx: {flag}: invalid value '{value}'");
    std::process::exit(2);
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> (String, Args) {
    let cmd = raw.next().unwrap_or_else(|| "help".to_string());
    let mut args = Args {
        batch: 4,
        seq: 256,
        alpha: 0.6,
        opt: OptLevel::FusedMha,
        heads: 12,
        head_size: 64,
        layers: 1,
        format: "tree".to_string(),
        policy: "budget".to_string(),
        load: 1.0,
        // 0 = per-command default: 512 for `serve`, 6 × sessions for `decode`.
        requests: 0,
        deadline_ms: 0.0,
        queue: 64,
        budget: 0,
        burst: false,
        trace: false,
        seed: 42,
        sessions: 8,
        tokens: 24,
        prompt: 16,
        block: DEFAULT_BLOCK_TOKENS,
        blocks: DEFAULT_POOL_BLOCKS,
        // 0 = whole prompts (decode) / whole batches (serve).
        chunk: 0,
        slowest: 5,
        shed_only: false,
        deadline_missed: false,
        windows: 5,
        // 0 = the monolithic unsharded server; N >= 1 routes through the
        // shard layer (`--shards 1` replays the unsharded run bit-for-bit).
        shards: 0,
        route: "jsq".to_string(),
        hot_tokens: 0,
    };
    let rest: Vec<String> = raw.collect();
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        // Boolean flags consume a single token.
        match flag {
            "--burst" => {
                args.burst = true;
                i += 1;
                continue;
            }
            "--trace" => {
                args.trace = true;
                i += 1;
                continue;
            }
            "--shed-only" => {
                args.shed_only = true;
                i += 1;
                continue;
            }
            "--deadline-missed" => {
                args.deadline_missed = true;
                i += 1;
                continue;
            }
            _ => {}
        }
        let value = rest.get(i + 1).cloned();
        let take = |what: &str| -> String {
            value.clone().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                std::process::exit(2);
            })
        };
        match flag {
            "--batch" => args.batch = numeric(flag, take(flag)),
            "--seq" => args.seq = positive(flag, take(flag)),
            "--alpha" => args.alpha = real(flag, take(flag), |a| (0.5..=1.0).contains(&a)),
            "--heads" => args.heads = positive(flag, take(flag)),
            "--head-size" => args.head_size = positive(flag, take(flag)),
            "--layers" => args.layers = numeric(flag, take(flag)),
            "--load" => args.load = real(flag, take(flag), |l| l > 0.0),
            "--requests" => args.requests = numeric(flag, take(flag)),
            "--sessions" => args.sessions = positive(flag, take(flag)),
            "--tokens" => args.tokens = numeric(flag, take(flag)),
            "--prompt" => args.prompt = positive(flag, take(flag)),
            "--block" => args.block = positive(flag, take(flag)),
            "--blocks" => args.blocks = positive(flag, take(flag)),
            "--chunk" => args.chunk = numeric(flag, take(flag)),
            "--deadline-ms" => args.deadline_ms = numeric(flag, take(flag)),
            "--queue" => args.queue = numeric(flag, take(flag)),
            "--budget" => args.budget = numeric(flag, take(flag)),
            "--seed" => args.seed = numeric(flag, take(flag)),
            "--slowest" => args.slowest = numeric(flag, take(flag)),
            "--windows" => args.windows = numeric(flag, take(flag)),
            "--shards" => args.shards = numeric(flag, take(flag)),
            "--hot-tokens" => args.hot_tokens = numeric(flag, take(flag)),
            "--route" => {
                args.route = take("--route");
                if !["rr", "round_robin", "jsq", "p2c", "power_of_two"].contains(&args.route.as_str()) {
                    eprintln!("unknown --route {} (rr|jsq|p2c)", args.route);
                    std::process::exit(2);
                }
            }
            "--policy" => {
                args.policy = take("--policy");
                if !["fifo", "sorted", "budget"].contains(&args.policy.as_str()) {
                    eprintln!("unknown --policy {} (fifo|sorted|budget)", args.policy);
                    std::process::exit(2);
                }
            }
            "--format" => {
                args.format = take("--format");
                if !["tree", "chrome", "prom", "json"].contains(&args.format.as_str()) {
                    eprintln!("unknown --format {} (tree|chrome|prom|json)", args.format);
                    std::process::exit(2);
                }
            }
            "--opt" => {
                args.opt = match take("--opt").as_str() {
                    "baseline" => OptLevel::Baseline,
                    "layernorm" => OptLevel::LayernormFusion,
                    "gelu" => OptLevel::GeluFusion,
                    "zeropad" | "rm-padding" => OptLevel::ZeroPadding,
                    "fused" | "full" => OptLevel::FusedMha,
                    other => {
                        eprintln!("unknown --opt {other} (baseline|layernorm|gelu|zeropad|fused)");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    // `decode` reads `--queue 0` as "room for every request"; a server
    // needs room for one.
    if args.queue == 0 && cmd != "decode" {
        invalid("--queue", "0");
    }
    (cmd, args)
}

fn config_of(a: &Args) -> BertConfig {
    BertConfig {
        heads: a.heads,
        head_size: a.head_size,
        ffn_scale: 4,
        layers: a.layers,
        eps: 1e-6,
    }
}

fn workload_of(a: &Args) -> BatchMask {
    LengthDistribution::PaperUniform { alpha: a.alpha }.sample_mask(a.batch, a.seq, 42)
}

fn main() {
    let (cmd, args) = parse_args(std::env::args().skip(1));
    match cmd.as_str() {
        "features" => print!("{}", render_feature_matrix()),
        "flops" => cmd_flops(&args),
        "breakdown" => cmd_breakdown(&args),
        "compare" => cmd_compare(&args),
        "attention" => cmd_attention(&args),
        "profile" => cmd_profile(&args),
        "serve" => cmd_serve(&args),
        "decode" => cmd_decode(&args),
        "trace" => cmd_trace(&args),
        "top" => cmd_top(&args),
        _ => {
            eprintln!(
                "usage: btx <features|flops|breakdown|compare|attention|profile|serve|decode|trace|top> \
                 [--batch N] [--seq N] [--alpha F] [--opt L] [--heads N] [--head-size N] [--layers N] \
                 [--format tree|chrome|prom|json] [--policy fifo|sorted|budget] [--load F] [--requests N] \
                 [--deadline-ms F] [--queue N] [--budget N] [--chunk N] [--burst] [--trace] [--seed N] \
                 [--shards N] [--route rr|jsq|p2c] [--hot-tokens N] \
                 [--sessions N] [--tokens N] [--prompt N] [--block N] [--blocks N] \
                 [--slowest K] [--shed-only] [--deadline-missed] [--windows N]"
            );
            std::process::exit(2);
        }
    }
}

fn cmd_decode(a: &Args) {
    use bytetransformer::frameworks::decode::{decode_workload, run_decode_loop, DecodeConfig, PagedDecodeEngine};
    use bytetransformer::frameworks::serving::poisson_arrivals;
    use bytetransformer::obs;

    let config = config_of(a);
    let decoder = bytetransformer::core::decoder::TransformerDecoder::new_random(config, a.layers, a.seed);
    let layout = PagedLayout::new(a.block, a.blocks);
    // Budget: every live session decodes one token per step; leave room to
    // weave in about two max-length prefills alongside.
    let budget = if a.budget > 0 {
        a.budget
    } else {
        a.sessions + 2 * a.prompt
    };
    let requests = if a.requests > 0 { a.requests } else { 6 * a.sessions };
    let queue = if a.queue > 0 { a.queue } else { requests };
    let deadline = if a.deadline_ms > 0.0 {
        a.deadline_ms * 1e-3
    } else {
        f64::INFINITY
    };

    // A saturating burst: everything arrives up front, so the loop holds
    // the session ceiling until the queue drains.
    let trace = poisson_arrivals(
        requests,
        1e6,
        LengthDistribution::PaperUniform { alpha: a.alpha },
        a.prompt,
        a.seed,
    );
    let workload = decode_workload(&trace, a.tokens.max(1), a.seed);
    let decode_config = DecodeConfig {
        budget_tokens: budget,
        queue_capacity: queue,
        deadline,
        max_prompt_len: a.prompt,
        max_sessions: a.sessions,
        chunk_tokens: a.chunk,
    };
    if a.trace {
        obs::set_enabled(true);
        let _ = obs::drain();
    }
    let device = Device::with_model(CostModel::a100());
    let mut engine = PagedDecodeEngine::new(&decoder, device, layout, 4, a.seed);
    let report = run_decode_loop(&workload, &decode_config, &mut engine);
    let s = report.summary();
    println!(
        "pool {} blocks x {} tokens ({} token capacity) — budget {} tokens/step, {} decode slots, {}",
        layout.pool_blocks,
        layout.block_tokens,
        layout.capacity_tokens(),
        budget,
        a.sessions,
        if a.chunk > 0 {
            format!("prefill chunks of {} tokens", a.chunk)
        } else {
            "whole-prompt prefill".to_string()
        }
    );
    println!(
        "offered {} requests (prompt <= {}, decode <= {}, α = {:.3}, seed {})\n",
        s.offered, a.prompt, a.tokens, a.alpha, a.seed
    );
    println!(
        "served {} | shed {} (queue_full {}, deadline {}, too_long {}, cache_oom {}, cancelled {})",
        s.served,
        s.shed(),
        s.shed_queue_full,
        s.shed_deadline,
        s.shed_too_long,
        s.shed_cache_oom,
        s.shed_cancelled
    );
    assert!(s.accounting_is_exact(), "served + shed must equal offered");
    assert!(report.ledger_is_exact(), "per-step token ledger must reconcile");
    println!(
        "{} token steps, sustained {} concurrent sessions; cache high water {} of {} blocks",
        s.steps, s.max_concurrent_sessions, s.high_water_blocks, layout.pool_blocks
    );
    println!(
        "modeled A100: {:.0} steps/s, {:.0} decode tokens/s, {:.0} prefill tokens/s over {:.2} ms makespan",
        s.steps_per_sec(),
        s.decode_tokens_per_sec(),
        s.prefill_tokens as f64 / s.makespan.max(1e-12),
        s.makespan * 1e3
    );
    if a.trace {
        println!();
        print!("{}", obs::drain().render_tree());
    }
}

/// Calibrated open-loop serve workload shared by `serve`, `trace` and
/// `top`: the framework, the seeded arrival trace, and the derived
/// `ServeConfig`.
struct ServeSetup {
    fw: SimFramework,
    arrivals: Vec<bytetransformer::frameworks::serving::TimedRequest>,
    config: bytetransformer::frameworks::server::ServeConfig,
    tokens_per_sec: f64,
    budget: usize,
    rate: f64,
}

fn serve_setup(a: &Args) -> ServeSetup {
    use bytetransformer::frameworks::admission::CutPolicy;
    use bytetransformer::frameworks::calibration::calibrate_capacity;
    use bytetransformer::frameworks::server::ServeConfig;
    use bytetransformer::frameworks::serving::{bursty_arrivals, poisson_arrivals};

    let config = config_of(a);
    let model = BertModel::new_random(config, a.layers, 1);
    let fw = SimFramework::new(FrameworkKind::ByteTransformer, model);

    // Calibrate sustained token throughput from the roofline, then derive
    // the batch token budget and the open-loop arrival rate for --load.
    let capacity = calibrate_capacity(&fw, a.seq, a.alpha, 8, a.seed);
    let mean_tokens = (a.alpha * a.seq as f64).max(1.0);
    let interval = 8.0 * mean_tokens / capacity.tokens_per_sec;
    let budget = if a.budget > 0 {
        a.budget
    } else {
        capacity.token_budget(interval)
    };
    let max_batch = ((budget as f64 / mean_tokens).round() as usize).max(1);
    let policy = match a.policy.as_str() {
        "fifo" => CutPolicy::Fifo { max_batch },
        "sorted" => CutPolicy::SortedGroups { max_batch },
        _ => CutPolicy::TokenBudget { budget_tokens: budget },
    };
    // Default deadline ≈ two batch intervals: overload then bounds served
    // tail latency at deadline + one batch, keeping p99 under load within
    // ~3× of the light-load p99 instead of letting the queue absorb it.
    let deadline = if a.deadline_ms > 0.0 {
        a.deadline_ms * 1e-3
    } else {
        2.0 * interval
    };
    // --load is per shard: a fleet of N shards faces N× the aggregate
    // arrivals (and N× the default trace length, so per-shard statistics
    // stay comparable). Unsharded runs have fleet == 1.
    let fleet = a.shards.max(1);
    let rate = capacity.request_rate(mean_tokens, a.load) * fleet as f64;
    let dist = LengthDistribution::PaperUniform { alpha: a.alpha };
    let requests = if a.requests > 0 { a.requests } else { 512 * fleet };
    let arrivals = if a.burst {
        bursty_arrivals(requests, rate * 0.5, rate * 2.0, 25.0 * interval, dist, a.seq, a.seed)
    } else {
        poisson_arrivals(requests, rate, dist, a.seq, a.seed)
    };
    ServeSetup {
        fw,
        arrivals,
        config: ServeConfig {
            policy,
            queue_capacity: a.queue,
            deadline,
            max_len: a.seq,
            chunk_tokens: a.chunk,
        },
        tokens_per_sec: capacity.tokens_per_sec,
        budget,
        rate,
    }
}

fn cmd_serve(a: &Args) {
    use bytetransformer::frameworks::server::{modeled_forward_executor, run_open_loop, ServeSummary};
    use bytetransformer::frameworks::shard::{run_sharded_open_loop, shard_seed, RoutePolicy, ShardConfig};
    use bytetransformer::obs;
    use bytetransformer::obs::names;

    let setup = serve_setup(a);
    let serve_config = setup.config;
    let chunk = serve_config.chunk_tokens;
    if a.trace {
        obs::set_enabled(true);
        let _ = obs::drain();
    }

    // Both paths print these exact global lines, so on a fixed seed
    // `btx serve --shards 1` is byte-identical to `btx serve` — the shard
    // matrix in scripts/check.sh diffs the two outputs.
    let print_summary = |s: &ServeSummary| {
        println!(
            "calibrated capacity: {:.0} tokens/s — budget {} tokens/batch, deadline {:.2} ms, queue {}, {}",
            setup.tokens_per_sec,
            setup.budget,
            serve_config.deadline * 1e3,
            a.queue,
            if chunk > 0 {
                format!("chunk rounds of {chunk} tokens")
            } else {
                "whole-batch rounds".to_string()
            }
        );
        println!(
            "offered {} requests ({} arrivals, α = {:.3}) at load {:.2}× ({:.0} req/s), policy {}\n",
            s.offered,
            if a.burst { "bursty" } else { "poisson" },
            a.alpha,
            a.load,
            setup.rate,
            serve_config.policy.label()
        );
        // The unsharded server never sheds HotShard, so the extra term only
        // ever appears for sharded runs with the gate armed.
        let hot = if s.shed_hot_shard > 0 {
            format!(", hot_shard {}", s.shed_hot_shard)
        } else {
            String::new()
        };
        println!(
            "served {} | shed {} (queue_full {}, deadline {}, too_long {}, cancelled {}{}) | {} batches",
            s.served,
            s.shed(),
            s.shed_queue_full,
            s.shed_deadline,
            s.shed_too_long,
            s.shed_cancelled,
            hot,
            s.batches
        );
        assert!(s.accounting_is_exact(), "served + shed must equal offered");
        println!(
            "served latency: p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
            s.served_latency.p50 * 1e3,
            s.served_latency.p95 * 1e3,
            s.served_latency.p99 * 1e3,
            s.served_latency.max * 1e3
        );
        println!(
            "goodput: {:.0} served tokens/s over {:.2} ms makespan",
            s.goodput_tokens_per_sec(),
            s.makespan * 1e3
        );
    };

    if a.shards == 0 {
        let report = run_open_loop(
            &setup.arrivals,
            &serve_config,
            modeled_forward_executor(&setup.fw, CostModel::a100(), a.seed),
        );
        print_summary(&report.summary());
    } else {
        let route = RoutePolicy::parse(&a.route, a.seed).expect("spelling checked in parse_args");
        let cfg = ShardConfig {
            shards: a.shards,
            route,
            serve: serve_config,
            hot_shard_tokens: a.hot_tokens,
        };
        let report = run_sharded_open_loop(&setup.arrivals, &cfg, |i| {
            modeled_forward_executor(&setup.fw, CostModel::a100(), shard_seed(a.seed, i))
        });
        print_summary(&report.summary());
        assert!(
            report.accounting_is_exact_across_shards(),
            "per-shard ledgers must partition the offered trace"
        );
        // The per-shard view is extra output: only for N > 1, so a 1-shard
        // run stays line-identical to the unsharded path.
        if a.shards > 1 {
            println!(
                "\nsharded: {} shards, route {}, hot-shard gate {}",
                a.shards,
                report.route,
                if a.hot_tokens > 0 {
                    format!("{} tokens", a.hot_tokens)
                } else {
                    "off".to_string()
                }
            );
            println!(
                "{:>5} {:>8} {:>7} {:>6} {:>8} {:>12} {:>14}",
                "shard", "offered", "served", "shed", "batches", "makespan_ms", "goodput_tok/s"
            );
            for (i, p) in report.shard_summaries().iter().enumerate() {
                println!(
                    "{:>5} {:>8} {:>7} {:>6} {:>8} {:>12.2} {:>14.0}",
                    i,
                    p.offered,
                    p.served,
                    p.shed(),
                    p.batches,
                    p.makespan * 1e3,
                    p.goodput_tokens_per_sec()
                );
            }
            let fleet = report.fleet_snapshot();
            let lat = fleet
                .histogram(names::SERVE_LATENCY_US)
                .expect("fleet latency histogram");
            println!(
                "fleet snapshot ({}): routed {}, served {}, latency p50 {} µs, p95 {} µs, p99 {} µs",
                fleet.shard,
                fleet.delta(names::SERVE_SHARD_ROUTED),
                fleet.delta(names::SERVE_SERVED),
                lat.percentile(0.50),
                lat.percentile(0.95),
                lat.percentile(0.99)
            );
        }
    }
    if a.trace {
        println!();
        print!("{}", obs::drain().render_tree());
    }
}

fn cmd_trace(a: &Args) {
    use bytetransformer::frameworks::server::{modeled_forward_executor, run_open_loop};
    use bytetransformer::obs;
    use bytetransformer::obs::trace::TraceOutcome;

    let setup = serve_setup(a);
    obs::set_enabled(true);
    let _ = obs::drain();
    let report = run_open_loop(
        &setup.arrivals,
        &setup.config,
        modeled_forward_executor(&setup.fw, CostModel::a100(), a.seed),
    );
    let profile = obs::drain();
    obs::set_enabled(false);
    let mut traces = obs::trace::reconstruct(&profile);
    let s = report.summary();
    println!(
        "offered {} requests at load {:.2}× (policy {}) — served {}, shed {}; reconstructed {} timelines",
        s.offered,
        a.load,
        setup.config.policy.label(),
        s.served,
        s.shed(),
        traces.len()
    );
    if a.shed_only {
        traces.retain(|t| matches!(t.outcome(), TraceOutcome::Shed(_)));
    }
    if a.deadline_missed {
        traces.retain(|t| t.deadline_missed());
    }
    traces.sort_by_key(|t| std::cmp::Reverse(t.total_ns().unwrap_or(0)));
    let filter = match (a.shed_only, a.deadline_missed) {
        (true, true) => "shed + deadline-missed",
        (true, false) => "shed-only",
        (false, true) => "deadline-missed",
        (false, false) => "all",
    };
    if traces.is_empty() {
        println!("no timelines match filter `{filter}`");
        return;
    }
    let k = a.slowest.min(traces.len());
    println!("slowest {k} of {} matching `{filter}`:\n", traces.len());
    for t in traces.iter().take(k) {
        print!("{}", t.render());
        println!();
    }
}

fn cmd_top(a: &Args) {
    use bytetransformer::frameworks::server::{modeled_forward_executor, run_open_loop};
    use bytetransformer::obs;
    use bytetransformer::obs::names;
    use bytetransformer::obs::snapshot::{Aggregator, MetricsSnapshot};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let setup = serve_setup(a);
    obs::set_enabled(true);
    let _ = obs::drain();
    let window_ms = 1000;

    // Drive the seeded serve workload continuously on a worker thread so
    // each window has live traffic to aggregate; the seed is perturbed per
    // round so rounds are not byte-identical.
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let stop = Arc::clone(&stop);
        let arrivals = setup.arrivals.clone();
        let config = setup.config;
        let fw = setup.fw;
        let seed = a.seed;
        std::thread::spawn(move || {
            let mut round: u64 = 0;
            while !stop.load(Ordering::Relaxed) {
                let _ = run_open_loop(
                    &arrivals,
                    &config,
                    modeled_forward_executor(&fw, CostModel::a100(), seed ^ round),
                );
                round += 1;
            }
        })
    };

    let render = |w: usize, snap: &MetricsSnapshot| {
        println!(
            "— window {}/{} ({} ms, shard {}) —",
            w + 1,
            a.windows,
            snap.window_ms,
            snap.shard
        );
        println!(
            "serve: offered {:.0}/s, served {:.0}/s, batches {:.0}/s, chunk rounds {:.0}/s",
            snap.rate_per_sec(names::SERVE_OFFERED),
            snap.rate_per_sec(names::SERVE_SERVED),
            snap.rate_per_sec(names::SERVE_BATCHES),
            snap.rate_per_sec(names::SERVE_CHUNK_ROUNDS),
        );
        let sheds = snap.shed_breakdown();
        if sheds.is_empty() {
            println!("shed: none this window");
        } else {
            let parts: Vec<String> = sheds.iter().map(|(n, d)| format!("{n} {d}")).collect();
            println!("shed: {}", parts.join(", "));
        }
        if let Some(h) = snap.histogram(names::SERVE_QUEUE_WAIT_US) {
            println!(
                "queue wait: p50 {} µs, p95 {} µs, p99 {} µs ({} samples)",
                h.percentile(0.50),
                h.percentile(0.95),
                h.percentile(0.99),
                h.count()
            );
        }
        let gemm = snap.gemm_rates();
        if !gemm.is_empty() {
            let parts: Vec<String> = gemm
                .iter()
                .map(|(path, gflops)| format!("{path} {gflops:.2} GFLOP/s"))
                .collect();
            println!("gemm: {}", parts.join(", "));
        }
        if let Some(hw) = snap.kv_pool_high_water() {
            println!("kv pool high water: {hw} blocks");
        }
        println!();
    };

    println!(
        "btx top — {} windows of {} ms, load {:.2}×, policy {}\n",
        a.windows,
        window_ms,
        a.load,
        setup.config.policy.label()
    );
    let mut agg = Aggregator::new("btx-top");
    for w in 0..a.windows {
        std::thread::sleep(std::time::Duration::from_millis(window_ms));
        let snap = agg.snapshot();
        render(w, &snap);
    }
    stop.store(true, Ordering::Relaxed);
    worker.join().expect("workload thread exits cleanly");
    obs::set_enabled(false);
}

fn cmd_flops(a: &Args) {
    let config = config_of(a);
    let mask = workload_of(a);
    println!(
        "Table II — batch {} × seq {} (α = {:.3}), hidden {}\n",
        a.batch,
        a.seq,
        mask.alpha(),
        config.hidden()
    );
    println!(
        "{:<8} {:>14} {:>14} {:>14}",
        "module", "baseline", "zero padding", "zp+fused MHA"
    );
    let b = layer_flops(&mask, config.hidden(), FlopVariant::Baseline);
    let z = layer_flops(&mask, config.hidden(), FlopVariant::ZeroPadding);
    let f = layer_flops(&mask, config.hidden(), FlopVariant::ZeroPaddingFusedMha);
    let g = |x: u64| format!("{:.3} G", x as f64 / 1e9);
    for (name, x, y, zz) in [
        ("GEMM0", b.gemm0, z.gemm0, f.gemm0),
        ("MHA", b.mha, z.mha, f.mha),
        ("GEMM1", b.gemm1, z.gemm1, f.gemm1),
        ("GEMM2", b.gemm2, z.gemm2, f.gemm2),
        ("GEMM3", b.gemm3, z.gemm3, f.gemm3),
        ("TOTAL", b.total(), z.total(), f.total()),
    ] {
        println!("{:<8} {:>14} {:>14} {:>14}", name, g(x), g(y), g(zz));
    }
}

fn cmd_breakdown(a: &Args) {
    let config = config_of(a);
    let mask = workload_of(a);
    let model = BertModel::new_random(config, a.layers, 1);
    let input = masked_randn(&mask, config.hidden(), 7);
    let dev = Device::new();
    model.forward(&dev, &input, &mask, a.opt).expect("validated shapes");
    println!(
        "{} layer(s), batch {} × seq {} (α = {:.3}), opt = {}\n",
        a.layers,
        a.batch,
        a.seq,
        mask.alpha(),
        a.opt.label()
    );
    println!("{}", TraceReport::by_prefix(&dev.trace()).render());
    println!(
        "modeled A100 total: {:.3} ms over {} launches",
        dev.modeled_total() * 1e3,
        dev.launches()
    );
}

fn cmd_compare(a: &Args) {
    let config = config_of(a);
    let mask = workload_of(a);
    let model = BertModel::new_random(config, a.layers, 1);
    let input = masked_randn(&mask, config.hidden(), 7);
    println!(
        "{} layer(s), batch {} × seq {} (α = {:.3})\n",
        a.layers,
        a.batch,
        a.seq,
        mask.alpha()
    );
    println!(
        "{:<20} {:>12} {:>10} {:>12}",
        "framework", "modeled_ms", "launches", "vs_BT"
    );
    let mut bt = None;
    let mut rows = Vec::new();
    for kind in FrameworkKind::all() {
        if !kind.supports(a.seq) {
            rows.push((kind.name(), None, 0));
            continue;
        }
        let fw = SimFramework::new(kind, model.clone());
        let dev = fw.device(CostModel::a100());
        fw.forward(&dev, &input, &mask).expect("validated shapes");
        let t = dev.modeled_total();
        if kind == FrameworkKind::ByteTransformer {
            bt = Some(t);
        }
        rows.push((kind.name(), Some(t), dev.launches()));
    }
    let bt = bt.expect("ByteTransformer always runs");
    for (name, t, launches) in rows {
        match t {
            Some(t) => println!(
                "{:<20} {:>12.3} {:>10} {:>11}%",
                name,
                t * 1e3,
                launches,
                format!("{:+.0}", (t / bt - 1.0) * 100.0)
            ),
            None => println!("{:<20} {:>12}", name, "n/a (>512)"),
        }
    }
}

fn cmd_profile(a: &Args) {
    use bytetransformer::frameworks::admission::CutPolicy;
    use bytetransformer::frameworks::server::{run_open_loop, ServeConfig};
    use bytetransformer::frameworks::serving::poisson_arrivals;
    use bytetransformer::obs;
    use std::collections::{BTreeMap, HashSet};

    let width = rayon::current_num_threads();
    obs::set_enabled(true);
    let _ = obs::drain(); // start the profile from a clean slate

    // Segment 1: the optimized encoder forward on a variable-length batch.
    let config = config_of(a);
    let mask = workload_of(a);
    let model = BertModel::new_random(config, a.layers, 1);
    let input = masked_randn(&mask, config.hidden(), 7);
    let dev = Device::new();
    model.forward(&dev, &input, &mask, a.opt).expect("validated shapes");

    // Segment 2: a short request stream through the continuous-batching
    // server, every batch a real forward on one shared traced device.
    let fw = SimFramework::new(FrameworkKind::ByteTransformer, model.clone());
    let serve_dev = fw.device(CostModel::a100());
    let requests = poisson_arrivals(
        8,
        2_000.0,
        LengthDistribution::PaperUniform { alpha: a.alpha },
        a.seq,
        11,
    );
    let serve_config = ServeConfig {
        policy: CutPolicy::Fifo { max_batch: 4 },
        queue_capacity: requests.len(),
        deadline: f64::INFINITY,
        max_len: a.seq,
        chunk_tokens: 0,
    };
    let mut batch_no = 0u64;
    let serve = run_open_loop(&requests, &serve_config, |mask| {
        let input = masked_randn(mask, config.hidden(), 11 ^ batch_no);
        batch_no += 1;
        let before = serve_dev.modeled_total();
        fw.forward(&serve_dev, &input, mask)
            .expect("max_len bounds request lengths to supported shapes");
        serve_dev.modeled_total() - before
    })
    .summary();

    let profile = obs::drain();
    match a.format.as_str() {
        "chrome" => {
            println!("{}", profile.chrome_trace());
            return;
        }
        "prom" => {
            print!("{}", profile.prometheus());
            return;
        }
        "json" => {
            print!("{}", profile_json(&profile));
            return;
        }
        _ => {}
    }

    println!(
        "{} layer(s), batch {} × seq {} (α = {:.3}), opt = {}, pool width {}\n",
        a.layers,
        a.batch,
        a.seq,
        mask.alpha(),
        a.opt.label(),
        width
    );
    print!("{}", profile.render_tree());

    // Reconciliation: every traced kernel launch also recorded an obs span
    // under the same name, so bucketing both by the name prefix joins the
    // *measured* host wall time against the *modeled* A100 roofline.
    let mut trace = dev.trace();
    trace.extend(serve_dev.trace());
    let kernel_names: HashSet<String> = trace.iter().map(|r| r.name.clone()).collect();
    let mut obs_wall_ns: BTreeMap<String, u64> = BTreeMap::new();
    for (name, (_count, total_ns)) in profile.span_totals() {
        if kernel_names.contains(&name) {
            let bucket = name.split('.').next().unwrap_or(&name).to_string();
            *obs_wall_ns.entry(bucket).or_default() += total_ns;
        }
    }
    let report = TraceReport::by_prefix(&trace);
    println!("\nmeasured vs roofline, per pipeline bucket:");
    println!(
        "  {:<14} {:>8} {:>14} {:>14} {:>12}",
        "bucket", "launches", "measured_ms", "modeled_ms", "meas/model"
    );
    for (bucket, stats) in report.buckets() {
        let measured_ms = obs_wall_ns.get(bucket).copied().unwrap_or(0) as f64 / 1e6;
        let modeled_ms = stats.modeled * 1e3;
        println!(
            "  {:<14} {:>8} {:>14.3} {:>14.3} {:>11.1}x",
            bucket,
            stats.launches,
            measured_ms,
            modeled_ms,
            measured_ms / modeled_ms.max(1e-12)
        );
    }
    println!(
        "  (measured = host wall from obs spans; modeled = A100 roofline — \
         the ratio is host-vs-A100 deviation, stable within a bucket)"
    );

    println!(
        "\nserving: {} requests in {} batches, {} shed; latency p50 {:.3} ms, p95 {:.3} ms, max {:.3} ms",
        serve.offered,
        serve.batches,
        serve.shed(),
        serve.served_latency.p50 * 1e3,
        serve.served_latency.p95 * 1e3,
        serve.served_latency.max * 1e3
    );
    if profile.dropped > 0 {
        println!("note: {} events dropped (ring full)", profile.dropped);
    }
}

/// Renders a drained profile as a `BENCH_*`-schema JSON object (shared
/// `RunMeta` header + span totals + counters + histogram percentiles).
fn profile_json(profile: &bytetransformer::obs::profile::Profile) -> String {
    use std::fmt::Write as _;
    let meta = bytetransformer::bench::report::RunMeta::collect("profile", "ns");
    let esc = bytetransformer::bench::report::json_escape;
    let mut s = meta.header_json();
    s.push_str("  \"spans\": [\n");
    let totals = profile.span_totals();
    for (i, (name, (count, total_ns))) in totals.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}}}{}",
            esc(name),
            count,
            total_ns,
            if i + 1 == totals.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n  \"counters\": [\n");
    for (i, (name, value)) in profile.counters.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"value\": {}}}{}",
            esc(name),
            value,
            if i + 1 == profile.counters.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n  \"histograms\": [\n");
    for (i, h) in profile.histograms.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"count\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}{}",
            esc(&h.name),
            h.count,
            h.sum,
            h.p50,
            h.p95,
            h.p99,
            if i + 1 == profile.histograms.len() { "" } else { "," }
        );
    }
    let _ = writeln!(s, "  ],\n  \"events_dropped\": {}\n}}", profile.dropped);
    s
}

fn cmd_attention(a: &Args) {
    use bytetransformer::kernels::layout::{add_bias_split_qkv_packed, add_bias_unpack_split_qkv};
    let config = config_of(a);
    let heads = config.heads;
    let hidden = config.hidden();
    let scale = config.attention_scale();
    let mask = workload_of(a);
    let idx = PackingIndex::from_mask(&mask);
    let setup = Device::untraced(CostModel::a100());
    let qkv = Tensor::randn([idx.valid_words(), 3 * hidden], 3);
    let bias = vec![0.0f32; 3 * hidden];
    let (qp, kp, vp) = add_bias_unpack_split_qkv(&setup, &qkv, &bias, &idx, heads);
    let (qk, kk, vk) = add_bias_split_qkv_packed(&setup, &qkv, &bias, heads, scale);
    println!(
        "batch {} × seq {} (α = {:.3}), {} heads × {}\n",
        a.batch,
        a.seq,
        mask.alpha(),
        heads,
        config.head_size
    );
    println!(
        "{:<28} {:>12} {:>10} {:>10}",
        "variant", "modeled_µs", "GFLOP", "launches"
    );
    let report = |name: &str, dev: &Device| {
        println!(
            "{:<28} {:>12.1} {:>10.3} {:>10}",
            name,
            dev.modeled_total() * 1e6,
            dev.total_flops() as f64 / 1e9,
            dev.launches()
        );
    };
    let dev = Device::new();
    naive_attention(&dev, &qp, &kp, &vp, mask.seq_lens(), scale, 8e-6);
    report("PyTorch-style (naive)", &dev);
    let dev = Device::new();
    batched_attention(&dev, &qp, &kp, &vp, mask.seq_lens(), scale, false);
    report("cuBLAS batched", &dev);
    let dev = Device::new();
    batched_attention(&dev, &qp, &kp, &vp, mask.seq_lens(), scale, true);
    report("cuBLAS + zero padding", &dev);
    let dev = Device::new();
    flash_attention(&dev, &qp, &kp, &vp, mask.seq_lens(), scale);
    report("FlashAttention-style", &dev);
    let dev = Device::new();
    fused_attention(&dev, &qk, &kk, &vk, &idx);
    report("fused MHA (ours)", &dev);
}
