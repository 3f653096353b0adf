//! Seeded stress suite for the multi-shard router (`bt-frameworks::shard`).
//!
//! Pins the sharding acceptance contract:
//! * `--shards 1` is **bit-identical** to the unsharded server for a fixed
//!   seed, under every routing policy (the horizon rule makes a single
//!   routed shard replay the monolithic loop instruction for instruction);
//! * global accounting is exact across shards —
//!   `offered == Σ per-shard (served + shed)` — and the per-shard offered
//!   counts partition the trace, including when the hot-shard gate sheds
//!   at routing time;
//! * sharded runs replay bit-identically for a fixed seed (trace, policy
//!   seed, executor seeds);
//! * a skewed Zipf trace against a tight hot-shard threshold actually
//!   exercises [`ShedReason::HotShard`], and those sheds are distinct from
//!   queue-full backpressure;
//! * per-shard telemetry snapshots merge into a fleet view whose counters
//!   equal the ledger.

use bytetransformer::frameworks::admission::{CutPolicy, ShedReason};
use bytetransformer::frameworks::server::{run_open_loop, Outcome, ServeConfig};
use bytetransformer::frameworks::serving::{poisson_arrivals, TimedRequest};
use bytetransformer::frameworks::shard::{run_sharded_open_loop, shard_seed, RoutePolicy, ShardConfig};
use bytetransformer::obs::names;
use bytetransformer::prelude::*;

/// Synthetic batch cost, same shape as `serve_stress.rs`: fixed launch
/// overhead plus linear token cost — deterministic and fast.
const TOKENS_PER_SEC: f64 = 1.0e6;
const BATCH_OVERHEAD: f64 = 50e-6;

/// Per-shard executor with a seed-mixed noise term so different shards draw
/// different (but deterministic) modeled durations — the sharded analogue
/// of a per-instance clock jitter. `shard_seed` is identity at shard 0, so
/// a 1-shard run with `noise == 0` is the unsharded executor exactly.
fn make_synthetic_exec(shard: usize) -> impl FnMut(&BatchMask) -> f64 {
    let mut state = shard_seed(0x5eed, shard);
    move |mask: &BatchMask| {
        // splitmix64 step, scaled to at most 1µs of jitter.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let jitter = (z ^ (z >> 31)) as f64 / u64::MAX as f64 * 1e-6;
        BATCH_OVERHEAD + mask.valid_words() as f64 / TOKENS_PER_SEC + jitter
    }
}

fn plain_exec(mask: &BatchMask) -> f64 {
    BATCH_OVERHEAD + mask.valid_words() as f64 / TOKENS_PER_SEC
}

fn serve_config(seq: usize, alpha: f64) -> ServeConfig {
    let mean_tokens = alpha * seq as f64;
    let interval = 8.0 * mean_tokens / TOKENS_PER_SEC;
    ServeConfig {
        policy: CutPolicy::TokenBudget {
            budget_tokens: (TOKENS_PER_SEC * interval).round() as usize,
        },
        queue_capacity: 64,
        deadline: 2.0 * interval,
        max_len: seq,
        chunk_tokens: 0,
    }
}

/// Aggregate arrivals at `load ×` one shard's synthetic capacity.
fn arrivals_at_load(n: usize, load: f64, seq: usize, alpha: f64, seed: u64) -> Vec<TimedRequest> {
    let mean_tokens = alpha * seq as f64;
    let rate = load * TOKENS_PER_SEC / mean_tokens;
    poisson_arrivals(n, rate, LengthDistribution::PaperUniform { alpha }, seq, seed)
}

fn zipf_arrivals(n: usize, rate: f64, seq: usize, seed: u64) -> Vec<TimedRequest> {
    poisson_arrivals(n, rate, LengthDistribution::Zipf { exponent: 1.1 }, seq, seed)
}

#[test]
fn one_shard_is_bit_identical_to_the_unsharded_server() {
    let config = serve_config(256, 0.6);
    for seed in [7u64, 1234, 0xdead_beef] {
        let reqs = arrivals_at_load(1000, 2.0, 256, 0.6, seed);
        let base = run_open_loop(&reqs, &config, plain_exec);
        for route in [
            RoutePolicy::RoundRobin,
            RoutePolicy::JoinShortestQueue,
            RoutePolicy::PowerOfTwo { seed: seed ^ 1 },
        ] {
            let cfg = ShardConfig {
                route,
                ..ShardConfig::new(1, config)
            };
            // With one shard every policy picks shard 0, and the plain
            // executor is seed-free, so the whole report must match bitwise.
            let sharded = run_sharded_open_loop(&reqs, &cfg, |_| plain_exec);
            assert_eq!(
                sharded.outcomes,
                base.outcomes,
                "seed {seed}, route {}: outcome ledgers diverge",
                route.label()
            );
            assert_eq!(sharded.shard_reports[0].batches, base.batches);
            assert_eq!(
                sharded.shard_reports[0].makespan.to_bits(),
                base.makespan.to_bits(),
                "seed {seed}, route {}: virtual clocks diverge",
                route.label()
            );
        }
    }
}

#[test]
fn sharded_accounting_is_exact_and_partitions_the_trace() {
    for (shards, seed) in [(2usize, 11u64), (4, 23), (8, 0xabad_cafe)] {
        // Aggregate load ≈ 2× per shard, so every shard sheds and serves.
        let reqs = arrivals_at_load(500 * shards, 2.0 * shards as f64, 256, 0.6, seed);
        for route in [
            RoutePolicy::RoundRobin,
            RoutePolicy::JoinShortestQueue,
            RoutePolicy::PowerOfTwo { seed },
        ] {
            let cfg = ShardConfig {
                route,
                ..ShardConfig::new(shards, serve_config(256, 0.6))
            };
            let report = run_sharded_open_loop(&reqs, &cfg, make_synthetic_exec);
            assert!(
                report.accounting_is_exact_across_shards(),
                "{shards} shards, route {}: ledger does not balance",
                route.label()
            );
            let s = report.summary();
            assert_eq!(s.offered, reqs.len());
            assert!(s.served > 0 && s.shed() > 0, "2× per-shard load both serves and sheds");

            // Per-shard offered counts partition the global trace, and the
            // assignment maps every id to a real shard.
            let summaries = report.shard_summaries();
            assert_eq!(summaries.iter().map(|p| p.offered).sum::<usize>(), reqs.len());
            assert_eq!(report.assignment.len(), reqs.len());
            assert!(report.assignment.iter().all(|&a| a < shards));

            // Every id appears exactly once in the global ledger.
            let mut ids: Vec<usize> = report.outcomes.iter().map(|o| o.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..reqs.len()).collect::<Vec<_>>());
        }
    }
}

#[test]
fn sharded_runs_replay_bit_identically_for_a_fixed_seed() {
    let reqs = arrivals_at_load(1200, 6.0, 128, 0.6, 99);
    for route in [
        RoutePolicy::RoundRobin,
        RoutePolicy::JoinShortestQueue,
        RoutePolicy::PowerOfTwo { seed: 4242 },
    ] {
        let cfg = ShardConfig {
            route,
            ..ShardConfig::new(3, serve_config(128, 0.6))
        };
        let a = run_sharded_open_loop(&reqs, &cfg, make_synthetic_exec);
        let b = run_sharded_open_loop(&reqs, &cfg, make_synthetic_exec);
        assert_eq!(a.outcomes, b.outcomes, "route {}", route.label());
        assert_eq!(a.assignment, b.assignment);
        for (ra, rb) in a.shard_reports.iter().zip(&b.shard_reports) {
            assert_eq!(ra.batches, rb.batches);
            assert_eq!(ra.makespan.to_bits(), rb.makespan.to_bits());
        }
    }
}

#[test]
fn skewed_zipf_trace_forces_hot_shard_sheds_with_exact_accounting() {
    // Heavy-tailed lengths at a high rate against a tight per-shard token
    // ceiling: the router must shed at routing time, with the distinct
    // HotShard reason, while the global ledger stays exact.
    // Zipf(1.1) lengths average ≈37 tokens, so 150k req/s is ≈5.5M token/s
    // against 2M token/s of fleet capacity — well past saturation.
    let reqs = zipf_arrivals(1500, 150_000.0, 256, 0x2f2f);
    let cfg = ShardConfig {
        route: RoutePolicy::JoinShortestQueue,
        hot_shard_tokens: 512,
        ..ShardConfig::new(2, serve_config(256, 0.6))
    };
    let report = run_sharded_open_loop(&reqs, &cfg, make_synthetic_exec);
    assert!(report.accounting_is_exact_across_shards());
    let s = report.summary();
    assert!(
        s.shed_hot_shard > 0,
        "a 2048-token ceiling under this trace must fire the hot-shard gate: {s:?}"
    );
    assert!(s.served > 0, "the gate sheds the spill, not the service");

    // Hot-shard sheds are routing-time decisions: zero queue wait, the
    // distinct reason and label, never conflated with queue-full.
    assert_eq!(ShedReason::HotShard.label(), "hot_shard");
    for o in &report.outcomes {
        if let Outcome::Shed {
            reason: ShedReason::HotShard,
            wait,
        } = o.outcome
        {
            assert_eq!(wait, 0.0, "hot-shard sheds never queued anywhere");
        }
    }

    // The per-reason breakdown survives the per-shard split.
    let summaries = report.shard_summaries();
    assert_eq!(
        summaries.iter().map(|p| p.shed_hot_shard).sum::<usize>(),
        s.shed_hot_shard
    );
}

#[test]
fn fleet_snapshot_counters_match_the_ledger() {
    let reqs = arrivals_at_load(900, 4.0, 128, 0.6, 17);
    let cfg = ShardConfig::new(3, serve_config(128, 0.6));
    let report = run_sharded_open_loop(&reqs, &cfg, make_synthetic_exec);
    let s = report.summary();
    let snaps = report.shard_snapshots();
    assert_eq!(snaps.len(), 3);
    for (i, snap) in snaps.iter().enumerate() {
        assert_eq!(snap.shard, format!("shard{i}"));
    }
    let fleet = report.fleet_snapshot();
    assert_eq!(fleet.delta(names::SERVE_OFFERED) as usize, s.offered);
    assert_eq!(fleet.delta(names::SERVE_SERVED) as usize, s.served);
    assert_eq!(fleet.delta(names::SERVE_SHED_DEADLINE) as usize, s.shed_deadline);
    assert_eq!(
        fleet.delta(names::SERVE_SHARD_ROUTED) as usize,
        s.offered - s.shed_hot_shard
    );
    let latency = fleet
        .histogram(names::SERVE_LATENCY_US)
        .expect("fleet latency histogram");
    assert_eq!(
        latency.count() as usize,
        s.served,
        "one latency sample per served request"
    );
    let wait = fleet
        .histogram(names::SERVE_QUEUE_WAIT_US)
        .expect("fleet queue-wait histogram");
    assert_eq!(wait.count() as usize, s.served);
}

#[test]
fn more_shards_serve_more_of_an_overloaded_trace() {
    // The scale-out claim in miniature (the full sweep lives in
    // `bench_serve`): a trace that swamps one shard is mostly served by
    // four, because each shard only sees a quarter of the arrivals.
    let reqs = arrivals_at_load(2000, 4.0, 128, 0.6, 31);
    let serve = serve_config(128, 0.6);
    let served_at = |shards: usize| {
        let cfg = ShardConfig::new(shards, serve);
        run_sharded_open_loop(&reqs, &cfg, make_synthetic_exec).summary().served
    };
    let one = served_at(1);
    let four = served_at(4);
    assert!(
        four as f64 >= one as f64 * 2.5,
        "4 shards served {four} vs {one} on one shard — scale-out is broken"
    );
}
