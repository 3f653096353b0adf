//! Multi-shard scale-out: a router over N independent `OpenLoopShard`
//! server instances sharing one global virtual clock.
//!
//! ByteTransformer's serving layer (paper §I) is a single-instance runtime;
//! a deployment scales it out by running N instances behind a router. This
//! module reproduces that topology deterministically: each shard owns its
//! own ingress queue and batch-cutting loop, while the router spreads an
//! open-loop arrival trace across them with a pluggable
//! [`RoutePolicy`] and an optional hot-shard work-shedding gate
//! ([`ShardConfig::hot_shard_tokens`],
//! [`ShedReason::HotShard`](crate::admission::ShedReason::HotShard)).
//!
//! # Determinism and the horizon rule
//!
//! The router processes the global trace sorted by arrival. Before routing
//! the arrival at time `t` it advances **every** shard to horizon `t`, so a
//! shard only cuts a batch at instant `c` once all global arrivals ≤ `c`
//! have been routed. A single shard driven this way replays
//! [`run_open_loop`](crate::server::run_open_loop) instruction for
//! instruction — `--shards 1` is
//! bit-identical to the unsharded server (pinned by
//! `tests/shard_stress.rs`) — and for any N the whole run is a pure
//! function of `(trace, config, executor seeds)`.
//!
//! # Accounting
//!
//! Every offered request lands in exactly one shard's ledger (hot-shard
//! sheds are attributed to the shard the policy chose), so
//! `offered == Σ per-shard (served + shed)` exactly —
//! [`ShardedReport::accounting_is_exact_across_shards`].
//!
//! # Telemetry
//!
//! Process-global counters cannot separate shards, so the router
//! synthesizes one [`MetricsSnapshot`] per shard from its ledger
//! ([`ShardedReport::shard_snapshots`]) and folds them into a fleet view
//! with the shard-mergeable snapshot layer
//! ([`ShardedReport::fleet_snapshot`], [`bt_obs::snapshot::merge`]). Live
//! counters still tick under `serve.*` plus the router-level
//! `serve.shard.*` names.

use bt_obs::names;
use bt_obs::snapshot::{bucket_of, merge, CounterDelta, HistogramWindow, MetricsSnapshot, HIST_BUCKETS};
use bt_tensor::rng::SplitMix64;
use bt_varlen::BatchMask;

use crate::admission::admission_weight;
use crate::server::{
    record_router_shed, OpenLoopShard, Outcome, RequestOutcome, ServeConfig, ServeReport, ServeSummary,
};
use crate::serving::TimedRequest;

/// Requests the router placed on a shard's ingress (one per non-hot-shed
/// arrival).
static SHARD_ROUTED: bt_obs::Counter = bt_obs::Counter::new(names::SERVE_SHARD_ROUTED);
/// Requests refused at routing time by the hot-shard gate (router-level
/// twin of the per-reason `serve.shed.hot_shard` ledger counter).
static SHARD_SHED_HOT: bt_obs::Counter = bt_obs::Counter::new(names::SERVE_SHARD_SHED_HOT);
/// Outstanding valid tokens observed on the chosen shard at each routing
/// decision — the load signal the balancing policies compare.
static SHARD_OUTSTANDING: bt_obs::Histogram = bt_obs::Histogram::new(names::SERVE_SHARD_OUTSTANDING);

/// How the router picks a shard for each arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Cycle through shards in index order, ignoring load. Optimal for
    /// homogeneous traffic, pathological under skew.
    RoundRobin,
    /// Send each arrival to the shard with the fewest outstanding valid
    /// tokens (ties break to the lowest index). Best balance, but reads
    /// every shard's load on every decision.
    JoinShortestQueue,
    /// Power-of-two-choices: sample two shards with a seeded generator and
    /// take the less loaded (ties break to the lower index). Near-JSQ
    /// balance at O(1) load reads; deterministic for a fixed seed.
    PowerOfTwo {
        /// Seed for the candidate sampler.
        seed: u64,
    },
}

impl RoutePolicy {
    /// Stable label for telemetry and bench artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            RoutePolicy::RoundRobin => "rr",
            RoutePolicy::JoinShortestQueue => "jsq",
            RoutePolicy::PowerOfTwo { .. } => "p2c",
        }
    }

    /// Parses a CLI spelling (`rr`, `jsq`, `p2c`); `seed` feeds
    /// [`RoutePolicy::PowerOfTwo`].
    pub fn parse(s: &str, seed: u64) -> Option<RoutePolicy> {
        match s {
            "rr" | "round_robin" => Some(RoutePolicy::RoundRobin),
            "jsq" => Some(RoutePolicy::JoinShortestQueue),
            "p2c" | "power_of_two" => Some(RoutePolicy::PowerOfTwo { seed }),
            _ => None,
        }
    }
}

/// Configuration for a sharded run: the per-shard server config plus the
/// router's own knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardConfig {
    /// Number of shard instances (must be positive).
    pub shards: usize,
    /// Routing policy.
    pub route: RoutePolicy,
    /// Per-shard server configuration (every shard runs the same one; each
    /// gets its own private queue of `serve.queue_capacity` slots).
    pub serve: ServeConfig,
    /// Hot-shard gate: when positive, an arrival whose admission weight
    /// would push the chosen shard's outstanding valid tokens above this
    /// threshold is shed at routing time with
    /// [`ShedReason::HotShard`](crate::admission::ShedReason::HotShard)
    /// instead of being enqueued. `0` disables the gate (the default, which
    /// also preserves `--shards 1` bit-identity with the unsharded server).
    pub hot_shard_tokens: usize,
}

impl ShardConfig {
    /// A config with the router knobs defaulted: JSQ routing, hot-shard
    /// gate off.
    pub fn new(shards: usize, serve: ServeConfig) -> ShardConfig {
        ShardConfig {
            shards,
            route: RoutePolicy::JoinShortestQueue,
            serve,
            hot_shard_tokens: 0,
        }
    }

    fn validate(&self) {
        assert!(self.shards > 0, "shards must be positive");
    }
}

/// Mixes a base executor seed with a shard index so shards draw
/// independent modeled-noise streams. Identity at shard 0, which keeps a
/// 1-shard run's executor stream — and therefore its entire report —
/// bit-identical to the unsharded run from the same seed.
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Everything a sharded run observed: the global ledger plus per-shard
/// sub-reports and the routing assignment.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// Per-request outcomes, indexed by request id (the global ledger —
    /// identical in shape to [`ServeReport::outcomes`]).
    pub outcomes: Vec<RequestOutcome>,
    /// Which shard each request id was routed to (hot-shard sheds are
    /// attributed to the shard the policy chose).
    pub assignment: Vec<usize>,
    /// One [`ServeReport`] per shard over the requests attributed to it.
    pub shard_reports: Vec<ServeReport>,
    /// Routing policy label (for artifacts).
    pub route: &'static str,
}

impl ShardedReport {
    /// Fleet-level summary: all outcomes, total batches, fleet makespan
    /// (the slowest shard's completion — shards run concurrently).
    pub fn summary(&self) -> ServeSummary {
        let report = ServeReport {
            outcomes: self.outcomes.clone(),
            batches: self.shard_reports.iter().map(|r| r.batches).sum(),
            makespan: self.shard_reports.iter().fold(0.0f64, |m, r| m.max(r.makespan)),
        };
        report.summary()
    }

    /// Per-shard summaries, in shard order.
    pub fn shard_summaries(&self) -> Vec<ServeSummary> {
        self.shard_reports.iter().map(|r| r.summary()).collect()
    }

    /// The global exactness invariant: every shard's own ledger is exact,
    /// the per-shard offered counts partition the global trace, and the
    /// fleet summary balances. `tests/shard_stress.rs` enforces this on
    /// every run, including skewed traces that force hot-shard sheds.
    pub fn accounting_is_exact_across_shards(&self) -> bool {
        let shards: Vec<ServeSummary> = self.shard_summaries();
        let offered_sum: usize = shards.iter().map(|s| s.offered).sum();
        shards.iter().all(|s| s.accounting_is_exact())
            && offered_sum == self.outcomes.len()
            && self.summary().accounting_is_exact()
    }

    /// Synthesizes one [`MetricsSnapshot`] per shard from its ledger —
    /// counters (`serve.offered`, `serve.served`, `serve.shed.*`,
    /// `serve.batches`, `serve.shard.routed`) and histograms
    /// (`serve.queue_wait_us`, `serve.latency_us`) — labeled `shard<i>`,
    /// windowed over the fleet makespan. Process-global counters cannot
    /// attribute work to a shard, so the ledger is the source of truth
    /// here; the snapshots feed the same merge layer `btx top` uses.
    pub fn shard_snapshots(&self) -> Vec<MetricsSnapshot> {
        let window_ms = ((self.shard_reports.iter().fold(0.0f64, |m, r| m.max(r.makespan))) * 1e3)
            .ceil()
            .max(1.0) as u64;
        self.shard_reports
            .iter()
            .enumerate()
            .map(|(i, report)| {
                let s = report.summary();
                let routed = s.offered - s.shed_hot_shard;
                let counter = |name: &str, v: usize| CounterDelta {
                    name: name.to_string(),
                    delta: v as u64,
                    total: v as u64,
                };
                let counters = vec![
                    counter(names::SERVE_OFFERED, s.offered),
                    counter(names::SERVE_SERVED, s.served),
                    counter(names::SERVE_SHED_QUEUE_FULL, s.shed_queue_full),
                    counter(names::SERVE_SHED_DEADLINE, s.shed_deadline),
                    counter(names::SERVE_SHED_TOO_LONG, s.shed_too_long),
                    counter(names::SERVE_SHED_CACHE_OOM, s.shed_cache_oom),
                    counter(names::SERVE_SHED_CANCELLED, s.shed_cancelled),
                    counter(names::SERVE_SHED_HOT_SHARD, s.shed_hot_shard),
                    counter(names::SERVE_BATCHES, report.batches),
                    counter(names::SERVE_SHARD_ROUTED, routed),
                ];
                let mut wait = HistogramWindow {
                    name: names::SERVE_QUEUE_WAIT_US.to_string(),
                    buckets: vec![0; HIST_BUCKETS],
                    sum: 0,
                };
                let mut latency = HistogramWindow {
                    name: names::SERVE_LATENCY_US.to_string(),
                    buckets: vec![0; HIST_BUCKETS],
                    sum: 0,
                };
                for r in &report.outcomes {
                    if let Outcome::Served { queue_wait, latency: l } = r.outcome {
                        let w_us = (queue_wait * 1e6) as u64;
                        let l_us = (l * 1e6) as u64;
                        wait.buckets[bucket_of(w_us)] += 1;
                        wait.sum += w_us;
                        latency.buckets[bucket_of(l_us)] += 1;
                        latency.sum += l_us;
                    }
                }
                MetricsSnapshot {
                    shard: format!("shard{i}"),
                    window_ms,
                    counters,
                    histograms: vec![wait, latency],
                }
            })
            .collect()
    }

    /// The fleet view: all per-shard snapshots folded through [`merge`] —
    /// counters sum, histogram buckets absorb, percentiles recompute over
    /// the union.
    pub fn fleet_snapshot(&self) -> MetricsSnapshot {
        merge(&self.shard_snapshots())
    }
}

/// The sharded router: N `OpenLoopShard` engines and the routing state.
/// Construct with [`ShardRouter::new`], run a trace with
/// [`ShardRouter::run`].
pub struct ShardRouter {
    config: ShardConfig,
    engines: Vec<OpenLoopShard>,
    rr_next: usize,
    /// Candidate sampler of [`RoutePolicy::PowerOfTwo`].
    p2c: SplitMix64,
    /// Requests placed on each shard's ingress.
    routed: Vec<usize>,
    /// Hot-shard sheds attributed to each shard.
    shed_hot: Vec<usize>,
}

impl ShardRouter {
    /// Builds the router: validates the config and instantiates one engine
    /// per shard.
    ///
    /// # Panics
    /// Panics on a zero shard count or an invalid [`ServeConfig`].
    pub fn new(config: ShardConfig) -> ShardRouter {
        config.validate();
        let p2c = SplitMix64::new(match config.route {
            RoutePolicy::PowerOfTwo { seed } => seed,
            _ => 0,
        });
        ShardRouter {
            engines: (0..config.shards).map(|_| OpenLoopShard::new(config.serve)).collect(),
            rr_next: 0,
            p2c,
            routed: vec![0; config.shards],
            shed_hot: vec![0; config.shards],
            config,
        }
    }

    /// Picks a shard for the arrival at `now` under the configured policy.
    fn pick(&mut self, now: f64) -> usize {
        let n = self.config.shards;
        match self.config.route {
            RoutePolicy::RoundRobin => {
                let c = self.rr_next % n;
                self.rr_next = (self.rr_next + 1) % n;
                c
            }
            RoutePolicy::JoinShortestQueue => {
                let mut best = 0usize;
                let mut best_load = usize::MAX;
                for i in 0..n {
                    let load = self.engines[i].outstanding_tokens(now);
                    if load < best_load {
                        best = i;
                        best_load = load;
                    }
                }
                best
            }
            RoutePolicy::PowerOfTwo { .. } => {
                let a = (self.p2c.next_u64() % n as u64) as usize;
                let b = (self.p2c.next_u64() % n as u64) as usize;
                let (lo, hi) = (a.min(b), a.max(b));
                let lo_load = self.engines[lo].outstanding_tokens(now);
                let hi_load = self.engines[hi].outstanding_tokens(now);
                if hi_load < lo_load {
                    hi
                } else {
                    lo
                }
            }
        }
    }

    /// Routes a trace across the shards and drives them all to completion
    /// on one global virtual clock (see the module docs for the horizon
    /// rule). `make_exec` is called once per shard, in shard order, to
    /// build that shard's executor — mix seeds with [`shard_seed`] so
    /// shard 0 stays bit-identical to an unsharded run.
    ///
    /// # Panics
    /// Panics if request ids are not a permutation of `0..requests.len()`
    /// or an executor returns a non-finite or negative duration.
    pub fn run<E>(mut self, requests: &[TimedRequest], mut make_exec: impl FnMut(usize) -> E) -> ShardedReport
    where
        E: FnMut(&BatchMask) -> f64,
    {
        let mut order: Vec<TimedRequest> = requests.to_vec();
        order.sort_by(|a, b| a.arrival.partial_cmp(&b.arrival).expect("finite arrivals"));
        let n = order.len();
        let shards = self.config.shards;
        let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; n];
        let mut assignment: Vec<usize> = vec![usize::MAX; n];
        let mut execs: Vec<E> = (0..shards).map(&mut make_exec).collect();
        for r in &order {
            // Horizon rule: every shard catches up to this arrival's
            // instant before the routing decision reads any load signal.
            for (i, engine) in self.engines.iter_mut().enumerate() {
                engine.advance(r.arrival, &mut outcomes, &mut execs[i]);
            }
            let chosen = self.pick(r.arrival);
            let load = self.engines[chosen].outstanding_tokens(r.arrival);
            SHARD_OUTSTANDING.record(load as u64);
            assert!(
                assignment.get(r.id).copied() == Some(usize::MAX),
                "request ids must be a permutation of 0..n"
            );
            assignment[r.id] = chosen;
            if self.config.hot_shard_tokens > 0 && load + admission_weight(r.len) > self.config.hot_shard_tokens {
                SHARD_SHED_HOT.incr();
                self.shed_hot[chosen] += 1;
                record_router_shed(&mut outcomes, r.id, r.len, r.arrival);
            } else {
                SHARD_ROUTED.incr();
                self.routed[chosen] += 1;
                self.engines[chosen].offer(*r);
            }
        }
        for (i, engine) in self.engines.iter_mut().enumerate() {
            engine.advance(f64::INFINITY, &mut outcomes, &mut execs[i]);
        }
        let outcomes: Vec<RequestOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("every offered request has exactly one outcome"))
            .collect();
        let mut by_shard: Vec<Vec<RequestOutcome>> = vec![Vec::new(); shards];
        for o in &outcomes {
            by_shard[assignment[o.id]].push(*o);
        }
        let shard_reports: Vec<ServeReport> = by_shard
            .into_iter()
            .zip(&self.engines)
            .map(|(outcomes, engine)| engine.report(outcomes))
            .collect();
        debug_assert!(
            self.engines.iter().all(|e| !e.has_work()),
            "drain to an infinite horizon leaves no work behind"
        );
        ShardedReport {
            outcomes,
            assignment,
            shard_reports,
            route: self.config.route.label(),
        }
    }
}

/// Convenience entry point: builds a [`ShardRouter`] and runs the trace.
/// This is the sharded twin of
/// [`run_open_loop`](crate::server::run_open_loop); with `shards == 1` (and
/// the hot-shard gate off) its report is bit-identical to the unsharded
/// one under the same executor.
pub fn run_sharded_open_loop<E>(
    requests: &[TimedRequest],
    config: &ShardConfig,
    make_exec: impl FnMut(usize) -> E,
) -> ShardedReport
where
    E: FnMut(&BatchMask) -> f64,
{
    ShardRouter::new(*config).run(requests, make_exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::CutPolicy;
    use crate::server::run_open_loop;

    fn test_serve_config() -> ServeConfig {
        ServeConfig {
            policy: CutPolicy::TokenBudget { budget_tokens: 1024 },
            queue_capacity: 16,
            deadline: 0.5,
            max_len: 512,
            chunk_tokens: 0,
        }
    }

    fn synthetic_exec(_shard: usize) -> impl FnMut(&BatchMask) -> f64 {
        |mask: &BatchMask| 50e-6 + mask.valid_words() as f64 / 1e6
    }

    fn trace(n: usize, rate: f64, seed: u64) -> Vec<TimedRequest> {
        crate::serving::poisson_arrivals(
            n,
            rate,
            bt_varlen::workload::LengthDistribution::PaperUniform { alpha: 0.6 },
            256,
            seed,
        )
    }

    #[test]
    fn one_shard_matches_the_unsharded_server_bit_for_bit() {
        let reqs = trace(200, 2000.0, 7);
        let serve = test_serve_config();
        let base = run_open_loop(&reqs, &serve, synthetic_exec(0));
        for route in [
            RoutePolicy::RoundRobin,
            RoutePolicy::JoinShortestQueue,
            RoutePolicy::PowerOfTwo { seed: 11 },
        ] {
            let cfg = ShardConfig {
                route,
                ..ShardConfig::new(1, serve)
            };
            let sharded = run_sharded_open_loop(&reqs, &cfg, synthetic_exec);
            assert_eq!(sharded.outcomes, base.outcomes, "route {}", route.label());
            assert_eq!(sharded.shard_reports[0].batches, base.batches);
            assert_eq!(sharded.shard_reports[0].makespan, base.makespan);
        }
    }

    #[test]
    fn sharded_runs_are_deterministic_and_exact() {
        let reqs = trace(400, 8000.0, 21);
        let cfg = ShardConfig::new(4, test_serve_config());
        let a = run_sharded_open_loop(&reqs, &cfg, synthetic_exec);
        let b = run_sharded_open_loop(&reqs, &cfg, synthetic_exec);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.assignment, b.assignment);
        assert!(a.accounting_is_exact_across_shards());
        let offered: usize = a.shard_summaries().iter().map(|s| s.offered).sum();
        assert_eq!(offered, reqs.len());
    }

    #[test]
    fn round_robin_cycles_and_jsq_balances() {
        let reqs = trace(300, 6000.0, 3);
        let rr = run_sharded_open_loop(
            &reqs,
            &ShardConfig {
                route: RoutePolicy::RoundRobin,
                ..ShardConfig::new(3, test_serve_config())
            },
            synthetic_exec,
        );
        let counts: Vec<usize> = rr.shard_summaries().iter().map(|s| s.offered).collect();
        assert_eq!(counts, vec![100, 100, 100]);
        let jsq = run_sharded_open_loop(&reqs, &ShardConfig::new(3, test_serve_config()), synthetic_exec);
        let jsq_counts: Vec<usize> = jsq.shard_summaries().iter().map(|s| s.offered).collect();
        assert_eq!(jsq_counts.iter().sum::<usize>(), reqs.len());
        assert!(
            jsq_counts.iter().all(|&c| c > 0),
            "JSQ must spread load: {jsq_counts:?}"
        );
    }

    #[test]
    fn hot_shard_gate_sheds_and_stays_exact() {
        // A single shard with a tiny token ceiling under heavy load must
        // shed at routing time, and the ledger must still balance.
        let reqs = trace(200, 50_000.0, 9);
        let cfg = ShardConfig {
            hot_shard_tokens: 512,
            ..ShardConfig::new(1, test_serve_config())
        };
        let report = run_sharded_open_loop(&reqs, &cfg, synthetic_exec);
        let s = report.summary();
        assert!(s.shed_hot_shard > 0, "gate never fired: {s:?}");
        assert!(report.accounting_is_exact_across_shards());
    }

    #[test]
    fn snapshots_label_shards_and_merge_into_a_fleet_view() {
        let reqs = trace(240, 6000.0, 5);
        let report = run_sharded_open_loop(&reqs, &ShardConfig::new(2, test_serve_config()), synthetic_exec);
        let snaps = report.shard_snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].shard, "shard0");
        assert_eq!(snaps[1].shard, "shard1");
        let fleet = report.fleet_snapshot();
        let offered: u64 = snaps.iter().map(|s| s.delta(names::SERVE_OFFERED)).sum();
        assert_eq!(fleet.delta(names::SERVE_OFFERED), offered);
        assert_eq!(offered as usize, reqs.len());
        let served: u64 = fleet.delta(names::SERVE_SERVED);
        let lat = fleet
            .histogram(names::SERVE_LATENCY_US)
            .expect("fleet latency histogram present");
        assert_eq!(lat.count(), served);
    }

    #[test]
    fn shard_seed_is_identity_at_shard_zero() {
        assert_eq!(shard_seed(0xdead_beef, 0), 0xdead_beef);
        assert_ne!(shard_seed(0xdead_beef, 1), 0xdead_beef);
    }

    #[test]
    fn route_policy_parses_cli_spellings() {
        assert_eq!(RoutePolicy::parse("rr", 0), Some(RoutePolicy::RoundRobin));
        assert_eq!(RoutePolicy::parse("jsq", 0), Some(RoutePolicy::JoinShortestQueue));
        assert_eq!(
            RoutePolicy::parse("p2c", 42),
            Some(RoutePolicy::PowerOfTwo { seed: 42 })
        );
        assert_eq!(RoutePolicy::parse("nope", 0), None);
    }
}
