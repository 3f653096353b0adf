//! `bt-serve` — a continuous-batching server with token-budget admission
//! and graceful overload shedding.
//!
//! This is the serving-side half of the paper's zero-padding story: the
//! runtime (packed layouts, fused MHA, the persistent pool) makes batch
//! cost proportional to *valid tokens*, so the batcher should meter valid
//! tokens too. The server here does exactly that:
//!
//! * **Continuous batching** — no fixed windows: whenever the device is
//!   free and work is queued, the configured [`CutPolicy`] cuts the next
//!   batch from the queue (FIFO, TurboTransformers-style sorted groups, or
//!   the token-budget policy this module exists for).
//! * **Bounded ingress** — the queue holds at most `queue_capacity`
//!   requests; arrivals beyond that are rejected immediately with
//!   [`ShedReason::QueueFull`] (backpressure, not unbounded latency).
//! * **Deadlines with cancellation** — each request expires
//!   `deadline` seconds after arrival; expired requests are cancelled
//!   *while queued* ([`ShedReason::DeadlineExpired`]) instead of being
//!   served uselessly late.
//! * **Chunked execution** — with [`ServeConfig::chunk_tokens`] set, each
//!   cut batch runs as a sequence of shortest-first rounds of at most that
//!   many valid tokens, so short requests stop queueing behind the longest
//!   member of their batch; deadlines are re-checked **between rounds** and
//!   expired requests are cancelled mid-request with the distinct
//!   [`ShedReason::CancelledMidRequest`]. Instrumented as `serve.chunk.*`.
//! * **Exact accounting** — every offered request gets exactly one
//!   [`Outcome`]; `served + shed == offered` always
//!   ([`ServeSummary::accounting_is_exact`], asserted by the seeded stress
//!   suite).
//!
//! The loop itself — admit → deadline sweep → cut → chunk rounds → execute
//! → resolve — exists **once**, as `Engine::run`, generic over a single
//! seam: a `Front` that says where time, arrivals and outcomes come from
//! and go to. There are exactly two fronts:
//!
//! * the **virtual front** (trace-driven): arrivals come from a seeded
//!   generator ([`crate::serving::poisson_arrivals`] /
//!   [`crate::serving::bursty_arrivals`]), the clock advances by the
//!   executor's *modeled* batch time, and outcomes land in an id-indexed
//!   ledger — so shed/served accounting and latency percentiles are
//!   bit-identical across runs. [`run_open_loop`] drives one engine to an
//!   infinite horizon (the stress test, `BENCH_serve.json`, `btx serve`);
//!   [`crate::shard::run_sharded_open_loop`] interleaves N of them on one
//!   global clock behind a shard router (round-robin, join-shortest-queue,
//!   or power-of-two-choices by outstanding valid tokens, with a hot-shard
//!   work-shedding gate, [`ShedReason::HotShard`]).
//! * the **wall front** (channel-driven): producers submit over a bounded
//!   MPSC channel ([`std::sync::mpsc::sync_channel`]), time is an
//!   [`Instant`] epoch, outcomes leave on a result channel. [`Server`] is
//!   this front plus one thread that calls the engine; batch execution runs
//!   on the persistent launch pool (the forwards' internal
//!   `parallel_for` fan-outs).
//!
//! Everything is instrumented with `bt-obs`: queue-depth, batch-occupancy,
//! batch-token and time-in-queue histograms, per-reason shed counters, and
//! `serve.batch` / `serve.batch.forward` spans — all named from the
//! canonical [`bt_obs::names`] table. The engine additionally tags every
//! request's lifecycle (`req.enqueue` → `req.admit` → `req.round` →
//! `req.exec.done` → `req.done` / `req.shed.<reason>`) with a
//! [`bt_obs::TraceId`], so a drained profile reconstructs per-request
//! causal timelines via `bt_obs::trace::reconstruct`. The virtual front
//! stamps marks with its *simulated* clock, making trace phase breakdowns
//! reconcile exactly with the [`ServeReport`] ledger; the wall front stamps
//! wall time.
//!
//! ```
//! use bt_frameworks::server::{run_open_loop, ServeConfig};
//! use bt_frameworks::admission::CutPolicy;
//! use bt_frameworks::serving::poisson_arrivals;
//! use bt_varlen::workload::LengthDistribution;
//!
//! let requests = poisson_arrivals(64, 500.0, LengthDistribution::PaperUniform { alpha: 0.6 }, 64, 7);
//! let config = ServeConfig {
//!     policy: CutPolicy::TokenBudget { budget_tokens: 256 },
//!     queue_capacity: 16,
//!     deadline: 0.05,
//!     max_len: 64,
//!     chunk_tokens: 0,
//! };
//! // Executor returns the modeled batch duration; here a toy linear cost.
//! let report = run_open_loop(&requests, &config, |mask| mask.valid_words() as f64 * 1e-5);
//! let summary = report.summary();
//! assert!(summary.accounting_is_exact());
//! assert_eq!(summary.offered, 64);
//! ```

use crate::admission::{admission_weight, batch_mask, cut_width, CutPolicy, Pending, ShedReason};
use crate::serving::{latency_stats, LatencyStats, TimedRequest};
use bt_obs::{names, LabelId, TraceId};
use bt_varlen::BatchMask;
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::time::Instant;

pub use bt_varlen::workload::masked_randn;

/// Requests offered to the server (admitted or not).
static OFFERED: bt_obs::Counter = bt_obs::Counter::new(names::SERVE_OFFERED);
/// Requests served to completion.
static SERVED: bt_obs::Counter = bt_obs::Counter::new(names::SERVE_SERVED);
/// Requests shed at the ingress gate (bounded queue full).
static SHED_QUEUE_FULL: bt_obs::Counter = bt_obs::Counter::new(names::SERVE_SHED_QUEUE_FULL);
/// Requests cancelled in the queue after their deadline expired.
static SHED_DEADLINE: bt_obs::Counter = bt_obs::Counter::new(names::SERVE_SHED_DEADLINE);
/// Requests rejected for exceeding the runtime's maximum length.
static SHED_TOO_LONG: bt_obs::Counter = bt_obs::Counter::new(names::SERVE_SHED_TOO_LONG);
/// Requests shed because the paged KV-cache pool was exhausted.
static SHED_CACHE_OOM: bt_obs::Counter = bt_obs::Counter::new(names::SERVE_SHED_CACHE_OOM);
/// Requests cancelled between chunk rounds by a per-chunk deadline check.
static SHED_CANCELLED: bt_obs::Counter = bt_obs::Counter::new(names::SERVE_SHED_CANCELLED);
/// Requests the shard router refused to place on an overloaded shard.
static SHED_HOT_SHARD: bt_obs::Counter = bt_obs::Counter::new(names::SERVE_SHED_HOT_SHARD);
/// Batches executed.
static BATCHES: bt_obs::Counter = bt_obs::Counter::new(names::SERVE_BATCHES);
/// Chunk rounds planned for cut batches (chunked mode only).
static CHUNK_ROUNDS: bt_obs::Counter = bt_obs::Counter::new(names::SERVE_CHUNK_ROUNDS);
/// Requests cancelled between chunk rounds (same events as
/// `serve.shed.cancelled_mid_request`, namespaced with the chunk metrics).
static CHUNK_CANCELLED: bt_obs::Counter = bt_obs::Counter::new(names::SERVE_CHUNK_CANCELLED);
/// Valid tokens per executed chunk round (chunked mode only).
static CHUNK_TOKENS: bt_obs::Histogram = bt_obs::Histogram::new(names::SERVE_CHUNK_TOKENS);
/// Queue depth sampled after every admission decision.
static QUEUE_DEPTH: bt_obs::Histogram = bt_obs::Histogram::new(names::SERVE_QUEUE_DEPTH);
/// Requests per executed batch.
static OCCUPANCY: bt_obs::Histogram = bt_obs::Histogram::new(names::SERVE_BATCH_OCCUPANCY);
/// Valid tokens per executed batch (what a token budget meters).
static BATCH_TOKENS: bt_obs::Histogram = bt_obs::Histogram::new(names::SERVE_BATCH_TOKENS);
/// Time spent queued before the batch started, in microseconds.
static TIME_IN_QUEUE_US: bt_obs::Histogram = bt_obs::Histogram::new(names::SERVE_QUEUE_WAIT_US);

/// Virtual-clock seconds → trace-mark nanoseconds. Rounding (not
/// truncating) keeps phase sums reconciled with the ledger's `f64`
/// arithmetic to within a nanosecond.
pub(crate) fn vns(t: f64) -> u64 {
    (t * 1e9).round() as u64
}

/// Server configuration: cutting policy plus the three overload guards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// How batches are cut from the queue.
    pub policy: CutPolicy,
    /// Bounded ingress queue capacity, in requests.
    pub queue_capacity: usize,
    /// Per-request deadline in seconds from arrival (`f64::INFINITY`
    /// disables expiry). A request whose batch has not *started* by its
    /// deadline is cancelled and shed.
    pub deadline: f64,
    /// Longest sequence the runtime accepts; longer requests are shed with
    /// [`ShedReason::TooLong`] instead of being admitted.
    pub max_len: usize,
    /// Chunked execution: split each cut batch into rounds of at most this
    /// many valid tokens, shortest request first, re-checking deadlines
    /// between rounds ([`ShedReason::CancelledMidRequest`]). `0` executes
    /// the whole batch in one round (the pre-chunking behavior); `btx serve
    /// --chunk` sets it. A round is a sub-batch of whole requests, and the
    /// packed forward computes each request independently of its batch
    /// mates, and every round is padded to its cut's width so it takes the
    /// cut's MHA kernel: rounds change latency, not output bits
    /// (`tests/differential_streaming.rs`).
    pub chunk_tokens: usize,
}

impl ServeConfig {
    fn validate(&self) {
        assert!(self.queue_capacity > 0, "queue_capacity must be positive");
        assert!(self.deadline > 0.0, "deadline must be positive");
        assert!(self.max_len > 0, "max_len must be positive");
    }
}

/// Final disposition of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// The request's batch completed.
    Served {
        /// Seconds spent queued before its batch started.
        queue_wait: f64,
        /// Completion minus arrival, in seconds.
        latency: f64,
    },
    /// The request was rejected or cancelled.
    Shed {
        /// Why it was shed.
        reason: ShedReason,
        /// Seconds spent queued before the shed decision (zero for
        /// ingress-gate rejections).
        wait: f64,
    },
}

/// One request's identity, size, and [`Outcome`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// Caller-assigned request id.
    pub id: usize,
    /// Valid-token count.
    pub len: usize,
    /// What happened to it.
    pub outcome: Outcome,
}

impl RequestOutcome {
    /// True when the request was served to completion.
    pub fn served(&self) -> bool {
        matches!(self.outcome, Outcome::Served { .. })
    }
}

/// Everything one serving run observed.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-request outcomes, indexed by request id.
    pub outcomes: Vec<RequestOutcome>,
    /// Batches executed.
    pub batches: usize,
    /// Completion time of the last batch (seconds from the first arrival
    /// epoch); zero if nothing was served.
    pub makespan: f64,
}

impl ServeReport {
    /// Aggregates the run into counts, latency percentiles and goodput.
    pub fn summary(&self) -> ServeSummary {
        let mut s = ServeSummary {
            offered: self.outcomes.len(),
            served: 0,
            shed_queue_full: 0,
            shed_deadline: 0,
            shed_too_long: 0,
            shed_cache_oom: 0,
            shed_cancelled: 0,
            shed_hot_shard: 0,
            batches: self.batches,
            served_tokens: 0,
            makespan: self.makespan,
            served_latency: latency_stats(&[]),
        };
        let mut latencies = Vec::new();
        for r in &self.outcomes {
            match r.outcome {
                Outcome::Served { latency, .. } => {
                    s.served += 1;
                    s.served_tokens += r.len.max(1);
                    latencies.push(latency);
                }
                Outcome::Shed { reason, .. } => match reason {
                    ShedReason::QueueFull => s.shed_queue_full += 1,
                    ShedReason::DeadlineExpired => s.shed_deadline += 1,
                    ShedReason::TooLong => s.shed_too_long += 1,
                    ShedReason::CacheOom => s.shed_cache_oom += 1,
                    ShedReason::CancelledMidRequest => s.shed_cancelled += 1,
                    ShedReason::HotShard => s.shed_hot_shard += 1,
                },
            }
        }
        s.served_latency = latency_stats(&latencies);
        s
    }
}

/// Aggregate view of a serving run (see [`ServeReport::summary`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSummary {
    /// Requests offered (served + shed).
    pub offered: usize,
    /// Requests served to completion.
    pub served: usize,
    /// Shed at the ingress gate (queue full).
    pub shed_queue_full: usize,
    /// Cancelled after deadline expiry.
    pub shed_deadline: usize,
    /// Rejected as longer than the runtime supports.
    pub shed_too_long: usize,
    /// Shed because the paged KV-cache pool could not hold the request
    /// (decode path only; always zero for encoder-only runs).
    pub shed_cache_oom: usize,
    /// Cancelled mid-request by a per-chunk deadline check (chunked mode
    /// only; always zero when `chunk_tokens == 0`).
    pub shed_cancelled: usize,
    /// Shed by the shard router's hot-shard gate (sharded runs only; always
    /// zero for a single unsharded server).
    pub shed_hot_shard: usize,
    /// Batches executed.
    pub batches: usize,
    /// Valid tokens across served requests.
    pub served_tokens: usize,
    /// Completion time of the last batch, in seconds.
    pub makespan: f64,
    /// Latency percentiles over *served* requests only.
    pub served_latency: LatencyStats,
}

impl ServeSummary {
    /// Total shed requests across all reasons.
    pub fn shed(&self) -> usize {
        self.shed_queue_full
            + self.shed_deadline
            + self.shed_too_long
            + self.shed_cache_oom
            + self.shed_cancelled
            + self.shed_hot_shard
    }

    /// The invariant the stress suite enforces: every offered request has
    /// exactly one outcome.
    pub fn accounting_is_exact(&self) -> bool {
        self.served + self.shed() == self.offered
    }

    /// Served valid tokens per second of makespan — the throughput that
    /// *mattered* (shed work does not count).
    pub fn goodput_tokens_per_sec(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.served_tokens as f64 / self.makespan
    }
}

/// An executor for [`run_open_loop`] that runs **real** framework forwards:
/// each batch synthesizes a masked random input, executes `fw.forward` on a
/// fresh device (so per-batch modeled time is isolated), and returns the
/// modeled device seconds. The forwards' internal `parallel_for` fan-outs
/// run on the persistent launch pool.
pub fn modeled_forward_executor(
    fw: &crate::SimFramework,
    cost: bt_device::CostModel,
    seed: u64,
) -> impl FnMut(&BatchMask) -> f64 + '_ {
    let mut batch_no: u64 = 0;
    move |mask| {
        let input = masked_randn(
            mask,
            fw.model.config.hidden(),
            seed ^ batch_no.wrapping_mul(0x9e37_79b9),
        );
        batch_no += 1;
        let device = fw.device(cost);
        fw.forward(&device, &input, mask)
            .expect("server admission bounds request lengths to supported shapes");
        device.modeled_total()
    }
}

/// Request-lifecycle trace marks the engine stamps through
/// [`Front::mark`] (terminal `req.shed.<reason>` labels live on
/// [`ShedReason::trace_label`]).
static ENQUEUE: LabelId = LabelId::new(names::REQ_ENQUEUE);
static ADMIT: LabelId = LabelId::new(names::REQ_ADMIT);
static ROUND: LabelId = LabelId::new(names::REQ_ROUND);
static EXEC_DONE: LabelId = LabelId::new(names::REQ_EXEC_DONE);
static DONE: LabelId = LabelId::new(names::REQ_DONE);

/// The per-reason shed counter.
fn shed_counter(reason: ShedReason) -> &'static bt_obs::Counter {
    match reason {
        ShedReason::QueueFull => &SHED_QUEUE_FULL,
        ShedReason::DeadlineExpired => &SHED_DEADLINE,
        ShedReason::TooLong => &SHED_TOO_LONG,
        ShedReason::CacheOom => &SHED_CACHE_OOM,
        ShedReason::CancelledMidRequest => &SHED_CANCELLED,
        ShedReason::HotShard => &SHED_HOT_SHARD,
    }
}

/// Writes one request's final outcome into the id-indexed virtual-time
/// ledger.
fn fill_slot(outcomes: &mut [Option<RequestOutcome>], id: usize, len: usize, outcome: Outcome) {
    let slot = outcomes.get_mut(id).expect("request ids must be a permutation of 0..n");
    assert!(slot.is_none(), "request id {id} offered twice");
    *slot = Some(RequestOutcome { id, len, outcome });
}

/// Records a router-level shed: the request was offered to the system
/// (counted against `serve.offered`, `req.enqueue` stamped) but the shard
/// router refused to place it on a hot shard, so no shard's engine ever
/// saw it. Keeps the global ledger exact from the router's side.
pub(crate) fn record_router_shed(outcomes: &mut [Option<RequestOutcome>], id: usize, len: usize, t: f64) {
    let (tid, reason) = (TraceId::from_request(id), ShedReason::HotShard);
    OFFERED.incr();
    bt_obs::trace_mark_at(tid, &ENQUEUE, vns(t));
    shed_counter(reason).incr();
    fill_slot(outcomes, id, len, Outcome::Shed { reason, wait: 0.0 });
    bt_obs::trace_mark_at(tid, reason.trace_label(), vns(t));
}

/// Splits a cut batch into execution rounds of at most `chunk_tokens`
/// valid tokens each, **shortest request first** (`0` keeps the whole
/// batch as a single round). Short requests therefore finish in early
/// rounds instead of waiting on the longest member of the cut — the
/// head-of-line-blocking fix the chunked pipeline exists for. A request
/// longer than `chunk_tokens` still runs, alone in its own round.
fn plan_rounds(mut batch: Vec<Pending>, chunk_tokens: usize) -> Vec<Vec<Pending>> {
    if chunk_tokens == 0 || batch.len() <= 1 {
        return vec![batch];
    }
    batch.sort_by(|a, b| a.len.cmp(&b.len).then(a.id.cmp(&b.id)));
    let mut rounds: Vec<Vec<Pending>> = Vec::new();
    let mut round: Vec<Pending> = Vec::new();
    let mut tokens = 0usize;
    for p in batch {
        let cost = p.len.max(1);
        if !round.is_empty() && tokens + cost > chunk_tokens {
            rounds.push(std::mem::take(&mut round));
            tokens = 0;
        }
        tokens += cost;
        round.push(p);
    }
    rounds.push(round);
    rounds
}

/// What a [`Front`] answers when the engine asks for the next arrival.
enum Ingress {
    /// A request that has arrived by the front's current instant.
    Arrival(TimedRequest),
    /// Nothing more has arrived yet; carry on with what is queued.
    Drained,
    /// [`Engine::run`] must return: the ingress hung up and is drained
    /// (wall), or the trace is exhausted or the next acting instant is at
    /// or past the horizon (virtual).
    Closed,
}

/// The engine's one seam: where time, arrivals and outcomes come from and
/// go to. All times are seconds from the front's epoch. Two
/// implementations exist — [`VirtualFront`] (trace, simulated clock,
/// ledger) and [`WallFront`] (channels, [`Instant`]) — and a test can
/// script a third.
trait Front {
    /// The current instant.
    fn now(&self) -> f64;
    /// The executor just ran a round of `tokens` valid tokens and reported
    /// `duration` seconds.
    fn ran(&mut self, duration: f64, tokens: usize);
    /// The next request that has arrived by [`Front::now`]. `idle` is true
    /// on the first call of a loop iteration that starts with nothing
    /// queued: the front then blocks, or jumps its clock, until something
    /// arrives.
    fn next_arrival(&mut self, idle: bool) -> Ingress;
    /// Hands `p`'s final outcome to whoever is waiting for it.
    fn deliver(&mut self, p: &Pending, outcome: Outcome);
    /// Stamps a lifecycle mark on request `id`'s trace for the instant `t`.
    fn mark(&self, id: usize, label: &'static LabelId, t: f64);
}

/// Counts, delivers and stamps the terminal mark of one final outcome.
fn resolve(front: &mut impl Front, p: &Pending, outcome: Outcome, t: f64) {
    let label = match outcome {
        Outcome::Served { .. } => {
            SERVED.incr();
            &DONE
        }
        Outcome::Shed { reason, .. } => {
            shed_counter(reason).incr();
            reason.trace_label()
        }
    };
    front.deliver(p, outcome);
    front.mark(p.id, label, t);
}

/// `retain` predicate for deadline checks: true while `p` may still run at
/// `now`; otherwise sheds it with `reason`.
fn within_deadline(front: &mut impl Front, p: &Pending, now: f64, reason: ShedReason) -> bool {
    let expired = p.deadline < now;
    if expired {
        let wait = now - p.arrival;
        resolve(front, p, Outcome::Shed { reason, wait }, now);
    }
    !expired
}

/// The continuous-batching engine: the admitted queue plus the loop that
/// drains it. The only definition of the admit → sweep → cut → rounds →
/// execute → resolve loop; everything clock- or transport-specific is
/// behind its [`Front`].
struct Engine {
    config: ServeConfig,
    queue: VecDeque<Pending>,
    /// Rounds executed so far.
    batches: usize,
}

impl Engine {
    fn new(config: ServeConfig) -> Engine {
        config.validate();
        Engine {
            config,
            queue: VecDeque::new(),
            batches: 0,
        }
    }

    /// Runs the loop until the front closes:
    /// 1. admit every arrival up to now (gate-shedding
    ///    [`ShedReason::TooLong`] and, once the bounded queue is full,
    ///    [`ShedReason::QueueFull`]);
    /// 2. cancel queued requests whose deadline passed (a request whose
    ///    deadline equals the batch start still runs);
    /// 3. cut the next batch with the configured policy and execute it — as
    ///    a single forward, or as shortest-first chunk rounds when
    ///    [`ServeConfig::chunk_tokens`] is set, cancelling requests whose
    ///    deadline passes between rounds;
    /// 4. repeat; with nothing queued the front blocks or jumps to the next
    ///    arrival.
    ///
    /// Once a batch is cut its rounds run to completion: arrivals are not
    /// looked at mid-batch.
    fn run(&mut self, front: &mut impl Front, exec: &mut impl FnMut(&BatchMask) -> f64) {
        let config = self.config;
        loop {
            let mut idle = self.queue.is_empty();
            loop {
                let r = match front.next_arrival(idle) {
                    Ingress::Arrival(r) => r,
                    Ingress::Drained => break,
                    Ingress::Closed => return,
                };
                idle = false;
                OFFERED.incr();
                let p = Pending {
                    id: r.id,
                    len: r.len,
                    arrival: r.arrival,
                    deadline: r.arrival + config.deadline,
                };
                let gate = |reason| Outcome::Shed { reason, wait: 0.0 };
                if p.len > config.max_len {
                    resolve(front, &p, gate(ShedReason::TooLong), p.arrival);
                } else if self.queue.len() >= config.queue_capacity {
                    // On the wall front the channel bound already pushed
                    // back on producers; this gate keeps the *internal*
                    // queue within the configured bound even after a drain.
                    resolve(front, &p, gate(ShedReason::QueueFull), p.arrival);
                } else {
                    front.mark(p.id, &ADMIT, p.arrival);
                    self.queue.push_back(p);
                }
                QUEUE_DEPTH.record(self.queue.len() as u64);
            }
            let now = front.now();
            self.queue
                .retain(|p| within_deadline(front, p, now, ShedReason::DeadlineExpired));
            if self.queue.is_empty() {
                continue;
            }
            let _batch_span = bt_obs::span!("serve.batch");
            let cut = config.policy.cut_next_batch(&mut self.queue);
            let width = cut_width(&cut);
            let rounds = plan_rounds(cut, config.chunk_tokens);
            if config.chunk_tokens != 0 {
                CHUNK_ROUNDS.add(rounds.len() as u64);
            }
            for (round_no, mut round) in rounds.into_iter().enumerate() {
                // Per-chunk deadline check: a request scheduled into a later
                // round may have expired while the earlier rounds ran. Its
                // batch was cut but its own forward never started — cancel it
                // with the mid-request reason, distinct from queue expiry.
                // (Round 0 starts at the instant the queue sweep used, so it
                // needs no re-check: with `chunk_tokens == 0` this loop is
                // exactly the single-round pre-chunking path.)
                if round_no > 0 {
                    let now = front.now();
                    round.retain(|p| {
                        let alive = within_deadline(front, p, now, ShedReason::CancelledMidRequest);
                        if !alive {
                            CHUNK_CANCELLED.incr();
                        }
                        alive
                    });
                }
                if round.is_empty() {
                    continue;
                }
                let _chunk_span = bt_obs::span!("serve.chunk");
                let mask = batch_mask(&round, width).expect("a round fits its cut's width");
                BATCHES.incr();
                OCCUPANCY.record(round.len() as u64);
                BATCH_TOKENS.record(mask.valid_words() as u64);
                if config.chunk_tokens != 0 {
                    CHUNK_TOKENS.record(mask.valid_words() as u64);
                }
                let start = front.now();
                for p in &round {
                    TIME_IN_QUEUE_US.record(((start - p.arrival) * 1e6) as u64);
                    front.mark(p.id, &ROUND, start);
                }
                let duration = {
                    let _span = bt_obs::span!("serve.batch.forward");
                    exec(&mask)
                };
                assert!(
                    duration.is_finite() && duration >= 0.0,
                    "executor must return a finite non-negative duration, got {duration}"
                );
                front.ran(duration, mask.valid_words());
                let done = front.now();
                for p in &round {
                    front.mark(p.id, &EXEC_DONE, done);
                    let served = Outcome::Served {
                        queue_wait: start - p.arrival,
                        latency: done - p.arrival,
                    };
                    resolve(front, p, served, done);
                }
                self.batches += 1;
            }
        }
    }
}

/// The virtual front's state that outlives one [`OpenLoopShard::advance`]
/// call: the routed sub-trace and the simulated clock.
struct VirtualTime {
    /// Routed arrivals not yet admitted, in global arrival order.
    pending: VecDeque<TimedRequest>,
    clock: f64,
    /// Executed rounds still in flight at a given instant: `(done, tokens)`
    /// entries, pruned by time in [`OpenLoopShard::outstanding_tokens`].
    inflight: VecDeque<(f64, usize)>,
    makespan: f64,
}

/// The trace-driven [`Front`]: arrivals pop off the shard's sub-trace, the
/// clock advances by the executor's reported durations, outcomes land in
/// the id-indexed ledger and marks carry the simulated instant.
///
/// It only **acts** at instants strictly before `horizon`. The router sets
/// the horizon to the next *unrouted* global arrival time, which guarantees
/// every global arrival at or before a batch cut has been routed (and
/// offered to its shard) before that cut happens — so a single shard
/// driven to `horizon = ∞` is the monolithic loop. That is what makes
/// `--shards 1` bit-identical to the unsharded server, and it is pinned by
/// `tests/shard_stress.rs`.
struct VirtualFront<'a> {
    time: &'a mut VirtualTime,
    horizon: f64,
    outcomes: &'a mut [Option<RequestOutcome>],
}

impl Front for VirtualFront<'_> {
    fn now(&self) -> f64 {
        self.time.clock
    }

    fn ran(&mut self, duration: f64, tokens: usize) {
        let t = &mut *self.time;
        t.clock += duration;
        t.inflight.push_back((t.clock, tokens));
        t.makespan = t.makespan.max(t.clock);
    }

    fn next_arrival(&mut self, idle: bool) -> Ingress {
        let t = &mut *self.time;
        // The instant the engine would act: its own clock while work is
        // queued, else a jump to the next routed arrival.
        let act = match t.pending.front() {
            Some(r) if idle => t.clock.max(r.arrival),
            None if idle => return Ingress::Closed,
            _ => t.clock,
        };
        if act >= self.horizon {
            return Ingress::Closed;
        }
        t.clock = act;
        match t.pending.front() {
            Some(&r) if r.arrival <= act => {
                t.pending.pop_front();
                self.mark(r.id, &ENQUEUE, r.arrival);
                Ingress::Arrival(r)
            }
            _ => Ingress::Drained,
        }
    }

    fn deliver(&mut self, p: &Pending, outcome: Outcome) {
        fill_slot(self.outcomes, p.id, p.len, outcome);
    }

    fn mark(&self, id: usize, label: &'static LabelId, t: f64) {
        bt_obs::trace_mark_at(TraceId::from_request(id), label, vns(t));
    }
}

/// One engine on the virtual front, driven incrementally so the shard
/// router ([`crate::shard`]) can interleave N independent instances on one
/// global virtual clock: [`OpenLoopShard::offer`] appends a routed arrival
/// to the shard's private sub-trace, [`OpenLoopShard::advance`] runs the
/// engine up to a horizon.
pub(crate) struct OpenLoopShard {
    engine: Engine,
    time: VirtualTime,
}

impl OpenLoopShard {
    pub(crate) fn new(config: ServeConfig) -> OpenLoopShard {
        OpenLoopShard {
            engine: Engine::new(config),
            time: VirtualTime {
                pending: VecDeque::new(),
                clock: 0.0,
                inflight: VecDeque::new(),
                makespan: 0.0,
            },
        }
    }

    /// Routes one arrival onto this shard. Arrivals must be offered in
    /// non-decreasing arrival order (the router processes the global trace
    /// sorted by arrival).
    pub(crate) fn offer(&mut self, r: TimedRequest) {
        self.time.pending.push_back(r);
    }

    /// Valid tokens this shard is responsible for at instant `now`: routed
    /// but unadmitted arrivals, queued requests, and executed rounds whose
    /// modeled completion lies after `now`. This is the load signal the
    /// join-shortest-queue and power-of-two-choices policies compare.
    pub(crate) fn outstanding_tokens(&mut self, now: f64) -> usize {
        let t = &mut self.time;
        while t.inflight.front().is_some_and(|&(done, _)| done <= now) {
            t.inflight.pop_front();
        }
        let pending: usize = t.pending.iter().map(|r| admission_weight(r.len)).sum();
        let queued: usize = self.engine.queue.iter().map(|p| admission_weight(p.len)).sum();
        let inflight: usize = t.inflight.iter().map(|&(_, tokens)| tokens).sum();
        pending + queued + inflight
    }

    /// True while the shard still has unadmitted or queued work.
    pub(crate) fn has_work(&self) -> bool {
        !self.time.pending.is_empty() || !self.engine.queue.is_empty()
    }

    /// This shard's report over the outcomes attributed to it.
    pub(crate) fn report(&self, outcomes: Vec<RequestOutcome>) -> ServeReport {
        ServeReport {
            outcomes,
            batches: self.engine.batches,
            makespan: self.time.makespan,
        }
    }

    /// Runs the engine up to (but excluding) `horizon`. Only the *cut
    /// instant* is gated by the horizon — once a batch is cut its rounds
    /// run to completion even past it.
    pub(crate) fn advance(
        &mut self,
        horizon: f64,
        outcomes: &mut [Option<RequestOutcome>],
        exec: &mut impl FnMut(&BatchMask) -> f64,
    ) {
        let mut front = VirtualFront {
            time: &mut self.time,
            horizon,
            outcomes,
        };
        self.engine.run(&mut front, exec);
    }
}

/// Runs the continuous-batching server over a pre-generated open-loop
/// arrival trace in **virtual time**: the clock advances by the executor's
/// returned batch duration (typically modeled device seconds), so the whole
/// run — batches formed, requests shed, every latency — is deterministic
/// for a fixed trace and executor. It is the same engine the threaded
/// [`Server`] runs, on the trace-driven front, driven to an infinite
/// horizon; the multi-shard router
/// ([`crate::shard::run_sharded_open_loop`]) drives N of them.
///
/// # Panics
/// Panics if request ids are not a permutation of `0..requests.len()`, if
/// the executor returns a non-finite or negative duration, or on an invalid
/// [`ServeConfig`].
pub fn run_open_loop(
    requests: &[TimedRequest],
    config: &ServeConfig,
    mut exec: impl FnMut(&BatchMask) -> f64,
) -> ServeReport {
    let mut order: Vec<TimedRequest> = requests.to_vec();
    order.sort_by(|a, b| a.arrival.partial_cmp(&b.arrival).expect("finite arrivals"));
    let n = order.len();
    let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; n];
    let mut shard = OpenLoopShard::new(*config);
    for r in order {
        shard.offer(r);
    }
    shard.advance(f64::INFINITY, &mut outcomes, &mut exec);
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("every offered request has exactly one outcome"));
    shard.report(outcomes.collect())
}

/// A submission into the threaded server's bounded MPSC ingress.
#[derive(Debug)]
struct Submission {
    id: usize,
    len: usize,
    submitted: Instant,
}

/// A cloneable producer handle onto the server's bounded ingress queue.
///
/// [`IngressHandle::try_submit`] applies backpressure: when the bounded
/// channel is full the submission is rejected immediately with
/// [`ShedReason::QueueFull`] — the caller owns that shed outcome (the
/// request never reached the server, so it appears in no [`ServeReport`]).
#[derive(Debug, Clone)]
pub struct IngressHandle {
    tx: SyncSender<Submission>,
}

impl IngressHandle {
    /// Offers a request; rejects with [`ShedReason::QueueFull`] when the
    /// bounded ingress is full, or with a disconnect error message if the
    /// server already shut down.
    ///
    /// # Errors
    /// `Err(Some(QueueFull))` on backpressure, `Err(None)` if the server is
    /// gone.
    pub fn try_submit(&self, id: usize, len: usize) -> Result<(), Option<ShedReason>> {
        let tid = TraceId::from_request(id);
        bt_obs::trace_mark(tid, &ENQUEUE);
        let submitted = Instant::now();
        match self.tx.try_send(Submission { id, len, submitted }) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => {
                bt_obs::trace_mark(tid, ShedReason::QueueFull.trace_label());
                Err(Some(ShedReason::QueueFull))
            }
            Err(TrySendError::Disconnected(_)) => Err(None),
        }
    }
}

/// The channel-driven [`Front`]: arrivals come off the bounded ingress
/// channel, time is seconds since `epoch`, outcomes leave on the result
/// channel and marks carry the telemetry wall clock.
struct WallFront {
    epoch: Instant,
    ingress: Receiver<Submission>,
    results: Sender<RequestOutcome>,
}

impl WallFront {
    /// The epoch is the instant of construction, so it precedes every
    /// submission made through a handle handed out afterwards.
    fn new(ingress: Receiver<Submission>, results: Sender<RequestOutcome>) -> WallFront {
        WallFront {
            epoch: Instant::now(),
            ingress,
            results,
        }
    }
}

impl Front for WallFront {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// The wall clock moved by itself while the executor ran.
    fn ran(&mut self, _duration: f64, _tokens: usize) {}

    fn next_arrival(&mut self, idle: bool) -> Ingress {
        let s = if idle {
            // Block until work arrives or every producer hung up.
            match self.ingress.recv() {
                Ok(s) => s,
                Err(_) => return Ingress::Closed,
            }
        } else {
            match self.ingress.try_recv() {
                Ok(s) => s,
                Err(_) => return Ingress::Drained,
            }
        };
        Ingress::Arrival(TimedRequest {
            id: s.id,
            len: s.len,
            arrival: s.submitted.saturating_duration_since(self.epoch).as_secs_f64(),
        })
    }

    fn deliver(&mut self, p: &Pending, outcome: Outcome) {
        let _ = self.results.send(RequestOutcome {
            id: p.id,
            len: p.len,
            outcome,
        });
    }

    fn mark(&self, id: usize, label: &'static LabelId, _t: f64) {
        bt_obs::trace_mark(TraceId::from_request(id), label);
    }
}

/// The multi-threaded continuous-batching server: a bounded MPSC ingress
/// feeding one server thread that runs the same engine as
/// [`run_open_loop`], in wall-clock time, executing batches on the
/// persistent pool.
///
/// Lifecycle: [`Server::spawn`] → clone [`Server::handle`] into producer
/// threads → drop all handles → [`Server::finish`] to join and collect
/// outcomes. Outcomes for requests the handles rejected (`QueueFull`
/// backpressure) are owned by the producers; `finish` returns outcomes for
/// every request that entered the channel — the two partitions together
/// account for every offered request exactly once.
#[derive(Debug)]
pub struct Server {
    handle: IngressHandle,
    results: Receiver<RequestOutcome>,
    worker: std::thread::JoinHandle<usize>,
}

impl Server {
    /// Starts the server thread with the given configuration and batch
    /// executor (wall time; the executor's internal parallelism runs on the
    /// persistent pool).
    pub fn spawn(config: ServeConfig, mut exec: impl FnMut(&BatchMask) + Send + 'static) -> Server {
        let mut engine = Engine::new(config);
        let (tx, rx) = std::sync::mpsc::sync_channel::<Submission>(config.queue_capacity);
        let (result_tx, results) = std::sync::mpsc::channel::<RequestOutcome>();
        // Built here, not on the worker: a request submitted before the
        // thread's first instruction must still arrive after the epoch.
        let mut front = WallFront::new(rx, result_tx);
        let worker = std::thread::spawn(move || {
            engine.run(&mut front, &mut |mask| {
                exec(mask);
                0.0 // unused: `WallFront::ran` reads the wall clock instead
            });
            engine.batches
        });
        Server {
            handle: IngressHandle { tx },
            results,
            worker,
        }
    }

    /// A cloneable producer handle. Drop every clone (and stop using the
    /// server's own) before [`Server::finish`], or the server thread will
    /// keep waiting for more work.
    pub fn handle(&self) -> IngressHandle {
        self.handle.clone()
    }

    /// Shuts down: closes the server's own ingress reference, waits for the
    /// server thread to drain and exit, and returns every outcome it
    /// produced plus the number of batches executed.
    ///
    /// # Panics
    /// Panics if the server thread panicked.
    pub fn finish(self) -> (Vec<RequestOutcome>, usize) {
        let Server {
            handle,
            results,
            worker,
        } = self;
        drop(handle);
        let mut outcomes = Vec::new();
        // recv drains until the worker drops its result sender (exit).
        while let Ok(r) = results.recv() {
            outcomes.push(r);
        }
        let batches = worker.join().expect("server thread must not panic");
        (outcomes, batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::poisson_arrivals;
    use bt_varlen::workload::LengthDistribution;

    fn arrivals(lens_and_times: &[(usize, f64)]) -> Vec<TimedRequest> {
        lens_and_times
            .iter()
            .enumerate()
            .map(|(id, &(len, arrival))| TimedRequest { id, len, arrival })
            .collect()
    }

    fn ample() -> ServeConfig {
        ServeConfig {
            policy: CutPolicy::Fifo { max_batch: 4 },
            queue_capacity: 64,
            deadline: f64::INFINITY,
            max_len: 1024,
            chunk_tokens: 0,
        }
    }

    #[test]
    fn everything_served_under_light_load() {
        let reqs = arrivals(&[(8, 0.0), (16, 0.0), (4, 5.0), (2, 5.0)]);
        let report = run_open_loop(&reqs, &ample(), |_| 1.0);
        let s = report.summary();
        assert!(s.accounting_is_exact());
        assert_eq!(s.served, 4);
        assert_eq!(s.shed(), 0);
        assert_eq!(report.batches, 2, "two arrival clusters, two batches");
        // The idle server jumps to the second cluster rather than waiting.
        assert!(matches!(report.outcomes[2].outcome, Outcome::Served { latency, .. } if (latency - 1.0).abs() < 1e-12));
    }

    #[test]
    fn bounded_queue_sheds_overflow_at_the_gate() {
        // 8 simultaneous arrivals into a 2-slot queue: 2 queued, 6 shed.
        let reqs = arrivals(&[(4, 0.0); 8]);
        let mut config = ample();
        config.queue_capacity = 2;
        config.policy = CutPolicy::Fifo { max_batch: 2 };
        let report = run_open_loop(&reqs, &config, |_| 1.0);
        let s = report.summary();
        assert!(s.accounting_is_exact());
        assert_eq!(s.served, 2);
        assert_eq!(s.shed_queue_full, 6);
    }

    #[test]
    fn deadlines_cancel_queued_requests() {
        // One long batch occupies the server; the straggler behind it
        // expires before the server frees up.
        let reqs = arrivals(&[(8, 0.0), (8, 0.1)]);
        let mut config = ample();
        config.policy = CutPolicy::Fifo { max_batch: 1 };
        config.deadline = 0.5;
        let report = run_open_loop(&reqs, &config, |_| 2.0);
        let s = report.summary();
        assert!(s.accounting_is_exact());
        assert_eq!(s.served, 1);
        assert_eq!(s.shed_deadline, 1);
        match report.outcomes[1].outcome {
            Outcome::Shed { reason, wait } => {
                assert_eq!(reason, ShedReason::DeadlineExpired);
                assert!((wait - 1.9).abs() < 1e-9, "cancelled when the server freed at t=2.0");
            }
            other => panic!("expected shed, got {other:?}"),
        }
    }

    #[test]
    fn too_long_requests_never_reach_the_queue() {
        let reqs = arrivals(&[(4096, 0.0), (8, 0.0)]);
        let mut config = ample();
        config.max_len = 512;
        let report = run_open_loop(&reqs, &config, |_| 0.1);
        let s = report.summary();
        assert!(s.accounting_is_exact());
        assert_eq!(s.shed_too_long, 1);
        assert_eq!(s.served, 1);
    }

    #[test]
    fn token_budget_bounds_batch_work() {
        let reqs = poisson_arrivals(64, 10_000.0, LengthDistribution::PaperUniform { alpha: 0.6 }, 64, 5);
        let budget = 128;
        let mut config = ample();
        config.policy = CutPolicy::TokenBudget { budget_tokens: budget };
        let report = run_open_loop(&reqs, &config, |mask| {
            assert!(
                mask.valid_words() <= budget || mask.batch() == 1,
                "batch of {} tokens exceeds budget {budget}",
                mask.valid_words()
            );
            mask.valid_words() as f64 * 1e-5
        });
        let s = report.summary();
        assert!(s.accounting_is_exact());
        assert_eq!(s.served, 64);
    }

    #[test]
    fn virtual_time_runs_are_deterministic() {
        let reqs = poisson_arrivals(256, 3_000.0, LengthDistribution::Zipf { exponent: 1.2 }, 128, 11);
        let config = ServeConfig {
            policy: CutPolicy::TokenBudget { budget_tokens: 256 },
            queue_capacity: 8,
            deadline: 0.02,
            max_len: 128,
            chunk_tokens: 0,
        };
        let exec = |mask: &BatchMask| mask.valid_words() as f64 * 2e-5 + 1e-5;
        let a = run_open_loop(&reqs, &config, exec);
        let b = run_open_loop(&reqs, &config, exec);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.batches, b.batches);
        assert!(a.summary().accounting_is_exact());
    }

    #[test]
    fn goodput_counts_only_served_tokens() {
        let reqs = arrivals(&[(10, 0.0), (10, 0.0)]);
        let mut config = ample();
        config.queue_capacity = 1;
        config.policy = CutPolicy::Fifo { max_batch: 1 };
        let report = run_open_loop(&reqs, &config, |_| 1.0);
        let s = report.summary();
        assert_eq!(s.served_tokens, 10);
        assert!((s.goodput_tokens_per_sec() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn threaded_server_accounts_for_every_submission() {
        let config = ServeConfig {
            policy: CutPolicy::TokenBudget { budget_tokens: 64 },
            queue_capacity: 4,
            deadline: 10.0,
            max_len: 256,
            chunk_tokens: 0,
        };
        let server = Server::spawn(config, |mask| {
            // A tiny busy-wait stands in for the forward; length-dependent
            // so batches take observably different times.
            std::hint::black_box(mask.valid_words());
        });
        let producers = 4;
        let per_producer = 64;
        let mut rejected = 0usize;
        std::thread::scope(|s| {
            let mut joins = Vec::new();
            for t in 0..producers {
                let handle = server.handle();
                joins.push(s.spawn(move || {
                    let mut rejected = 0usize;
                    for i in 0..per_producer {
                        let id = t * per_producer + i;
                        match handle.try_submit(id, 1 + (id % 32)) {
                            Ok(()) => {}
                            Err(Some(ShedReason::QueueFull)) => rejected += 1,
                            Err(other) => panic!("unexpected submit failure: {other:?}"),
                        }
                    }
                    rejected
                }));
            }
            for j in joins {
                rejected += j.join().expect("producer thread");
            }
        });
        let (outcomes, batches) = server.finish();
        let offered = producers * per_producer;
        assert_eq!(
            outcomes.len() + rejected,
            offered,
            "every submission is either a server outcome or a backpressure rejection"
        );
        let mut ids: Vec<usize> = outcomes.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), outcomes.len(), "no request reported twice");
        assert!(batches > 0 || outcomes.is_empty());
        for o in &outcomes {
            if let Outcome::Served { queue_wait, latency } = o.outcome {
                assert!(latency >= queue_wait && queue_wait >= 0.0);
            }
        }
    }

    #[test]
    fn chunked_rounds_bound_tokens_and_put_short_requests_first() {
        // One cut of four requests; chunk budget 8 forces rounds. Shortest
        // first: the len-2 and len-4 requests complete before the len-16.
        let reqs = arrivals(&[(16, 0.0), (2, 0.0), (4, 0.0), (8, 0.0)]);
        let mut config = ample();
        config.chunk_tokens = 8;
        let report = run_open_loop(&reqs, &config, |mask| {
            assert!(
                mask.valid_words() <= 8 || mask.batch() == 1,
                "round of {} tokens exceeds the chunk budget",
                mask.valid_words()
            );
            mask.valid_words() as f64 * 0.1
        });
        let s = report.summary();
        assert!(s.accounting_is_exact());
        assert_eq!(s.served, 4);
        // Rounds: [2,4] then [8] then [16] — three forwards for one cut.
        assert_eq!(report.batches, 3);
        let latency = |id: usize| match report.outcomes[id].outcome {
            Outcome::Served { latency, .. } => latency,
            other => panic!("expected served, got {other:?}"),
        };
        assert!(
            latency(1) < latency(3) && latency(3) < latency(0),
            "shortest-first ordering"
        );
    }

    #[test]
    fn chunking_preserves_outcomes_without_deadline_pressure() {
        let reqs = poisson_arrivals(128, 3_000.0, LengthDistribution::PaperUniform { alpha: 0.6 }, 64, 17);
        let run = |chunk| {
            let config = ServeConfig {
                policy: CutPolicy::TokenBudget { budget_tokens: 256 },
                queue_capacity: 32,
                deadline: f64::INFINITY,
                max_len: 64,
                chunk_tokens: chunk,
            };
            run_open_loop(&reqs, &config, |mask| mask.valid_words() as f64 * 1e-5)
        };
        let whole = run(0).summary();
        let chunked = run(16).summary();
        // With no deadline nothing can be cancelled: both modes serve
        // every admitted request; only latency shape differs.
        assert_eq!(whole.served, chunked.served);
        assert_eq!(whole.shed(), chunked.shed());
        assert_eq!(chunked.shed_cancelled, 0);
    }

    #[test]
    fn per_chunk_deadline_cancels_mid_request_with_distinct_reason() {
        // Two requests cut into one batch. The long one lands in round 2;
        // round 1 takes long enough that its deadline expires mid-request.
        let reqs = arrivals(&[(4, 0.0), (12, 0.0)]);
        let mut config = ample();
        config.policy = CutPolicy::Fifo { max_batch: 4 };
        config.chunk_tokens = 4;
        config.deadline = 1.0;
        let report = run_open_loop(&reqs, &config, |_| 2.0);
        let s = report.summary();
        assert!(s.accounting_is_exact());
        assert_eq!(s.served, 1);
        assert_eq!(s.shed_cancelled, 1, "mid-request cancellation is its own ledger row");
        assert_eq!(s.shed_deadline, 0, "this is NOT queue expiry");
        match report.outcomes[1].outcome {
            Outcome::Shed { reason, wait } => {
                assert_eq!(reason, ShedReason::CancelledMidRequest);
                assert!((wait - 2.0).abs() < 1e-9, "cancelled when round 1 finished at t=2.0");
            }
            other => panic!("expected mid-request cancellation, got {other:?}"),
        }
    }

    #[test]
    fn wall_arrivals_are_offsets_from_front_construction() {
        // `Server::spawn` builds the front before it starts the worker, so
        // a submission racing the thread's start-up is not clamped to 0.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let (result_tx, _results) = std::sync::mpsc::channel();
        let (handle, mut front) = (IngressHandle { tx }, WallFront::new(rx, result_tx));
        std::thread::sleep(std::time::Duration::from_millis(1));
        handle.try_submit(0, 8).expect("channel has room");
        match front.next_arrival(true) {
            Ingress::Arrival(r) => assert!(r.arrival > 0.0, "arrival offset {}", r.arrival),
            _ => panic!("the submission is in the channel"),
        }
    }

    /// The wall front's ingress and egress under a scripted clock that
    /// advances only by the executor's reported durations.
    struct ScriptedClock {
        wall: WallFront,
        clock: f64,
    }

    impl Front for ScriptedClock {
        fn now(&self) -> f64 {
            self.clock
        }
        fn ran(&mut self, duration: f64, _tokens: usize) {
            self.clock += duration;
        }
        fn next_arrival(&mut self, idle: bool) -> Ingress {
            self.wall.next_arrival(idle)
        }
        fn deliver(&mut self, p: &Pending, outcome: Outcome) {
            self.wall.deliver(p, outcome);
        }
        fn mark(&self, id: usize, label: &'static LabelId, t: f64) {
            self.wall.mark(id, label, t);
        }
    }

    #[test]
    fn wall_front_under_a_scripted_clock_reproduces_the_virtual_ledger() {
        // One burst, all due at t = 0. The first cut runs as rounds [4] [8]
        // [12] [16]: the 16 overruns the deadline between rounds
        // (cancelled mid-request) and by then everything still queued has
        // expired too; the 999 never passes the length gate.
        let lens = [4usize, 12, 8, 16, 999, 2, 10, 6, 14, 3];
        let config = ServeConfig {
            policy: CutPolicy::Fifo { max_batch: 4 },
            queue_capacity: 16,
            deadline: 2.0,
            max_len: 64,
            chunk_tokens: 8,
        };
        let mut exec = |mask: &BatchMask| mask.valid_words() as f64 * 0.1;

        // The channel is filled before the front exists, so every
        // submission stamp precedes the epoch and arrives at exactly 0.0.
        let (tx, rx) = std::sync::mpsc::sync_channel(config.queue_capacity);
        let (result_tx, results) = std::sync::mpsc::channel();
        let handle = IngressHandle { tx };
        for (id, &len) in lens.iter().enumerate() {
            handle.try_submit(id, len).expect("channel has room");
        }
        drop(handle);
        let mut front = ScriptedClock {
            wall: WallFront::new(rx, result_tx),
            clock: 0.0,
        };
        let mut engine = Engine::new(config);
        engine.run(&mut front, &mut exec);
        let mut wall: Vec<RequestOutcome> = results.try_iter().collect();
        wall.sort_by_key(|o| o.id);

        let burst: Vec<(usize, f64)> = lens.iter().map(|&len| (len, 0.0)).collect();
        let report = run_open_loop(&arrivals(&burst), &config, exec);
        assert_eq!(wall, report.outcomes, "same engine, same ledger, bit for bit");
        assert_eq!(engine.batches, report.batches);
        let s = report.summary();
        assert_eq!(
            (s.served, s.shed_cancelled, s.shed_deadline, s.shed_too_long),
            (3, 1, 5, 1)
        );
    }

    #[test]
    fn threaded_server_sheds_too_long_requests() {
        let config = ServeConfig {
            policy: CutPolicy::Fifo { max_batch: 4 },
            queue_capacity: 8,
            deadline: 10.0,
            max_len: 16,
            chunk_tokens: 0,
        };
        let server = Server::spawn(config, |_| {});
        let handle = server.handle();
        handle.try_submit(0, 1000).expect("channel has room");
        handle.try_submit(1, 8).expect("channel has room");
        drop(handle);
        let (outcomes, _) = server.finish();
        assert_eq!(outcomes.len(), 2);
        let by_id = |id: usize| outcomes.iter().find(|o| o.id == id).expect("reported");
        assert!(matches!(
            by_id(0).outcome,
            Outcome::Shed {
                reason: ShedReason::TooLong,
                ..
            }
        ));
        assert!(by_id(1).served());
    }
}
