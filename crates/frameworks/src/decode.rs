//! Token-step continuous batching for autoregressive decode — the serving
//! loop over `bt-core`'s paged decoder.
//!
//! [`crate::server`] batches *whole requests*: a request enters a batch
//! once, runs, and leaves. Generation does not fit that shape — a decode
//! session produces one token per step for hundreds of steps, and the
//! efficient schedule re-forms the batch **every token step**, mixing new
//! sessions' prompt ingestion (*prefill*) with all live sessions' next
//! token (*decode*) under the same token-budget admission the encoder
//! server uses (Orca-style continuous batching; the ROADMAP's "per token
//! step, not per request").
//!
//! The loop here is the virtual-time twin of
//! [`crate::server::run_open_loop`], with two decode-specific overload
//! guards on top of the queue/deadline/length gates:
//!
//! * **token budget per step** — a step's work is `active sessions × 1`
//!   decode tokens plus admitted prefill tokens; prompts are admitted only
//!   while the sum fits the budget (an oversized prompt runs alone rather
//!   than starving, exactly like [`crate::admission::CutPolicy::TokenBudget`]);
//! * **cache pressure** — the engine reports sessions whose KV-cache
//!   append was refused ([`bt_varlen::paged::KvOom`]); they are shed with
//!   the distinct [`ShedReason::CacheOom`] and their blocks returned, so
//!   "pool too small" is visible separately from "host too slow". Every
//!   append of a step — prefill chunks in plan order, then decode rows — is
//!   tried before any refused session is freed, so a refused session's
//!   blocks never rescue later work of the same step.
//!
//! With [`DecodeConfig::chunk_tokens`] set (`btx decode --chunk`), prompts
//! prefill in **fixed token-budget chunks** that interleave with in-flight
//! decode steps instead of monopolising whole steps. A chunk is one input
//! of its step's [`PagedDecoder::forward`], resuming at the session's
//! cached length, so chunking is purely a schedule, at every precision (paged
//! attention is f32 row dots whatever `BYTE_GEMM_PREC` selects, and each
//! row's GEMM chains are its own): `tests/differential_streaming.rs` proves
//! prefill in pieces is bitwise one whole prefill on every ISA tier at f32,
//! f16 and int8, and this module's `real_paged_engine_serves_chunked_prefill`
//! proves every request's outputs are bitwise the same at every chunk size.
//! Chunking adds a third guard: the deadline is re-checked at **every
//! chunk boundary**, and a half-ingested prompt that runs out of time is
//! cancelled with the distinct [`ShedReason::CancelledMidRequest`] (its
//! ingested tokens stay in the ledger via
//! [`DecodeOutcome::Shed::prefilled_tokens`]).
//!
//! Accounting is exact at **two** granularities, both asserted by the
//! stress suite: per request (`served + shed == offered`) and per token
//! step (every decoded/prefilled token in a [`StepRecord`] reconciles with
//! the per-request outcomes — [`DecodeReport::ledger_is_exact`]).
//!
//! Two [`DecodeEngine`]s run under the loop: [`ModeledDecodeEngine`] (pure
//! block-pool bookkeeping plus a linear cost model — deterministic, for
//! the stress tests) and [`PagedDecodeEngine`] (one real
//! [`PagedDecoder::forward`] per step, holding all of the step's prefill
//! chunks and decode rows, with modeled device time — what `btx decode`
//! and `bench_decode` run).
//!
//! Like the encoder loop, every request's lifecycle is tagged with a
//! [`bt_obs::TraceId`] at the simulated clock (`req.enqueue` → `req.admit`
//! → `req.prefill.start` → `req.prefill.chunk`* → `req.decode.step`* →
//! `req.done` / `req.shed.<reason>`), so drained profiles reconstruct into
//! per-request timelines whose phase sums reconcile exactly with this
//! ledger.

use crate::admission::ShedReason;
use crate::server::vns;
use crate::serving::TimedRequest;
use bt_core::decoder::TransformerDecoder;
use bt_core::paged::PagedDecoder;
use bt_device::Device;
use bt_obs::{names, TraceId};
use bt_tensor::rng::SplitMix64;
use bt_tensor::Tensor;
use bt_varlen::paged::{BlockPool, PagedLayout, SessionId};
use std::collections::HashMap;
use std::collections::VecDeque;

/// Decode requests offered to the loop (admitted or not).
static OFFERED: bt_obs::Counter = bt_obs::Counter::new(names::DECODE_OFFERED);
/// Decode requests served to completion.
static SERVED: bt_obs::Counter = bt_obs::Counter::new(names::DECODE_SERVED);
/// Decode requests shed, any reason (per-reason split lives in the report).
static SHED: bt_obs::Counter = bt_obs::Counter::new(names::DECODE_SHED);
/// Sessions shed specifically for KV-cache exhaustion.
static SHED_CACHE_OOM: bt_obs::Counter = bt_obs::Counter::new(names::DECODE_SHED_CACHE_OOM);
/// Half-prefilled sessions cancelled at a chunk boundary.
static SHED_CANCELLED: bt_obs::Counter = bt_obs::Counter::new(names::DECODE_SHED_CANCELLED);
/// Prefill chunks ingested (equals prompts served when chunking is off).
static PREFILL_CHUNKS: bt_obs::Counter = bt_obs::Counter::new(names::DECODE_PREFILL_CHUNKS);
/// Token steps executed.
static STEPS: bt_obs::Counter = bt_obs::Counter::new(names::DECODE_STEPS);
/// Decode tokens generated across all steps.
static DECODE_TOKENS: bt_obs::Counter = bt_obs::Counter::new(names::DECODE_TOKENS_DECODE);
/// Prompt tokens prefilled across all steps.
static PREFILL_TOKENS: bt_obs::Counter = bt_obs::Counter::new(names::DECODE_TOKENS_PREFILL);
/// Live sessions per executed step.
static ACTIVE_SESSIONS: bt_obs::Histogram = bt_obs::Histogram::new(names::DECODE_ACTIVE_SESSIONS);
/// KV-cache blocks in use, sampled after every step.
static BLOCKS_IN_USE: bt_obs::Histogram = bt_obs::Histogram::new(names::KV_BLOCKS_IN_USE);

/// One generation request: a prompt to prefill, then `decode_tokens` steps
/// of one token each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeRequest {
    /// Caller-assigned id; must form a permutation of `0..n` per run.
    pub id: usize,
    /// Prompt length in tokens (≥ 1).
    pub prompt_len: usize,
    /// Tokens to generate after prefill (0 = prefill-only request).
    pub decode_tokens: usize,
    /// Arrival time, seconds.
    pub arrival: f64,
}

/// Loop configuration: the per-step token budget plus the overload guards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeConfig {
    /// Token budget per step: live sessions (one decode token each) plus
    /// admitted prefill tokens never exceed this, except for a single
    /// oversized prompt running alone.
    pub budget_tokens: usize,
    /// Bounded ingress queue capacity, in requests.
    pub queue_capacity: usize,
    /// Seconds from arrival by which a request's *prefill must have
    /// started*, else it is cancelled in queue (`f64::INFINITY` disables).
    /// With chunking on ([`DecodeConfig::chunk_tokens`]) the deadline is
    /// also re-checked at every chunk boundary and cancels half-ingested
    /// prompts ([`ShedReason::CancelledMidRequest`]).
    pub deadline: f64,
    /// Longest prompt accepted; longer requests shed [`ShedReason::TooLong`].
    pub max_prompt_len: usize,
    /// Most sessions allowed live at once (decode slots).
    pub max_sessions: usize,
    /// Prompt tokens ingested per prefill chunk; `0` disables chunking and
    /// prompts prefill whole (`btx decode --chunk`). With chunking on, the
    /// deadline is re-checked at every chunk boundary and an expired
    /// half-ingested prompt is cancelled with
    /// [`ShedReason::CancelledMidRequest`].
    pub chunk_tokens: usize,
}

impl DecodeConfig {
    fn validate(&self) {
        assert!(self.budget_tokens > 0, "budget_tokens must be positive");
        assert!(self.queue_capacity > 0, "queue_capacity must be positive");
        assert!(self.deadline > 0.0, "deadline must be positive");
        assert!(self.max_prompt_len > 0, "max_prompt_len must be positive");
        assert!(self.max_sessions > 0, "max_sessions must be positive");
    }
}

/// One prompt chunk an engine must ingest this step. With chunking off
/// every chunk is a whole prompt (`done == 0`, `chunk == prompt_len`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefillChunk {
    /// Request id owning the session.
    pub id: usize,
    /// The request's full prompt length, in tokens.
    pub prompt_len: usize,
    /// Prompt tokens already ingested by earlier chunks (`0` means the
    /// engine must create the session first).
    pub done: usize,
    /// Prompt tokens to ingest this step (`done + chunk ≤ prompt_len`).
    pub chunk: usize,
}

/// The work one token step asks an engine to do.
#[derive(Debug, Clone, Copy)]
pub struct PlannedStep<'a> {
    /// Live sessions to advance by one token, by request id.
    pub decode: &'a [usize],
    /// Prompt chunks to ingest — new sessions (`done == 0`) and
    /// continuations of half-ingested prompts.
    pub prefill: &'a [PrefillChunk],
}

/// What actually happened in one engine step.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Seconds the step took (modeled or measured — the loop's clock
    /// advances by this).
    pub duration: f64,
    /// Prefill requests whose chunk was refused for cache capacity. The
    /// engine has already released everything the session held — including
    /// blocks claimed by earlier chunks.
    pub failed_prefill: Vec<usize>,
    /// Decode sessions whose append was refused (no token generated). The
    /// engine has already freed them.
    pub failed_decode: Vec<usize>,
    /// Cache blocks in use after the step.
    pub blocks_in_use: usize,
}

/// Executes token steps against some decode backend. The loop owns all
/// admission and accounting; the engine owns sessions and the cache.
///
/// Contract: ids in [`StepResult::failed_prefill`] /
/// [`StepResult::failed_decode`] hold **no** cache blocks when `run_step`
/// returns, and [`DecodeEngine::free`] is called exactly once for every
/// session that completes normally.
pub trait DecodeEngine {
    /// Runs one mixed prefill+decode step.
    fn run_step(&mut self, step: &PlannedStep<'_>) -> StepResult;
    /// Releases a completed session's cache blocks.
    fn free(&mut self, id: usize);
    /// Most cache blocks ever simultaneously in use.
    fn high_water_blocks(&self) -> usize;
}

/// Final disposition of one decode request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecodeOutcome {
    /// Prefill ran and all requested tokens were generated.
    Served {
        /// Seconds queued before prefill started.
        queue_wait: f64,
        /// Completion of the last decode step minus arrival, seconds.
        latency: f64,
        /// Tokens generated (equals the request's `decode_tokens`).
        generated: usize,
    },
    /// The request was rejected, cancelled, or evicted by cache pressure.
    Shed {
        /// Why it was shed.
        reason: ShedReason,
        /// Seconds from arrival to the shed decision.
        wait: f64,
        /// Prompt tokens ingested into the cache before the shed: `0` for
        /// pre-admission sheds, the full `prompt_len` for mid-decode
        /// [`ShedReason::CacheOom`], and anything in between for chunked
        /// prefill cut short ([`ShedReason::CancelledMidRequest`] or a
        /// mid-prefill OOM) — the term that keeps the step ledger exact.
        prefilled_tokens: usize,
        /// Tokens generated before the shed.
        generated: usize,
    },
}

/// One request's identity, shape, and [`DecodeOutcome`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeRequestOutcome {
    /// Caller-assigned request id.
    pub id: usize,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Tokens the request asked to generate.
    pub decode_tokens: usize,
    /// What happened.
    pub outcome: DecodeOutcome,
}

impl DecodeRequestOutcome {
    /// True when the request was served to completion.
    pub fn served(&self) -> bool {
        matches!(self.outcome, DecodeOutcome::Served { .. })
    }

    /// Tokens this request actually generated, served or shed.
    pub fn generated(&self) -> usize {
        match self.outcome {
            DecodeOutcome::Served { generated, .. } => generated,
            DecodeOutcome::Shed { generated, .. } => generated,
        }
    }

    /// Prompt tokens this request actually ingested into the cache.
    pub fn prefilled_tokens(&self) -> usize {
        match self.outcome {
            DecodeOutcome::Served { .. } => self.prompt_len,
            DecodeOutcome::Shed { prefilled_tokens, .. } => prefilled_tokens,
        }
    }

    /// Whether the request's prompt was *fully* prefilled into the cache.
    pub fn prefilled(&self) -> bool {
        self.prefilled_tokens() == self.prompt_len
    }
}

/// Per-token-step ledger entry — the granularity at which accounting is
/// asserted exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Step ordinal (0-based).
    pub step: usize,
    /// Virtual-time start of the step, seconds.
    pub start: f64,
    /// Step duration, seconds.
    pub duration: f64,
    /// Sessions that successfully decoded one token.
    pub decode_sessions: usize,
    /// Sessions that successfully ingested a prefill chunk this step
    /// (equals prompts completed when chunking is off).
    pub prefill_sessions: usize,
    /// Prompt tokens successfully prefilled this step.
    pub prefill_tokens: usize,
    /// Sessions shed with [`ShedReason::CacheOom`] during the step.
    pub oom_sheds: usize,
    /// Cache blocks in use after the step.
    pub blocks_in_use: usize,
}

/// Everything one decode-serving run observed.
#[derive(Debug, Clone)]
pub struct DecodeReport {
    /// Per-request outcomes, indexed by request id.
    pub outcomes: Vec<DecodeRequestOutcome>,
    /// The per-step ledger.
    pub steps: Vec<StepRecord>,
    /// Completion time of the last step, seconds.
    pub makespan: f64,
    /// Most cache blocks ever simultaneously in use.
    pub high_water_blocks: usize,
    /// Most sessions ever live in one step (decode + prefilled-this-step).
    pub max_concurrent_sessions: usize,
}

impl DecodeReport {
    /// Aggregates the run.
    pub fn summary(&self) -> DecodeSummary {
        let mut s = DecodeSummary {
            offered: self.outcomes.len(),
            served: 0,
            shed_queue_full: 0,
            shed_deadline: 0,
            shed_too_long: 0,
            shed_cache_oom: 0,
            shed_cancelled: 0,
            steps: self.steps.len(),
            decode_tokens: 0,
            prefill_tokens: 0,
            makespan: self.makespan,
            high_water_blocks: self.high_water_blocks,
            max_concurrent_sessions: self.max_concurrent_sessions,
        };
        for r in &self.outcomes {
            match r.outcome {
                DecodeOutcome::Served { generated, .. } => {
                    s.served += 1;
                    s.decode_tokens += generated;
                    s.prefill_tokens += r.prompt_len;
                }
                DecodeOutcome::Shed {
                    reason,
                    generated,
                    prefilled_tokens,
                    ..
                } => {
                    match reason {
                        ShedReason::QueueFull => s.shed_queue_full += 1,
                        ShedReason::DeadlineExpired => s.shed_deadline += 1,
                        ShedReason::TooLong => s.shed_too_long += 1,
                        ShedReason::CacheOom => s.shed_cache_oom += 1,
                        ShedReason::CancelledMidRequest => s.shed_cancelled += 1,
                        ShedReason::HotShard => {
                            unreachable!("run_decode_loop builds every shed outcome itself, none for shard heat")
                        }
                    }
                    s.decode_tokens += generated;
                    s.prefill_tokens += prefilled_tokens;
                }
            }
        }
        s
    }

    /// The per-step reconciliation: every token the step ledger claims was
    /// decoded or prefilled appears in exactly one request outcome, and
    /// vice versa.
    pub fn ledger_is_exact(&self) -> bool {
        let step_decode: usize = self.steps.iter().map(|s| s.decode_sessions).sum();
        let step_prefill: usize = self.steps.iter().map(|s| s.prefill_tokens).sum();
        let outcome_decode: usize = self.outcomes.iter().map(|o| o.generated()).sum();
        let outcome_prefill: usize = self.outcomes.iter().map(|o| o.prefilled_tokens()).sum();
        step_decode == outcome_decode && step_prefill == outcome_prefill
    }
}

/// Aggregate view of a decode run (see [`DecodeReport::summary`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeSummary {
    /// Requests offered (served + shed).
    pub offered: usize,
    /// Requests that generated every requested token.
    pub served: usize,
    /// Shed at the ingress gate (queue full).
    pub shed_queue_full: usize,
    /// Cancelled in queue after deadline expiry.
    pub shed_deadline: usize,
    /// Rejected for an over-long prompt.
    pub shed_too_long: usize,
    /// Shed for KV-cache exhaustion (at prefill or mid-decode).
    pub shed_cache_oom: usize,
    /// Cancelled at a chunk boundary after prefill had started (chunked
    /// prefill only; always zero with chunking off).
    pub shed_cancelled: usize,
    /// Token steps executed.
    pub steps: usize,
    /// Decode tokens generated across all requests (incl. partial sheds).
    pub decode_tokens: usize,
    /// Prompt tokens prefilled across all requests that reached the cache.
    pub prefill_tokens: usize,
    /// Completion time of the last step, seconds.
    pub makespan: f64,
    /// Most cache blocks ever simultaneously in use.
    pub high_water_blocks: usize,
    /// Most sessions ever live in one step.
    pub max_concurrent_sessions: usize,
}

impl DecodeSummary {
    /// Total shed requests across all reasons.
    pub fn shed(&self) -> usize {
        self.shed_queue_full + self.shed_deadline + self.shed_too_long + self.shed_cache_oom + self.shed_cancelled
    }

    /// Request-level invariant: every offered request has exactly one
    /// outcome.
    pub fn accounting_is_exact(&self) -> bool {
        self.served + self.shed() == self.offered
    }

    /// Decode tokens per second of makespan.
    pub fn decode_tokens_per_sec(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.decode_tokens as f64 / self.makespan
    }

    /// Token steps per second of makespan.
    pub fn steps_per_sec(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.steps as f64 / self.makespan
    }
}

struct ActiveSession {
    id: usize,
    prompt_len: usize,
    decode_tokens: usize,
    arrival: f64,
    queue_wait: f64,
    generated: usize,
}

struct QueuedRequest {
    req: DecodeRequest,
    deadline: f64,
}

/// A session whose prompt is partway through chunked prefill: it holds
/// cache blocks but does not decode yet.
struct PrefillingSession {
    req: DecodeRequest,
    deadline: f64,
    queue_wait: f64,
    ingested: usize,
}

/// Runs the token-step continuous-batching loop in virtual time over a
/// pre-generated arrival trace. Deterministic for a fixed trace and engine:
/// the clock advances only by engine-reported step durations and arrival
/// times.
///
/// # Panics
/// Panics if request ids are not a permutation of `0..requests.len()`, any
/// `prompt_len` is zero, the engine reports a non-finite/negative duration
/// or an id it was never given, or on an invalid [`DecodeConfig`].
pub fn run_decode_loop(
    requests: &[DecodeRequest],
    config: &DecodeConfig,
    engine: &mut dyn DecodeEngine,
) -> DecodeReport {
    config.validate();
    let mut order: Vec<DecodeRequest> = requests.to_vec();
    order.sort_by(|a, b| a.arrival.partial_cmp(&b.arrival).expect("finite arrivals"));
    let n = order.len();
    for r in &order {
        assert!(r.prompt_len > 0, "request {} has an empty prompt", r.id);
    }
    let mut outcomes: Vec<Option<DecodeRequestOutcome>> = (0..n).map(|_| None).collect();
    // Resolves one request: terminal trace mark at the simulated instant
    // `t_ns`, counters, and the ledger slot.
    let record = |outcomes: &mut Vec<Option<DecodeRequestOutcome>>, o: DecodeRequestOutcome, t_ns: u64| {
        let slot = outcomes
            .get_mut(o.id)
            .expect("request ids must be a permutation of 0..n");
        assert!(slot.is_none(), "request id {} resolved twice", o.id);
        let tid = TraceId::from_request(o.id);
        if o.served() {
            SERVED.incr();
            bt_obs::trace_mark!(tid, names::REQ_DONE, t_ns);
        } else {
            SHED.incr();
            match o.outcome {
                DecodeOutcome::Shed { reason, .. } => {
                    match reason {
                        ShedReason::CacheOom => SHED_CACHE_OOM.incr(),
                        ShedReason::CancelledMidRequest => SHED_CANCELLED.incr(),
                        _ => {}
                    }
                    bt_obs::trace_mark_at(tid, reason.trace_label(), t_ns);
                }
                DecodeOutcome::Served { .. } => unreachable!("served handled above"),
            }
        }
        *slot = Some(o);
    };

    let mut queue: VecDeque<QueuedRequest> = VecDeque::new();
    let mut active: Vec<ActiveSession> = Vec::new();
    let mut prefilling: Vec<PrefillingSession> = Vec::new();
    let mut clock = 0.0f64;
    let mut next = 0usize;
    let mut steps: Vec<StepRecord> = Vec::new();
    let mut makespan = 0.0f64;
    let mut max_concurrent = 0usize;

    while next < n || !queue.is_empty() || !active.is_empty() || !prefilling.is_empty() {
        // Idle with nothing live: jump to the next arrival.
        if queue.is_empty() && active.is_empty() && prefilling.is_empty() {
            clock = clock.max(order[next].arrival);
        }
        // 1. Admit arrivals up to the clock.
        while next < n && order[next].arrival <= clock {
            let r = order[next];
            next += 1;
            OFFERED.incr();
            let tid = TraceId::from_request(r.id);
            bt_obs::trace_mark!(tid, names::REQ_ENQUEUE, vns(r.arrival));
            if r.prompt_len > config.max_prompt_len {
                record(
                    &mut outcomes,
                    DecodeRequestOutcome {
                        id: r.id,
                        prompt_len: r.prompt_len,
                        decode_tokens: r.decode_tokens,
                        outcome: DecodeOutcome::Shed {
                            reason: ShedReason::TooLong,
                            wait: 0.0,
                            prefilled_tokens: 0,
                            generated: 0,
                        },
                    },
                    vns(r.arrival),
                );
            } else if queue.len() >= config.queue_capacity {
                record(
                    &mut outcomes,
                    DecodeRequestOutcome {
                        id: r.id,
                        prompt_len: r.prompt_len,
                        decode_tokens: r.decode_tokens,
                        outcome: DecodeOutcome::Shed {
                            reason: ShedReason::QueueFull,
                            wait: 0.0,
                            prefilled_tokens: 0,
                            generated: 0,
                        },
                    },
                    vns(r.arrival),
                );
            } else {
                bt_obs::trace_mark!(tid, names::REQ_ADMIT, vns(r.arrival));
                queue.push_back(QueuedRequest {
                    req: r,
                    deadline: r.arrival + config.deadline,
                });
            }
        }
        // 2. Cancel queued requests whose prefill cannot start in time.
        let mut expired: Vec<DecodeRequestOutcome> = Vec::new();
        queue.retain(|q| {
            if q.deadline < clock {
                expired.push(DecodeRequestOutcome {
                    id: q.req.id,
                    prompt_len: q.req.prompt_len,
                    decode_tokens: q.req.decode_tokens,
                    outcome: DecodeOutcome::Shed {
                        reason: ShedReason::DeadlineExpired,
                        wait: clock - q.req.arrival,
                        prefilled_tokens: 0,
                        generated: 0,
                    },
                });
                false
            } else {
                true
            }
        });
        for o in expired {
            record(&mut outcomes, o, vns(clock));
        }
        // 2b. Per-chunk deadline check: a half-ingested prompt whose
        //     deadline passed is cancelled *between* chunks with the
        //     distinct mid-request reason (its blocks go back to the pool,
        //     its ingested tokens stay in the ledger).
        let mut cancelled: Vec<DecodeRequestOutcome> = Vec::new();
        prefilling.retain(|p| {
            if p.deadline < clock {
                engine.free(p.req.id);
                cancelled.push(DecodeRequestOutcome {
                    id: p.req.id,
                    prompt_len: p.req.prompt_len,
                    decode_tokens: p.req.decode_tokens,
                    outcome: DecodeOutcome::Shed {
                        reason: ShedReason::CancelledMidRequest,
                        wait: clock - p.req.arrival,
                        prefilled_tokens: p.ingested,
                        generated: 0,
                    },
                });
                false
            } else {
                true
            }
        });
        for o in cancelled {
            record(&mut outcomes, o, vns(clock));
        }

        // 3. Plan the step: every live session decodes one token; in-flight
        //    prefills continue first (they already hold cache blocks), then
        //    new prompts are admitted — whole, or by first chunk when
        //    chunking is on — while the token budget and session slots
        //    allow.
        let mut budget_used = active.len(); // one decode token per session
        let mut prefill: Vec<PrefillChunk> = Vec::new();
        for p in &prefilling {
            let remaining = p.req.prompt_len - p.ingested;
            let want = if config.chunk_tokens == 0 {
                remaining
            } else {
                config.chunk_tokens.min(remaining)
            };
            let oversized_alone = budget_used == 0 && prefill.is_empty();
            if budget_used + want > config.budget_tokens && !oversized_alone {
                continue; // this session waits a step
            }
            budget_used += want;
            prefill.push(PrefillChunk {
                id: p.req.id,
                prompt_len: p.req.prompt_len,
                done: p.ingested,
                chunk: want,
            });
        }
        while let Some(front) = queue.front() {
            let slots = active.len() + prefilling.len();
            if slots >= config.max_sessions {
                break;
            }
            let first = if config.chunk_tokens == 0 {
                front.req.prompt_len
            } else {
                config.chunk_tokens.min(front.req.prompt_len)
            };
            let oversized_alone = budget_used == 0 && prefill.is_empty();
            if budget_used + first > config.budget_tokens && !oversized_alone {
                break;
            }
            let q = queue.pop_front().expect("front exists");
            bt_obs::trace_mark!(TraceId::from_request(q.req.id), names::REQ_PREFILL_START, vns(clock));
            budget_used += first;
            prefill.push(PrefillChunk {
                id: q.req.id,
                prompt_len: q.req.prompt_len,
                done: 0,
                chunk: first,
            });
            prefilling.push(PrefillingSession {
                req: q.req,
                deadline: q.deadline,
                queue_wait: clock - q.req.arrival,
                ingested: 0,
            });
        }
        let decode_ids: Vec<usize> = active.iter().map(|s| s.id).collect();
        if decode_ids.is_empty() && prefill.is_empty() {
            continue;
        }
        max_concurrent = max_concurrent.max(active.len() + prefilling.len());

        // 4. Run the engine.
        let result = engine.run_step(&PlannedStep {
            decode: &decode_ids,
            prefill: &prefill,
        });
        assert!(
            result.duration.is_finite() && result.duration >= 0.0,
            "engine must return a finite non-negative duration, got {}",
            result.duration
        );
        let start = clock;
        let done = start + result.duration;
        STEPS.incr();
        ACTIVE_SESSIONS.record((decode_ids.len() + prefill.len()) as u64);
        BLOCKS_IN_USE.record(result.blocks_in_use as u64);

        // 5. Resolve prefill chunks: a failed chunk sheds the session with
        //    everything it had ingested; a successful chunk advances it,
        //    and a *completed* prompt transitions to decode (or is served
        //    outright for prefill-only requests).
        let mut prefill_ok = 0usize;
        let mut prefill_tokens_ok = 0usize;
        let mut oom_sheds = 0usize;
        for c in &prefill {
            let at = prefilling
                .iter()
                .position(|p| p.req.id == c.id)
                .expect("chunk belongs to a prefilling session");
            if result.failed_prefill.contains(&c.id) {
                oom_sheds += 1;
                let p = prefilling.remove(at);
                record(
                    &mut outcomes,
                    DecodeRequestOutcome {
                        id: p.req.id,
                        prompt_len: p.req.prompt_len,
                        decode_tokens: p.req.decode_tokens,
                        outcome: DecodeOutcome::Shed {
                            reason: ShedReason::CacheOom,
                            wait: done - p.req.arrival,
                            prefilled_tokens: p.ingested,
                            generated: 0,
                        },
                    },
                    vns(done),
                );
            } else {
                prefill_ok += 1;
                prefill_tokens_ok += c.chunk;
                PREFILL_TOKENS.add(c.chunk as u64);
                PREFILL_CHUNKS.incr();
                bt_obs::trace_mark!(TraceId::from_request(c.id), names::REQ_PREFILL_CHUNK, vns(done));
                prefilling[at].ingested += c.chunk;
            }
        }
        let mut i = 0;
        while i < prefilling.len() {
            if prefilling[i].ingested < prefilling[i].req.prompt_len {
                i += 1;
                continue;
            }
            let p = prefilling.remove(i);
            if p.req.decode_tokens == 0 {
                // Prefill-only request: served the moment ingestion ends.
                engine.free(p.req.id);
                record(
                    &mut outcomes,
                    DecodeRequestOutcome {
                        id: p.req.id,
                        prompt_len: p.req.prompt_len,
                        decode_tokens: 0,
                        outcome: DecodeOutcome::Served {
                            queue_wait: p.queue_wait,
                            latency: done - p.req.arrival,
                            generated: 0,
                        },
                    },
                    vns(done),
                );
            } else {
                active.push(ActiveSession {
                    id: p.req.id,
                    prompt_len: p.req.prompt_len,
                    decode_tokens: p.req.decode_tokens,
                    arrival: p.req.arrival,
                    queue_wait: p.queue_wait,
                    generated: 0,
                });
            }
        }

        // 6. Resolve decodes: failures shed, completions free their session.
        let mut decoded = 0usize;
        let mut finished: Vec<DecodeRequestOutcome> = Vec::new();
        active.retain_mut(|s| {
            if !decode_ids.contains(&s.id) {
                return true; // prefilled this very step; decodes next step
            }
            if result.failed_decode.contains(&s.id) {
                oom_sheds += 1;
                finished.push(DecodeRequestOutcome {
                    id: s.id,
                    prompt_len: s.prompt_len,
                    decode_tokens: s.decode_tokens,
                    outcome: DecodeOutcome::Shed {
                        reason: ShedReason::CacheOom,
                        wait: done - s.arrival,
                        prefilled_tokens: s.prompt_len,
                        generated: s.generated,
                    },
                });
                return false; // engine already freed it
            }
            s.generated += 1;
            decoded += 1;
            DECODE_TOKENS.incr();
            bt_obs::trace_mark!(TraceId::from_request(s.id), names::REQ_DECODE_STEP, vns(done));
            if s.generated == s.decode_tokens {
                finished.push(DecodeRequestOutcome {
                    id: s.id,
                    prompt_len: s.prompt_len,
                    decode_tokens: s.decode_tokens,
                    outcome: DecodeOutcome::Served {
                        queue_wait: s.queue_wait,
                        latency: done - s.arrival,
                        generated: s.generated,
                    },
                });
                return false;
            }
            true
        });
        for o in &finished {
            if o.served() {
                engine.free(o.id);
            }
        }
        for o in finished {
            record(&mut outcomes, o, vns(done));
        }

        steps.push(StepRecord {
            step: steps.len(),
            start,
            duration: result.duration,
            decode_sessions: decoded,
            prefill_sessions: prefill_ok,
            prefill_tokens: prefill_tokens_ok,
            oom_sheds,
            blocks_in_use: result.blocks_in_use,
        });
        clock = done;
        makespan = makespan.max(done);
    }

    let outcomes: Vec<DecodeRequestOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every offered request has exactly one outcome"))
        .collect();
    DecodeReport {
        outcomes,
        steps,
        makespan,
        high_water_blocks: engine.high_water_blocks(),
        max_concurrent_sessions: max_concurrent,
    }
}

/// Builds a decode workload from an encoder arrival trace: prompt lengths
/// and arrivals come from the trace, decode lengths from a splitmix64 draw
/// in `1..=max_decode` — fully determined by the trace and `seed`.
pub fn decode_workload(trace: &[TimedRequest], max_decode: usize, seed: u64) -> Vec<DecodeRequest> {
    assert!(max_decode >= 1, "max_decode must be at least 1");
    trace
        .iter()
        .map(|r| DecodeRequest {
            id: r.id,
            prompt_len: r.len.max(1),
            decode_tokens: 1
                + (SplitMix64::new(seed ^ (r.id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64() as usize)
                    % max_decode,
            arrival: r.arrival,
        })
        .collect()
}

/// Pure-bookkeeping engine: a real [`BlockPool`] for capacity decisions and
/// a linear cost model for durations. Deterministic, cheap, and OOM-exact —
/// the engine the seeded stress suite runs against.
pub struct ModeledDecodeEngine {
    pool: BlockPool,
    sessions: HashMap<usize, SessionId>,
    /// Fixed per-step overhead, seconds (batch formation + launch).
    step_overhead: f64,
    /// Marginal seconds per processed token (prefill or decode).
    per_token: f64,
}

impl ModeledDecodeEngine {
    /// Builds the engine over a pool of the given geometry with a linear
    /// `overhead + tokens × per_token` step-cost model.
    pub fn new(layout: PagedLayout, step_overhead: f64, per_token: f64) -> Self {
        assert!(step_overhead >= 0.0 && per_token >= 0.0, "costs must be non-negative");
        Self {
            pool: BlockPool::new(layout),
            sessions: HashMap::new(),
            step_overhead,
            per_token,
        }
    }

    /// The underlying pool (occupancy assertions in tests).
    pub fn pool(&self) -> &BlockPool {
        &self.pool
    }
}

impl DecodeEngine for ModeledDecodeEngine {
    fn run_step(&mut self, step: &PlannedStep<'_>) -> StepResult {
        for c in step.prefill.iter().filter(|c| c.done == 0) {
            let sid = self.pool.create();
            assert!(
                self.sessions.insert(c.id, sid).is_none(),
                "request {} prefilled twice",
                c.id
            );
        }
        // `PagedDecoder::forward`'s capacity rule: every append of the step
        // is tried, in call order, before any refused session is freed, so
        // blocks a refused session holds never rescue a later one.
        let work = step.prefill.iter().map(|c| (c.id, c.chunk));
        let work = work.chain(step.decode.iter().map(|&id| (id, 1)));
        let (mut failed_prefill, mut failed_decode) = (Vec::new(), Vec::new());
        let mut tokens = 0usize;
        for (i, (id, n)) in work.enumerate() {
            let sid = *self.sessions.get(&id).expect("step work for unknown session");
            match self.pool.append(sid, n) {
                Ok(()) => tokens += n,
                Err(_) if i < step.prefill.len() => failed_prefill.push(id),
                Err(_) => failed_decode.push(id),
            }
        }
        for id in failed_prefill.iter().chain(&failed_decode) {
            let sid = self.sessions.remove(id).expect("refused session is live");
            self.pool.free(sid);
        }
        StepResult {
            duration: self.step_overhead + tokens as f64 * self.per_token,
            failed_prefill,
            failed_decode,
            blocks_in_use: self.pool.blocks_in_use(),
        }
    }

    fn free(&mut self, id: usize) {
        let sid = self.sessions.remove(&id).expect("free of unknown session");
        self.pool.free(sid);
    }

    fn high_water_blocks(&self) -> usize {
        self.pool.high_water_blocks()
    }
}

/// One live request inside the [`PagedDecodeEngine`]: its cache session,
/// the full deterministic prompt (kept so later chunks slice the *same*
/// rows a whole-prompt prefill would feed), and the last output row.
struct PagedEngineSession {
    sid: SessionId,
    prompt: Tensor,
    last: Vec<f32>,
}

/// Real-forward engine: sessions live in a [`PagedDecoder`] and every step
/// is one [`PagedDecoder::forward`]. Prompts and memories are seeded random
/// tensors, decode inputs feed each step's output back in, and durations
/// are the device's modeled seconds — still fully deterministic for a fixed
/// seed.
pub struct PagedDecodeEngine<'a> {
    decoder: PagedDecoder<'a>,
    device: Device,
    mem_len: usize,
    seed: u64,
    sessions: HashMap<usize, PagedEngineSession>,
}

impl<'a> PagedDecodeEngine<'a> {
    /// Builds the engine: paged cache of `layout` over `decoder`, cross
    /// memories of `mem_len` rows, request tensors derived from `seed`.
    pub fn new(
        decoder: &'a TransformerDecoder,
        device: Device,
        layout: PagedLayout,
        mem_len: usize,
        seed: u64,
    ) -> Self {
        assert!(mem_len >= 1, "mem_len must be at least 1");
        Self {
            decoder: PagedDecoder::new(decoder, layout),
            device,
            mem_len,
            seed,
            sessions: HashMap::new(),
        }
    }

    /// The device accumulating modeled time across steps.
    pub fn device(&self) -> &Device {
        &self.device
    }
}

impl DecodeEngine for PagedDecodeEngine<'_> {
    fn run_step(&mut self, step: &PlannedStep<'_>) -> StepResult {
        let before = self.device.modeled_total();
        let hidden = self.decoder.decoder().config.hidden();
        for c in step.prefill.iter().filter(|c| c.done == 0) {
            // First chunk: open the session and materialise the FULL prompt
            // once. Later chunks slice rows out of the same tensor, so a
            // chunked run feeds the decoder bit-identical rows to a
            // whole-prompt run.
            let memory = Tensor::randn(
                [self.mem_len, hidden],
                self.seed ^ (c.id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            let sid = self.decoder.open_session(&self.device, &memory);
            let prompt = Tensor::randn(
                [c.prompt_len, hidden],
                self.seed ^ (c.id as u64).wrapping_mul(0xd1b5_4a32_d192_ed03),
            );
            let fresh = PagedEngineSession {
                sid,
                prompt,
                last: Vec::new(),
            };
            assert!(
                self.sessions.insert(c.id, fresh).is_none(),
                "request {} opened twice",
                c.id
            );
        }

        // One forward per step: prefill chunks in plan order, then one
        // decode row per live session, fed its last output.
        let ids = step.prefill.iter().map(|c| c.id).chain(step.decode.iter().copied());
        let inputs: Vec<(SessionId, &[f32])> = ids
            .clone()
            .enumerate()
            .map(|(i, id)| {
                let s = self.sessions.get(&id).expect("step work for unknown session");
                let Some(c) = step.prefill.get(i) else {
                    return (s.sid, &s.last[..]);
                };
                debug_assert_eq!(
                    self.decoder.session_len(s.sid),
                    c.done,
                    "chunk continuation out of order for request {id}"
                );
                (
                    s.sid,
                    &s.prompt.as_slice()[c.done * hidden..(c.done + c.chunk) * hidden],
                )
            })
            .collect();
        let outputs = self.decoder.forward(&self.device, &inputs);

        let (mut failed_prefill, mut failed_decode) = (Vec::new(), Vec::new());
        for (i, (id, out)) in ids.zip(outputs).enumerate() {
            match out {
                Ok(rows) => {
                    let s = self.sessions.get_mut(&id).expect("known session");
                    s.last = rows[rows.len() - hidden..].to_vec();
                }
                Err(_) => {
                    let s = self.sessions.remove(&id).expect("known session");
                    self.decoder.free_session(s.sid);
                    if i < step.prefill.len() {
                        failed_prefill.push(id);
                    } else {
                        failed_decode.push(id);
                    }
                }
            }
        }

        StepResult {
            duration: self.device.modeled_total() - before,
            failed_prefill,
            failed_decode,
            blocks_in_use: self.decoder.cache().pool().blocks_in_use(),
        }
    }

    fn free(&mut self, id: usize) {
        let s = self.sessions.remove(&id).expect("free of unknown session");
        self.decoder.free_session(s.sid);
    }

    fn high_water_blocks(&self) -> usize {
        self.decoder.cache().pool().high_water_blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::poisson_arrivals;
    use bt_varlen::workload::LengthDistribution;

    fn config() -> DecodeConfig {
        DecodeConfig {
            budget_tokens: 64,
            queue_capacity: 32,
            deadline: f64::INFINITY,
            max_prompt_len: 32,
            max_sessions: 16,
            chunk_tokens: 0,
        }
    }

    fn workload(n: usize, rate: f64, seed: u64) -> Vec<DecodeRequest> {
        let trace = poisson_arrivals(n, rate, LengthDistribution::PaperUniform { alpha: 0.6 }, 32, seed);
        decode_workload(&trace, 8, seed)
    }

    #[test]
    fn modeled_loop_accounts_exactly() {
        let requests = workload(60, 400.0, 11);
        let mut engine = ModeledDecodeEngine::new(PagedLayout::new(8, 256), 20e-6, 1e-6);
        let report = run_decode_loop(&requests, &config(), &mut engine);
        let s = report.summary();
        assert!(s.accounting_is_exact(), "{s:?}");
        assert!(report.ledger_is_exact());
        assert_eq!(s.offered, 60);
        assert!(s.served > 0);
        assert_eq!(engine.pool().blocks_in_use(), 0, "all sessions freed at drain");
    }

    #[test]
    fn decode_loop_is_deterministic() {
        let requests = workload(80, 600.0, 7);
        let run = || {
            let mut engine = ModeledDecodeEngine::new(PagedLayout::new(4, 64), 20e-6, 1e-6);
            run_decode_loop(&requests, &config(), &mut engine)
        };
        let a = run();
        let b = run();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn tiny_pool_sheds_cache_oom_with_distinct_reason() {
        let requests = workload(50, 2000.0, 13);
        // 4 blocks × 4 tokens: almost nothing fits.
        let mut engine = ModeledDecodeEngine::new(PagedLayout::new(4, 4), 20e-6, 1e-6);
        let report = run_decode_loop(&requests, &config(), &mut engine);
        let s = report.summary();
        assert!(s.accounting_is_exact(), "{s:?}");
        assert!(report.ledger_is_exact());
        assert!(s.shed_cache_oom > 0, "tiny pool must shed for cache pressure: {s:?}");
        let step_ooms: usize = report.steps.iter().map(|r| r.oom_sheds).sum();
        assert_eq!(step_ooms, s.shed_cache_oom, "every OOM shed is step-attributed");
    }

    #[test]
    fn budget_bounds_step_work() {
        let requests = workload(40, 5000.0, 3);
        let cfg = DecodeConfig {
            budget_tokens: 24,
            ..config()
        };
        let mut engine = ModeledDecodeEngine::new(PagedLayout::new(8, 512), 20e-6, 1e-6);
        let report = run_decode_loop(&requests, &cfg, &mut engine);
        for r in &report.steps {
            let work = r.decode_sessions + r.prefill_tokens;
            assert!(
                work <= 24 || (r.decode_sessions == 0 && r.prefill_sessions == 1),
                "step {} exceeded budget: {work} tokens",
                r.step
            );
        }
        assert!(report.summary().accounting_is_exact());
    }

    #[test]
    fn real_paged_engine_serves_under_the_loop() {
        let config = bt_core::config::BertConfig::tiny();
        let decoder = TransformerDecoder::new_random(config, 1, 17);
        let device = Device::with_model(bt_device::CostModel::unit());
        let mut engine = PagedDecodeEngine::new(&decoder, device, PagedLayout::new(4, 128), 3, 23);
        let requests = workload(10, 300.0, 19);
        let report = run_decode_loop(
            &requests,
            &DecodeConfig {
                budget_tokens: 48,
                queue_capacity: 16,
                deadline: f64::INFINITY,
                max_prompt_len: 32,
                max_sessions: 8,
                chunk_tokens: 0,
            },
            &mut engine,
        );
        let s = report.summary();
        assert!(s.accounting_is_exact(), "{s:?}");
        assert!(report.ledger_is_exact());
        assert_eq!(s.shed_cache_oom, 0, "pool sized to fit this workload");
        assert!(s.served > 0);
        assert!(engine.device().modeled_total() > 0.0, "real forwards ran");
        assert_eq!(engine.decoder.cache().pool().blocks_in_use(), 0, "drained clean");
    }

    /// The modeled engine stands in for the paged one in the stress suite,
    /// so under pool pressure it must shed exactly the sessions the real
    /// engine sheds. Both try every append of a step, in plan order, before
    /// freeing any refused session. In the first case two one-block
    /// sessions fill a two-block pool and neither can take the block its
    /// next token needs — freeing the first refused session early would hand
    /// its block to the second. In the second, a refused continuation chunk
    /// still holds its first chunk's block while a fresh prompt takes the
    /// last free block, so the decode after them is refused too.
    #[test]
    fn modeled_and_paged_engines_shed_the_same_sessions_under_pool_pressure() {
        let chunk = |id, prompt_len, done, chunk| PrefillChunk {
            id,
            prompt_len,
            done,
            chunk,
        };
        let step = |decode, prefill| PlannedStep { decode, prefill };
        let whole = [chunk(0, 2, 0, 2), chunk(1, 2, 0, 2)];
        let (first, continued) = (
            [chunk(0, 6, 0, 2), chunk(1, 2, 0, 2)],
            [chunk(0, 6, 2, 4), chunk(2, 2, 0, 2)],
        );
        let cases = [
            (PagedLayout::new(2, 2), [step(&[], &whole), step(&[0, 1], &[])]),
            (PagedLayout::new(2, 3), [step(&[], &first), step(&[1], &continued)]),
        ];
        let run = |engine: &mut dyn DecodeEngine, steps: &[PlannedStep<'_>]| -> Vec<(Vec<usize>, Vec<usize>, usize)> {
            steps
                .iter()
                .map(|step| {
                    let r = engine.run_step(step);
                    (r.failed_prefill, r.failed_decode, r.blocks_in_use)
                })
                .collect()
        };
        let decoder = TransformerDecoder::new_random(bt_core::config::BertConfig::tiny(), 1, 17);
        let shed: Vec<_> = cases
            .iter()
            .map(|(layout, steps)| {
                let modeled = run(&mut ModeledDecodeEngine::new(*layout, 20e-6, 1e-6), steps);
                let device = Device::with_model(bt_device::CostModel::unit());
                let paged = run(&mut PagedDecodeEngine::new(&decoder, device, *layout, 3, 23), steps);
                assert_eq!(
                    modeled, paged,
                    "(failed_prefill, failed_decode, blocks_in_use) per step"
                );
                paged
            })
            .collect();
        assert_eq!(
            shed[0][1],
            (vec![], vec![0, 1], 0),
            "both refused sessions shed, pool empty"
        );
        assert_eq!(
            shed[1][1],
            (vec![0], vec![1], 1),
            "the refused chunk's block does not rescue the decode; the fresh prompt keeps its block"
        );
    }

    /// A step holding prefill chunks (a fresh prompt and a continuation)
    /// and a decode row is one `PagedDecoder::forward`: each layer's QKV
    /// projection launches once for all of the step's rows.
    #[test]
    fn a_mixed_step_is_one_forward() {
        let layers = 2;
        let decoder = TransformerDecoder::new_random(bt_core::config::BertConfig::tiny(), layers, 17);
        let device = Device::with_model(bt_device::CostModel::unit());
        let mut engine = PagedDecodeEngine::new(&decoder, device, PagedLayout::new(4, 32), 3, 23);
        let chunk = |id, done, chunk| PrefillChunk {
            id,
            prompt_len: 6,
            done,
            chunk,
        };
        let (opening, mixed) = ([chunk(0, 0, 6), chunk(1, 0, 3)], [chunk(1, 3, 3), chunk(2, 0, 4)]);
        for (decode, prefill) in [(&[][..], &opening), (&[0][..], &mixed)] {
            engine.device().reset();
            let r = engine.run_step(&PlannedStep { decode, prefill });
            assert!(r.failed_prefill.is_empty() && r.failed_decode.is_empty());
        }
        let trace = engine.device().trace();
        let qkv = trace.iter().filter(|r| r.name == "paged.self_qkv").count();
        assert_eq!(qkv, layers, "one QKV projection per layer for the whole step");
    }

    #[test]
    fn chunked_prefill_accounts_exactly_and_interleaves() {
        let requests = workload(60, 400.0, 11);
        let cfg = DecodeConfig {
            chunk_tokens: 4,
            ..config()
        };
        let mut engine = ModeledDecodeEngine::new(PagedLayout::new(8, 256), 20e-6, 1e-6);
        let report = run_decode_loop(&requests, &cfg, &mut engine);
        let s = report.summary();
        assert!(s.accounting_is_exact(), "{s:?}");
        assert!(report.ledger_is_exact());
        assert_eq!(s.offered, 60);
        assert!(s.served > 0);
        assert_eq!(engine.pool().blocks_in_use(), 0, "all sessions freed at drain");
        // Prompts longer than one chunk take several steps, so some step
        // must carry decode work and prefill work at the same time — the
        // interleaving the chunked pipeline exists to provide.
        assert!(
            report
                .steps
                .iter()
                .any(|r| r.decode_sessions > 0 && r.prefill_sessions > 0),
            "chunked prefill should interleave with in-flight decode"
        );
        // And the chunk cap is respected for every multi-session step.
        for r in &report.steps {
            assert!(
                r.prefill_tokens <= 4 * r.prefill_sessions.max(1),
                "step {}: {} prefill tokens over {} sessions breaks the 4-token chunk cap",
                r.step,
                r.prefill_tokens,
                r.prefill_sessions
            );
        }
    }

    #[test]
    fn chunked_and_whole_prefill_serve_identical_outcomes_without_pressure() {
        // With an infinite deadline, a huge budget and a pool that fits
        // everything, chunking only changes WHEN prefill work happens, not
        // which requests succeed or how many tokens each one is served.
        let requests = workload(30, 100.0, 23);
        let run = |chunk| {
            let cfg = DecodeConfig {
                chunk_tokens: chunk,
                budget_tokens: 256,
                ..config()
            };
            let mut engine = ModeledDecodeEngine::new(PagedLayout::new(8, 512), 20e-6, 1e-6);
            run_decode_loop(&requests, &cfg, &mut engine)
        };
        let whole = run(0);
        let chunked = run(3);
        let digest = |r: &DecodeReport| {
            let mut d: Vec<_> = r
                .outcomes
                .iter()
                .map(|o| {
                    (
                        o.id,
                        o.prefilled_tokens(),
                        matches!(o.outcome, DecodeOutcome::Served { .. }),
                    )
                })
                .collect();
            d.sort_unstable();
            d
        };
        assert_eq!(digest(&whole), digest(&chunked));
        assert_eq!(whole.summary().served, chunked.summary().served);
    }

    #[test]
    fn per_chunk_deadline_cancels_mid_request_with_distinct_reason() {
        // Slow steps + tiny chunks: long prompts start prefilling before
        // their deadline but cannot finish, so the per-chunk sweep cancels
        // them mid-request — a different ledger row than queue expiry.
        let requests = workload(40, 5000.0, 31);
        let cfg = DecodeConfig {
            deadline: 6e-4,
            chunk_tokens: 2,
            budget_tokens: 8,
            ..config()
        };
        let mut engine = ModeledDecodeEngine::new(PagedLayout::new(8, 512), 2e-4, 1e-6);
        let report = run_decode_loop(&requests, &cfg, &mut engine);
        let s = report.summary();
        assert!(s.accounting_is_exact(), "{s:?}");
        assert!(report.ledger_is_exact(), "partial prefill must be ledger-exact");
        assert!(
            s.shed_cancelled > 0,
            "tight deadline + tiny chunks must cancel mid-request: {s:?}"
        );
        // A mid-request cancellation records the tokens it DID ingest.
        let cancelled_with_progress = report.outcomes.iter().any(|o| {
            matches!(
                o.outcome,
                DecodeOutcome::Shed { reason: ShedReason::CancelledMidRequest, prefilled_tokens, .. }
                    if prefilled_tokens > 0
            )
        });
        assert!(
            cancelled_with_progress,
            "some cancellation happened after real chunk work"
        );
        assert_eq!(
            engine.pool().blocks_in_use(),
            0,
            "cancelled sessions release their blocks"
        );
    }

    #[test]
    fn real_paged_engine_serves_chunked_prefill() {
        /// Delegates to the engine and records, per request, its last
        /// prefill row and then every decode step's output, as bits.
        struct Recorder<'e, 'a> {
            engine: &'e mut PagedDecodeEngine<'a>,
            outputs: HashMap<usize, Vec<Vec<u32>>>,
        }
        impl DecodeEngine for Recorder<'_, '_> {
            fn run_step(&mut self, step: &PlannedStep<'_>) -> StepResult {
                let result = self.engine.run_step(step);
                assert!(
                    result.failed_prefill.is_empty() && result.failed_decode.is_empty(),
                    "pool sized to serve everything"
                );
                let prefilled = step.prefill.iter().filter(|c| c.done + c.chunk == c.prompt_len);
                for id in prefilled.map(|c| c.id).chain(step.decode.iter().copied()) {
                    let last = &self.engine.sessions[&id].last;
                    self.outputs
                        .entry(id)
                        .or_default()
                        .push(last.iter().map(|x| x.to_bits()).collect());
                }
                result
            }
            fn free(&mut self, id: usize) {
                self.engine.free(id);
            }
            fn high_water_blocks(&self) -> usize {
                self.engine.high_water_blocks()
            }
        }

        let config = bt_core::config::BertConfig::tiny();
        let decoder = TransformerDecoder::new_random(config, 1, 17);
        let requests = workload(8, 300.0, 19);
        let run = |chunk| {
            let device = Device::with_model(bt_device::CostModel::unit());
            let mut engine = PagedDecodeEngine::new(&decoder, device, PagedLayout::new(4, 128), 3, 23);
            let mut recorder = Recorder {
                engine: &mut engine,
                outputs: HashMap::new(),
            };
            let report = run_decode_loop(
                &requests,
                &DecodeConfig {
                    budget_tokens: 48,
                    queue_capacity: 16,
                    deadline: f64::INFINITY,
                    max_prompt_len: 32,
                    max_sessions: 8,
                    chunk_tokens: chunk,
                },
                &mut recorder,
            );
            let outputs = recorder.outputs;
            assert_eq!(engine.decoder.cache().pool().blocks_in_use(), 0, "drained clean");
            let s = report.summary();
            assert!(s.accounting_is_exact(), "chunk {chunk}: {s:?}");
            assert!(report.ledger_is_exact());
            assert_eq!(s.served, 8, "pool sized to serve everything");
            for o in &report.outcomes {
                assert_eq!(outputs[&o.id].len(), 1 + o.generated(), "request {}", o.id);
            }
            outputs
        };
        // The real engine slices the same prompt rows whatever the chunk
        // size, so every request's outputs must agree bit for bit.
        let whole = run(0);
        for chunk in [1, 3, 64] {
            let chunked = run(chunk);
            for (id, outs) in &whole {
                assert!(
                    chunked[id] == *outs,
                    "chunk {chunk}: request {id} outputs diverged from whole prefill"
                );
            }
        }
    }

    #[test]
    fn deadline_sheds_requests_that_cannot_start() {
        let requests = workload(30, 10_000.0, 5);
        let cfg = DecodeConfig {
            deadline: 1e-5,
            ..config()
        };
        let mut engine = ModeledDecodeEngine::new(PagedLayout::new(8, 512), 1e-3, 1e-5);
        let report = run_decode_loop(&requests, &cfg, &mut engine);
        let s = report.summary();
        assert!(s.accounting_is_exact());
        assert!(
            s.shed_deadline > 0,
            "slow steps + tight deadline must expire queued work: {s:?}"
        );
    }
}
