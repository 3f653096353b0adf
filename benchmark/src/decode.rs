//! `decode_paged`: `run_decode_loop` over the real `PagedDecodeEngine`, a
//! closed system of [`SLOTS`] session slots fed from a queue that is full
//! at t = 0.
//!
//! The loop's virtual clock keeps whatever durations the engine reports, so
//! with every request queued at t = 0 and no deadline the step plan is the
//! same on every run; the bench wrapper times each `run_step` in wall time.

use crate::encoder::{self, LAYERS};
use crate::gen;
use crate::phase::{Meter, Phase, Segment};
use crate::tracer::Tracer;
use bt_core::decoder::TransformerDecoder;
use bt_core::paged::PagedDecoder;
use bt_frameworks::decode::{
    run_decode_loop, DecodeConfig, DecodeEngine, DecodeRequest, PagedDecodeEngine, PlannedStep, StepResult,
};
use bt_tensor::rng::Xoshiro256StarStar;
use bt_tensor::Tensor;
use bt_varlen::paged::PagedLayout;
use std::collections::HashMap;
use std::time::Instant;

/// Concurrent sessions: every pure-decode step is an M = 8 GEMM.
pub const SLOTS: usize = 8;
pub const MAX_PROMPT: usize = 64;
pub const BUDGET_TOKENS: usize = 256;
pub const BLOCK_TOKENS: usize = 16;
pub const POOL_BLOCKS: usize = 2048;
/// Cross-attention memory rows per session.
pub const MEM_LEN: usize = 4;

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub heads: usize,
    /// Requests per round; a round is one `run_decode_loop` call and the
    /// rounds repeat until the measured phase is over.
    pub round_requests: usize,
    /// Generated tokens per request are stratified on `1..=max_decode`.
    pub max_decode: usize,
    /// Latency limit of one decode step (the gap between output tokens), ms.
    pub slo_ms: f64,
}

pub const PAGED: Shape = Shape {
    heads: encoder::HEADS,
    round_requests: 16,
    max_decode: 32,
    slo_ms: 500.0,
};

impl Shape {
    pub fn smoke(self) -> Shape {
        Shape {
            heads: encoder::SMOKE_HEADS,
            round_requests: SLOTS + 2,
            max_decode: 6,
            ..self
        }
    }
}

fn layout() -> PagedLayout {
    PagedLayout::new(BLOCK_TOKENS, POOL_BLOCKS)
}

fn loop_config() -> DecodeConfig {
    DecodeConfig {
        budget_tokens: BUDGET_TOKENS,
        queue_capacity: 1024,
        deadline: f64::INFINITY,
        max_prompt_len: MAX_PROMPT,
        max_sessions: SLOTS,
        chunk_tokens: 0,
    }
}

pub struct Setup {
    pub shape: Shape,
    seed: u64,
    decoder: TransformerDecoder,
}

pub fn setup(shape: Shape, seed: u64) -> Setup {
    let decoder = TransformerDecoder::new_random(encoder::config(shape.heads), LAYERS, gen::subseed(seed, 1));
    let s = Setup { shape, seed, decoder };
    // Warm-up: one prompt and two decode steps through the same loop.
    let warm = [DecodeRequest {
        id: 0,
        prompt_len: MAX_PROMPT / 2,
        decode_tokens: 2,
        arrival: 0.0,
    }];
    let mut engine = PagedDecodeEngine::new(&s.decoder, encoder::device(false), layout(), MEM_LEN, seed);
    std::hint::black_box(run_decode_loop(&warm, &loop_config(), &mut engine));
    s
}

/// The requests of round `round`: prompts follow the paper's length law on
/// `≤ MAX_PROMPT`, decode lengths are stratified on `1..=max_decode`, all
/// queued at t = 0.
fn round_requests(s: &Setup, round: u64) -> Vec<DecodeRequest> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(gen::subseed(s.seed, 10 + round));
    let n = s.shape.round_requests;
    let prompts = gen::stratified_lengths(n, MAX_PROMPT, &mut rng);
    let mut decode: Vec<usize> = (0..n).map(|i| 1 + i * s.shape.max_decode / n).collect();
    for i in (1..n).rev() {
        decode.swap(i, rng.below(i as u64 + 1) as usize);
    }
    prompts
        .into_iter()
        .zip(decode)
        .enumerate()
        .map(|(id, (prompt_len, decode_tokens))| DecodeRequest {
            id,
            prompt_len,
            decode_tokens,
            arrival: 0.0,
        })
        .collect()
}

/// Output check: a prompt prefilled through the public `PagedDecoder` is
/// finite, and a small loop keeps both ledgers exact. Returns the digest of
/// the last prompt row's output.
pub fn check(s: &Setup) -> Result<u64, String> {
    let dev = encoder::device(false);
    let hidden = s.decoder.config.hidden();
    let mut paged = PagedDecoder::new(&s.decoder, layout());
    let sid = paged.open_session(&dev, &Tensor::randn([MEM_LEN, hidden], gen::subseed(s.seed, 5)));
    let prompt = Tensor::randn([MAX_PROMPT / 2, hidden], gen::subseed(s.seed, 6));
    let outs = paged.prefill(&dev, sid, &prompt).map_err(|e| e.to_string())?;
    let last = outs.last().ok_or("prefill returned no rows")?;
    if outs.iter().flatten().any(|v| !v.is_finite()) {
        return Err("non-finite value in a prefill output".into());
    }
    paged.free_session(sid);

    let reqs: Vec<DecodeRequest> = round_requests(s, 0)
        .into_iter()
        .take(SLOTS + 2)
        .map(|r| DecodeRequest {
            decode_tokens: r.decode_tokens.min(3),
            ..r
        })
        .collect();
    let mut engine = PagedDecodeEngine::new(&s.decoder, dev, layout(), MEM_LEN, s.seed);
    let report = run_decode_loop(&reqs, &loop_config(), &mut engine);
    if !report.ledger_is_exact() {
        return Err("decode step ledger does not reconcile with request outcomes".into());
    }
    if !report.summary().accounting_is_exact() || report.summary().served != reqs.len() {
        return Err("decode request accounting is not exact".into());
    }
    Ok(gen::digest(last))
}

/// Wraps the real engine: wall-times every `run_step`, classifies it, and
/// in a traced run files the device's kernel records under the step span.
struct TimedEngine<'a, 'd> {
    inner: PagedDecodeEngine<'d>,
    phase: &'a mut Phase,
    tracer: Option<&'a mut Tracer>,
    /// Wall ms of this round's ops, moved to the steal-free clock and into
    /// the phase when the round ends.
    round_ops_ms: Vec<f64>,
    /// Tokens each live session holds in the cache.
    live: HashMap<usize, usize>,
    ratio_sum: f64,
    ratio_n: u64,
}

impl DecodeEngine for TimedEngine<'_, '_> {
    fn run_step(&mut self, step: &PlannedStep<'_>) -> StepResult {
        let op = self.tracer.as_deref_mut().map(|tr| tr.open_op("run_step"));
        let start = Instant::now();
        let result = self.inner.run_step(step);
        let wall = start.elapsed().as_secs_f64();
        if let (Some(tr), Some(op)) = (self.tracer.as_deref_mut(), op) {
            tr.close_op(op);
            tr.take_kernels(op, self.inner.device());
        }

        let ms = wall * 1e3;
        let p = &mut *self.phase;
        let e = &mut p.extras;
        e.step_wall_s += wall;
        e.steps += 1;
        e.active_sum += (step.decode.len() + step.prefill.len()) as u64;
        p.attempted += 1;
        let clean = result.failed_prefill.is_empty() && result.failed_decode.is_empty();
        if !clean {
            p.failed += 1;
            e.kv_oom += (result.failed_prefill.len() + result.failed_decode.len()) as u64;
        } else if step.prefill.is_empty() && step.decode.len() == SLOTS {
            // The gap between output tokens with every slot live.
            self.round_ops_ms.push(ms);
            e.decode_step_ms.push(ms);
        } else if !step.prefill.is_empty() {
            e.prefill_step_ms.push(ms);
        }

        for c in step.prefill {
            *self.live.entry(c.id).or_insert(0) += c.chunk;
        }
        for id in step.decode {
            *self.live.entry(*id).or_insert(0) += 1;
        }
        for id in result.failed_prefill.iter().chain(&result.failed_decode) {
            self.live.remove(id);
        }
        let used: usize = self.live.values().sum();
        if used > 0 {
            self.ratio_sum += (result.blocks_in_use * BLOCK_TOKENS) as f64 / used as f64;
            self.ratio_n += 1;
        }
        result
    }

    fn free(&mut self, id: usize) {
        self.live.remove(&id);
        self.inner.free(id);
    }

    fn high_water_blocks(&self) -> usize {
        self.inner.high_water_blocks()
    }
}

/// Runs rounds of the decode loop until `seconds` have passed.
pub fn measure(s: &Setup, seconds: f64, mut tracer: Option<&mut Tracer>) -> Phase {
    let mut p = Phase::default();
    let meter = Meter::start();
    let (mut ratio_sum, mut ratio_n) = (0.0, 0u64);
    let mut round = 0u64;
    while meter.elapsed_s() < seconds {
        let reqs = round_requests(s, round);
        round += 1;
        let device = encoder::device(tracer.is_some());
        let mut engine = TimedEngine {
            inner: PagedDecodeEngine::new(&s.decoder, device, layout(), MEM_LEN, gen::subseed(s.seed, round)),
            phase: &mut p,
            tracer: tracer.as_deref_mut(),
            round_ops_ms: Vec::new(),
            live: HashMap::new(),
            ratio_sum: 0.0,
            ratio_n: 0,
        };
        let segment = Segment::start();
        let report = run_decode_loop(&reqs, &loop_config(), &mut engine);
        let (loop_wall, granted) = segment.finish();
        ratio_sum += engine.ratio_sum;
        ratio_n += engine.ratio_n;
        let leaked = engine.live.len();
        let round_ops_ms = std::mem::take(&mut engine.round_ops_ms);
        for wall_ms in round_ops_ms {
            let ms = wall_ms * granted;
            p.op_ms.push(ms);
            p.op_wall_ms.push(wall_ms);
            p.within_slo += u64::from(ms <= s.shape.slo_ms);
        }

        let sum = report.summary();
        let tokens = (sum.prefill_tokens + sum.decode_tokens) as u64;
        p.tokens += tokens;
        p.segment_tok_per_s.push(tokens as f64 / (loop_wall * granted));
        p.extras.loop_wall_s += loop_wall;
        p.extras.kv_high_water_blocks = p.extras.kv_high_water_blocks.max(report.high_water_blocks as u64);
        if !report.ledger_is_exact() {
            p.violations
                .push(format!("round {round}: step ledger does not reconcile"));
        }
        if !sum.accounting_is_exact() {
            p.violations.push(format!("round {round}: served + shed != offered"));
        }
        if sum.served != reqs.len() {
            p.violations.push(format!(
                "round {round}: {} of {} requests served",
                sum.served,
                reqs.len()
            ));
        }
        if leaked != 0 {
            p.violations
                .push(format!("round {round}: {leaked} sessions never freed"));
        }
    }
    p.extras.kv_reserved_over_used = if ratio_n > 0 { ratio_sum / ratio_n as f64 } else { 0.0 };
    p.close(&meter);
    p
}
