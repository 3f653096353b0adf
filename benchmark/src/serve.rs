//! `serve_open` and `serve_burst`: the threaded `Server` executing real
//! forwards, driven open-loop from one generator thread.

use crate::encoder::{self, check_forward, forward_op, useful_flops, LAYERS};
use crate::gen;
use crate::phase::{Meter, Phase, Segment};
use crate::tracer::Tracer;
use bt_core::encoder::BertModel;
use bt_device::Device;
use bt_frameworks::admission::{CutPolicy, ShedReason};
use bt_frameworks::server::{Outcome, RequestOutcome, ServeConfig, Server};
use bt_tensor::rng::Xoshiro256StarStar;
use bt_tensor::Tensor;
use bt_varlen::BatchMask;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Longest request, tokens.
pub const MAX_LEN: usize = 256;
/// `CutPolicy::TokenBudget` budget of both workloads.
pub const BUDGET_TOKENS: usize = 1024;

#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// Arrivals at this fixed mean rate (requests per second) for the whole
    /// measured phase, one per `1 / rate` slot at a seeded instant within
    /// it (`gen::paced_schedule`). An absolute constant, not scaled to the
    /// host: tuned once so that `frameworks.busy_frac` sits in 0.2–0.5 on
    /// the reference host.
    Paced { rate: f64 },
    /// Bursts of this many requests, all due at the instant the burst
    /// starts; the next burst starts when the last one has drained.
    Bursts { size: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub heads: usize,
    pub arrivals: Arrivals,
    pub queue: usize,
    /// Seconds a request may wait for its batch to start.
    pub deadline_s: f64,
    /// Latency limit from a request's due time, ms.
    pub slo_ms: f64,
}

pub const OPEN: Shape = Shape {
    heads: encoder::HEADS,
    arrivals: Arrivals::Paced { rate: 2.0 },
    queue: 64,
    deadline_s: 2.0,
    slo_ms: 1000.0,
};

pub const BURST: Shape = Shape {
    heads: encoder::HEADS,
    arrivals: Arrivals::Bursts { size: 32 },
    queue: 256,
    deadline_s: f64::INFINITY,
    slo_ms: 10_000.0,
};

impl Shape {
    pub fn smoke(self) -> Shape {
        Shape {
            heads: encoder::SMOKE_HEADS,
            arrivals: match self.arrivals {
                Arrivals::Paced { rate } => Arrivals::Paced { rate: 4.0 * rate },
                Arrivals::Bursts { .. } => Arrivals::Bursts { size: 6 },
            },
            ..self
        }
    }

    fn config(&self) -> ServeConfig {
        ServeConfig {
            policy: CutPolicy::TokenBudget {
                budget_tokens: BUDGET_TOKENS,
            },
            queue_capacity: self.queue,
            deadline: self.deadline_s,
            max_len: MAX_LEN,
            chunk_tokens: 0,
        }
    }
}

pub struct Setup {
    pub shape: Shape,
    seed: u64,
    model: Arc<BertModel>,
    /// `MAX_LEN × hidden` request rows; a request of length `l` is the
    /// first `l` rows (the server hands the executor lengths, not ids).
    rows: Arc<Vec<f32>>,
}

pub fn setup(shape: Shape, seed: u64) -> Setup {
    let config = encoder::config(shape.heads);
    let model = Arc::new(BertModel::new_random(config, LAYERS, gen::subseed(seed, 1)));
    let rows = Arc::new(Tensor::randn([MAX_LEN, config.hidden()], gen::subseed(seed, 2)).into_vec());
    let s = Setup {
        shape,
        seed,
        model,
        rows,
    };
    let mask = BatchMask::from_lens(vec![MAX_LEN / 2], MAX_LEN / 2).expect("one sequence");
    let input = assemble(&s.rows, &mask, config.hidden());
    std::hint::black_box(s.model.forward(&encoder::device(false), &input, &mask, encoder::OPT))
        .expect("warm-up forward");
    s
}

/// Copies each request's rows into the zero-padded `[batch, max_seq, hidden]`
/// batch the cut produced.
fn assemble(rows: &[f32], mask: &BatchMask, hidden: usize) -> Tensor {
    let max_seq = mask.max_seq_len();
    let mut data = vec![0.0f32; mask.batch() * max_seq * hidden];
    for (b, &len) in mask.seq_lens().iter().enumerate() {
        data[b * max_seq * hidden..(b * max_seq + len) * hidden].copy_from_slice(&rows[..len * hidden]);
    }
    Tensor::from_vec(data, [mask.batch(), max_seq, hidden]).expect("assembled shape")
}

pub fn check(s: &Setup) -> Result<u64, String> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(gen::subseed(s.seed, 3));
    let lens = gen::stratified_lengths(4, MAX_LEN, &mut rng);
    let max = *lens.iter().max().expect("four lengths");
    let mask = BatchMask::from_lens(lens, max).map_err(|e| e.to_string())?;
    let input = assemble(&s.rows, &mask, s.model.config.hidden());
    check_forward(&s.model, &input, &mask)
}

/// What the executor saw of one batch.
struct BatchRecord {
    reqs: usize,
    tokens: usize,
    padded: usize,
    useful_flops: u64,
    assemble_s: f64,
    exec_s: f64,
    ok: bool,
}

type ExecLog = Arc<Mutex<Vec<BatchRecord>>>;

/// The batch executor the server thread calls: assemble, forward, verify.
fn executor(
    s: &Setup,
    device: Arc<Device>,
    log: ExecLog,
    tracer: Option<Arc<Mutex<Tracer>>>,
) -> impl FnMut(&BatchMask) + Send + 'static {
    let (model, rows) = (Arc::clone(&s.model), Arc::clone(&s.rows));
    let hidden = model.config.hidden();
    move |mask: &BatchMask| {
        let mut guard = tracer.as_ref().map(|t| t.lock().expect("tracer lock"));
        let op = guard.as_deref_mut().map(|tr| tr.open_op("exec"));
        let start = Instant::now();
        let input = match (guard.as_deref_mut(), op) {
            (Some(tr), Some(op)) => tr.call("batch_assemble", op, &device, || assemble(&rows, mask, hidden)),
            _ => assemble(&rows, mask, hidden),
        };
        let assemble_s = start.elapsed().as_secs_f64();
        let out = forward_op(&model, &device, &input, mask, guard.as_deref_mut().zip(op));
        let ok = out.is_ok_and(|t| std::hint::black_box(&t).as_slice().iter().all(|v| v.is_finite()));
        let exec_s = start.elapsed().as_secs_f64();
        if let (Some(tr), Some(op)) = (guard.as_deref_mut(), op) {
            tr.close_op(op);
        }
        log.lock().expect("exec log lock").push(BatchRecord {
            reqs: mask.batch(),
            tokens: mask.valid_words(),
            padded: mask.padded_words(),
            useful_flops: useful_flops(mask, hidden),
            assemble_s,
            exec_s,
            ok,
        });
    }
}

/// One request of the schedule and what became of it.
struct Offered {
    len: usize,
    /// When it was due, from the start of its server's schedule.
    due: Duration,
    /// How late the generator submitted it; `None` if the producer-side
    /// `try_submit` refused it.
    late: Option<Duration>,
}

/// Submits `schedule` to a fresh server on its due times, drains the
/// server and books every request into `p`. Returns how long the server
/// took on the steal-free clock, in seconds.
fn run_server(
    s: &Setup,
    schedule: Vec<(Duration, usize)>,
    first_id: usize,
    device: &Arc<Device>,
    tracer: &Option<Arc<Mutex<Tracer>>>,
    p: &mut Phase,
) -> f64 {
    let log: ExecLog = Arc::default();
    let server = Server::spawn(
        s.shape.config(),
        executor(s, Arc::clone(device), Arc::clone(&log), tracer.clone()),
    );
    let handle = server.handle();
    let segment = Segment::start();
    let epoch = Instant::now();
    let mut offered: Vec<Offered> = Vec::with_capacity(schedule.len());
    let mut producer_shed = 0u64;
    let mut disconnected = 0u64;
    for (i, (due, len)) in schedule.into_iter().enumerate() {
        if let Some(wait) = due.checked_sub(epoch.elapsed()) {
            std::thread::sleep(wait);
        }
        let late = epoch.elapsed().saturating_sub(due);
        let late = match handle.try_submit(first_id + i, len) {
            Ok(()) => Some(late),
            Err(Some(ShedReason::QueueFull)) => {
                producer_shed += 1;
                None
            }
            Err(_) => {
                disconnected += 1;
                None
            }
        };
        offered.push(Offered { len, due, late });
    }
    drop(handle);
    let (outcomes, _batches) = server.finish();
    let (makespan_s, granted) = segment.finish();

    let n = offered.len() as u64;
    p.attempted += n;
    p.extras.makespan_s += makespan_s;
    p.extras.shed_queue_full += producer_shed;
    let mut resolved = producer_shed + disconnected;
    let mut served_here = 0u64;
    p.failed += producer_shed + disconnected;
    for RequestOutcome { id, len, outcome } in outcomes {
        let o = &offered[id - first_id];
        resolved += 1;
        if len != o.len {
            p.violations
                .push(format!("request {id}: outcome length {len} != offered {}", o.len));
        }
        match outcome {
            Outcome::Served { queue_wait, latency } => {
                let late = o.late.expect("served requests were submitted");
                served_here += 1;
                let wall_ms = (late.as_secs_f64() + latency) * 1e3;
                let ms = wall_ms * granted;
                p.op_ms.push(ms);
                p.op_wall_ms.push(wall_ms);
                p.within_slo += u64::from(ms <= s.shape.slo_ms);
                p.tokens += len as u64;
                p.extras.queue_wait_ms.push(queue_wait * 1e3);
                p.extras.gen_late_ms.push(late.as_secs_f64() * 1e3);
                if let Some(tr) = tracer {
                    let mut tr = tr.lock().expect("tracer lock");
                    let due_ns = tr.spans.ns_at(epoch + o.due);
                    tr.request(id, due_ns, due_ns + (wall_ms * 1e6) as u64);
                }
            }
            Outcome::Shed { reason, .. } => {
                p.failed += 1;
                match reason {
                    ShedReason::QueueFull => p.extras.shed_queue_full += 1,
                    ShedReason::DeadlineExpired => p.extras.shed_deadline += 1,
                    ShedReason::TooLong => p.extras.shed_too_long += 1,
                    other => p
                        .violations
                        .push(format!("request {id}: unexpected shed reason {}", other.label())),
                }
            }
        }
    }
    // The ledger: every offered request has exactly one outcome, the
    // producer-side rejections included.
    if resolved != n {
        p.violations
            .push(format!("ledger: {resolved} outcomes for {n} offered requests"));
    }
    let log = log.lock().expect("exec log lock");
    let batch_reqs: usize = log.iter().map(|b| b.reqs).sum();
    for b in log.iter() {
        p.extras.batch_reqs.push(b.reqs as f64);
        p.extras.batch_tokens.push(b.tokens as f64);
        p.extras.exec_wall_s += b.exec_s;
        p.extras.assemble_s += b.assemble_s;
        p.extras.valid_tokens += b.tokens as u64;
        p.extras.padded_tokens += b.padded as u64;
        p.extras.useful_flops += b.useful_flops;
        if !b.ok {
            p.violations.push("a served batch produced a non-finite output".into());
        }
    }
    if batch_reqs as u64 != served_here {
        p.violations.push(format!(
            "executor ran {batch_reqs} requests, server served {served_here}"
        ));
    }
    makespan_s * granted
}

/// Runs the workload's arrival process for `seconds`.
pub fn measure(s: &Setup, seconds: f64, tracer: Option<Tracer>) -> (Phase, Option<Tracer>) {
    let device = Arc::new(encoder::device(tracer.is_some()));
    let tracer = tracer.map(|t| Arc::new(Mutex::new(t)));
    let mut rng = Xoshiro256StarStar::seed_from_u64(gen::subseed(s.seed, 4));
    let mut p = Phase::default();
    let meter = Meter::start();
    match s.shape.arrivals {
        Arrivals::Paced { rate } => {
            let n = ((rate * seconds).round() as usize).max(1);
            let lens = gen::stratified_lengths(n, MAX_LEN, &mut rng);
            let schedule = gen::paced_schedule(n, seconds, &mut rng)
                .into_iter()
                .map(Duration::from_secs_f64)
                .zip(lens)
                .collect();
            run_server(s, schedule, 0, &device, &tracer, &mut p);
        }
        Arrivals::Bursts { size } => {
            let mut first_id = 0;
            while meter.elapsed_s() < seconds {
                let schedule = gen::stratified_lengths(size, MAX_LEN, &mut rng)
                    .into_iter()
                    .map(|len| (Duration::ZERO, len))
                    .collect();
                let tokens = p.tokens;
                let burst_s = run_server(s, schedule, first_id, &device, &tracer, &mut p);
                p.segment_tok_per_s.push((p.tokens - tokens) as f64 / burst_s);
                first_id += size;
            }
        }
    }
    p.close(&meter);
    let tracer = tracer.map(|t| {
        Arc::try_unwrap(t)
            .expect("server threads have exited")
            .into_inner()
            .expect("tracer lock")
    });
    (p, tracer)
}
