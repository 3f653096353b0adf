//! End-to-end telemetry: the `bt-obs` layer, wired through the pool, the
//! GEMMs, fused MHA, and the serving loop, must produce a profile whose
//! spans reconcile with the `Device` execution trace and whose pool
//! counters prove real multi-worker scheduling happened.
//!
//! Every test drains the same process-global telemetry state, so they
//! serialize on one lock and assert on **deltas** (counters are cumulative
//! across drains).

use bytetransformer::core::attention::FUSED_SHORT_MAX_SEQ;
use bytetransformer::core::paged::PagedDecoder;
use bytetransformer::frameworks::admission::{CutPolicy, ShedReason};
use bytetransformer::frameworks::calibration::TURBO_MAX_SEQ;
use bytetransformer::frameworks::server::{modeled_forward_executor, run_open_loop, Outcome, ServeConfig};
use bytetransformer::gemm::grouped::Scheduler;
use bytetransformer::obs;
use bytetransformer::prelude::*;
use bytetransformer::varlen::paged::PagedLayout;
use bytetransformer::varlen::workload::masked_randn;
use std::sync::{Mutex, Once, OnceLock};

/// Pool width must be set before the pool's lazy init; the CI host may
/// expose a single CPU, and the steal/park assertions need real workers.
fn setup() -> std::sync::MutexGuard<'static, ()> {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        if std::env::var("BYTE_POOL_THREADS").is_err() {
            std::env::set_var("BYTE_POOL_THREADS", "4");
        }
        let _ = rayon::current_num_threads(); // force pool init at width 4
    });
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    obs::set_enabled(true);
    let _ = obs::drain(); // start each test from a clean event stream
    guard
}

fn counter_of(profile: &bytetransformer::obs::profile::Profile, name: &str) -> u64 {
    profile.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

fn forward_once(seq: usize) -> (Device, BatchMask) {
    let config = BertConfig::tiny();
    let mask = LengthDistribution::PaperUniform { alpha: 0.6 }.sample_mask(4, seq, 42);
    let model = BertModel::new_random(config, 1, 7);
    let input = masked_randn(&mask, config.hidden(), 3);
    let dev = Device::new();
    model.forward(&dev, &input, &mask, OptLevel::FusedMha).expect("valid");
    (dev, mask)
}

#[test]
fn forward_spans_reconcile_with_device_trace() {
    let _guard = setup();
    // Warm-up: first use pays one-time telemetry init (label interning,
    // ring registration) inside the trace's wall timer but outside the
    // span; measure a second forward so the two clocks cover the same work.
    let _ = forward_once(32);
    let _ = obs::drain();
    let (dev, _mask) = forward_once(32);
    let profile = obs::drain();
    assert_eq!(profile.dropped, 0, "one tiny forward must not saturate the ring");

    // Every traced kernel launch emitted an obs span under the same name:
    // per name, counts must match exactly and the obs wall time must cover
    // at least the in-kernel wall time the trace recorded.
    let trace = dev.trace();
    let totals = profile.span_totals();
    let mut by_name: std::collections::BTreeMap<&str, (u64, f64)> = std::collections::BTreeMap::new();
    for r in &trace {
        let e = by_name.entry(r.name.as_str()).or_default();
        e.0 += 1;
        e.1 += r.wall.as_secs_f64();
    }
    assert!(!by_name.is_empty());
    for (name, (launches, wall_secs)) in by_name {
        let (count, total_ns) = totals
            .get(name)
            .copied()
            .unwrap_or_else(|| panic!("kernel {name} has no obs span"));
        assert_eq!(count, launches, "span count for {name}");
        let obs_secs = total_ns as f64 / 1e9;
        // The span sits just inside the trace's wall timer, so the two
        // measurements must agree up to per-launch bookkeeping noise (a
        // loaded single-CPU CI host can stall either clock for a while,
        // hence the generous slack — the exact invariant is the count).
        assert!(
            (obs_secs - wall_secs).abs() < 10e-3 * launches as f64,
            "span {name}: obs {obs_secs}s vs traced wall {wall_secs}s"
        );
    }

    // The span tree nests pool fan-outs under the kernels that ran them
    // (a width-1 pool runs parallel_for inline, without a fan-out span).
    let tree = profile.render_tree();
    if rayon::current_num_threads() >= 2 {
        assert!(tree.contains("pool.parallel_for"));
    }
    assert!(tree.contains("mha.fused.short"));
}

#[test]
fn pool_counters_show_multi_worker_scheduling() {
    let _guard = setup();
    if rayon::current_num_threads() < 2 {
        // check.sh's BYTE_POOL_THREADS=1 pass: a width-1 pool has no
        // siblings to steal from, so there is nothing to assert here.
        return;
    }
    // External launches only reach the shared injector; steals happen when
    // a *worker* pushes sub-tasks to its own deque and siblings take them.
    // Run forwards from inside a pool task until a steal shows up
    // (work-stealing is probabilistic; bound the retries).
    let mut steals = 0u64;
    let mut parks = 0u64;
    let mut launches = 0u64;
    for _ in 0..200 {
        rayon::scope(|s| {
            s.spawn(|| {
                let _ = forward_once(32);
            });
        });
        let profile = obs::drain();
        for (name, v) in &profile.counters {
            if name.starts_with("pool.worker") && name.ends_with(".steals") {
                steals += v;
            }
            if name.starts_with("pool.") && name.ends_with(".parks") {
                parks += v;
            }
            if name.starts_with("pool.") && name.ends_with(".launches") {
                launches += v;
            }
        }
        if steals > 0 && parks > 0 {
            break;
        }
    }
    assert!(launches > 0, "parallel_for launches must be counted");
    assert!(steals > 0, "multi-worker pool must record deque steals");
    assert!(parks > 0, "idle workers must record parks");
}

#[test]
fn paged_forwards_hand_the_grouped_engine_no_problem() {
    // Every paged attention unit, a prefill chunk's or a decode step's, at
    // any precision, reads K/V in place (the rows form): neither prefilling
    // sessions nor stepping them adds to `mha.grouped.problems`.
    let _guard = setup();
    let config = BertConfig::tiny();
    let hidden = config.hidden();
    let decoder = TransformerDecoder::new_random(config, 2, 5);
    let dev = Device::with_model(CostModel::unit());
    let mut paged = PagedDecoder::new(&decoder, PagedLayout::new(4, 32));
    let ids: Vec<_> = (0..3)
        .map(|i| paged.open_session(&dev, &Tensor::randn([4, hidden], i)))
        .collect();
    // (grouped-engine problems, paged rows), cumulative.
    let counts = || {
        let profile = obs::drain();
        (
            counter_of(&profile, "mha.grouped.problems"),
            counter_of(&profile, "core.paged.rows"),
        )
    };
    let (problems, rows) = counts();
    for (i, &sid) in ids.iter().enumerate() {
        paged
            .prefill(&dev, sid, &Tensor::randn([5, hidden], 10 + i as u64))
            .unwrap();
    }
    assert_eq!(
        counts(),
        (problems, rows + 15),
        "prefills must not reach the grouped engine"
    );
    for t in 0..3 {
        let step = paged.step_batch(&dev, &ids, Tensor::randn([ids.len(), hidden], 20 + t).as_slice());
        assert!(step.oom.is_empty());
    }
    assert_eq!(
        counts(),
        (problems, rows + 24),
        "decode steps must not reach the grouped engine"
    );
}

#[test]
fn long_sequences_take_no_grouped_path() {
    // The encoder takes the tiled kernel at every length and the decoder's
    // causal self-attention the rows form: no forward reaches the grouped
    // engine, which only the paper's long-sequence kernel (Figs. 7 / 12)
    // still runs.
    let _guard = setup();
    let before = obs::drain();
    let _ = forward_once(512);
    let after = obs::drain();
    // Counters are cumulative: assert on the delta across the forward.
    let d = |before: &obs::profile::Profile, after: &obs::profile::Profile, name: &str| {
        counter_of(after, name) - counter_of(before, name)
    };
    assert!(
        d(&before, &after, "mha.path.short") > 0,
        "the encoder takes the tiled kernel at seq 512"
    );
    assert_eq!(d(&before, &after, "mha.path.long"), 0);
    assert_eq!(d(&before, &after, "mha.grouped.problems"), 0);

    let (heads, head, len) = (2, 16, FUSED_SHORT_MAX_SEQ + 16);
    let idx = PackingIndex::from_mask(&BatchMask::from_lens(vec![len, 7], len).unwrap());
    let qkv: Vec<Tensor> = (0..3)
        .map(|i| Tensor::randn([heads, idx.valid_words(), head], 5 + i))
        .collect();
    let before = after;
    causal_fused_attention(&Device::new(), &qkv[0], &qkv[1], &qkv[2], &idx);
    let after = obs::drain();
    assert_eq!(d(&before, &after, "mha.path.long"), 0);
    assert_eq!(
        d(&before, &after, "mha.grouped.problems"),
        0,
        "causal seq {len} must not reach the grouped engine"
    );

    let before = after;
    fused_grouped_attention(&Device::new(), &qkv[0], &qkv[1], &qkv[2], &idx, Scheduler::WarpPrefetch);
    let after = obs::drain();
    assert_eq!(d(&before, &after, "mha.grouped.problems"), 2 * heads as u64);
    assert!(d(&before, &after, "gemm.grouped.scheduler_visits") > 0);
    assert!(
        after
            .counters
            .iter()
            .any(|(n, v)| n.starts_with("gemm.grouped.tiles.") && *v > 0),
        "grouped GEMM must count tiles for the active ISA tier"
    );
}

#[test]
fn serving_records_latency_and_shed_telemetry() {
    let _guard = setup();
    let model = BertModel::new_random(BertConfig::tiny(), 1, 42);
    // TurboTransformer rejects seq > 512; with `max_len` at that limit the
    // admission gate sheds the 600-token request before any forward could
    // fail, while the short one is served — both must appear in the profile.
    let fw = SimFramework::new(FrameworkKind::TurboTransformer, model);
    let requests: Vec<_> = [20usize, 600]
        .iter()
        .enumerate()
        .map(|(id, &len)| bytetransformer::frameworks::serving::TimedRequest {
            id,
            len,
            arrival: id as f64 * 1e-4,
        })
        .collect();
    let config = ServeConfig {
        policy: CutPolicy::Fifo { max_batch: 1 },
        queue_capacity: 2,
        deadline: f64::INFINITY,
        max_len: TURBO_MAX_SEQ,
        chunk_tokens: 0,
    };
    let report = run_open_loop(&requests, &config, modeled_forward_executor(&fw, CostModel::unit(), 9));
    let profile = obs::drain();

    assert_eq!(report.batches, 1);
    assert!(matches!(report.outcomes[0].outcome, Outcome::Served { latency, .. } if latency > 0.0));
    assert!(matches!(
        report.outcomes[1].outcome,
        Outcome::Shed {
            reason: ShedReason::TooLong,
            ..
        }
    ));
    let totals = profile.span_totals();
    assert_eq!(totals.get("serve.batch").map(|t| t.0), Some(1));
    assert_eq!(totals.get("serve.batch.forward").map(|t| t.0), Some(1));
    assert_eq!(
        profile.events.iter().filter(|e| e.name == "req.shed.too_long").count(),
        1,
        "the shed request must carry its terminal mark"
    );
    assert!(profile.histograms.iter().any(|h| h.name == "serve.batch.occupancy"));
}

#[test]
fn disabling_telemetry_stops_recording() {
    let _guard = setup();
    obs::set_enabled(false);
    let _ = forward_once(32);
    obs::set_enabled(true);
    let profile = obs::drain();
    assert!(
        profile.events.is_empty(),
        "no spans may be recorded while telemetry is disabled"
    );
}
