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
use bytetransformer::gemm::grouped::{
    grouped_sgemm, GroupedConfig, GroupedProblem, GroupedStats, NoEpilogue, NoTransform, Scheduler,
};
use bytetransformer::gemm::scratch::grow;
use bytetransformer::gemm::TileEpilogue;
use bytetransformer::gemm::{
    active_precision, set_active_precision, sgemm, sgemm_prepacked, GemmSpec, PackedB, Precision, SKINNY_MAX_M,
};
use bytetransformer::obs;
use bytetransformer::prelude::*;
use bytetransformer::varlen::paged::PagedLayout;
use bytetransformer::varlen::workload::masked_randn;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

/// Pool width must be set before the pool's lazy init; the CI host may
/// expose a single CPU, and the pool-counter assertions need real workers.
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
    use rayon::prelude::*;
    let _guard = setup();
    if rayon::current_num_threads() < 2 {
        // check.sh's BYTE_POOL_THREADS=1 pass: a width-1 pool runs every
        // launch inline and has no worker lane to assert on.
        return;
    }
    // (launches over every lane, injector pops over the worker lanes,
    // parks over every lane), cumulative.
    let pool_counts = || {
        let sum = |prefix: &str, suffix: &str| -> u64 {
            obs::counter_values()
                .iter()
                .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
                .map(|(_, v)| v)
                .sum()
        };
        (
            sum("pool.", ".launches"),
            sum("pool.worker", ".injector_pops"),
            sum("pool.", ".parks"),
        )
    };
    let before = pool_counts();
    // An outside launch of two items that wait for each other: the
    // launching thread claims one and holds it until the other has run, so
    // a worker must pop the launch's token off the queue.
    let deadline = Instant::now() + Duration::from_secs(30);
    let arrived = AtomicUsize::new(0);
    (0..2usize).into_par_iter().for_each(|_| {
        arrived.fetch_add(1, SeqCst);
        while arrived.load(SeqCst) < 2 {
            assert!(
                Instant::now() < deadline,
                "no worker claimed the second item within 30 s"
            );
            std::thread::yield_now();
        }
    });
    let after = pool_counts();
    assert!(after.0 > before.0, "parallel_for launches must be counted");
    assert!(after.1 > before.1, "a worker lane must pop the launch's token");
    // The queue is empty again, so the worker parks on the eventcount.
    while pool_counts().2 == before.2 {
        assert!(
            Instant::now() < deadline,
            "idle workers must record parks (none within 30 s)"
        );
        std::thread::yield_now();
    }
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
        let flat = Tensor::randn([ids.len(), hidden], 20 + t);
        let rows: Vec<_> = ids.iter().copied().zip(flat.as_slice().chunks(hidden)).collect();
        assert!(paged.forward(&dev, &rows).iter().all(Result::is_ok));
    }
    assert_eq!(
        counts(),
        (problems, rows + 24),
        "decode steps must not reach the grouped engine"
    );
}

#[test]
fn weight_gemms_lay_out_no_b_operand() {
    // Every model weight is packed once at construction, so an f32 forward
    // of any stack makes no per-launch `B` pack (`gemm.b_packs`), while a
    // raw-slice sgemm of the same shape on the packed driver makes one.
    // Pinned to f32 under the lock: a low precision quantises per launch.
    let _guard = setup();
    let prev = active_precision();
    set_active_precision(Precision::F32);
    let b_packs = || counter_of(&obs::drain(), obs::names::GEMM_B_PACKS);
    let config = BertConfig::tiny();
    let hidden = config.hidden();
    let dev = Device::with_model(CostModel::unit());

    // A warm encoder forward past the skinny crossover (every GEMM on the
    // packed driver).
    let model = BertModel::new_random(config, 2, 7);
    let mask = BatchMask::from_lens(vec![100, 90, 80, 70], 100).unwrap();
    let rows = mask.valid_words();
    assert!(rows > SKINNY_MAX_M);
    let input = masked_randn(&mask, hidden, 3);
    model.forward(&dev, &input, &mask, OptLevel::FusedMha).unwrap();
    let before = b_packs();
    model.forward(&dev, &input, &mask, OptLevel::FusedMha).unwrap();
    assert_eq!(b_packs(), before, "a warm encoder forward packs no weight");
    let w = &model.weights.layers[0].qkv_weight;
    let a = Tensor::randn([rows, hidden], 4);
    let mut c = vec![0.0f32; rows * w.n()];
    sgemm(
        GemmSpec::nn(),
        rows,
        w.n(),
        w.k(),
        a.as_slice(),
        &w.to_row_major(),
        &mut c,
    );
    assert_eq!(b_packs(), before + 1, "a raw sgemm of the qkv shape packs its B once");

    // A mixed PagedDecoder::forward: one session prefilling five rows, one
    // stepping one.
    let decoder = TransformerDecoder::new_random(config, 2, 5);
    let mut paged = PagedDecoder::new(&decoder, PagedLayout::new(4, 32));
    let (s0, s1) = (
        paged.open_session(&dev, &Tensor::randn([4, hidden], 1)),
        paged.open_session(&dev, &Tensor::randn([6, hidden], 2)),
    );
    paged.prefill(&dev, s1, &Tensor::randn([3, hidden], 3)).unwrap();
    let (prompt, step) = (Tensor::randn([5, hidden], 4), Tensor::randn([1, hidden], 5));
    let before = b_packs();
    let outs = paged.forward(&dev, &[(s0, prompt.as_slice()), (s1, step.as_slice())]);
    assert!(outs.iter().all(Result::is_ok));
    assert_eq!(b_packs(), before, "a mixed prefill + decode forward packs no weight");

    // A teacher-forced forward (one paged prefill of every target).
    let (tm, mm) = (
        BatchMask::from_lens(vec![6, 3, 8], 8).unwrap(),
        BatchMask::from_lens(vec![5, 9, 2], 9).unwrap(),
    );
    let x = masked_randn(&tm, hidden, 6);
    let m = masked_randn(&mm, hidden, 7);
    decoder.forward(&dev, &x, &tm, &m, &mm).unwrap();
    assert_eq!(b_packs(), before, "a teacher-forced forward packs no weight");
    set_active_precision(prev);
}

#[test]
fn a_raw_low_precision_gemm_lays_out_b_once() {
    // At f16 / int8 a raw untransposed `B` is quantised where it lies: one
    // per-launch layout, not an f32 pack and then a quantisation of it. A
    // transposed one is packed first (two); a weight is only quantised (one).
    let _guard = setup();
    let prev = active_precision();
    let b_packs = || counter_of(&obs::drain(), obs::names::GEMM_B_PACKS);
    let (m, n, k) = (40, 70, 33);
    let a = Tensor::randn([m, k], 1);
    let b = Tensor::randn([k, n], 2);
    let w = PackedB::pack(b.as_slice(), false, k, n);
    let mut c = vec![0.0f32; m * n];
    for prec in [Precision::F16, Precision::Int8] {
        set_active_precision(prec);
        let before = b_packs();
        sgemm(GemmSpec::nn(), m, n, k, a.as_slice(), b.as_slice(), &mut c);
        assert_eq!(b_packs(), before + 1, "{prec}: a raw B is laid out once");
        sgemm(GemmSpec::nt(), m, n, k, a.as_slice(), b.as_slice(), &mut c);
        assert_eq!(
            b_packs(),
            before + 3,
            "{prec}: a transposed B is packed, then quantised"
        );
        sgemm_prepacked(m, a.as_slice(), &w, &mut c, None);
        assert_eq!(b_packs(), before + 4, "{prec}: a weight is quantised once");
    }
    set_active_precision(prev);
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

/// One grouped launch of twelve multi-tile problems (every problem's `A`
/// and `B` go through the launch buffer), a skinny GEMM, and the tiled
/// (Algorithm III.1) and rows (III.2) attentions; returns the grouped
/// launch's stats and every output.
fn pooled_kernels_once(epilogue: &dyn TileEpilogue) -> (GroupedStats, Vec<Vec<f32>>) {
    let shapes: Vec<(usize, usize, usize)> = (0..12).map(|i| (70 + i * 17, 65 + i * 13, 16 + i * 24)).collect();
    let operands: Vec<(Tensor, Tensor)> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, n, k))| (Tensor::randn([m, k], i as u64), Tensor::randn([k, n], 50 + i as u64)))
        .collect();
    let problems: Vec<GroupedProblem<'_>> = shapes
        .iter()
        .zip(&operands)
        .map(|(&(m, n, k), (a, b))| GroupedProblem {
            m,
            n,
            k,
            transb: false,
            alpha: 1.0,
            a: a.as_slice(),
            b: b.as_slice(),
        })
        .collect();
    let mut outs: Vec<Vec<f32>> = shapes.iter().map(|&(m, n, _)| vec![0.0; m * n]).collect();
    let config = GroupedConfig {
        num_ctas: 4,
        ..Default::default()
    };
    let stats = grouped_sgemm(
        &problems,
        outs.iter_mut().map(Vec::as_mut_slice).collect(),
        config,
        epilogue,
        &NoTransform,
    );

    let (m, n, k) = (8, 300, 200);
    assert!(m <= SKINNY_MAX_M);
    let (a, b) = (Tensor::randn([m, k], 1), Tensor::randn([k, n], 2));
    let mut c = vec![0.0f32; m * n];
    sgemm(GemmSpec::nn(), m, n, k, a.as_slice(), b.as_slice(), &mut c);
    outs.push(c);

    let dev = Device::with_model(CostModel::unit());
    let idx = PackingIndex::from_mask(&BatchMask::from_lens(vec![37, 200, 5], 200).unwrap());
    let (heads, head) = (4, 16);
    let [q, k, v] = [3u64, 4, 5].map(|seed| Tensor::randn([heads, idx.valid_words(), head], seed));
    outs.push(fused_attention(&dev, &q, &k, &v, &idx).as_slice().to_vec());
    outs.push(causal_fused_attention(&dev, &q, &k, &v, &idx).as_slice().to_vec());
    (stats, outs)
}

#[test]
fn warm_scratch_pools_serve_a_new_thread() {
    // Kernel scratch belongs to process-wide pools, not to a thread: a
    // thread that lives for one batch (the threaded `Server` starts one per
    // burst) finds the buffers earlier threads grew. Both passes run under
    // `sequential`, so each pool serves one checkout at a time and the
    // second pass asks for exactly what the first grew.
    let _guard = setup();
    let grows = || counter_of(&obs::drain(), obs::names::GEMM_SCRATCH_GROWS);
    let before = grows();
    grow(&mut Vec::<f32>::new(), 1);
    assert!(grows() > before, "the counter read here counts a pooled buffer's grow");

    let before = grows();
    let (first, outs) = rayon::sequential(|| pooled_kernels_once(&NoEpilogue));
    assert!(grows() - before < first.tiles, "grows are bounded by shapes, not tiles");
    let before = grows();
    let (second, again) = std::thread::spawn(|| rayon::sequential(|| pooled_kernels_once(&NoEpilogue)))
        .join()
        .unwrap();
    assert_eq!(grows() - before, 0, "a new thread's kernels must grow no pooled buffer");
    assert_eq!(second.tiles, first.tiles);
    assert!(outs.iter().zip(&again).all(|(x, y)| x == y));
}

/// A skinny GEMM small enough to run inside a tile epilogue.
fn small_gemm() -> Vec<f32> {
    let (m, n, k) = (4, 40, 24);
    let (a, b) = (Tensor::randn([m, k], 7), Tensor::randn([k, n], 8));
    let mut c = vec![0.0f32; m * n];
    sgemm(GemmSpec::nn(), m, n, k, a.as_slice(), b.as_slice(), &mut c);
    c
}

#[test]
fn nested_checkouts_are_served_and_stay_warm() {
    // An epilogue that runs a skinny GEMM checks a launch buffer and a task
    // scratch out while the grouped launch holds one of each: it gets its
    // own, and the pools keep both, warm.
    struct NestedGemm(Vec<f32>);
    impl TileEpilogue for NestedGemm {
        fn apply(&self, _: usize, _: usize, _: usize, _: usize, _: usize, _: &mut [f32]) {
            assert_eq!(
                small_gemm(),
                self.0,
                "a nested GEMM must compute what an outer one does"
            );
        }
    }
    let _guard = setup();
    let nested = NestedGemm(small_gemm());
    let grows = || counter_of(&obs::drain(), obs::names::GEMM_SCRATCH_GROWS);
    let (_, plain) = rayon::sequential(|| pooled_kernels_once(&NoEpilogue));
    let (_, first) = rayon::sequential(|| pooled_kernels_once(&nested));
    assert_eq!(first, plain);
    let before = grows();
    let (_, second) = rayon::sequential(|| pooled_kernels_once(&nested));
    assert_eq!(grows() - before, 0, "a warm nested launch must grow no pooled buffer");
    assert_eq!(second, plain);
}
