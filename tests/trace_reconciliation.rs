//! Request-trace reconciliation: the per-request timelines reconstructed
//! from the drained telemetry must agree **exactly** with the serving
//! ledger — same outcome for every offered request, and phase durations
//! that reproduce the ledger's queue-wait and end-to-end latency to within
//! nanosecond rounding of the virtual clock.
//!
//! Every test drains the same process-global telemetry state, so they
//! serialize on one lock; the disabled-path test proves that turning
//! recording off at run time leaves the ledger unaffected.

use bytetransformer::frameworks::admission::CutPolicy;
use bytetransformer::frameworks::server::{run_open_loop, Outcome, ServeConfig};
use bytetransformer::frameworks::serving::{poisson_arrivals, TimedRequest};
use bytetransformer::obs;
use bytetransformer::obs::trace::{reconstruct, RequestTrace, TraceOutcome};
use bytetransformer::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

const TOKENS_PER_SEC: f64 = 1.0e6;
const BATCH_OVERHEAD: f64 = 50e-6;

fn synthetic_exec(mask: &BatchMask) -> f64 {
    BATCH_OVERHEAD + mask.valid_words() as f64 / TOKENS_PER_SEC
}

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn stress_config(seq: usize, alpha: f64, chunk_tokens: usize) -> ServeConfig {
    let mean_tokens = alpha * seq as f64;
    let interval = 8.0 * mean_tokens / TOKENS_PER_SEC;
    ServeConfig {
        policy: CutPolicy::TokenBudget {
            budget_tokens: (TOKENS_PER_SEC * interval).round() as usize,
        },
        queue_capacity: 48,
        deadline: 2.0 * interval,
        max_len: seq,
        chunk_tokens,
    }
}

fn arrivals_at_double_load(n: usize, seq: usize, alpha: f64, seed: u64) -> Vec<TimedRequest> {
    let rate = 2.0 * TOKENS_PER_SEC / (alpha * seq as f64);
    poisson_arrivals(n, rate, LengthDistribution::PaperUniform { alpha }, seq, seed)
}

/// Reconstructed timelines keyed by request id; asserts the id space is
/// exactly `0..offered` with no duplicates.
fn timelines_by_id(traces: Vec<RequestTrace>, offered: usize) -> BTreeMap<usize, RequestTrace> {
    let mut by_id = BTreeMap::new();
    for t in traces {
        let id = t.id.request_id();
        assert!(id < offered, "trace for unknown request id {id}");
        assert!(by_id.insert(id, t).is_none(), "request {id} reconstructed twice");
    }
    assert_eq!(by_id.len(), offered, "every offered request must reconstruct");
    by_id
}

/// |`ns` − `secs`·1e9| ≤ 2 ns: the trace stamps `round(t·1e9)` per event, so
/// a difference of two rounded stamps can drift a nanosecond either way
/// from the rounded difference the ledger would produce.
fn matches_ns(ns: u64, secs: f64, what: &str, id: usize) {
    let diff = (ns as f64 - secs * 1e9).abs();
    assert!(
        diff <= 2.0,
        "request {id}: trace {what} {ns} ns vs ledger {:.1} ns (diff {diff:.1})",
        secs * 1e9
    );
}

/// The acceptance run: seeded 2× overload, whole-batch and chunked. EVERY
/// offered request reconstructs to a complete causal timeline whose
/// outcome matches the ledger and whose phase durations sum to the
/// ledger's end-to-end latency.
#[test]
fn every_offered_request_reconstructs_exactly_at_double_load() {
    let _guard = lock();
    for (seed, chunk) in [(7u64, 0usize), (1234, 0), (0xdead_beef, 96)] {
        let config = stress_config(256, 0.6, chunk);
        let requests = arrivals_at_double_load(600, 256, 0.6, seed);
        obs::set_enabled(true);
        let _ = obs::drain();
        let report = run_open_loop(&requests, &config, synthetic_exec);
        let profile = obs::drain();
        assert_eq!(profile.dropped, 0, "seed {seed}: the run must fit the rings");

        let s = report.summary();
        assert!(s.accounting_is_exact());
        assert!(
            s.served > 0 && s.shed() > 0,
            "seed {seed}: 2x load must both serve and shed"
        );
        let by_id = timelines_by_id(reconstruct(&profile), s.offered);

        for o in &report.outcomes {
            let t = &by_id[&o.id];
            let phases = t
                .phases()
                .unwrap_or_else(|| panic!("request {} has no terminal phase breakdown", o.id));
            let total = t.total_ns().expect("terminal timeline has a total");
            assert_eq!(
                phases.queue_wait_ns + phases.compute_ns + phases.egress_ns,
                total,
                "request {}: phases must telescope to the end-to-end total",
                o.id
            );
            match o.outcome {
                Outcome::Served { queue_wait, latency } => {
                    assert_eq!(t.outcome(), TraceOutcome::Done, "request {}", o.id);
                    matches_ns(total, latency, "total latency", o.id);
                    matches_ns(phases.queue_wait_ns, queue_wait, "queue wait", o.id);
                }
                Outcome::Shed { reason, wait } => {
                    assert_eq!(
                        t.outcome(),
                        TraceOutcome::Shed(reason.label().to_string()),
                        "request {}",
                        o.id
                    );
                    matches_ns(total, wait, "shed wait", o.id);
                }
            }
        }

        // The deadline filter the CLI exposes agrees with the ledger.
        let missed_in_ledger: usize = report
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o.outcome,
                    Outcome::Shed {
                        reason: bytetransformer::frameworks::admission::ShedReason::DeadlineExpired
                            | bytetransformer::frameworks::admission::ShedReason::CancelledMidRequest,
                        ..
                    }
                )
            })
            .count();
        let missed_in_traces = by_id.values().filter(|t| t.deadline_missed()).count();
        assert_eq!(missed_in_traces, missed_in_ledger, "seed {seed}");
    }
}

/// With recording disabled the same run yields a bit-identical ledger (the
/// tagged marks never touch the virtual clock) and an empty reconstruction.
#[test]
fn disabled_tracing_leaves_the_ledger_bit_identical() {
    let _guard = lock();
    let config = stress_config(256, 0.6, 0);
    let requests = arrivals_at_double_load(400, 256, 0.6, 99);

    obs::set_enabled(false);
    let _ = obs::drain();
    let off = run_open_loop(&requests, &config, synthetic_exec);
    let silent = obs::drain();
    assert!(
        reconstruct(&silent).is_empty(),
        "disabled recording must reconstruct no timelines"
    );
    assert!(off.summary().accounting_is_exact());

    obs::set_enabled(true);
    let _ = obs::drain();
    let on = run_open_loop(&requests, &config, synthetic_exec);
    let _ = obs::drain();
    obs::set_enabled(false);
    assert_eq!(on.outcomes, off.outcomes, "tracing must not perturb outcomes");
    assert_eq!(on.makespan.to_bits(), off.makespan.to_bits());

    // Sanity: the enabled twin really did record.
    obs::set_enabled(true);
    let _ = obs::drain();
    let again = run_open_loop(&requests, &config, synthetic_exec);
    let profile = obs::drain();
    obs::set_enabled(false);
    assert_eq!(timelines_by_id(reconstruct(&profile), 400).len(), 400);
    assert_eq!(again.outcomes, off.outcomes);
}
