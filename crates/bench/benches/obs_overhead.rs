//! Telemetry overhead harness: proves the `bt-obs` layer is cheap when
//! enabled and nearly free when turned off at run time.
//!
//! Two measurements:
//!
//! 1. **Instrumented empty pool launch** — the PR 2 pool-overhead baseline
//!    (an empty `parallel_for` fan-out) re-measured with telemetry enabled
//!    vs disabled. The acceptance bar: the enabled path stays within 2x of
//!    the disabled path (with a 2 µs floor so sub-µs jitter on an idle host
//!    cannot fail the run).
//! 2. **Tight span/counter loop** — per-op cost of `span!` + counter
//!    increments, drained between chunks so the ring never saturates.
//!    With recording disabled by `bt_obs::set_enabled(false)` every call is
//!    one relaxed load and a branch: asserted at < 5 ns/op. The enabled
//!    cost is reported alongside.
//!
//! Run with `cargo bench -p bt-bench --bench obs_overhead`; `BT_BENCH_FAST=1`
//! shrinks reps. Exits nonzero on a violated bound, so `scripts/check.sh`
//! uses it as the overhead gate.

use bt_bench::{banner, fast_mode, wall};
use rayon::prelude::*;
use std::hint::black_box;

/// Best-of-`reps` wall time of one empty pool fan-out, in microseconds.
fn empty_launch_us(width: usize, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let (_, secs) = wall(|| {
            (0..width).into_par_iter().for_each(|i| {
                black_box(i);
            });
        });
        best = best.min(secs * 1e6);
    }
    best
}

static LOOP_COUNTER: bt_obs::Counter = bt_obs::Counter::new("bench.obs_overhead.loop");

/// Mean cost of one `span!` + counter increment, in nanoseconds. Drains
/// between chunks so ring saturation (drops) never flatters the number.
fn span_ns_per_op(total: usize) -> f64 {
    let chunk = 8192; // half the ring: enter+exit = 2 events per op
    let mut spent = 0.0;
    let mut done = 0usize;
    while done < total {
        let n = chunk.min(total - done);
        let (_, secs) = wall(|| {
            for i in 0..n {
                let _span = bt_obs::span!("bench.obs_overhead.span");
                LOOP_COUNTER.add(black_box(i as u64) & 1);
            }
        });
        spent += secs;
        let _ = bt_obs::drain();
        done += n;
    }
    spent * 1e9 / total as f64
}

fn main() {
    // Widen the pool before its lazy init (single-CPU CI hosts).
    if std::env::var("BYTE_POOL_THREADS").is_err() {
        std::env::set_var("BYTE_POOL_THREADS", "4");
    }
    let width = rayon::current_num_threads();
    banner(
        "bt-obs overhead: instrumented pool launch + span loop",
        "telemetry must not perturb what it measures",
        "enabled within 2x of disabled; disabled spans < 5 ns/op",
    );
    let reps = if fast_mode() { 200 } else { 2000 };
    let span_ops = if fast_mode() { 100_000 } else { 1_000_000 };
    println!("pool width = {width}, reps = {reps} (best-of)\n");

    // Warm the pool + ring registration outside the measurement.
    bt_obs::set_enabled(true);
    let _ = empty_launch_us(width, 10);
    let _ = bt_obs::drain();

    bt_obs::set_enabled(false);
    let disabled_us = empty_launch_us(width, reps);
    bt_obs::set_enabled(true);
    let enabled_us = empty_launch_us(width, reps);
    let _ = bt_obs::drain();

    let floor = disabled_us.max(2.0);
    println!("empty pool launch, telemetry disabled: {disabled_us:.3} us (best-of-{reps})");
    println!("empty pool launch, telemetry enabled:  {enabled_us:.3} us (best-of-{reps})");
    println!("bound: enabled <= 2x max(disabled, 2 us) = {:.3} us", 2.0 * floor);
    assert!(
        enabled_us <= 2.0 * floor,
        "instrumented launch {enabled_us:.3} us exceeds 2x the {floor:.3} us baseline"
    );

    bt_obs::set_enabled(false);
    let disabled_ns = span_ns_per_op(span_ops);
    bt_obs::set_enabled(true);
    let enabled_ns = span_ns_per_op(span_ops);
    println!("\nspan!+counter loop, telemetry disabled: {disabled_ns:.1} ns/op over {span_ops} ops");
    println!("span!+counter loop, telemetry enabled:  {enabled_ns:.1} ns/op over {span_ops} ops");
    println!("bound: disabled < 5 ns/op");
    assert!(
        disabled_ns < 5.0,
        "disabled span loop costs {disabled_ns:.1} ns/op; the off switch must be one load and a branch"
    );
    println!("\nOK: telemetry overhead within bounds");
}
