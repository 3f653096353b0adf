//! Shared harness utilities for the figure/table benchmarks.
//!
//! Every paper artifact has its own `harness = false` bench target under
//! `benches/`; each prints the same rows/series the paper reports, with both
//! the **modeled A100 time** (the deterministic roofline over the execution
//! trace — the primary, paper-comparable metric) and the measured CPU wall
//! time of the real kernels (single host machine, shape-only comparable).
//!
//! Environment knobs (`1` on, `0` or unset off; any other value panics):
//!
//! * `BT_BENCH_FAST=1` — shrink every sweep for smoke runs/CI.
//! * `BT_BENCH_FULL=1` — run the paper's full batch-16 / 12-layer shapes
//!   (slow on a small host; the defaults keep `cargo bench` under ~10 min
//!   on one core and are documented in EXPERIMENTS.md).

use bt_core::config::BertConfig;
use std::time::Instant;

pub mod report;

/// True when `BT_BENCH_FAST=1`; panics on a value other than `1` or `0`.
pub fn fast_mode() -> bool {
    std::env::var("BT_BENCH_FAST").is_ok_and(|v| parse_switch("BT_BENCH_FAST", &v).unwrap_or_else(|e| panic!("{e}")))
}

/// True when `BT_BENCH_FULL=1`; panics on a value other than `1` or `0`.
pub fn full_mode() -> bool {
    std::env::var("BT_BENCH_FULL").is_ok_and(|v| parse_switch("BT_BENCH_FULL", &v).unwrap_or_else(|e| panic!("{e}")))
}

/// A `BT_BENCH_*` switch value: `1` is on, `0` is off.
fn parse_switch(name: &str, v: &str) -> Result<bool, String> {
    match v.trim() {
        "1" => Ok(true),
        "0" => Ok(false),
        _ => Err(format!("{name}: invalid value `{v}` (expected `1` or `0`)")),
    }
}

/// The benchmark model configuration: the paper's standard BERT
/// (12 heads × 64) unless fast mode shrinks it.
pub fn bench_config() -> BertConfig {
    if fast_mode() {
        BertConfig {
            heads: 4,
            head_size: 16,
            ffn_scale: 4,
            layers: 12,
            eps: 1e-6,
        }
    } else {
        BertConfig::bert_base()
    }
}

/// The sequence-length sweep used by most figures (paper: 128 → 1024).
pub fn seq_sweep() -> Vec<usize> {
    if fast_mode() {
        vec![64, 128]
    } else if full_mode() {
        vec![128, 256, 384, 512, 768, 1024]
    } else {
        vec![128, 256, 512, 1024]
    }
}

/// Default batch size: the paper uses 16; on a single-core host the default
/// is 4 (percent breakdowns and speedup ratios are batch-invariant for the
/// quantities compared — the harnesses note where this matters).
pub fn bench_batch() -> usize {
    if fast_mode() {
        2
    } else if full_mode() {
        16
    } else {
        4
    }
}

/// Times one invocation, returning seconds.
pub fn wall<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Prints a standard harness banner.
pub fn banner(title: &str, paper_ref: &str, expectation: &str) {
    println!("\n=============================================================");
    println!("{title}");
    println!("paper artifact: {paper_ref}");
    println!("expected shape: {expectation}");
    if fast_mode() {
        println!("NOTE: BT_BENCH_FAST=1 — shrunken shapes, shapes only.");
    }
    println!("=============================================================");
}

/// Formats a speedup as the paper does ("+87%" style).
pub fn pct_faster(base: f64, ours: f64) -> String {
    format!("{:+.0}%", (base / ours - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_shapes() {
        // (Env-sensitive modes are covered by running the benches.)
        if !fast_mode() && !full_mode() {
            assert_eq!(bench_config().hidden(), 768);
            assert_eq!(bench_batch(), 4);
            assert!(seq_sweep().contains(&1024));
        }
    }

    #[test]
    fn bench_switches_accept_one_and_zero_only() {
        assert_eq!(parse_switch("BT_BENCH_FAST", "1"), Ok(true));
        assert_eq!(parse_switch("BT_BENCH_FAST", "0"), Ok(false));
        for bad in ["true", "yes", "", "2"] {
            let err = parse_switch("BT_BENCH_FULL", bad).unwrap_err();
            assert!(
                err.contains("BT_BENCH_FULL") && err.contains(&format!("`{bad}`")),
                "{err}"
            );
        }
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct_faster(2.0, 1.0), "+100%");
        assert_eq!(pct_faster(1.0, 1.0), "+0%");
    }
}
