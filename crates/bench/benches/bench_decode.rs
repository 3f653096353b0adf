//! Paged-decode serving harness: token-step continuous batching over the
//! block-paged KV cache, swept across concurrent-session counts.
//!
//! Each cell admits a saturating stream of generation requests (prompt +
//! N decode tokens) into [`run_decode_loop`] with `max_sessions` decode
//! slots, running **real** [`PagedDecodeEngine`] forwards — every K/V row
//! lives in the shared block pool, every step is one grouped-GEMM batch —
//! against modeled A100 time. Recorded per cell: token steps/s and decode
//! tokens/s (virtual time), the concurrency actually sustained, cache
//! high-water, and both accounting ledgers (per request and per token
//! step), which are asserted exact.
//!
//! The headline acceptance figure — at least **8 concurrent decode
//! sessions** sustained under token-budget admission with an exact
//! per-step ledger — is asserted here and recorded in the artifact.
//!
//! Emits `BENCH_decode.json` at the repo root. Run with
//! `cargo bench --bench bench_decode` (`BT_BENCH_FAST=1` shrinks the
//! sweep). The pool geometry is [`PagedLayout::default`].

use bt_bench::{banner, fast_mode};
use bt_core::config::BertConfig;
use bt_core::decoder::TransformerDecoder;
use bt_device::{CostModel, Device};
use bt_frameworks::decode::{decode_workload, run_decode_loop, DecodeConfig, DecodeSummary, PagedDecodeEngine};
use bt_frameworks::serving::poisson_arrivals;
use bt_varlen::paged::PagedLayout;
use bt_varlen::workload::LengthDistribution;
use std::fmt::Write as _;

const PROMPT_SEQ: usize = 16;
const ALPHA: f64 = 0.6;
const MAX_DECODE: usize = 24;
const BUDGET_TOKENS: usize = 64;
const MEM_LEN: usize = 4;
const SEED: u64 = 42;

struct Cell {
    sessions: usize,
    summary: DecodeSummary,
    ledger_exact: bool,
}

fn main() {
    banner(
        "Paged KV-cache decode: token-step continuous batching vs concurrent sessions",
        "block-paged K/V, grouped-GEMM batched steps, token-budget admission",
        ">= 8 concurrent decode sessions sustained with exact per-step accounting",
    );
    let session_sweep: &[usize] = if fast_mode() { &[2, 8] } else { &[1, 2, 4, 8, 16] };
    let layout = PagedLayout::default();

    let config = BertConfig::tiny();
    let decoder = TransformerDecoder::new_random(config, config.layers, SEED);
    println!(
        "model: {} heads x {} head, {} layer(s); pool: {} blocks x {} tokens ({} token capacity)\n",
        config.heads,
        config.head_size,
        config.layers,
        layout.pool_blocks,
        layout.block_tokens,
        layout.capacity_tokens()
    );

    let mut cells: Vec<Cell> = Vec::new();
    println!(
        "{:>8} {:>9} {:>7} {:>7} {:>7} {:>10} {:>12} {:>11} {:>10}",
        "sessions", "sustained", "offered", "served", "shed", "steps", "steps/s", "dec_tok/s", "hw_blocks"
    );
    for &sessions in session_sweep {
        // A saturating arrival burst: enough queued work to keep every
        // decode slot busy from the first steps to near the drain.
        let n = sessions * 6;
        let trace = poisson_arrivals(
            n,
            1e6,
            LengthDistribution::PaperUniform { alpha: ALPHA },
            PROMPT_SEQ,
            SEED,
        );
        let requests = decode_workload(&trace, MAX_DECODE, SEED);
        let decode_config = DecodeConfig {
            budget_tokens: BUDGET_TOKENS,
            queue_capacity: n,
            deadline: f64::INFINITY,
            max_prompt_len: PROMPT_SEQ,
            max_sessions: sessions,
            chunk_tokens: 0,
        };
        let device = Device::with_model(CostModel::a100());
        let mut engine = PagedDecodeEngine::new(&decoder, device, layout, MEM_LEN, SEED);
        let report = run_decode_loop(&requests, &decode_config, &mut engine);
        let s = report.summary();
        let ledger_exact = report.ledger_is_exact();
        assert!(
            s.accounting_is_exact(),
            "{sessions} sessions: request accounting must be exact"
        );
        assert!(ledger_exact, "{sessions} sessions: per-step ledger must reconcile");
        println!(
            "{:>8} {:>9} {:>7} {:>7} {:>7} {:>10} {:>12.0} {:>11.0} {:>10}",
            sessions,
            s.max_concurrent_sessions,
            s.offered,
            s.served,
            s.shed(),
            s.steps,
            s.steps_per_sec(),
            s.decode_tokens_per_sec(),
            s.high_water_blocks
        );
        cells.push(Cell {
            sessions,
            summary: s,
            ledger_exact,
        });
    }

    // The acceptance bar: the widest cell must actually sustain >= 8
    // concurrent sessions (not just be configured for them).
    let widest = cells.last().expect("sweep is non-empty");
    println!(
        "\nwidest cell sustained {} concurrent sessions (target >= 8), both ledgers exact",
        widest.summary.max_concurrent_sessions
    );
    assert!(
        widest.summary.max_concurrent_sessions >= 8,
        "must sustain >= 8 concurrent decode sessions, got {}",
        widest.summary.max_concurrent_sessions
    );

    let mut json = bt_bench::report::RunMeta::collect("decode", "decode_tokens_per_sec").header_json();
    let _ = writeln!(
        json,
        "  \"config\": {{\"prompt_seq\": {PROMPT_SEQ}, \"alpha\": {ALPHA}, \"max_decode\": {MAX_DECODE}, \
         \"budget_tokens\": {BUDGET_TOKENS}, \"mem_len\": {MEM_LEN}, \"block_tokens\": {}, \
         \"pool_blocks\": {}, \"heads\": {}, \"head_size\": {}, \"layers\": {}}},",
        layout.block_tokens, layout.pool_blocks, config.heads, config.head_size, config.layers
    );
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let s = &c.summary;
        let _ = writeln!(
            json,
            "    {{\"max_sessions\": {}, \"sustained_sessions\": {}, \"offered\": {}, \"served\": {}, \
             \"shed_cache_oom\": {}, \"steps\": {}, \"decode_tokens\": {}, \"prefill_tokens\": {}, \
             \"steps_per_sec\": {:.1}, \"decode_tokens_per_sec\": {:.1}, \"makespan_ms\": {:.4}, \
             \"high_water_blocks\": {}, \"accounting_exact\": {}, \"step_ledger_exact\": {}}}{}",
            c.sessions,
            s.max_concurrent_sessions,
            s.offered,
            s.served,
            s.shed_cache_oom,
            s.steps,
            s.decode_tokens,
            s.prefill_tokens,
            s.steps_per_sec(),
            s.decode_tokens_per_sec(),
            s.makespan * 1e3,
            s.high_water_blocks,
            s.accounting_is_exact(),
            c.ledger_exact,
            if i + 1 == cells.len() { "" } else { "," }
        );
    }
    let _ = writeln!(
        json,
        "  ],\n  \"max_sustained_sessions\": {}\n}}",
        widest.summary.max_concurrent_sessions
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_decode.json");
    std::fs::write(path, &json).expect("write BENCH_decode.json");
    println!("wrote {path}");
}
