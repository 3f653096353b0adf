#!/usr/bin/env bash
# Repo gate: build, tests, formatting, lints. Run before every commit.
# Everything is offline — external deps resolve to the in-workspace shims.
set -euo pipefail
cd "$(dirname "$0")/.."

# `step <title>` closes the previous step's wall clock and opens the next;
# the per-step summary prints after the last one.
step_names=()
step_secs=()
step_t0=$SECONDS
step() {
  if [ "${#step_names[@]}" -gt 0 ]; then step_secs+=("$((SECONDS - step_t0))"); fi
  step_names+=("$1")
  step_t0=$SECONDS
  echo "==> $1"
}

step "env knob table (README) matches the env::var names in code"
# Every literal `env::var("NAME")` under the crates, shims and the root
# binary must have a row in README's knob table, and every row must still
# be read somewhere.
knobs_code="$(grep -rhoE 'env::var\("[A-Za-z0-9_]+"\)' crates/*/src crates/*/benches shims/*/src src \
  | sed -E 's/.*\("([^"]+)"\)/\1/' | sort -u)"
knobs_readme="$(sed -n '/^### Environment variables/,/^## /p' README.md \
  | sed -nE 's/^\| `([A-Za-z0-9_]+)` \|.*/\1/p' | sort -u)"
diff <(echo "$knobs_code") <(echo "$knobs_readme") \
  || { echo "README knob table (>) and env::var names in code (<) differ"; exit 1; }

step "kernel scratch has one owner (bt_gemm::scratch::Pool)"
# A grow-only buffer kept in a thread-local is grown again by every new
# thread (the threaded Server starts one per burst), and one behind a
# `static Mutex<Vec>` needs its own busy / poison fallback. Every kernel's
# working memory is a checkout of a process-wide `Pool` instead; this step
# fails on the next buffer that skips it. The pool itself, in
# crates/gemm/src/scratch.rs, is the one exception.
if grep -rnE 'thread_local!|static [A-Z0-9_]+: ([a-z_]+::)*Mutex<Vec' crates/gemm/src crates/core/src crates/kernels/src \
  | grep -v '^crates/gemm/src/scratch.rs:'; then
  echo "kernel scratch outside bt_gemm::scratch::Pool (above)"; exit 1
fi

step "CPU feature probes have one owner (bt_gemm::dispatch)"
# Which kernel a GEMM runs is resolved once, in crates/gemm/src/dispatch.rs,
# from one host record probed there; a packer or driver that asks the CPU
# itself is a second selection rule. This step fails on the next one.
if grep -rn 'is_x86_feature_detected!' crates/*/src | grep -v '^crates/gemm/src/dispatch.rs:'; then
  echo "CPU feature probe outside bt_gemm::dispatch (above)"; exit 1
fi

step "cargo build --release"
cargo build --release

step "btx decode (real paged engine: whole prompts, chunks, a tight pool) + decoder examples"
# run_decode_loop over PagedDecodeEngine end to end: mixed prefill + decode
# steps, chunked prefill, and cache-OOM sheds at 10 blocks. The binary
# asserts accounting_is_exact and ledger_is_exact and exits nonzero otherwise.
./target/release/btx decode > /dev/null
./target/release/btx decode --chunk 4 > /dev/null
./target/release/btx decode --chunk 4 --blocks 10 > /dev/null
# The decoder examples: a teacher-forced seq2seq forward (one paged prefill
# of every target) and greedy generation through one PagedDecoder. They
# assert causality and finite logits themselves.
cargo run --release --quiet --example seq2seq > /dev/null
cargo run --release --quiet --example generate > /dev/null

step "cargo test --workspace"
cargo test --workspace --quiet

step "cargo test --workspace (BYTE_POOL_THREADS=1)"
# Width-1 pool: every parallel path must also be correct fully serialized
# (including the skinny GEMM driver's column blocks — one lane then walks
# every block; bt-gemm's skinny_differential runs in this pass).
BYTE_POOL_THREADS=1 cargo test --workspace --quiet

step "cargo test --release (standalone benchmark/ package)"
# benchmark/ is a package outside the workspace that compiles against the
# public API of bt-frameworks (Server, ServeConfig, decode::*) and friends:
# without this step an API break passes everything above and is first seen
# by the benchmark pipeline.
cargo test --release --quiet --manifest-path benchmark/Cargo.toml

step "pool counters at width 2 (obs_telemetry pool_counters_show_multi_worker_scheduling)"
# The narrowest multi-lane pool: one worker plus the launching thread.
BYTE_POOL_THREADS=2 cargo test --test obs_telemetry --quiet pool_counters_show_multi_worker_scheduling

# ISA matrix: the GEMM suites must pass with dispatch pinned to the scalar
# tier and with auto-detection (widest tier on this host). Covers the
# BYTE_GEMM_ISA env seam itself, not just the programmatic setter.
# `-p bt-gemm` includes tests/skinny_differential.rs (skinny driver ≡ packed
# driver, bitwise, on every tier).
for isa in scalar auto; do
  step "cargo test -p bt-gemm (incl. skinny_differential) + differential_simd (BYTE_GEMM_ISA=$isa)"
  BYTE_GEMM_ISA="$isa" cargo test -p bt-gemm --quiet
  BYTE_GEMM_ISA="$isa" cargo test -p bytetransformer --test differential_simd --quiet
done

# Precision x ISA matrix: the BYTE_GEMM_PREC env seam must resolve every
# value at both ends of the ISA range. The precision-aware suites sweep
# Precision::ALL themselves (differential_simd's epilogue and low-precision
# tests among them), so only prec_dispatch, which reads the env, runs here —
# the full bt-gemm suite asserts f32 tolerances that a low-precision
# default would rightly break.
for prec in f32 f16 int8; do
  for isa in scalar auto; do
    step "prec_dispatch (BYTE_GEMM_PREC=$prec BYTE_GEMM_ISA=$isa)"
    BYTE_GEMM_PREC="$prec" BYTE_GEMM_ISA="$isa" cargo test -p bt-gemm --test prec_dispatch --quiet
  done
done

step "decode serving artifact (BENCH_decode.json)"
# The bench asserts >= 8 concurrent decode sessions with exact per-step
# accounting, then emits the artifact; a missing emission fails the gate.
BT_BENCH_FAST=1 cargo bench -p bt-bench --bench bench_decode --quiet
test -s BENCH_decode.json || { echo "BENCH_decode.json was not emitted"; exit 1; }

step "fig10_gelu_fusion (fused ≡ unfused GELU, bitwise)"
# GEMM + bias + GELU in the epilogue must store exactly the bits of the GEMM
# followed by the standalone bias and GELU kernels; the bench asserts it per
# row of its sweep and exits nonzero otherwise.
BT_BENCH_FAST=1 cargo bench -p bt-bench --bench fig10_gelu_fusion --quiet

step "fig12_mha_long (grouped and tiled fused MHA ≡ batched attention on valid rows)"
# Algorithm III.2 (vectorised exp, operand panels packed once per problem)
# and the tiled Algorithm III.1 kernel must match the cuBLAS-style batched
# baseline within 5e-3 on every valid row, the fast row holding a sequence
# past FUSED_SHORT_MAX_SEQ; the bench asserts it per row of its sweep and
# exits nonzero otherwise.
BT_BENCH_FAST=1 cargo bench -p bt-bench --bench fig12_mha_long --quiet

step "shard matrix (btx serve --shards)"
# Two acceptance checks from the sharded-router contract: (1) --shards 1
# replays the unsharded server byte-for-byte on a fixed seed (the horizon
# rule makes one routed shard the monolithic loop); (2) a 4-shard run keeps
# exact cross-shard accounting — the btx binary asserts the ledger balances
# and exits nonzero otherwise.
shard_tmp="$(mktemp -d)"
./target/release/btx serve --requests 256 --seed 42 > "$shard_tmp/unsharded.txt"
./target/release/btx serve --requests 256 --seed 42 --shards 1 > "$shard_tmp/shard1.txt"
diff "$shard_tmp/unsharded.txt" "$shard_tmp/shard1.txt" \
  || { echo "btx serve --shards 1 diverged from the unsharded server"; exit 1; }
./target/release/btx serve --seed 42 --shards 4 --route jsq --load 2.0 > /dev/null
rm -rf "$shard_tmp"

step "perf-regression gate (scripts/bench_gate.sh)"
# Re-emits the four BENCH_*.json artifacts and diffs them against the
# baselines committed at HEAD with per-metric tolerance bands; a throughput
# collapse, latency blowup, or broken accounting boolean fails the gate.
scripts/bench_gate.sh
if [ -s target/bench_gate_retry_secs ]; then
  step_names[-1]+=" [first diff failed; retry took $(cat target/bench_gate_retry_secs)s of this]"
fi

step "obs overhead gate (enabled vs disabled at run time)"
# The harness exits nonzero if the instrumented empty pool launch exceeds
# 2x the uninstrumented baseline, or if a span! + counter increment costs
# 5 ns or more with recording turned off by bt_obs::set_enabled(false).
BT_BENCH_FAST=1 cargo bench -p bt-bench --bench obs_overhead --quiet

step "cargo doc --workspace --no-deps (warnings denied)"
# The docs layer is a deliverable: missing_docs and broken intra-doc links
# fail the gate, not just warn.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step_secs+=("$((SECONDS - step_t0))")
echo "==> wall seconds per step"
for i in "${!step_names[@]}"; do
  printf '%6ds  %s\n' "${step_secs[$i]}" "${step_names[$i]}"
done
printf '%6ds  total\n' "$SECONDS"

echo "OK"
