#!/usr/bin/env bash
# Perf-regression gate: re-emit the four BENCH_*.json artifacts and diff
# them against the baselines committed at HEAD with per-metric tolerance
# bands (see crates/bench/src/bin/bench_gate.rs for the bands).
#
# Mode discipline — row keys include workload shape, so each bench must
# re-run in the same mode its committed baseline used:
#   * gemm_isa        FULL mode (BT_BENCH_FAST shrinks the GEMM shapes and
#                     would share zero row keys with the baseline)
#   * pool_launch     FAST mode (rows keyed kernel/batch/seq, mode-invariant)
#   * bench_serve     FAST mode (committed baseline is the 192-request run)
#   * bench_decode    FAST mode (committed baseline is the [2, 8] sweep)
#
# The fresh artifacts are left in the working tree: after an intentional
# perf change, commit them to advance the baselines.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_DIR=$(mktemp -d)
trap 'rm -rf "$BASE_DIR"' EXIT

# Baselines come from HEAD, not the working tree, so the freshly emitted
# artifacts can never gate against themselves.
for f in BENCH_gemm.json BENCH_pool.json BENCH_serve.json BENCH_decode.json; do
  git show "HEAD:$f" > "$BASE_DIR/$f" 2>/dev/null \
    || { rm -f "$BASE_DIR/$f"; echo "warning: $f not committed at HEAD; gate will skip it" >&2; }
done

emit() {
  echo "==> bench_gate: re-emitting artifacts (gemm full, pool/serve/decode fast)"
  cargo bench -p bt-bench --bench gemm_isa --quiet
  BT_BENCH_FAST=1 cargo bench -p bt-bench --bench pool_launch --quiet
  BT_BENCH_FAST=1 cargo bench -p bt-bench --bench bench_serve --quiet
  BT_BENCH_FAST=1 cargo bench -p bt-bench --bench bench_decode --quiet
}

# Prints the gate's table and returns its exit code (1 = regression).
diff_artifacts() {
  echo "==> bench_gate: diffing against HEAD baselines"
  local rc=0
  cargo run --release -p bt-bench --bin bench_gate --quiet -- "$BASE_DIR" . > "$BASE_DIR/diff.txt" || rc=$?
  cat "$BASE_DIR/diff.txt"
  return "$rc"
}

# The guest's hypervisor steals CPU in episodes that put one measured row
# at a fraction of its baseline on an untouched tree, so a failing diff is
# re-measured once; a regression in the code fails both times. The retry's
# wall seconds go to target/bench_gate_retry_secs for check.sh's summary.
RETRY_SECS=target/bench_gate_retry_secs
rm -f "$RETRY_SECS"
emit
rc=0
diff_artifacts || rc=$?
if [ "$rc" -eq 1 ]; then
  echo "==> bench_gate: first diff failed on the rows below; re-emitting and re-diffing once"
  grep '^FAIL' "$BASE_DIR/diff.txt" || true
  t0=$SECONDS
  emit
  rc=0
  diff_artifacts || rc=$?
  echo "$((SECONDS - t0))" > "$RETRY_SECS"
fi
exit "$rc"
