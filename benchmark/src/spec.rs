//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the end-to-end
//! metric each is predicted to move. `BENCHMARK.json` at the repository
//! root is generated from these tables (`bt-wallbench spec`) and a unit
//! test fails when the two drift apart.

use crate::json::Value;

/// What `BENCHMARK.json` tells the driver to run.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 18;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "enc_short",
        why: "closed loop, 1 caller: forwards of batch 4 x seq<=256; every MHA takes the fused short kernel, the grouped path does nothing",
    },
    WorkloadSpec {
        name: "enc_long",
        why: "closed loop, 1 caller: forwards of batch 2 x seq<=1024; MHA takes the grouped-GEMM path, the short kernel does nothing; dense GEMMs shared with enc_short",
    },
    WorkloadSpec {
        name: "serve_open",
        why: "open loop: arrivals at a fixed light rate into the threaded Server; request latency through queue, cut, small-batch forward, egress",
    },
    WorkloadSpec {
        name: "serve_burst",
        why: "open loop, bursts all due at once: saturated capacity of the threaded Server with full token-budget batches; isolates bt-frameworks cost over enc_short",
    },
    WorkloadSpec {
        name: "decode_paged",
        why: "closed system of 8 slots: run_decode_loop over PagedDecodeEngine; M=8 skinny GEMMs, KV appends and gathers, many small launches per step",
    },
];

pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEndSpec; 8] = [
    EndToEndSpec {
        name: "tok_per_s",
        unit: "tok/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEndSpec {
        name: "cpu_us_per_tok",
        unit: "us/tok",
        better: "lower",
        bound: 0.25,
    },
    EndToEndSpec {
        name: "op_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEndSpec {
        name: "op_ms_tail",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEndSpec {
        name: "slo_frac",
        unit: "ratio",
        better: "higher",
        bound: 0.10,
    },
    EndToEndSpec {
        name: "ok_frac",
        unit: "ratio",
        better: "higher",
        bound: 0.02,
    },
    EndToEndSpec {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.20,
    },
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric and workload this one is predicted to move
    /// (README table; not part of `BENCHMARK.json`, whose schema is fixed).
    pub moves: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str, moves: &'static str) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        moves,
    }
}

const ENC: &str = "tok_per_s, op_ms_p50, cpu_us_per_tok on enc_short, enc_long, serve_burst";
const DEC: &str = "op_ms_p50, tok_per_s on decode_paged; op_ms_p50 on serve_open; no move on enc_*";
const LONG: &str = "enc_long only; exactly 0 on enc_short, serve_*";
const SHORT: &str = "enc_short, serve_*; exactly 0 on enc_long";
const KERNEL: &str = "cpu_us_per_tok by no more than its share";
const KV: &str = "ok_frac, peak_rss_mb on decode_paged";
const SERVE: &str = "op_ms_*, slo_frac, ok_frac on serve_open";
const POOL: &str = "wall metrics (tok_per_s, op_ms_*), not cpu_us_per_tok; most on decode_paged, serve_open";
const HOST: &str = "context for every wall metric; moved by the host, not by the code";

pub const PER_LAYER: &[LayerSpec] = &[
    // bt-gemm
    layer("gemm.qkv.gflops", "GFLOP/s", "higher", ENC),
    layer("gemm.proj.gflops", "GFLOP/s", "higher", ENC),
    layer("gemm.ffn_up.gflops", "GFLOP/s", "higher", ENC),
    layer("gemm.ffn_down.gflops", "GFLOP/s", "higher", ENC),
    layer("gemm.dense.share", "ratio", "lower", ENC),
    layer("gemm.dense.peak_frac", "ratio", "higher", ENC),
    layer("gemm.skinny.gflops", "GFLOP/s", "higher", DEC),
    layer("gemm.skinny.gbs", "GB/s", "higher", DEC),
    layer("gemm.skinny.share", "ratio", "lower", DEC),
    layer(
        "gemm.grouped.pack_frac",
        "ratio",
        "lower",
        "tok_per_s on enc_long, decode_paged",
    ),
    layer(
        "gemm.grouped.scheduler_visits",
        "count",
        "lower",
        "tok_per_s on enc_long, decode_paged",
    ),
    layer(
        "gemm.calls",
        "count",
        "lower",
        "exact per op; changes only when the op graph changes",
    ),
    layer(
        "gemm.flops",
        "count",
        "lower",
        "exact per token; changes only when the op graph changes",
    ),
    layer(
        "gemm.scratch.high_water_elems",
        "count",
        "lower",
        "peak_rss_mb everywhere",
    ),
    layer("gemm.probe.m8.gflops", "GFLOP/s", "higher", DEC),
    layer("gemm.probe.m1024.gflops", "GFLOP/s", "higher", ENC),
    // bt-core
    layer("core.attn_short.share", "ratio", "lower", SHORT),
    layer("core.attn_short.gflops", "GFLOP/s", "higher", SHORT),
    layer("core.attn_long.share", "ratio", "lower", LONG),
    layer("core.attn_long.qk.gflops", "GFLOP/s", "higher", LONG),
    layer("core.attn_long.pv.gflops", "GFLOP/s", "higher", LONG),
    layer("core.attn_long.reduce.share", "ratio", "lower", LONG),
    layer("core.mha.grouped_problems", "count", "lower", LONG),
    layer("core.mha.scheduler_visits", "count", "lower", LONG),
    layer(
        "core.mha.path_short",
        "count",
        "lower",
        "exact per op: MHA calls that took the short kernel; 0 on enc_long",
    ),
    layer(
        "core.mha.path_long",
        "count",
        "lower",
        "exact per op: MHA calls that took the grouped path; 0 on enc_short, serve_*",
    ),
    layer(
        "core.layer_ms_p50",
        "ms",
        "lower",
        "tok_per_s, op_ms_p50 on enc_*, serve_*",
    ),
    layer(
        "core.forward.self_frac",
        "ratio",
        "lower",
        "tok_per_s on enc_*, serve_*",
    ),
    layer(
        "core.useful_flop_frac",
        "ratio",
        "higher",
        "tok_per_s everywhere; stays near 1 while padding stays removed",
    ),
    layer("core.step.prefill_ms_p50", "ms", "lower", "tok_per_s on decode_paged"),
    layer("core.step.decode_ms_p50", "ms", "lower", "op_ms_p50 on decode_paged"),
    layer("core.paged.attn.share", "ratio", "lower", "op_ms_p50 on decode_paged"),
    layer("core.paged.gather.gbs", "GB/s", "higher", "op_ms_p50 on decode_paged"),
    layer(
        "core.paged.rows",
        "count",
        "lower",
        "per step: token rows through the paged pipeline",
    ),
    // bt-kernels
    layer("kernels.layernorm.gbs", "GB/s", "higher", KERNEL),
    layer("kernels.layernorm.share", "ratio", "lower", KERNEL),
    layer("kernels.split_qkv.gbs", "GB/s", "higher", KERNEL),
    layer("kernels.split_qkv.share", "ratio", "lower", KERNEL),
    layer("kernels.softmax.share", "ratio", "lower", KERNEL),
    layer(
        "kernels.gelu_epilogue.cost_frac",
        "ratio",
        "lower",
        "tok_per_s on enc_*, serve_* (ffn_up is the largest GEMM)",
    ),
    // bt-varlen
    layer("varlen.prefix_sum.us", "us", "lower", "nothing end to end at 2 layers"),
    layer("varlen.pack.gbs", "GB/s", "higher", "nothing end to end at 2 layers"),
    layer("varlen.unpack.gbs", "GB/s", "higher", "nothing end to end at 2 layers"),
    layer(
        "varlen.pack_unpack.share",
        "ratio",
        "lower",
        "nothing end to end at 2 layers",
    ),
    layer(
        "varlen.valid_frac",
        "ratio",
        "higher",
        "exact: valid over padded tokens of the inputs",
    ),
    layer("varlen.kv.blocks_high_water", "count", "lower", KV),
    layer("varlen.kv.reserved_over_used", "ratio", "lower", KV),
    layer("varlen.kv.oom", "count", "lower", KV),
    // bt-frameworks
    layer("frameworks.queue_wait_ms_p50", "ms", "lower", SERVE),
    layer("frameworks.queue_wait_ms_tail", "ms", "lower", SERVE),
    layer("frameworks.batch_reqs_mean", "count", "higher", SERVE),
    layer("frameworks.batch_tokens_mean", "count", "higher", SERVE),
    layer("frameworks.batches", "count", "lower", SERVE),
    layer("frameworks.busy_frac", "ratio", "lower", SERVE),
    layer("frameworks.shed.queue_full", "count", "lower", SERVE),
    layer("frameworks.shed.deadline_expired", "count", "lower", SERVE),
    layer("frameworks.shed.too_long", "count", "lower", SERVE),
    layer(
        "frameworks.overhead_frac",
        "ratio",
        "lower",
        "tok_per_s on serve_burst; nothing on enc_*",
    ),
    layer(
        "frameworks.decode.loop_overhead_frac",
        "ratio",
        "lower",
        "tok_per_s on decode_paged",
    ),
    layer("frameworks.decode.steps", "count", "lower", "tok_per_s on decode_paged"),
    layer(
        "frameworks.decode.active_mean",
        "count",
        "higher",
        "tok_per_s on decode_paged",
    ),
    // bt-device
    layer(
        "device.launches_per_op",
        "count",
        "lower",
        "op_ms_p50 on decode_paged, serve_open",
    ),
    layer(
        "device.flops_per_tok",
        "count",
        "lower",
        "exact; cpu_us_per_tok everywhere",
    ),
    layer(
        "device.bytes_per_tok",
        "count",
        "lower",
        "exact, computed from tensor sizes; cpu_us_per_tok everywhere",
    ),
    layer(
        "device.host_gap_frac",
        "ratio",
        "lower",
        "op_ms_p50 on decode_paged, serve_open",
    ),
    // shims/rayon
    layer("pool.launches_per_op", "count", "lower", POOL),
    layer("pool.steals_per_op", "count", "lower", POOL),
    layer("pool.parks_per_op", "count", "lower", POOL),
    layer("pool.lane_imbalance", "ratio", "lower", POOL),
    layer("pool.par_eff", "ratio", "higher", POOL),
    layer("pool.empty_launch_us", "us", "lower", POOL),
    // bt-tensor, bt-obs, host, the benchmark itself
    layer("tensor.batch_assemble.share", "ratio", "lower", "op_ms_p50 on serve_*"),
    layer(
        "obs.trace_overhead_frac",
        "ratio",
        "lower",
        "nothing: end-to-end runs have telemetry off",
    ),
    layer(
        "obs.ring_drops",
        "count",
        "lower",
        "nothing: trust in the traced numbers",
    ),
    layer("host.peak_gflops", "GFLOP/s", "higher", HOST),
    layer("host.triad_gbs", "GB/s", "higher", HOST),
    layer("host.steal_frac", "ratio", "lower", HOST),
    layer(
        "bench.gen_late_ms_tail",
        "ms",
        "lower",
        "trust in op_ms_* on serve_open",
    ),
];

/// The three tables as markdown, for `benchmark/README.md` (pasted there;
/// a unit test fails when a metric is missing from the README).
pub fn markdown() -> String {
    let mut out = String::from("| workload | why |\n|---|---|\n");
    for w in &WORKLOADS {
        out += &format!("| `{}` | {} |\n", w.name, w.why);
    }
    out += "\n| end-to-end metric | unit | better | bound |\n|---|---|---|---|\n";
    for m in &END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {:.0} % |\n",
            m.name,
            m.unit,
            m.better,
            m.bound * 100.0
        );
    }
    out += "\n| per-layer metric | unit | better | predicted to move |\n|---|---|---|---|\n";
    for m in PER_LAYER {
        out += &format!("| `{}` | {} | {} | {} |\n", m.name, m.unit, m.better, m.moves);
    }
    out
}

/// The `BENCHMARK.json` document these tables describe.
pub fn benchmark_json() -> Value {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::Str((*s).to_string())).collect());
    Value::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&PATHS)),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::Str(w.name.into())), ("why", Value::Str(w.why.into()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::Str(m.name.into())),
                            ("unit", Value::Str(m.unit.into())),
                            ("better", Value::Str(m.better.into())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::Str(m.name.into())),
                            ("unit", Value::Str(m.unit.into())),
                            ("better", Value::Str(m.better.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        let mut c = s.chars();
        c.next().is_some_and(|f| f.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty() && s.len() <= 16 && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_driver_limits() {
        let mut names = BTreeSet::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        for m in &END_TO_END {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(matches!(m.better, "higher" | "lower"));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in PER_LAYER {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(matches!(m.better, "higher" | "lower"));
            assert!(!m.moves.is_empty());
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && benchmark_json().encode().len() < 64 * 1024);
    }

    #[test]
    fn readme_names_every_workload_and_metric() {
        let readme = include_str!("../README.md");
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md does not mention `{name}`"
            );
        }
    }

    #[test]
    fn benchmark_json_on_disk_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let on_disk = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: bt-wallbench spec > BENCHMARK.json"
        );
    }
}
