//! Turns measured phases into the named metrics of `spec`.

use crate::phase::Phase;
use crate::probes::Probes;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::tracer::{ratio, CounterDelta, Tracer};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Looks `name` up in a table and pairs it with `value`; panics on a name
/// the tables do not list, so code and `BENCHMARK.json` cannot drift.
fn named(table: &[(&'static str, &'static str)], name: &str, value: f64) -> Metric {
    let &(name, unit) = table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in spec"));
    Metric { name, unit, value }
}

/// Every end-to-end metric, in table order. `tail_pct` is the workload's
/// fixed tail percentile.
pub fn end_to_end(p: &Phase, setup_s: f64, peak_rss_mb: f64, tail_pct: f64) -> Vec<Metric> {
    let table: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let (p50, tail) = p.op_ms_p50_tail(tail_pct);
    let values = [
        ("tok_per_s", p.tok_per_s()),
        ("cpu_us_per_tok", p.cpu_us_per_tok()),
        ("op_ms_p50", p50),
        ("op_ms_tail", tail),
        ("slo_frac", p.slo_frac()),
        ("ok_frac", p.ok_frac()),
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", setup_s),
    ];
    let out: Vec<Metric> = values.iter().map(|&(n, v)| named(&table, n, v)).collect();
    assert_eq!(out.len(), END_TO_END.len(), "every end-to-end metric is reported");
    out
}

/// Inputs of the per-layer metrics: the traced phase with its tracer and
/// counter growth, the untraced baseline phase of the same run, the probes.
pub struct LayerInputs<'a> {
    pub traced: &'a Phase,
    pub untraced: &'a Phase,
    pub tracer: &'a Tracer,
    pub counters: &'a CounterDelta,
    pub probes: &'a Probes,
    pub ring_drops: u64,
    pub pool_width: usize,
    /// Tail percentile for queue wait and generator lateness.
    pub tail_pct: f64,
}

const DENSE: [&str; 4] = ["gemm0.qkv", "gemm1.proj", "gemm2.ffn_up", "gemm3.ffn_down"];

/// The `paged.*` projection and FFN launches: GEMMs with M = live rows.
fn is_skinny_gemm(name: &str) -> bool {
    matches!(
        name,
        "paged.self_qkv"
            | "paged.self_proj"
            | "paged.cross_q"
            | "paged.cross_proj"
            | "paged.cross_kv"
            | "paged.ffn_up"
            | "paged.ffn_down"
    )
}

fn is_attn_long(name: &str) -> bool {
    name.starts_with("attention.") && name != "attention.fused_short"
}

fn is_paged_attn(name: &str) -> bool {
    name.starts_with("paged.attn.") || name.starts_with("paged.cross.")
}

fn tail_of(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        stats::percentile(&stats::sorted(samples), pct)
    }
}

/// Every per-layer metric, in table order. A layer the workload does not
/// exercise reports exact zeros.
pub fn per_layer(i: &LayerInputs<'_>) -> Vec<Metric> {
    let table: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let (tr, c, t, x) = (i.tracer, i.counters, i.traced, &i.traced.extras);
    let ops = tr.ops.max(1) as f64;
    let tokens = t.tokens.max(1) as f64;
    let k = |name: &'static str| tr.kernels_where(move |n| n == name);
    let all = tr.kernels_where(|_| true);
    let dense = tr.kernels_where(|n| DENSE.contains(&n));
    let skinny = tr.kernels_where(is_skinny_gemm);
    let layernorm = tr.kernels_where(|n| n.starts_with("layernorm"));
    let split = k("layout.add_bias_split_qkv_packed");
    let (pack, unpack) = (k("varlen.pack"), k("varlen.unpack"));
    let prefix = k("varlen.prefix_sum");
    let pack_ns = c.get("gemm.grouped.pack_ns") as f64;
    let compute_ns = c.get("gemm.grouped.compute_ns") as f64;
    let jobs: Vec<f64> = c.pool_worker_jobs().iter().map(|&v| v as f64).collect();
    // `pool.<lane>.<what>` summed over the lanes (`worker<i>` and `ext`).
    let lane_sum = |what: &str| c.sum_where(|n| n.starts_with("pool.") && n.rsplit('.').next() == Some(what)) as f64;

    let values: Vec<(&str, f64)> = vec![
        ("gemm.qkv.gflops", k("gemm0.qkv").gflops()),
        ("gemm.proj.gflops", k("gemm1.proj").gflops()),
        ("gemm.ffn_up.gflops", k("gemm2.ffn_up").gflops()),
        ("gemm.ffn_down.gflops", k("gemm3.ffn_down").gflops()),
        ("gemm.dense.share", ratio(dense.wall_ns as f64, tr.op_wall_ns as f64)),
        ("gemm.dense.peak_frac", ratio(dense.gflops(), i.probes.peak_gflops)),
        ("gemm.skinny.gflops", skinny.gflops()),
        ("gemm.skinny.gbs", skinny.gbs()),
        ("gemm.skinny.share", ratio(skinny.wall_ns as f64, tr.op_wall_ns as f64)),
        ("gemm.grouped.pack_frac", ratio(pack_ns, pack_ns + compute_ns)),
        (
            "gemm.grouped.scheduler_visits",
            c.get("gemm.grouped.scheduler_visits") as f64 / ops,
        ),
        ("gemm.calls", c.sum_where(|n| n.starts_with("gemm.calls.")) as f64 / ops),
        (
            "gemm.flops",
            c.sum_where(|n| n.starts_with("gemm.flops.")) as f64 / tokens,
        ),
        (
            "gemm.scratch.high_water_elems",
            c.high_water("gemm.scratch.high_water_elems") as f64,
        ),
        ("gemm.probe.m8.gflops", i.probes.gemm_m8_gflops),
        ("gemm.probe.m1024.gflops", i.probes.gemm_m1024_gflops),
        ("core.attn_short.share", tr.share(|n| n == "attention.fused_short")),
        ("core.attn_short.gflops", k("attention.fused_short").gflops()),
        ("core.attn_long.share", tr.share(is_attn_long)),
        (
            "core.attn_long.qk.gflops",
            tr.kernels_where(|n| is_attn_long(n) && n.ends_with(".qk")).gflops(),
        ),
        (
            "core.attn_long.pv.gflops",
            tr.kernels_where(|n| is_attn_long(n) && n.ends_with(".pv")).gflops(),
        ),
        (
            "core.attn_long.reduce.share",
            tr.share(|n| is_attn_long(n) && n.ends_with(".full_reduce")),
        ),
        ("core.mha.grouped_problems", c.get("mha.grouped.problems") as f64 / ops),
        (
            "core.mha.scheduler_visits",
            c.get("mha.grouped.scheduler_visits") as f64 / ops,
        ),
        ("core.mha.path_short", c.get("mha.path.short") as f64 / ops),
        ("core.mha.path_long", c.get("mha.path.long") as f64 / ops),
        (
            "core.layer_ms_p50",
            stats::median(&tr.durations_ms("layer_forward_packed.")),
        ),
        ("core.forward.self_frac", tr.self_frac("forward") + tr.self_frac("exec")),
        ("core.useful_flop_frac", ratio(x.useful_flops as f64, all.flops as f64)),
        ("core.step.prefill_ms_p50", stats::median(&x.prefill_step_ms)),
        ("core.step.decode_ms_p50", stats::median(&x.decode_step_ms)),
        ("core.paged.attn.share", tr.share(is_paged_attn)),
        ("core.paged.gather.gbs", k("paged.gather").gbs()),
        ("core.paged.rows", c.get("core.paged.rows") as f64 / ops),
        ("kernels.layernorm.gbs", layernorm.gbs()),
        (
            "kernels.layernorm.share",
            ratio(layernorm.wall_ns as f64, tr.op_wall_ns as f64),
        ),
        ("kernels.split_qkv.gbs", split.gbs()),
        (
            "kernels.split_qkv.share",
            ratio(split.wall_ns as f64, tr.op_wall_ns as f64),
        ),
        (
            "kernels.softmax.share",
            tr.share(|n| n.ends_with(".softmax") || n.starts_with("softmax.")),
        ),
        ("kernels.gelu_epilogue.cost_frac", i.probes.gelu_epilogue_cost_frac),
        (
            "varlen.prefix_sum.us",
            ratio(prefix.wall_ns as f64 / 1e3, prefix.calls as f64),
        ),
        ("varlen.pack.gbs", pack.gbs()),
        ("varlen.unpack.gbs", unpack.gbs()),
        (
            "varlen.pack_unpack.share",
            ratio(
                (pack.wall_ns + unpack.wall_ns + prefix.wall_ns) as f64,
                tr.op_wall_ns as f64,
            ),
        ),
        (
            "varlen.valid_frac",
            ratio(x.valid_tokens as f64, x.padded_tokens as f64),
        ),
        ("varlen.kv.blocks_high_water", x.kv_high_water_blocks as f64),
        ("varlen.kv.reserved_over_used", x.kv_reserved_over_used),
        ("varlen.kv.oom", x.kv_oom as f64 + c.get("kvcache.oom") as f64),
        ("frameworks.queue_wait_ms_p50", stats::median(&x.queue_wait_ms)),
        ("frameworks.queue_wait_ms_tail", tail_of(&x.queue_wait_ms, i.tail_pct)),
        ("frameworks.batch_reqs_mean", stats::mean(&x.batch_reqs)),
        ("frameworks.batch_tokens_mean", stats::mean(&x.batch_tokens)),
        ("frameworks.batches", x.batch_reqs.len() as f64),
        ("frameworks.busy_frac", ratio(x.exec_wall_s, t.wall_s).min(1.0)),
        ("frameworks.shed.queue_full", x.shed_queue_full as f64),
        ("frameworks.shed.deadline_expired", x.shed_deadline as f64),
        ("frameworks.shed.too_long", x.shed_too_long as f64),
        (
            "frameworks.overhead_frac",
            if x.makespan_s > 0.0 {
                1.0 - x.exec_wall_s / x.makespan_s
            } else {
                0.0
            },
        ),
        (
            "frameworks.decode.loop_overhead_frac",
            if x.loop_wall_s > 0.0 {
                1.0 - x.step_wall_s / x.loop_wall_s
            } else {
                0.0
            },
        ),
        ("frameworks.decode.steps", x.steps as f64),
        (
            "frameworks.decode.active_mean",
            ratio(x.active_sum as f64, x.steps as f64),
        ),
        ("device.launches_per_op", all.calls as f64 / ops),
        ("device.flops_per_tok", all.flops as f64 / tokens),
        ("device.bytes_per_tok", all.bytes as f64 / tokens),
        (
            "device.host_gap_frac",
            if tr.op_wall_ns > 0 {
                1.0 - all.wall_ns as f64 / tr.op_wall_ns as f64
            } else {
                0.0
            },
        ),
        ("pool.launches_per_op", lane_sum("launches") / ops),
        ("pool.steals_per_op", lane_sum("steals") / ops),
        ("pool.parks_per_op", lane_sum("parks") / ops),
        (
            "pool.lane_imbalance",
            ratio(jobs.iter().copied().fold(0.0, f64::max), stats::mean(&jobs)),
        ),
        ("pool.par_eff", ratio(t.cpu_s, t.wall_s * i.pool_width as f64)),
        ("pool.empty_launch_us", i.probes.empty_launch_us),
        ("tensor.batch_assemble.share", ratio(x.assemble_s, t.wall_s)),
        (
            "obs.trace_overhead_frac",
            ratio(t.cpu_us_per_tok(), i.untraced.cpu_us_per_tok()) - 1.0,
        ),
        ("obs.ring_drops", i.ring_drops as f64),
        ("host.peak_gflops", i.probes.peak_gflops),
        ("host.triad_gbs", i.probes.triad_gbs),
        ("host.steal_frac", t.steal.of_total),
        ("bench.gen_late_ms_tail", tail_of(&x.gen_late_ms, i.tail_pct)),
    ];
    let out: Vec<Metric> = values.iter().map(|&(n, v)| named(&table, n, v)).collect();
    assert_eq!(out.len(), PER_LAYER.len(), "every per-layer metric is reported");
    out
}
