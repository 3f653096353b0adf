//! Per-framework calibration constants and the paper's Table I.
//!
//! These are the *only* tunables in the cross-framework comparison (DESIGN.md
//! §6); everything else — kernel counts, padded vs packed iteration spaces,
//! fusion structure, grouping behaviour — is encoded structurally in
//! [`crate::SimFramework`]'s plan per framework.

use bt_core::config::BertConfig;
use bt_core::flops::{layer_flops, FlopVariant};
use bt_device::{CostModel, LaunchTax};
use bt_varlen::workload::LengthDistribution;

/// PyTorch (JIT): eager-ish dispatcher with a noticeable per-op tax; its
/// hand-written CUDA kernels are close to peak; GEMMs are cuBLAS.
pub const PYTORCH_TAX: LaunchTax = LaunchTax {
    dispatch: 8e-6,
    bw_derate: 0.95,
    flops_derate: 1.0,
};

/// TensorFlow (XLA): compiled graph so dispatch is cheaper than PyTorch,
/// but XLA-codegenned element-wise kernels achieve a markedly lower fraction
/// of bandwidth than hand-tuned CUDA, and its GEMM autotuning is weaker —
/// which is how TF lands behind PyTorch in the paper's Fig. 14.
pub const TENSORFLOW_TAX: LaunchTax = LaunchTax {
    dispatch: 3e-6,
    bw_derate: 0.60,
    flops_derate: 0.85,
};

/// TurboTransformer: a serving runtime with moderate dispatch cost; its
/// kernels are tuned (partial fusion per Table I). Its real handicap is
/// structural — the sort-and-group re-batching multiplies kernel launches
/// and shrinks per-launch batch sizes (see [`crate::grouping`]).
pub const TURBO_TAX: LaunchTax = LaunchTax {
    dispatch: 6e-6,
    bw_derate: 0.90,
    flops_derate: 1.0,
};

/// FasterTransformer: a lean C++ runtime over hand-tuned kernels, cuBLAS
/// and TensorRT — near-zero derates; its handicaps are structural (fixed-
/// shape fused MHA ≤ 512, unfused fallback above).
pub const FASTER_TRANSFORMER_TAX: LaunchTax = LaunchTax {
    dispatch: 2e-6,
    bw_derate: 1.0,
    flops_derate: 1.0,
};

/// ByteTransformer: the same lean-runtime assumptions as FasterTransformer.
pub const BYTETRANSFORMER_TAX: LaunchTax = LaunchTax {
    dispatch: 1e-6,
    bw_derate: 1.0,
    flops_derate: 1.0,
};

/// TurboTransformer's maximum supported sequence length (paper §IV.E:
/// "TurboTransformer only supports sequence lengths smaller than 512").
pub const TURBO_MAX_SEQ: usize = 512;

/// Sequence length up to which FasterTransformer's TensorRT-style fused MHA
/// applies; beyond it FT falls back to unfused batched attention (paper:
/// "its back-end TensorRT fused MHA cannot be scaled to long sequences").
pub const FT_FUSED_MHA_MAX_SEQ: usize = 512;

/// Minimum length ratio TurboTransformer's batch scheduler accepts when
/// grouping sequences into one padded sub-batch.
pub const TURBO_GROUP_RATIO: f64 = 0.7;

/// Serving capacity of one runtime on one device: the sustained
/// valid-token throughput the admission layer budgets against.
///
/// Produced by [`calibrate_capacity`] (modeled roofline probe) or
/// [`host_tokens_per_sec_from_bench_json`] (measured host GFLOP/s from a
/// `BENCH_gemm.json` artifact). Everything the server derives — batch token
/// budgets, open-loop arrival rates for a given load factor — comes through
/// the methods here, so "2× load" means the same thing in the stress test,
/// the bench, and `btx serve`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeCapacity {
    /// Sustained valid tokens per second.
    pub tokens_per_sec: f64,
}

impl ServeCapacity {
    /// The per-batch valid-token budget that makes one batch roughly
    /// `batch_interval` seconds of work (at least one token).
    pub fn token_budget(&self, batch_interval: f64) -> usize {
        assert!(batch_interval > 0.0, "batch_interval must be positive");
        ((self.tokens_per_sec * batch_interval).round() as usize).max(1)
    }

    /// Open-loop request rate (requests/second) that offers
    /// `load × tokens_per_sec` tokens per second for requests averaging
    /// `mean_tokens` valid tokens.
    pub fn request_rate(&self, mean_tokens: f64, load: f64) -> f64 {
        assert!(mean_tokens > 0.0 && load > 0.0, "mean_tokens and load must be positive");
        load * self.tokens_per_sec / mean_tokens
    }
}

/// Calibrates [`ServeCapacity`] from the roofline: runs one probe forward
/// of `fw` on a `probe_batch × max_seq` paper-α batch and divides the
/// probe's valid tokens by its modeled device time. Because the probe uses
/// the same cost model, launch taxes, and pipeline as serving itself, the
/// resulting tokens/sec already prices in per-launch overhead and the
/// memory-bound fraction at the calibrated shape.
pub fn calibrate_capacity(
    fw: &crate::SimFramework,
    max_seq: usize,
    alpha: f64,
    probe_batch: usize,
    seed: u64,
) -> ServeCapacity {
    assert!(probe_batch > 0, "probe_batch must be positive");
    let mask = LengthDistribution::PaperUniform { alpha }.sample_mask(probe_batch, max_seq, seed);
    let input = crate::server::masked_randn(&mask, fw.model.config.hidden(), seed ^ 0x9e37_79b9);
    let device = fw.device(CostModel::a100());
    fw.forward(&device, &input, &mask).expect("probe shapes are valid");
    ServeCapacity {
        tokens_per_sec: mask.valid_words() as f64 / device.modeled_total().max(1e-12),
    }
}

/// Closed-form FLOPs per valid token of the fully optimized pipeline
/// (Table II's zero-padding + fused-MHA variant) at a representative
/// paper-α length mix — the conversion factor between a measured GFLOP/s
/// figure and a token throughput.
pub fn flops_per_token(config: &BertConfig, max_seq: usize, alpha: f64) -> f64 {
    let mask = LengthDistribution::PaperUniform { alpha }.sample_mask(16, max_seq, 12345);
    let per_layer = layer_flops(&mask, config.hidden(), FlopVariant::ZeroPaddingFusedMha).total();
    (per_layer as f64 * config.layers as f64) / mask.valid_words() as f64
}

/// Scans a `BENCH_gemm.json` artifact for its best measured GFLOP/s figure
/// (the dense-math ceiling of this host across ISA *and* precision tiers).
/// The scan is schema-tolerant — it looks for `"gflops": <number>` fields
/// rather than parsing the full document — so artifacts from older emitters
/// still calibrate. Returns `None` if no such field parses.
pub fn max_gflops_in_bench_json(json: &str) -> Option<f64> {
    let mut best: Option<f64> = None;
    scan_gflops(json, |v, _| best = Some(best.map_or(v, |b: f64| b.max(v))));
    best
}

/// Precision-aware variant of [`max_gflops_in_bench_json`]: best GFLOP/s
/// among rows whose `"prec"` field equals `prec`. Rows without a `"prec"`
/// field (artifacts from emitters predating the `BYTE_GEMM_PREC` axis)
/// count as `f32` — the only precision those emitters measured.
pub fn max_gflops_for_prec(json: &str, prec: &str) -> Option<f64> {
    let mut best: Option<f64> = None;
    scan_gflops(json, |v, row_prec| {
        if row_prec.unwrap_or("f32") == prec {
            best = Some(best.map_or(v, |b: f64| b.max(v)));
        }
    });
    best
}

/// Shared scan: invokes `visit` with every parsed positive-finite
/// `"gflops"` value and the `"prec"` string (if any) of the enclosing
/// flat JSON object.
fn scan_gflops<'a>(json: &'a str, mut visit: impl FnMut(f64, Option<&'a str>)) {
    let key = "\"gflops\":";
    let mut offset = 0;
    while let Some(pos) = json[offset..].find(key) {
        let abs = offset + pos;
        offset = abs + key.len();
        let rest = &json[offset..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        if let Ok(v) = rest[..end].trim().parse::<f64>() {
            if v.is_finite() && v > 0.0 {
                // Bench rows are flat objects, so the nearest braces bound
                // the row this gflops figure belongs to.
                let start = json[..abs].rfind('{').map_or(0, |i| i + 1);
                let stop = json[abs..].find('}').map_or(json.len(), |i| abs + i);
                visit(v, extract_prec(&json[start..stop]));
            }
        }
    }
}

/// Pulls the string value of a `"prec"` key out of one row's span.
fn extract_prec(span: &str) -> Option<&str> {
    let rest = span[span.find("\"prec\":")? + "\"prec\":".len()..].trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// Host-wall-clock serving capacity from a `BENCH_gemm.json` artifact:
/// best measured **f32** GFLOP/s divided by the closed-form FLOPs per token
/// ([`flops_per_token`]). The f32 row is picked explicitly — the serving
/// pipeline being capacity-planned runs f32 end to end, so a faster
/// low-precision row in the same artifact must not inflate the budget.
/// Falls back to the precision-agnostic best only if no f32 row exists
/// (and an older artifact's unlabeled rows *are* f32 rows). An *optimistic*
/// host ceiling (it assumes the whole pipeline sustains GEMM throughput);
/// use the roofline [`calibrate_capacity`] for the modeled-time serving
/// loop.
pub fn host_tokens_per_sec_from_bench_json(json: &str, flops_per_token: f64) -> Option<f64> {
    assert!(flops_per_token > 0.0, "flops_per_token must be positive");
    max_gflops_for_prec(json, "f32")
        .or_else(|| max_gflops_in_bench_json(json))
        .map(|g| g * 1e9 / flops_per_token)
}

/// One row of the paper's Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureRow {
    /// Framework name.
    pub name: &'static str,
    /// Supports variable-length inputs without user-side padding.
    pub variable_len: bool,
    /// Ships tuned kernels.
    pub kernel_tuning: bool,
    /// Fused MHA availability ("≤512" reported as `Some(512)`).
    pub fused_mha: Option<usize>,
    /// Comprehensive kernel fusion ("partially" reported as `false` here,
    /// with the nuance carried in [`FeatureRow::fusion_note`]).
    pub kernel_fusion: bool,
    /// Free-text nuance matching the paper's table cell.
    pub fusion_note: &'static str,
}

/// The paper's Table I, verbatim.
pub fn feature_matrix() -> Vec<FeatureRow> {
    vec![
        FeatureRow {
            name: "TensorFlow XLA",
            variable_len: false,
            kernel_tuning: true,
            fused_mha: None,
            kernel_fusion: false,
            fusion_note: "no",
        },
        FeatureRow {
            name: "PyTorch JIT",
            variable_len: false,
            kernel_tuning: true,
            fused_mha: None,
            kernel_fusion: false,
            fusion_note: "no",
        },
        FeatureRow {
            name: "FasterTransformer",
            variable_len: true,
            kernel_tuning: true,
            fused_mha: Some(512),
            kernel_fusion: false,
            fusion_note: "no",
        },
        FeatureRow {
            name: "TurboTransformer",
            variable_len: true,
            kernel_tuning: true,
            fused_mha: None,
            kernel_fusion: false,
            fusion_note: "partially",
        },
        FeatureRow {
            name: "ByteTransformer",
            variable_len: true,
            kernel_tuning: true,
            fused_mha: Some(usize::MAX),
            kernel_fusion: true,
            fusion_note: "yes",
        },
    ]
}

/// Renders Table I as fixed-width text.
pub fn render_feature_matrix() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>13} {:>14} {:>10} {:>14}\n",
        "framework", "variable-len", "kernel tuning", "fused MHA", "kernel fusion"
    ));
    for row in feature_matrix() {
        let mha = match row.fused_mha {
            None => "no".to_string(),
            Some(usize::MAX) => "yes".to_string(),
            Some(n) => format!("<={n}"),
        };
        out.push_str(&format!(
            "{:<20} {:>13} {:>14} {:>10} {:>14}\n",
            row.name,
            if row.variable_len { "yes" } else { "no" },
            if row.kernel_tuning { "yes" } else { "no" },
            mha,
            row.fusion_note,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let rows = feature_matrix();
        assert_eq!(rows.len(), 5);
        let bt = rows.iter().find(|r| r.name == "ByteTransformer").unwrap();
        assert!(bt.variable_len && bt.kernel_fusion && bt.fused_mha.is_some());
        let ft = rows.iter().find(|r| r.name == "FasterTransformer").unwrap();
        assert_eq!(ft.fused_mha, Some(512));
        let turbo = rows.iter().find(|r| r.name == "TurboTransformer").unwrap();
        assert!(turbo.variable_len && turbo.fused_mha.is_none());
        assert_eq!(turbo.fusion_note, "partially");
        let tf = rows.iter().find(|r| r.name == "TensorFlow XLA").unwrap();
        assert!(!tf.variable_len);
    }

    #[test]
    fn render_contains_all_frameworks() {
        let text = render_feature_matrix();
        for name in [
            "TensorFlow XLA",
            "PyTorch JIT",
            "FasterTransformer",
            "TurboTransformer",
            "ByteTransformer",
        ] {
            assert!(text.contains(name));
        }
    }

    #[test]
    fn capacity_budget_and_rate_are_consistent() {
        let c = ServeCapacity { tokens_per_sec: 1e6 };
        assert_eq!(c.token_budget(1e-3), 1_000);
        assert_eq!(c.token_budget(1e-9), 1, "budget is clamped to one token");
        assert!((c.request_rate(100.0, 2.0) - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn bench_json_scan_finds_the_best_gflops() {
        let json = r#"{
  "results": [
    {"name": "a", "tier": "scalar", "gflops": 47.297, "secs": 0.01},
    {"name": "b", "tier": "avx512", "gflops": 97.810, "secs": 0.009},
    {"name": "c", "tier": "avx2", "gflops": 65.682}
  ]
}"#;
        assert!((max_gflops_in_bench_json(json).unwrap() - 97.810).abs() < 1e-9);
        assert_eq!(max_gflops_in_bench_json("{}"), None);
        assert_eq!(max_gflops_in_bench_json("\"gflops\": nonsense"), None);
        let fpt = 1e6;
        let tps = host_tokens_per_sec_from_bench_json(json, fpt).unwrap();
        assert!((tps - 97.810e3).abs() < 1.0);
    }

    #[test]
    fn bench_json_scan_is_precision_aware() {
        let json = r#"{
  "results": [
    {"name": "a", "tier": "avx512", "prec": "f32", "gflops": 97.8},
    {"name": "a", "tier": "avx512", "prec": "f16", "gflops": 180.3},
    {"name": "a", "tier": "avx512", "prec": "int8", "gflops": 410.0},
    {"name": "b", "tier": "scalar", "prec": "f32", "gflops": 47.3}
  ]
}"#;
        // Per-precision scans pick within their own rows.
        assert!((max_gflops_for_prec(json, "f32").unwrap() - 97.8).abs() < 1e-9);
        assert!((max_gflops_for_prec(json, "f16").unwrap() - 180.3).abs() < 1e-9);
        assert!((max_gflops_for_prec(json, "int8").unwrap() - 410.0).abs() < 1e-9);
        // The precision-agnostic ceiling still sees everything.
        assert!((max_gflops_in_bench_json(json).unwrap() - 410.0).abs() < 1e-9);
        // Capacity planning uses the f32 row, NOT the faster int8 row.
        let tps = host_tokens_per_sec_from_bench_json(json, 1e6).unwrap();
        assert!((tps - 97.8e3).abs() < 1.0, "f32 row must drive capacity, got {tps}");
        // Artifacts predating the precision axis: unlabeled rows are f32.
        let old = r#"{"results": [{"name": "a", "tier": "avx2", "gflops": 65.7}]}"#;
        assert!((max_gflops_for_prec(old, "f32").unwrap() - 65.7).abs() < 1e-9);
        assert_eq!(max_gflops_for_prec(old, "f16"), None);
        let tps = host_tokens_per_sec_from_bench_json(old, 1e6).unwrap();
        assert!((tps - 65.7e3).abs() < 1.0);
    }

    #[test]
    fn roofline_capacity_prices_in_the_pipeline() {
        use bt_core::config::BertConfig;
        use bt_core::encoder::BertModel;
        let model = BertModel::new_random(BertConfig::tiny(), 1, 42);
        let fw = crate::SimFramework::new(crate::FrameworkKind::ByteTransformer, model);
        let cap = calibrate_capacity(&fw, 32, 0.6, 4, 7);
        assert!(cap.tokens_per_sec > 0.0 && cap.tokens_per_sec.is_finite());
        // More layers -> fewer tokens per second, roughly proportionally.
        let model2 = BertModel::new_random(BertConfig::tiny(), 2, 42);
        let fw2 = crate::SimFramework::new(crate::FrameworkKind::ByteTransformer, model2);
        let cap2 = calibrate_capacity(&fw2, 32, 0.6, 4, 7);
        assert!(cap2.tokens_per_sec < cap.tokens_per_sec);
        // And the closed form agrees on the sign of that scaling.
        let f1 = flops_per_token(&BertConfig::tiny(), 32, 0.6);
        assert!(f1 > 0.0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // deliberate invariant checks on calibration constants
    fn taxes_are_sane() {
        for tax in [
            PYTORCH_TAX,
            TENSORFLOW_TAX,
            TURBO_TAX,
            FASTER_TRANSFORMER_TAX,
            BYTETRANSFORMER_TAX,
        ] {
            assert!(tax.dispatch >= 0.0 && tax.dispatch < 1e-4);
            assert!(tax.bw_derate > 0.0 && tax.bw_derate <= 1.0);
            assert!(tax.flops_derate > 0.0 && tax.flops_derate <= 1.0);
        }
        // The paper's ordering pressure: lean runtimes dispatch faster.
        assert!(BYTETRANSFORMER_TAX.dispatch < FASTER_TRANSFORMER_TAX.dispatch);
        assert!(FASTER_TRANSFORMER_TAX.dispatch < PYTORCH_TAX.dispatch);
    }
}
