//! The BERT encoder layer and stacked model with the paper's step-wise
//! optimization levels (Fig. 2 and Fig. 13).
//!
//! Five cumulative levels, each adding one paper optimization on top of the
//! previous (Fig. 13's bars):
//!
//! 1. [`OptLevel::Baseline`] — Fig. 2(a): fully padded, unfused add-bias /
//!    LayerNorm / GELU, batched-GEMM MHA with padded softmax.
//! 2. [`OptLevel::LayernormFusion`] — add-bias + residual + LayerNorm in one
//!    kernel (§III.C.1).
//! 3. [`OptLevel::GeluFusion`] — add-bias + GELU fused into the FFN GEMM
//!    epilogue (§III.C.2).
//! 4. [`OptLevel::ZeroPadding`] — Fig. 2(c): prefix-sum, pack, run all
//!    non-MHA modules on valid tokens only, unpack/re-pack fused with the
//!    bias/transpose kernels around batched MHA (§III.D).
//! 5. [`OptLevel::FusedMha`] — the full ByteTransformer: zero padding plus
//!    fused MHA (the tiled Algorithm III.1 kernel, which on the CPU serves
//!    every length; the paper's GPU switches to grouped GEMM past 384),
//!    which never materializes a padded tensor or a global `seq×seq`
//!    intermediate (§III.E).
//!
//! The levels are points in a larger switch space: a [`LayerPlan`] names
//! which MHA runs and whether LayerNorm and GELU are fused, and
//! [`BertModel::layer_forward`] is the one layer body every plan — each
//! level above via [`OptLevel::plan`], each competitor framework of Table I
//! via `bt-frameworks` — runs, over packed or padded rows.
//!
//! **Every plan computes identical activations on valid tokens** (asserted
//! by the cross-level tests); only the cost structure changes. Padded output
//! rows are zero on packed rows (the final unpack zero-fills) and unspecified
//! otherwise (the conventional frameworks' padded garbage).

use crate::attention::{batched_attention, flash_attention, fused_attention, naive_attention};
use crate::config::BertConfig;
use crate::weights::{LayerWeights, ModelWeights};
use bt_device::Device;
use bt_gemm::{gemm_kernel_spec_active, sgemm_prepacked, PackedB, TileEpilogue};
use bt_kernels::activation::{add_bias_gelu_unfused, bias_gelu_epilogue};
use bt_kernels::layernorm::{add_bias_residual_layernorm_fused, add_bias_residual_layernorm_unfused};
use bt_kernels::layout::{add_bias_split_qkv_packed, add_bias_unpack_split_qkv, merge_heads_pack};
use bt_tensor::Tensor;
use bt_varlen::{BatchMask, PackingIndex, VarlenError};

/// Which MHA implementation a layer runs (the paper's Figs. 11–12 and the
/// "MHA" column of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mha {
    /// PyTorch-style unfused chain (nine kernels, fully padded).
    Naive,
    /// cuBLAS batched GEMMs; the softmax between them runs over the padded
    /// square, or over valid tokens only with `zeropad_softmax`.
    Batched {
        /// Softmax skips padded rows and columns (Fig. 2c).
        zeropad_softmax: bool,
    },
    /// TensorRT/FlashAttention-style fixed-shape fused MHA on padded planes.
    FlashPadded,
    /// ByteTransformer's fused MHA on packed rows (§III.E): the tiled
    /// Algorithm III.1 kernel at every length. Needs packed rows.
    FusedPacked,
}

/// The switches that tell one BERT layer apart from another across the
/// paper's Fig. 13 levels and Table I frameworks. Whether rows are packed
/// is not a layer property: the layer runs over whatever rows its
/// [`PackingIndex`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerPlan {
    /// MHA implementation.
    pub mha: Mha,
    /// Add-bias + residual + LayerNorm in one kernel (§III.C.1) instead of
    /// the two-kernel pipeline.
    pub layernorm_fused: bool,
    /// Add-bias + GELU in the FFN GEMM epilogue (§III.C.2) instead of a
    /// separate kernel after it.
    pub gelu_fused: bool,
}

/// Cumulative optimization level (each includes all previous ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// Fig. 2(a): padded, unfused.
    Baseline,
    /// + fused add-bias & LayerNorm.
    LayernormFusion,
    /// + add-bias & GELU fused into the FFN GEMM epilogue.
    GeluFusion,
    /// + the zero-padding algorithm (Fig. 2c).
    ZeroPadding,
    /// + fused MHA — the full ByteTransformer.
    FusedMha,
}

impl OptLevel {
    /// All levels in ascending order (the Fig. 13 sweep).
    pub fn all() -> [OptLevel; 5] {
        [
            OptLevel::Baseline,
            OptLevel::LayernormFusion,
            OptLevel::GeluFusion,
            OptLevel::ZeroPadding,
            OptLevel::FusedMha,
        ]
    }

    /// Human-readable label matching the Fig. 13 legend.
    pub fn label(&self) -> &'static str {
        match self {
            OptLevel::Baseline => "baseline",
            OptLevel::LayernormFusion => "layernorm fusion",
            OptLevel::GeluFusion => "add bias & GELU fusion",
            OptLevel::ZeroPadding => "rm padding",
            OptLevel::FusedMha => "fused MHA",
        }
    }

    /// The layer switches this level turns on.
    pub fn plan(&self) -> LayerPlan {
        LayerPlan {
            mha: match self {
                OptLevel::FusedMha => Mha::FusedPacked,
                _ => Mha::Batched {
                    zeropad_softmax: self.packed(),
                },
            },
            layernorm_fused: *self >= OptLevel::LayernormFusion,
            gelu_fused: *self >= OptLevel::GeluFusion,
        }
    }

    /// Whether the level runs on packed rows (the zero-padding algorithm).
    pub fn packed(&self) -> bool {
        *self >= OptLevel::ZeroPadding
    }
}

/// Launches one dense GEMM of a layer stack (`a: rows×k` times the packed
/// `weight: k×n`), optionally with a fused element-wise epilogue. Costed by
/// [`gemm_kernel_spec_active`], so the modeled time follows the
/// `BYTE_GEMM_PREC` tier the GEMM itself dispatches on. Every encoder and
/// decoder stack in this crate launches its GEMMs through here, and none
/// re-lays-out its weight (at f32; f16 / int8 quantise it per launch).
pub(crate) fn launch_gemm(
    device: &Device,
    name: &str,
    a: &[f32],
    rows: usize,
    weight: &PackedB,
    epilogue: Option<&dyn TileEpilogue>,
) -> Vec<f32> {
    let (k, n) = (weight.k(), weight.n());
    let mut out = vec![0.0f32; rows * n];
    let mut spec = gemm_kernel_spec_active(name, rows, n, k);
    if epilogue.is_some() {
        // The fused element-wise tail adds its flops but no traffic —
        // that is the entire point of epilogue fusion.
        spec.cost.flops += (rows * n * 9) as u64;
    }
    device.launch(spec, || sgemm_prepacked(rows, a, weight, &mut out, epilogue));
    out
}

/// A stacked BERT encoder.
#[derive(Debug, Clone)]
pub struct BertModel {
    /// Hyper-parameters.
    pub config: BertConfig,
    /// Per-layer weights.
    pub weights: ModelWeights,
}

impl BertModel {
    /// Builds a model with `num_layers` deterministic random layers.
    pub fn new_random(config: BertConfig, num_layers: usize, seed: u64) -> Self {
        Self {
            config,
            weights: ModelWeights::new_random(&config, num_layers, seed),
        }
    }

    /// Checks that `input` is the padded `[batch, seq, hidden]` tensor `mask`
    /// and the configuration describe.
    ///
    /// # Errors
    /// Returns [`VarlenError::ShapeMismatch`] otherwise.
    pub fn check_input(&self, input: &Tensor, mask: &BatchMask) -> Result<(), VarlenError> {
        let hidden = self.config.hidden();
        let dims = input.dims();
        if dims.len() != 3 || dims[0] != mask.batch() || dims[1] != mask.max_seq_len() || dims[2] != hidden {
            return Err(VarlenError::ShapeMismatch {
                expected: format!("[{}, {}, {hidden}]", mask.batch(), mask.max_seq_len()),
                got: format!("{dims:?}"),
            });
        }
        Ok(())
    }

    /// Runs the full encoder stack on a padded `[batch, seq, hidden]` input
    /// at one of the Fig. 13 levels.
    ///
    /// Returns a padded tensor of the same shape. At levels ≥
    /// [`OptLevel::ZeroPadding`] the padded rows of the output are zero.
    ///
    /// # Errors
    /// Returns [`VarlenError::ShapeMismatch`] if the input does not match
    /// the mask and configuration.
    pub fn forward(
        &self,
        device: &Device,
        input: &Tensor,
        mask: &BatchMask,
        opt: OptLevel,
    ) -> Result<Tensor, VarlenError> {
        self.forward_plan(device, input, mask, opt.plan(), opt.packed())
    }

    /// [`BertModel::forward`] for any switch combination: `packed` runs the
    /// zero-padding algorithm (Fig. 2c: prefix sum once, pack once, stay
    /// packed across all layers, unpack once at the end, padded output rows
    /// zero); otherwise every layer iterates over all `batch·seq` rows
    /// (Fig. 2a) and padded output rows are unspecified.
    ///
    /// # Errors
    /// Returns [`VarlenError::ShapeMismatch`] if the input does not match
    /// the mask and configuration.
    ///
    /// # Panics
    /// Panics on [`Mha::FusedPacked`] without `packed`.
    pub fn forward_plan(
        &self,
        device: &Device,
        input: &Tensor,
        mask: &BatchMask,
        plan: LayerPlan,
        packed: bool,
    ) -> Result<Tensor, VarlenError> {
        assert!(packed || plan.mha != Mha::FusedPacked, "fused MHA runs on packed rows");
        self.check_input(input, mask)?;
        let hidden = self.config.hidden();
        let (batch, seq) = (mask.batch(), mask.max_seq_len());

        let (idx, mut x) = if packed {
            let idx = PackingIndex::from_mask_on(device, mask);
            let x = idx.pack(device, input)?;
            (idx, x)
        } else {
            // The padded path is the same layer under an all-full index,
            // which turns the fused unpack/split and merge/pack kernels into
            // plain padded bias+transpose kernels with identical traffic.
            // Built without a launch: the padded baselines run no prefix sum.
            let full = BatchMask::from_lens(vec![seq; batch], seq)?;
            let x = input
                .clone()
                .reshape([batch * seq, hidden])
                .expect("same element count");
            (PackingIndex::from_mask(&full), x)
        };
        for w in &self.weights.layers {
            x = self.layer_forward(device, &x, w, &idx, mask.seq_lens(), plan);
        }
        if packed {
            idx.unpack(device, &x)
        } else {
            Ok(x.reshape([batch, seq, hidden]).expect("row count unchanged"))
        }
    }

    /// One encoder layer on packed rows at a packed level
    /// ([`OptLevel::ZeroPadding`] and above). `x` is `[valid, hidden]`.
    pub fn layer_forward_packed(
        &self,
        device: &Device,
        x: &Tensor,
        w: &LayerWeights,
        idx: &PackingIndex,
        opt: OptLevel,
    ) -> Tensor {
        assert!(opt.packed(), "packed path serves ZeroPadding and above");
        self.layer_forward(device, x, w, idx, idx.mask().seq_lens(), opt.plan())
    }

    /// The encoder layer. `x` is `[rows, hidden]` with `rows` the words
    /// `idx` counts as valid — the token count every kernel here iterates
    /// over, which is the whole point of the zero-padding algorithm: a
    /// packed caller passes its true index, a padded caller an all-full one
    /// (`rows = batch·seq`). `seq_lens` are the true lengths either way; the
    /// padded MHA variants mask by them.
    pub fn layer_forward(
        &self,
        device: &Device,
        x: &Tensor,
        w: &LayerWeights,
        idx: &PackingIndex,
        seq_lens: &[usize],
        plan: LayerPlan,
    ) -> Tensor {
        let hidden = self.config.hidden();
        let inter = self.config.intermediate();
        let heads = self.config.heads;
        let scale = self.config.attention_scale();
        let eps = self.config.eps;
        let rows = idx.valid_words();
        let layernorm = if plan.layernorm_fused {
            add_bias_residual_layernorm_fused
        } else {
            add_bias_residual_layernorm_unfused
        };

        // GEMM0: packed QKV position encoding.
        let qkv = launch_gemm(device, "gemm0.qkv", x.as_slice(), rows, &w.qkv_weight, None);
        let qkv = Tensor::from_vec(qkv, [rows, 3 * hidden]).expect("shape consistent");

        // The padded MHA variants: unpack (fused with bias+transpose), attend
        // on padded planes, re-pack (fused with the output transpose) —
        // Fig. 2(c). Under an all-full index both ends are plain transposes.
        let padded_mha = |attend: &dyn Fn(&Tensor, &Tensor, &Tensor) -> Tensor| {
            let (q, k, v) = add_bias_unpack_split_qkv(device, &qkv, &w.qkv_bias, idx, heads);
            merge_heads_pack(device, &attend(&q, &k, &v), idx)
        };
        let ctx = match plan.mha {
            // Dispatch tax already applies device-wide, so naive gets 0 extra.
            Mha::Naive => padded_mha(&|q, k, v| naive_attention(device, q, k, v, seq_lens, scale, 0.0)),
            Mha::Batched { zeropad_softmax } => {
                padded_mha(&|q, k, v| batched_attention(device, q, k, v, seq_lens, scale, zeropad_softmax))
            }
            Mha::FlashPadded => padded_mha(&|q, k, v| flash_attention(device, q, k, v, seq_lens, scale)),
            Mha::FusedPacked => {
                // Fully packed fused MHA; scale folded into Q at the split.
                let (q, k, v) = add_bias_split_qkv_packed(device, &qkv, &w.qkv_bias, heads, scale);
                fused_attention(device, &q, &k, &v, idx)
            }
        };

        // GEMM1: attention output projection, then layernorm0.
        let mut attn = launch_gemm(device, "gemm1.proj", ctx.as_slice(), rows, &w.attn_out_weight, None);
        layernorm(
            device,
            "layernorm0",
            &mut attn,
            x.as_slice(),
            &w.attn_out_bias,
            &w.ln0_gamma,
            &w.ln0_beta,
            eps,
            rows,
            hidden,
        );

        // GEMM2: FFN up-projection, bias + GELU in its epilogue or after it.
        let epi = bias_gelu_epilogue(&w.ffn_up_bias);
        let epi: Option<&dyn TileEpilogue> = if plan.gelu_fused { Some(&epi) } else { None };
        let mut ffn = launch_gemm(device, "gemm2.ffn_up", &attn, rows, &w.ffn_up_weight, epi);
        if !plan.gelu_fused {
            add_bias_gelu_unfused(device, "bias_act", &mut ffn, rows, inter, &w.ffn_up_bias);
        }

        // GEMM3: FFN down-projection, then layernorm1.
        let mut out = launch_gemm(device, "gemm3.ffn_down", &ffn, rows, &w.ffn_down_weight, None);
        layernorm(
            device,
            "layernorm1",
            &mut out,
            &attn,
            &w.ffn_down_bias,
            &w.ln1_gamma,
            &w.ln1_beta,
            eps,
            rows,
            hidden,
        );
        Tensor::from_vec(out, [rows, hidden]).expect("shape consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_device::CostModel;
    use bt_varlen::workload;

    fn device() -> Device {
        Device::with_model(CostModel::unit())
    }

    fn setup(lens: &[usize], max_seq: usize, layers: usize) -> (BertModel, Tensor, BatchMask) {
        let config = BertConfig::tiny();
        let model = BertModel::new_random(config, layers, 42);
        let mask = BatchMask::from_lens(lens.to_vec(), max_seq).unwrap();
        let input = workload::masked_randn(&mask, config.hidden(), 7);
        (model, input, mask)
    }

    /// Max abs diff across valid tokens between two padded outputs.
    fn valid_diff(a: &Tensor, b: &Tensor, mask: &BatchMask) -> f32 {
        let hidden = a.dims()[2];
        let mut worst = 0.0f32;
        for (bi, &len) in mask.seq_lens().iter().enumerate() {
            for s in 0..len {
                for h in 0..hidden {
                    let d = (a.at(&[bi, s, h]).unwrap() - b.at(&[bi, s, h]).unwrap()).abs();
                    worst = worst.max(d);
                }
            }
        }
        worst
    }

    #[test]
    fn all_opt_levels_agree_on_valid_tokens() {
        let (model, input, mask) = setup(&[5, 9, 2], 12, 2);
        let dev = device();
        let baseline = model.forward(&dev, &input, &mask, OptLevel::Baseline).unwrap();
        for opt in OptLevel::all() {
            let out = model.forward(&dev, &input, &mask, opt).unwrap();
            let d = valid_diff(&baseline, &out, &mask);
            assert!(d < 5e-3, "{:?} diverges: {d}", opt);
        }
    }

    #[test]
    fn every_plan_agrees_with_the_baseline_on_valid_tokens() {
        // Every MHA kind × both fusion switches × packed/padded rows. The
        // product contains every Fig. 13 level and Table I framework plan,
        // FasterTransformer's on both sides of its 512 switch included
        // (flash-padded / batched-zeropad, fused LN, unfused GELU, packed).
        let (model, input, mask) = setup(&[5, 9, 2], 12, 1);
        let dev = device();
        let baseline = model.forward(&dev, &input, &mask, OptLevel::Baseline).unwrap();
        let mhas = [
            Mha::Naive,
            Mha::Batched { zeropad_softmax: false },
            Mha::Batched { zeropad_softmax: true },
            Mha::FlashPadded,
            Mha::FusedPacked,
        ];
        for mha in mhas {
            for (layernorm_fused, gelu_fused) in [(false, false), (true, false), (false, true), (true, true)] {
                let plan = LayerPlan {
                    mha,
                    layernorm_fused,
                    gelu_fused,
                };
                for packed in [false, true] {
                    if mha == Mha::FusedPacked && !packed {
                        continue;
                    }
                    let out = model.forward_plan(&dev, &input, &mask, plan, packed).unwrap();
                    let d = valid_diff(&baseline, &out, &mask);
                    assert!(d < 5e-3, "{plan:?} packed={packed} diverges: {d}");
                }
            }
        }
    }

    #[test]
    fn fusion_switches_do_not_change_numerics() {
        let (model, input, mask) = setup(&[4, 7], 8, 1);
        let dev = device();
        let run = |fused| {
            let plan = LayerPlan {
                mha: Mha::Batched { zeropad_softmax: false },
                layernorm_fused: fused,
                gelu_fused: fused,
            };
            model.forward_plan(&dev, &input, &mask, plan, false).unwrap()
        };
        assert!(valid_diff(&run(false), &run(true), &mask) < 1e-4);
    }

    #[test]
    #[should_panic(expected = "fused MHA runs on packed rows")]
    fn fused_mha_on_padded_rows_is_refused() {
        let (model, input, mask) = setup(&[3, 6], 8, 1);
        let _ = model.forward_plan(&device(), &input, &mask, OptLevel::FusedMha.plan(), false);
    }

    #[test]
    fn packed_levels_zero_padded_rows() {
        let (model, input, mask) = setup(&[3, 6], 8, 1);
        let dev = device();
        let out = model.forward(&dev, &input, &mask, OptLevel::FusedMha).unwrap();
        for (b, &len) in mask.seq_lens().iter().enumerate() {
            for s in len..8 {
                for h in 0..model.config.hidden() {
                    assert_eq!(out.at(&[b, s, h]).unwrap(), 0.0);
                }
            }
        }
    }

    #[test]
    fn fused_mha_long_path_agrees_too() {
        // max_seq above FUSED_SHORT_MAX_SEQ: the tiled kernel past the
        // paper's cap.
        let (model, input, mask) = setup(&[390, 120], 400, 1);
        let dev = device();
        let a = model.forward(&dev, &input, &mask, OptLevel::ZeroPadding).unwrap();
        let b = model.forward(&dev, &input, &mask, OptLevel::FusedMha).unwrap();
        assert!(valid_diff(&a, &b, &mask) < 5e-3);
    }

    #[test]
    fn zero_padding_reduces_gemm_flops() {
        let (model, input, mask) = setup(&[4, 4], 16, 1); // α = 0.25
        let run = |opt| {
            let dev = device();
            model.forward(&dev, &input, &mask, opt).unwrap();
            let gemm_flops: u64 = dev
                .trace()
                .iter()
                .filter(|r| {
                    // Exclude gemm2, whose ZeroPadding spec includes the
                    // fused GELU epilogue flops.
                    r.name.starts_with("gemm0") || r.name.starts_with("gemm1") || r.name.starts_with("gemm3")
                })
                .map(|r| r.cost.flops)
                .sum();
            gemm_flops
        };
        let base = run(OptLevel::Baseline);
        let zp = run(OptLevel::ZeroPadding);
        // α = 0.25 -> non-MHA GEMMs shrink exactly 4×.
        assert_eq!(zp * 4, base);
    }

    #[test]
    fn fused_mha_reduces_attention_flops_quadratically() {
        let (model, input, mask) = setup(&[8, 8], 32, 1); // α = 0.25
        let run = |opt| {
            let dev = device();
            model.forward(&dev, &input, &mask, opt).unwrap();
            dev.trace()
                .iter()
                .filter(|r| r.name.starts_with("attention"))
                .map(|r| r.cost.flops)
                .sum::<u64>()
        };
        let zp = run(OptLevel::ZeroPadding);
        let fused = run(OptLevel::FusedMha);
        // Quadratic saving: α² = 1/16; allow slack for softmax terms.
        assert!(fused * 8 < zp, "fused {fused} vs zero-padding {zp}");
    }

    #[test]
    fn modeled_time_strictly_improves_across_levels() {
        // The Fig. 13 staircase. A zero-launch-overhead roofline isolates
        // the structural effects (fewer bytes / fewer flops) from the
        // launch-count tradeoff, which only pays off at production shapes
        // (that regime is exercised by the fig13 bench in release mode).
        let roofline = bt_device::CostModel {
            launch_overhead: 0.0,
            ..bt_device::CostModel::a100()
        };
        let config = BertConfig {
            heads: 4,
            head_size: 16,
            ffn_scale: 4,
            layers: 1,
            eps: 1e-6,
        };
        let model = BertModel::new_random(config, 1, 3);
        let mask = workload::paper_workload(8, 128, 5);
        let input = Tensor::randn([8, 128, config.hidden()], 11);
        let mut prev = f64::INFINITY;
        for opt in OptLevel::all() {
            let dev = Device::with_model(roofline);
            model.forward(&dev, &input, &mask, opt).unwrap();
            let t = dev.modeled_total();
            assert!(t < prev, "{:?} did not improve: {t} vs {prev}", opt);
            prev = t;
        }
    }

    #[test]
    fn shape_errors_are_typed() {
        let (model, _input, mask) = setup(&[2], 4, 1);
        let dev = device();
        let bad = Tensor::zeros([1, 5, model.config.hidden()]);
        assert!(model.forward(&dev, &bad, &mask, OptLevel::Baseline).is_err());
        let bad2 = Tensor::zeros([2, 4, model.config.hidden()]);
        assert!(model.forward(&dev, &bad2, &mask, OptLevel::Baseline).is_err());
    }

    #[test]
    fn multi_layer_stack_stays_finite() {
        let (model, input, mask) = setup(&[6, 3], 8, 2);
        let dev = device();
        let out = model.forward(&dev, &input, &mask, OptLevel::FusedMha).unwrap();
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }
}
