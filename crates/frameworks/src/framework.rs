//! The five simulated frameworks behind one interface.

use crate::calibration::{self, FT_FUSED_MHA_MAX_SEQ, TURBO_GROUP_RATIO, TURBO_MAX_SEQ};
use crate::grouping::group_by_length;
use bt_core::encoder::{BertModel, LayerPlan, Mha, OptLevel};
use bt_device::{CostModel, Device, KernelSpec, LaunchTax};
use bt_tensor::Tensor;
use bt_varlen::{BatchMask, VarlenError};

/// The frameworks of the paper's Fig. 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameworkKind {
    /// PyTorch with TorchScript JIT: padded, unfused MHA, eager-ish dispatch.
    PyTorchJit,
    /// TensorFlow with XLA: padded, unfused MHA, compiled dispatch but
    /// less-tuned codegen kernels.
    TensorFlowXla,
    /// Tencent TurboTransformer: sort-and-group re-batching, partial fusion,
    /// sequences ≤ 512 only.
    TurboTransformer,
    /// NVIDIA FasterTransformer: packed non-MHA path, TRT-style fused MHA
    /// ≤ 512, unfused fallback above.
    FasterTransformer,
    /// This repository's full pipeline (zero padding + fused MHA).
    ByteTransformer,
}

impl FrameworkKind {
    /// All frameworks, in the paper's plotting order.
    pub fn all() -> [FrameworkKind; 5] {
        [
            FrameworkKind::PyTorchJit,
            FrameworkKind::TensorFlowXla,
            FrameworkKind::TurboTransformer,
            FrameworkKind::FasterTransformer,
            FrameworkKind::ByteTransformer,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            FrameworkKind::PyTorchJit => "PyTorch JIT",
            FrameworkKind::TensorFlowXla => "TensorFlow XLA",
            FrameworkKind::TurboTransformer => "TurboTransformer",
            FrameworkKind::FasterTransformer => "FasterTransformer",
            FrameworkKind::ByteTransformer => "ByteTransformer",
        }
    }

    /// Per-launch tax (calibration constants, DESIGN.md §6).
    pub fn tax(&self) -> LaunchTax {
        match self {
            FrameworkKind::PyTorchJit => calibration::PYTORCH_TAX,
            FrameworkKind::TensorFlowXla => calibration::TENSORFLOW_TAX,
            FrameworkKind::TurboTransformer => calibration::TURBO_TAX,
            FrameworkKind::FasterTransformer => calibration::FASTER_TRANSFORMER_TAX,
            FrameworkKind::ByteTransformer => calibration::BYTETRANSFORMER_TAX,
        }
    }

    /// Whether the framework supports the given maximum sequence length
    /// (the paper stops benchmarking TurboTransformer past 512).
    pub fn supports(&self, max_seq_len: usize) -> bool {
        match self {
            FrameworkKind::TurboTransformer => max_seq_len <= TURBO_MAX_SEQ,
            _ => true,
        }
    }
}

/// A framework simulation bound to a model.
#[derive(Debug, Clone)]
pub struct SimFramework {
    /// Which strategy this instance runs.
    pub kind: FrameworkKind,
    /// The (shared) model weights and configuration.
    pub model: BertModel,
}

impl SimFramework {
    /// Binds a framework strategy to a model.
    pub fn new(kind: FrameworkKind, model: BertModel) -> Self {
        Self { kind, model }
    }

    /// A fresh device carrying this framework's launch tax over the given
    /// cost model.
    pub fn device(&self, model: CostModel) -> Device {
        Device::with_tax(model, self.kind.tax())
    }

    /// Full forward pass under this framework's strategy. Input and output
    /// are padded `[batch, seq, hidden]`; all frameworks produce identical
    /// values on valid tokens.
    ///
    /// # Errors
    /// Returns [`VarlenError::ShapeMismatch`] on input/mask disagreement and
    /// [`VarlenError::LengthExceedsMax`] if the framework does not support
    /// the sequence length (TurboTransformer past 512).
    pub fn forward(&self, device: &Device, input: &Tensor, mask: &BatchMask) -> Result<Tensor, VarlenError> {
        if !self.kind.supports(mask.max_seq_len()) {
            return Err(VarlenError::LengthExceedsMax {
                batch: 0,
                len: mask.max_seq_len(),
                max_seq_len: TURBO_MAX_SEQ,
            });
        }
        match self.kind {
            // Padded end to end, nothing fused, the nine-kernel MHA chain;
            // the two differ only in their launch tax.
            FrameworkKind::PyTorchJit | FrameworkKind::TensorFlowXla => self.model.forward_plan(
                device,
                input,
                mask,
                LayerPlan {
                    mha: Mha::Naive,
                    layernorm_fused: false,
                    gelu_fused: false,
                },
                false,
            ),
            FrameworkKind::TurboTransformer => self.turbo_forward(device, input, mask),
            // Packed non-MHA path (FT pioneered the "effective transformer"
            // packing), but it unpacks around MHA even for its fused kernel:
            // the TensorRT plugin consumes padded fixed-shape batches, and
            // only up to FT_FUSED_MHA_MAX_SEQ. FT fuses bias+LayerNorm but
            // not the GEMM epilogue.
            FrameworkKind::FasterTransformer => self.model.forward_plan(
                device,
                input,
                mask,
                LayerPlan {
                    mha: if mask.max_seq_len() <= FT_FUSED_MHA_MAX_SEQ {
                        Mha::FlashPadded
                    } else {
                        Mha::Batched { zeropad_softmax: true }
                    },
                    layernorm_fused: true,
                    gelu_fused: false,
                },
                true,
            ),
            FrameworkKind::ByteTransformer => self.model.forward(device, input, mask, OptLevel::FusedMha),
        }
    }

    /// TurboTransformer: sort-and-group, run each group as its own padded
    /// sub-batch through all layers, scatter results back. Gather/scatter
    /// are explicit launched kernels — the re-batching overhead the paper
    /// calls out.
    fn turbo_forward(&self, device: &Device, input: &Tensor, mask: &BatchMask) -> Result<Tensor, VarlenError> {
        self.model.check_input(input, mask)?;
        let hidden = self.model.config.hidden();
        let (batch, seq) = (mask.batch(), mask.max_seq_len());
        let groups = group_by_length(mask.seq_lens(), TURBO_GROUP_RATIO);
        let plan = LayerPlan {
            mha: Mha::Batched { zeropad_softmax: false },
            layernorm_fused: true, // "partially" fused per Table I
            gelu_fused: false,
        };
        let mut out = Tensor::zeros([batch, seq, hidden]);
        for group in &groups {
            let g = group.members.len();
            let gmax = group.padded_len;
            let group_lens: Vec<usize> = group.members.iter().map(|&i| mask.seq_lens()[i]).collect();
            let moved: u64 = (group_lens.iter().sum::<usize>() * hidden * 4) as u64;
            // Gather the group's sequences into a compact padded sub-batch.
            let gx = device.launch(
                KernelSpec::new("turbo.regroup")
                    .reads(moved)
                    .writes((g * gmax * hidden * 4) as u64),
                || {
                    let mut gx = Tensor::zeros([g, gmax, hidden]);
                    for (gi, &bi) in group.members.iter().enumerate() {
                        let len = mask.seq_lens()[bi];
                        let src = input.as_slice();
                        let dst = gx.as_mut_slice();
                        dst[(gi * gmax) * hidden..(gi * gmax + len) * hidden]
                            .copy_from_slice(&src[(bi * seq) * hidden..(bi * seq + len) * hidden]);
                    }
                    gx
                },
            );
            let gmask = BatchMask::from_lens(group_lens, gmax)?;
            let gx = self.model.forward_plan(device, &gx, &gmask, plan, false)?;
            // Scatter back into the caller's padded layout.
            device.launch(KernelSpec::new("turbo.scatter").reads(moved).writes(moved), || {
                let src = gx.as_slice();
                let dst = out.as_mut_slice();
                for (gi, &bi) in group.members.iter().enumerate() {
                    let len = mask.seq_lens()[bi];
                    dst[(bi * seq) * hidden..(bi * seq + len) * hidden]
                        .copy_from_slice(&src[(gi * gmax) * hidden..(gi * gmax + len) * hidden]);
                }
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_core::config::BertConfig;
    use bt_tensor::compare::max_abs_diff;
    use bt_varlen::workload;

    fn setup(lens: &[usize], max_seq: usize, layers: usize) -> (BertModel, Tensor, BatchMask) {
        let config = BertConfig::tiny();
        let model = BertModel::new_random(config, layers, 42);
        let mask = BatchMask::from_lens(lens.to_vec(), max_seq).unwrap();
        let input = workload::masked_randn(&mask, config.hidden(), 7);
        (model, input, mask)
    }

    fn valid_rows(t: &Tensor, mask: &BatchMask) -> Vec<f32> {
        let hidden = t.dims()[2];
        let mut out = Vec::new();
        for (b, &len) in mask.seq_lens().iter().enumerate() {
            for s in 0..len {
                for h in 0..hidden {
                    out.push(t.at(&[b, s, h]).unwrap());
                }
            }
        }
        out
    }

    #[test]
    fn all_frameworks_agree_on_valid_tokens() {
        let (model, input, mask) = setup(&[5, 9, 2, 7], 12, 2);
        let reference = {
            let dev = Device::with_model(CostModel::unit());
            let out = model.forward(&dev, &input, &mask, OptLevel::Baseline).unwrap();
            valid_rows(&out, &mask)
        };
        for kind in FrameworkKind::all() {
            let fw = SimFramework::new(kind, model.clone());
            let dev = fw.device(CostModel::unit());
            let out = fw.forward(&dev, &input, &mask).unwrap();
            let got = valid_rows(&out, &mask);
            let d = max_abs_diff(&got, &reference);
            assert!(d < 5e-3, "{} diverges: {d}", kind.name());
        }
    }

    #[test]
    fn turbo_rejects_long_sequences() {
        let (model, input, mask) = setup(&[300], 600, 1);
        let fw = SimFramework::new(FrameworkKind::TurboTransformer, model);
        let dev = fw.device(CostModel::unit());
        assert!(fw.forward(&dev, &input, &mask).is_err());
        assert!(!FrameworkKind::TurboTransformer.supports(600));
        assert!(FrameworkKind::FasterTransformer.supports(600));
    }

    #[test]
    fn turbo_launches_multiply_with_groups() {
        // Two widely separated length clusters -> 2 groups -> roughly twice
        // the per-layer launches of a single-group batch.
        let (model, input, mask) = setup(&[12, 12, 3, 3], 12, 1);
        let fw = SimFramework::new(FrameworkKind::TurboTransformer, model.clone());
        let dev = fw.device(CostModel::unit());
        fw.forward(&dev, &input, &mask).unwrap();
        let grouped_launches = dev.launches();

        let (model2, input2, mask2) = setup(&[12, 12, 12, 12], 12, 1);
        let fw2 = SimFramework::new(FrameworkKind::TurboTransformer, model2);
        let dev2 = fw2.device(CostModel::unit());
        fw2.forward(&dev2, &input2, &mask2).unwrap();
        let single_launches = dev2.launches();
        assert!(
            grouped_launches > single_launches + 10,
            "{grouped_launches} vs {single_launches}"
        );
        let _ = input2;
        let _ = input;
    }

    #[test]
    fn bytetransformer_is_fastest_on_the_paper_workload() {
        // α = 0.6, modest shape; modeled time ordering must put
        // ByteTransformer first and the padded eager frameworks last —
        // Fig. 14's headline shape.
        let config = BertConfig {
            heads: 4,
            head_size: 16,
            ffn_scale: 4,
            layers: 1,
            eps: 1e-6,
        };
        let model = BertModel::new_random(config, 2, 3);
        let mask = workload::paper_workload(8, 96, 5);
        let mut input = Tensor::randn([8, 96, config.hidden()], 11);
        for (b, &len) in mask.seq_lens().iter().enumerate() {
            for s in len..96 {
                for h in 0..config.hidden() {
                    input.set(&[b, s, h], 0.0).unwrap();
                }
            }
        }
        let mut times = std::collections::HashMap::new();
        for kind in FrameworkKind::all() {
            let fw = SimFramework::new(kind, model.clone());
            let dev = fw.device(CostModel::a100());
            fw.forward(&dev, &input, &mask).unwrap();
            times.insert(kind, dev.modeled_total());
        }
        let bt = times[&FrameworkKind::ByteTransformer];
        for kind in FrameworkKind::all() {
            if kind != FrameworkKind::ByteTransformer {
                assert!(bt < times[&kind], "{} beat ByteTransformer", kind.name());
            }
        }
        // And FasterTransformer (closest competitor in the paper) beats the
        // padded eager frameworks.
        assert!(times[&FrameworkKind::FasterTransformer] < times[&FrameworkKind::PyTorchJit]);
    }

    #[test]
    fn shape_validation() {
        let (model, _input, mask) = setup(&[4], 8, 1);
        let fw = SimFramework::new(FrameworkKind::PyTorchJit, model);
        let dev = fw.device(CostModel::unit());
        let bad = Tensor::zeros([2, 8, fw.model.config.hidden()]);
        assert!(fw.forward(&dev, &bad, &mask).is_err());
    }
}
