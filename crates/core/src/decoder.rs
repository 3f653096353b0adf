//! The Transformer decoder extension (paper §II and §V).
//!
//! The paper evaluates an encoder-only BERT but states that the zero-padding
//! algorithm and fused-MHA strategies "can easily extend to other
//! transformers that contain the decoder part". This module is that
//! extension, built entirely from the same machinery:
//!
//! * **causal self-attention** — Algorithm III.2 as row dots under a causal
//!   key range ([`crate::attention::causal`]), packed and padding-free, the
//!   constraint expressed as a *smaller iteration space*: each row reduces
//!   over the keys it sees and no others;
//! * **cross-attention** — [`crate::attention::cross`], the same row dots
//!   over rectangular variable-shape attention units on the packed encoder
//!   memory, with Algorithm III.2's tiled softmax partials and merge —
//!   padding-free on *both* the decoder and encoder axes;
//! * the same fused add-bias+LayerNorm and bias+GELU-in-epilogue kernels.
//!
//! This file owns the decoder layer: `decoder_layer` is the one body
//! (projections, §III.C's two fusions, residual wiring), and a stack supplies
//! only two attention closures saying where its K/V live. Teacher forcing
//! ([`TransformerDecoder`], here): self K/V are the forward's own packed rows
//! under the causal key range, cross K/V are projected from the packed memory
//! in every layer. [`crate::paged::PagedDecoder`]: self K/V go through a
//! block-paged cache, cross K/V are per-session planes projected once at
//! `open_session`. Both stacks split Q with the same kernels and run the same
//! attention form (`attention::session_rows`, the teacher-forced one over
//! the packed planes), so their outputs agree bitwise at every length.
//! [`crate::incremental::DecoderSession`] shares none of it on purpose — it
//! is the scalar oracle both stacks are compared to.
//!
//! [`Seq2SeqTransformer`] composes a ByteTransformer encoder with this
//! decoder for a full encoder-decoder forward pass (teacher-forcing style).

use crate::attention::{causal_fused_attention, cross_attention};
use crate::config::BertConfig;
use crate::encoder::{launch_gemm, BertModel, OptLevel};
use crate::weights::{DecoderLayerWeights, DecoderWeights};
use bt_device::Device;
use bt_kernels::activation::bias_gelu_epilogue;
use bt_kernels::layernorm::add_bias_residual_layernorm_fused;
use bt_kernels::layout::{add_bias_split_heads_packed, add_bias_split_kv_packed, add_bias_split_qkv_packed};
use bt_tensor::Tensor;
use bt_varlen::{BatchMask, PackingIndex, VarlenError};

/// A stacked Transformer decoder with the full ByteTransformer optimization
/// set (packed activations, padding-free causal and cross-attention, fused
/// memory-bound kernels).
#[derive(Debug, Clone)]
pub struct TransformerDecoder {
    /// Hyper-parameters (shared with the encoder in a seq2seq model).
    pub config: BertConfig,
    /// Per-layer weights.
    pub weights: DecoderWeights,
}

impl TransformerDecoder {
    /// Builds a decoder with `num_layers` deterministic random layers.
    pub fn new_random(config: BertConfig, num_layers: usize, seed: u64) -> Self {
        Self {
            config,
            weights: DecoderWeights::new_random(&config, num_layers, seed),
        }
    }

    /// Full decoder forward. `tgt` is the padded `[batch, tgt_seq, hidden]`
    /// target-side input; `memory` is the padded `[batch, mem_seq, hidden]`
    /// encoder output. Returns a padded target-shaped tensor with zeroed
    /// padding rows.
    ///
    /// # Errors
    /// Returns [`VarlenError::ShapeMismatch`] on input/mask disagreement.
    pub fn forward(
        &self,
        device: &Device,
        tgt: &Tensor,
        tgt_mask: &BatchMask,
        memory: &Tensor,
        mem_mask: &BatchMask,
    ) -> Result<Tensor, VarlenError> {
        let hidden = self.config.hidden();
        let check = |t: &Tensor, m: &BatchMask, what: &str| -> Result<(), VarlenError> {
            let d = t.dims();
            if d.len() != 3 || d[0] != m.batch() || d[1] != m.max_seq_len() || d[2] != hidden {
                return Err(VarlenError::ShapeMismatch {
                    expected: format!("{what} [{}, {}, {hidden}]", m.batch(), m.max_seq_len()),
                    got: format!("{d:?}"),
                });
            }
            Ok(())
        };
        check(tgt, tgt_mask, "target")?;
        check(memory, mem_mask, "memory")?;
        if tgt_mask.batch() != mem_mask.batch() {
            return Err(VarlenError::ShapeMismatch {
                expected: format!("memory batch {}", tgt_mask.batch()),
                got: format!("{}", mem_mask.batch()),
            });
        }

        let tgt_idx = PackingIndex::from_mask_on(device, tgt_mask);
        let mem_idx = PackingIndex::from_mask_on(device, mem_mask);
        let mut x = tgt_idx.pack(device, tgt)?;
        let mem_packed = mem_idx.pack(device, memory)?;
        for w in &self.weights.layers {
            x = self.layer_forward_packed(device, &x, &tgt_idx, &mem_packed, &mem_idx, w);
        }
        tgt_idx.unpack(device, &x)
    }

    /// One decoder layer on packed activations: `decoder_layer` with the
    /// self K/V taken from this forward's own packed rows under the causal
    /// key range, and the cross K/V projected from the packed memory.
    pub fn layer_forward_packed(
        &self,
        device: &Device,
        x: &Tensor,
        tgt_idx: &PackingIndex,
        memory: &Tensor,
        mem_idx: &PackingIndex,
        w: &DecoderLayerWeights,
    ) -> Tensor {
        let hidden = self.config.hidden();
        let heads = self.config.heads;
        let scale = self.config.attention_scale();
        let rows = tgt_idx.valid_words();
        let mem_rows = mem_idx.valid_words();
        let tensor =
            |data: Vec<f32>, n: usize, cols: usize| Tensor::from_vec(data, [n, cols]).expect("shape consistent");
        let out = decoder_layer(
            device,
            &self.config,
            w,
            &LAYER_NAMES,
            x.as_slice(),
            rows,
            |qkv, bias| {
                let (q, k, v) = add_bias_split_qkv_packed(device, &tensor(qkv, rows, 3 * hidden), bias, heads, scale);
                causal_fused_attention(device, &q, &k, &v, tgt_idx).into_vec()
            },
            |cq, bias| {
                let cq = add_bias_split_heads_packed(device, "cross_q", &tensor(cq, rows, hidden), bias, heads, scale);
                let ckv = launch_gemm(
                    device,
                    "dec_gemm3.cross_kv",
                    memory.as_slice(),
                    mem_rows,
                    w.cross_kv_weight.as_slice(),
                    hidden,
                    2 * hidden,
                    None,
                );
                let ckv = tensor(ckv, mem_rows, 2 * hidden);
                let (ck, cv) = add_bias_split_kv_packed(device, "cross_kv", &ckv, &w.cross_kv_bias, heads);
                cross_attention(device, &cq, &ck, &cv, tgt_idx, mem_idx).into_vec()
            },
        );
        tensor(out, rows, hidden)
    }
}

/// Launch names of the row-wise kernels of one stack's decoder layer.
pub(crate) struct LayerNames {
    pub self_qkv: &'static str,
    pub self_proj: &'static str,
    pub cross_q: &'static str,
    pub cross_proj: &'static str,
    pub ffn_up: &'static str,
    pub ffn_down: &'static str,
    /// After self-attention, after cross-attention, after the FFN.
    pub layernorm: [&'static str; 3],
}

const LAYER_NAMES: LayerNames = LayerNames {
    self_qkv: "dec_gemm0.self_qkv",
    self_proj: "dec_gemm1.self_proj",
    cross_q: "dec_gemm2.cross_q",
    cross_proj: "dec_gemm4.cross_proj",
    ffn_up: "dec_gemm5.ffn_up",
    ffn_down: "dec_gemm6.ffn_down",
    layernorm: ["dec_layernorm0", "dec_layernorm1", "dec_layernorm2"],
};

/// The decoder layer over `[rows, hidden]` activations `x`, written once for
/// the teacher-forced stack above and [`crate::paged::PagedDecoder`]: six
/// row-wise GEMMs, bias + GELU in the FFN up-projection's epilogue, and a
/// fused add-bias + residual + LayerNorm closing each sub-layer (§III.C).
///
/// The stacks differ only in where attention's K/V live, so each passes two
/// closures that take a raw projection (`[rows, 3·hidden]` self QKV,
/// `[rows, hidden]` cross Q) with its bias and return the `[rows, hidden]`
/// attention context.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decoder_layer(
    device: &Device,
    config: &BertConfig,
    w: &DecoderLayerWeights,
    names: &LayerNames,
    x: &[f32],
    rows: usize,
    self_attention: impl FnOnce(Vec<f32>, &[f32]) -> Vec<f32>,
    cross_attention: impl FnOnce(Vec<f32>, &[f32]) -> Vec<f32>,
) -> Vec<f32> {
    let hidden = config.hidden();
    let gemm = |name: &str, a: &[f32], weight: &Tensor, k: usize, n: usize| {
        launch_gemm(device, name, a, rows, weight.as_slice(), k, n, None)
    };
    let add_layernorm = |name: &str, out: &mut [f32], residual: &[f32], bias: &[f32], gamma: &[f32], beta: &[f32]| {
        add_bias_residual_layernorm_fused(device, name, out, residual, bias, gamma, beta, config.eps, rows, hidden);
    };

    let qkv = gemm(names.self_qkv, x, &w.self_qkv_weight, hidden, 3 * hidden);
    let sa = self_attention(qkv, &w.self_qkv_bias);
    let mut attn = gemm(names.self_proj, &sa, &w.self_out_weight, hidden, hidden);
    add_layernorm(
        names.layernorm[0],
        &mut attn,
        x,
        &w.self_out_bias,
        &w.ln0_gamma,
        &w.ln0_beta,
    );

    let cq = gemm(names.cross_q, &attn, &w.cross_q_weight, hidden, hidden);
    let ca = cross_attention(cq, &w.cross_q_bias);
    let mut cattn = gemm(names.cross_proj, &ca, &w.cross_out_weight, hidden, hidden);
    add_layernorm(
        names.layernorm[1],
        &mut cattn,
        &attn,
        &w.cross_out_bias,
        &w.ln1_gamma,
        &w.ln1_beta,
    );

    let epi = bias_gelu_epilogue(&w.ffn_up_bias);
    let ffn = launch_gemm(
        device,
        names.ffn_up,
        &cattn,
        rows,
        w.ffn_up_weight.as_slice(),
        hidden,
        config.intermediate(),
        Some(&epi),
    );
    let mut out = gemm(names.ffn_down, &ffn, &w.ffn_down_weight, config.intermediate(), hidden);
    add_layernorm(
        names.layernorm[2],
        &mut out,
        &cattn,
        &w.ffn_down_bias,
        &w.ln2_gamma,
        &w.ln2_beta,
    );
    out
}

/// A full encoder-decoder Transformer: a ByteTransformer BERT encoder
/// producing the memory, and the padding-free decoder above consuming it.
#[derive(Debug, Clone)]
pub struct Seq2SeqTransformer {
    /// The encoder stack.
    pub encoder: BertModel,
    /// The decoder stack.
    pub decoder: TransformerDecoder,
}

impl Seq2SeqTransformer {
    /// Builds an encoder-decoder pair with deterministic random weights.
    pub fn new_random(config: BertConfig, enc_layers: usize, dec_layers: usize, seed: u64) -> Self {
        Self {
            encoder: BertModel::new_random(config, enc_layers, seed),
            decoder: TransformerDecoder::new_random(config, dec_layers, seed.wrapping_add(1)),
        }
    }

    /// Full seq2seq forward: encode `src`, decode `tgt` against the memory.
    /// Both sides run the complete ByteTransformer optimization set.
    ///
    /// # Errors
    /// Propagates shape/mask mismatches as [`VarlenError`].
    pub fn forward(
        &self,
        device: &Device,
        src: &Tensor,
        src_mask: &BatchMask,
        tgt: &Tensor,
        tgt_mask: &BatchMask,
    ) -> Result<Tensor, VarlenError> {
        let memory = self.encoder.forward(device, src, src_mask, OptLevel::FusedMha)?;
        self.decoder.forward(device, tgt, tgt_mask, &memory, src_mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::{causal_reference_attention, cross_reference_attention};
    use bt_device::CostModel;
    use bt_kernels::activation::gelu_tanh;
    use bt_kernels::layernorm::normalize_row;
    use bt_varlen::workload::masked_randn;

    fn device() -> Device {
        Device::with_model(CostModel::unit())
    }

    /// Straight-line decoder layer on one (tgt sequence, memory sequence)
    /// pair — the independent oracle mirroring the packed pipeline.
    fn reference_layer(
        config: &BertConfig,
        w: &DecoderLayerWeights,
        x: &[f32],
        tgt_len: usize,
        mem: &[f32],
        mem_len: usize,
    ) -> Vec<f32> {
        let hidden = config.hidden();
        let heads = config.heads;
        let head = config.head_size;
        let scale = config.attention_scale();
        let matmul = |a: &[f32], rows: usize, wt: &Tensor, k: usize, n: usize| -> Vec<f32> {
            let mut out = vec![0.0f32; rows * n];
            let ws = wt.as_slice();
            for i in 0..rows {
                for p in 0..k {
                    let av = a[i * k + p];
                    for j in 0..n {
                        out[i * n + j] += av * ws[p * n + j];
                    }
                }
            }
            out
        };
        let to_bhsd = |flat: &[f32], rows: usize, col0: usize, stride: usize| -> Tensor {
            let mut t = Tensor::zeros([1, heads, rows, head]);
            for s in 0..rows {
                for h in 0..heads {
                    for d in 0..head {
                        t.set(&[0, h, s, d], flat[s * stride + col0 + h * head + d]).unwrap();
                    }
                }
            }
            t
        };

        // Self-attention (causal).
        let mut qkv = matmul(x, tgt_len, &w.self_qkv_weight, hidden, 3 * hidden);
        for row in qkv.chunks_mut(3 * hidden) {
            for (v, &b) in row.iter_mut().zip(&w.self_qkv_bias) {
                *v += b;
            }
        }
        let q = to_bhsd(&qkv, tgt_len, 0, 3 * hidden);
        let k = to_bhsd(&qkv, tgt_len, hidden, 3 * hidden);
        let v = to_bhsd(&qkv, tgt_len, 2 * hidden, 3 * hidden);
        let sa = causal_reference_attention(&q, &k, &v, &[tgt_len], scale);
        let mut sa_flat = vec![0.0f32; tgt_len * hidden];
        for s in 0..tgt_len {
            for h in 0..heads {
                for d in 0..head {
                    sa_flat[s * hidden + h * head + d] = sa.at(&[0, h, s, d]).unwrap();
                }
            }
        }
        let mut attn = matmul(&sa_flat, tgt_len, &w.self_out_weight, hidden, hidden);
        for (i, row) in attn.chunks_mut(hidden).enumerate() {
            for (j, vv) in row.iter_mut().enumerate() {
                *vv += x[i * hidden + j] + w.self_out_bias[j];
            }
            normalize_row(row, &w.ln0_gamma, &w.ln0_beta, config.eps);
        }

        // Cross-attention.
        let mut cq = matmul(&attn, tgt_len, &w.cross_q_weight, hidden, hidden);
        for row in cq.chunks_mut(hidden) {
            for (vv, &b) in row.iter_mut().zip(&w.cross_q_bias) {
                *vv += b;
            }
        }
        let mut ckv = matmul(mem, mem_len, &w.cross_kv_weight, hidden, 2 * hidden);
        for row in ckv.chunks_mut(2 * hidden) {
            for (vv, &b) in row.iter_mut().zip(&w.cross_kv_bias) {
                *vv += b;
            }
        }
        let cq_t = to_bhsd(&cq, tgt_len, 0, hidden);
        let ck_t = to_bhsd(&ckv, mem_len, 0, 2 * hidden);
        let cv_t = to_bhsd(&ckv, mem_len, hidden, 2 * hidden);
        let ca = cross_reference_attention(&cq_t, &ck_t, &cv_t, &[tgt_len], &[mem_len], scale);
        let mut ca_flat = vec![0.0f32; tgt_len * hidden];
        for s in 0..tgt_len {
            for h in 0..heads {
                for d in 0..head {
                    ca_flat[s * hidden + h * head + d] = ca.at(&[0, h, s, d]).unwrap();
                }
            }
        }
        let mut cattn = matmul(&ca_flat, tgt_len, &w.cross_out_weight, hidden, hidden);
        for (i, row) in cattn.chunks_mut(hidden).enumerate() {
            for (j, vv) in row.iter_mut().enumerate() {
                *vv += attn[i * hidden + j] + w.cross_out_bias[j];
            }
            normalize_row(row, &w.ln1_gamma, &w.ln1_beta, config.eps);
        }

        // FFN.
        let inter = config.intermediate();
        let mut up = matmul(&cattn, tgt_len, &w.ffn_up_weight, hidden, inter);
        for row in up.chunks_mut(inter) {
            for (vv, &b) in row.iter_mut().zip(&w.ffn_up_bias) {
                *vv = gelu_tanh(*vv + b);
            }
        }
        let mut out = matmul(&up, tgt_len, &w.ffn_down_weight, inter, hidden);
        for (i, row) in out.chunks_mut(hidden).enumerate() {
            for (j, vv) in row.iter_mut().enumerate() {
                *vv += cattn[i * hidden + j] + w.ffn_down_bias[j];
            }
            normalize_row(row, &w.ln2_gamma, &w.ln2_beta, config.eps);
        }
        out
    }

    #[test]
    fn decoder_matches_independent_reference() {
        let config = BertConfig::tiny();
        let dec = TransformerDecoder::new_random(config, 2, 7);
        let tgt_mask = BatchMask::from_lens(vec![5, 2], 6).unwrap();
        let mem_mask = BatchMask::from_lens(vec![3, 8], 8).unwrap();
        let tgt = masked_randn(&tgt_mask, config.hidden(), 1);
        let memory = masked_randn(&mem_mask, config.hidden(), 2);
        let dev = device();
        let got = dec.forward(&dev, &tgt, &tgt_mask, &memory, &mem_mask).unwrap();

        let hidden = config.hidden();
        for (b, (&tl, &ml)) in tgt_mask.seq_lens().iter().zip(mem_mask.seq_lens()).enumerate() {
            let mut x = vec![0.0f32; tl * hidden];
            let mut mem = vec![0.0f32; ml * hidden];
            for s in 0..tl {
                for h in 0..hidden {
                    x[s * hidden + h] = tgt.at(&[b, s, h]).unwrap();
                }
            }
            for s in 0..ml {
                for h in 0..hidden {
                    mem[s * hidden + h] = memory.at(&[b, s, h]).unwrap();
                }
            }
            for w in &dec.weights.layers {
                x = reference_layer(&config, w, &x, tl, &mem, ml);
            }
            for s in 0..tl {
                for h in 0..hidden {
                    let g = got.at(&[b, s, h]).unwrap();
                    let e = x[s * hidden + h];
                    assert!((g - e).abs() < 5e-3, "({b},{s},{h}): {g} vs {e}");
                }
            }
        }
    }

    #[test]
    fn decoder_zeroes_padded_rows() {
        let config = BertConfig::tiny();
        let dec = TransformerDecoder::new_random(config, 1, 3);
        let tgt_mask = BatchMask::from_lens(vec![2], 5).unwrap();
        let mem_mask = BatchMask::from_lens(vec![4], 4).unwrap();
        let dev = device();
        let got = dec
            .forward(
                &dev,
                &masked_randn(&tgt_mask, 16, 1),
                &tgt_mask,
                &masked_randn(&mem_mask, 16, 2),
                &mem_mask,
            )
            .unwrap();
        for s in 2..5 {
            for h in 0..16 {
                assert_eq!(got.at(&[0, s, h]).unwrap(), 0.0);
            }
        }
    }

    #[test]
    fn seq2seq_end_to_end_is_finite_and_deterministic() {
        let config = BertConfig::tiny();
        let model = Seq2SeqTransformer::new_random(config, 2, 2, 11);
        let src_mask = BatchMask::from_lens(vec![6, 3], 8).unwrap();
        let tgt_mask = BatchMask::from_lens(vec![4, 7], 7).unwrap();
        let src = masked_randn(&src_mask, config.hidden(), 5);
        let tgt = masked_randn(&tgt_mask, config.hidden(), 6);
        let dev = device();
        let a = model.forward(&dev, &src, &src_mask, &tgt, &tgt_mask).unwrap();
        let b = model.forward(&dev, &src, &src_mask, &tgt, &tgt_mask).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(a.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(a.dims(), &[2, 7, config.hidden()]);
    }

    #[test]
    fn decoder_causality_holds_end_to_end() {
        // Changing a *later* target token must not affect earlier outputs.
        let config = BertConfig::tiny();
        let dec = TransformerDecoder::new_random(config, 2, 13);
        let tgt_mask = BatchMask::from_lens(vec![6], 6).unwrap();
        let mem_mask = BatchMask::from_lens(vec![4], 4).unwrap();
        let memory = masked_randn(&mem_mask, config.hidden(), 2);
        let tgt_a = masked_randn(&tgt_mask, config.hidden(), 3);
        let mut tgt_b = tgt_a.clone();
        for h in 0..config.hidden() {
            tgt_b.set(&[0, 5, h], 9.0).unwrap(); // perturb the last token
        }
        let dev = device();
        let out_a = dec.forward(&dev, &tgt_a, &tgt_mask, &memory, &mem_mask).unwrap();
        let out_b = dec.forward(&dev, &tgt_b, &tgt_mask, &memory, &mem_mask).unwrap();
        for s in 0..5 {
            for h in 0..config.hidden() {
                assert_eq!(
                    out_a.at(&[0, s, h]).unwrap(),
                    out_b.at(&[0, s, h]).unwrap(),
                    "position {s} saw the future"
                );
            }
        }
        // The perturbed position itself must change.
        assert_ne!(out_a.at(&[0, 5, 0]).unwrap(), out_b.at(&[0, 5, 0]).unwrap());
    }

    #[test]
    fn shape_errors_are_typed() {
        let config = BertConfig::tiny();
        let dec = TransformerDecoder::new_random(config, 1, 1);
        let tgt_mask = BatchMask::from_lens(vec![2], 4).unwrap();
        let mem_mask = BatchMask::from_lens(vec![2, 2], 4).unwrap();
        let dev = device();
        // Batch mismatch between target and memory.
        let r = dec.forward(
            &dev,
            &Tensor::zeros([1, 4, 16]),
            &tgt_mask,
            &Tensor::zeros([2, 4, 16]),
            &mem_mask,
        );
        assert!(r.is_err());
        // Wrong hidden.
        let r = dec.forward(
            &dev,
            &Tensor::zeros([1, 4, 7]),
            &tgt_mask,
            &Tensor::zeros([1, 4, 16]),
            &BatchMask::from_lens(vec![2], 4).unwrap(),
        );
        assert!(r.is_err());
    }
}
