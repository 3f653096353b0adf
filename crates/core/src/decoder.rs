//! The Transformer decoder extension (paper §II and §V).
//!
//! The paper evaluates an encoder-only BERT but states that the zero-padding
//! algorithm and fused-MHA strategies "can easily extend to other
//! transformers that contain the decoder part". This module is that
//! extension's model and its teacher-forced entry, built entirely from the
//! same machinery:
//!
//! * **causal self-attention** — Algorithm III.2 as row dots under a causal
//!   key range, packed and padding-free, the constraint expressed as a
//!   *smaller iteration space*: each row reduces over the keys it sees and
//!   no others;
//! * **cross-attention** — the same row dots over rectangular
//!   variable-shape attention units on the encoder memory, with Algorithm
//!   III.2's tiled softmax partials and merge — padding-free on *both* the
//!   decoder and encoder axes;
//! * the same fused add-bias+LayerNorm and bias+GELU-in-epilogue kernels.
//!
//! The decoder has one stack, [`crate::paged::PagedDecoder`], which owns the
//! layer. [`TransformerDecoder::forward`] packs its padded target and memory
//! and runs them as one paged prefill: one session per sequence over its
//! memory rows, on a cache sized exactly to the batch, and one
//! `PagedDecoder::forward` over every non-empty target. A teacher-forced
//! output is therefore a paged prefill's by construction, and a target's
//! rows do not depend on its batch-mates.
//! [`crate::incremental::DecoderSession`] shares none of it on purpose — it
//! is the scalar oracle the stack is compared to.
//!
//! [`Seq2SeqTransformer`] composes a ByteTransformer encoder with this
//! decoder for a full encoder-decoder forward pass (teacher-forcing style).

use crate::config::BertConfig;
use crate::encoder::{BertModel, OptLevel};
use crate::paged::PagedDecoder;
use crate::weights::DecoderWeights;
use bt_device::Device;
use bt_tensor::Tensor;
use bt_varlen::paged::{PagedLayout, SessionId};
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
    /// padding rows. Runs as one paged prefill of every target (see the
    /// module docs); a sequence with no target rows opens no session.
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
        let x = tgt_idx.pack(device, tgt)?;
        let mem = mem_idx.pack(device, memory)?;

        // One paged prefill of every non-empty target, each its own session
        // over its memory rows, on a cache holding exactly the batch (a pool
        // has at least one block).
        let block = PagedLayout::default().block_tokens;
        let blocks = tgt_mask.seq_lens().iter().map(|len| len.div_ceil(block)).sum::<usize>();
        let mut paged = PagedDecoder::new(self, PagedLayout::new(block, blocks.max(1)));
        let sessions: Vec<(usize, SessionId)> = (0..tgt_idx.batch())
            .filter(|&b| tgt_idx.seq_len(b) > 0)
            .map(|b| (b, paged.open_session_rows(device, seq_rows(&mem, &mem_idx, b))))
            .collect();
        let inputs: Vec<(SessionId, &[f32])> = sessions
            .iter()
            .map(|&(b, sid)| (sid, seq_rows(&x, &tgt_idx, b)))
            .collect();
        let out: Vec<f32> = paged
            .forward(device, &inputs)
            .into_iter()
            .flat_map(|out| out.expect("the cache holds the whole batch"))
            .collect();
        // Freed, so the KV-cache counters see every session close.
        for &(_, sid) in &sessions {
            paged.free_session(sid);
        }
        tgt_idx.unpack(
            device,
            &Tensor::from_vec(out, [tgt_idx.valid_words(), hidden]).expect("shape consistent"),
        )
    }
}

/// Sequence `b`'s rows of a packed `[valid, hidden]` tensor.
fn seq_rows<'t>(packed: &'t Tensor, idx: &PackingIndex, b: usize) -> &'t [f32] {
    let hidden = packed.dims()[1];
    &packed.as_slice()[idx.seq_offset(b) * hidden..][..idx.seq_len(b) * hidden]
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
    use crate::weights::DecoderLayerWeights;
    use bt_device::CostModel;
    use bt_gemm::PackedB;
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
        let matmul = |a: &[f32], rows: usize, wt: &PackedB| -> Vec<f32> {
            let (k, n) = (wt.k(), wt.n());
            let mut out = vec![0.0f32; rows * n];
            let ws = wt.to_row_major();
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
        let mut qkv = matmul(x, tgt_len, &w.self_qkv_weight);
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
        let mut attn = matmul(&sa_flat, tgt_len, &w.self_out_weight);
        for (i, row) in attn.chunks_mut(hidden).enumerate() {
            for (j, vv) in row.iter_mut().enumerate() {
                *vv += x[i * hidden + j] + w.self_out_bias[j];
            }
            normalize_row(row, &w.ln0_gamma, &w.ln0_beta, config.eps);
        }

        // Cross-attention.
        let mut cq = matmul(&attn, tgt_len, &w.cross_q_weight);
        for row in cq.chunks_mut(hidden) {
            for (vv, &b) in row.iter_mut().zip(&w.cross_q_bias) {
                *vv += b;
            }
        }
        let mut ckv = matmul(mem, mem_len, &w.cross_kv_weight);
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
        let mut cattn = matmul(&ca_flat, tgt_len, &w.cross_out_weight);
        for (i, row) in cattn.chunks_mut(hidden).enumerate() {
            for (j, vv) in row.iter_mut().enumerate() {
                *vv += attn[i * hidden + j] + w.cross_out_bias[j];
            }
            normalize_row(row, &w.ln1_gamma, &w.ln1_beta, config.eps);
        }

        // FFN.
        let inter = config.intermediate();
        let mut up = matmul(&cattn, tgt_len, &w.ffn_up_weight);
        for row in up.chunks_mut(inter) {
            for (vv, &b) in row.iter_mut().zip(&w.ffn_up_bias) {
                *vv = gelu_tanh(*vv + b);
            }
        }
        let mut out = matmul(&up, tgt_len, &w.ffn_down_weight);
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
    fn empty_sequences_keep_their_bits() {
        // Sequence 1 has no target rows (it opens no session), sequence 2
        // attends over an empty memory (its cross units have zero keys, so
        // their context is zero). The digest is the output's bits from
        // before the forward became a paged prefill; f32 only, where every
        // ISA tier gives them.
        if bt_gemm::active_precision() != bt_gemm::Precision::F32 {
            return;
        }
        let config = BertConfig::tiny();
        let dec = TransformerDecoder::new_random(config, 2, 5);
        let tgt_mask = BatchMask::from_lens(vec![5, 0, 3], 5).unwrap();
        let mem_mask = BatchMask::from_lens(vec![4, 6, 0], 6).unwrap();
        let tgt = masked_randn(&tgt_mask, config.hidden(), 1);
        let memory = masked_randn(&mem_mask, config.hidden(), 2);
        let got = dec.forward(&device(), &tgt, &tgt_mask, &memory, &mem_mask).unwrap();
        let fnv = got
            .as_slice()
            .iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(fnv, 0xba1f_070e_bea3_dec7, "output bits moved");
        assert!(got.as_slice().iter().all(|v| v.is_finite()));
        assert!((0..5).all(|s| (0..config.hidden()).all(|h| got.at(&[1, s, h]).unwrap() == 0.0)));

        // A batch with no target rows at all is all padding.
        let none = BatchMask::from_lens(vec![0, 0, 0], 2).unwrap();
        let got = dec
            .forward(
                &device(),
                &Tensor::zeros([3, 2, config.hidden()]),
                &none,
                &memory,
                &mem_mask,
            )
            .unwrap();
        assert!(got.as_slice().iter().all(|&v| v == 0.0));
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
