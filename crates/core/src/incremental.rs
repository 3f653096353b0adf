//! Incremental (token-by-token) decoding with a KV cache.
//!
//! The serving systems the paper targets decode autoregressively: each step
//! feeds one new token through the decoder, attending over everything
//! generated so far. Recomputing past keys/values every step would be
//! quadratic in practice, so a [`DecoderSession`] keeps per-layer **KV
//! caches**:
//!
//! * self-attention K/V of all generated tokens (appended each step),
//! * cross-attention K/V of the encoder memory, projected **once** at
//!   session creation (they are step-invariant — the same fusion-of-
//!   invariants idea as Algorithm III.2's prologue-loaded `max`/`sum`).
//!
//! Each step is a handful of `1×n` GEMV-shaped kernels plus two cache
//! attentions — all launched through the device, so the trace shows the
//! per-token cost profile a serving system would see.
//!
//! Equivalence guarantee (tested): feeding a target sequence one token at a
//! time produces the same per-row outputs as the packed teacher-forcing
//! forward of [`crate::decoder::TransformerDecoder`] within float tolerance
//! (the two contract in different orders, so not bit-for-bit).
//!
//! This is the **differential oracle** of the decoder, so it keeps its own
//! scalar layer (bias, LayerNorm and GELU as host loops, attention as dot
//! products, the cross-K/V head split by hand) instead of running the layer
//! of [`crate::paged::PagedDecoder`], the one stack every decoder forward —
//! teacher-forced included — runs: an oracle that ran the code under test
//! would prove nothing.

use crate::attention::oracle_softmax;
use crate::decoder::TransformerDecoder;
use crate::encoder::launch_gemm;
use crate::weights::DecoderLayerWeights;
use bt_device::{Device, KernelSpec};
use bt_kernels::layernorm::normalize_row;
use bt_tensor::Tensor;

/// Per-layer self-attention cache: keys and values of every generated
/// token, stored `[heads, step, head]` row-major with amortized growth.
struct LayerCache {
    k: Vec<f32>,
    v: Vec<f32>,
    /// Tokens currently cached.
    len: usize,
}

impl LayerCache {
    fn new() -> Self {
        Self {
            k: Vec::new(),
            v: Vec::new(),
            len: 0,
        }
    }
}

/// A single-sequence incremental decoding session.
///
/// Construction projects the encoder memory into per-layer cross-attention
/// K/V once; each [`DecoderSession::step`] advances the sequence by one
/// token and returns its hidden state.
pub struct DecoderSession<'a> {
    decoder: &'a TransformerDecoder,
    /// Per-layer cross K/V: `[heads, mem_len, head]` planes.
    cross_kv: Vec<(Vec<f32>, Vec<f32>)>,
    cache: Vec<LayerCache>,
    mem_len: usize,
}

impl<'a> DecoderSession<'a> {
    /// Opens a session over one encoder memory sequence
    /// (`[mem_len, hidden]`, packed).
    ///
    /// # Panics
    /// Panics if `memory` is not `[mem_len, hidden]` with `mem_len ≥ 1` for
    /// the decoder's hidden size.
    pub fn new(decoder: &'a TransformerDecoder, device: &Device, memory: &Tensor) -> Self {
        let hidden = decoder.config.hidden();
        let dims = memory.dims();
        assert_eq!(dims.len(), 2, "memory must be [mem_len, hidden]");
        assert_eq!(dims[1], hidden, "memory hidden mismatch");
        let mem_len = dims[0];
        assert!(mem_len >= 1, "memory must hold at least one row");
        let heads = decoder.config.heads;
        let head = decoder.config.head_size;

        // Project the memory once per layer: K|V = memory × W_kv + bias,
        // split to head planes.
        let cross_kv = decoder
            .weights
            .layers
            .iter()
            .map(|w| {
                let kv = launch_gemm(
                    device,
                    "incremental.cross_kv",
                    memory.as_slice(),
                    mem_len,
                    &w.cross_kv_weight,
                    None,
                );
                let mut kp = vec![0.0f32; heads * mem_len * head];
                let mut vp = vec![0.0f32; heads * mem_len * head];
                for s in 0..mem_len {
                    for h in 0..heads {
                        for d in 0..head {
                            let c = h * head + d;
                            kp[(h * mem_len + s) * head + d] = kv[s * 2 * hidden + c] + w.cross_kv_bias[c];
                            vp[(h * mem_len + s) * head + d] =
                                kv[s * 2 * hidden + hidden + c] + w.cross_kv_bias[hidden + c];
                        }
                    }
                }
                (kp, vp)
            })
            .collect();

        Self {
            decoder,
            cross_kv,
            cache: (0..decoder.weights.layers.len()).map(|_| LayerCache::new()).collect(),
            mem_len,
        }
    }

    /// Tokens decoded so far.
    pub fn steps(&self) -> usize {
        self.cache.first().map_or(0, |c| c.len)
    }

    /// Advances the session by one token: `x` is the new token's input
    /// hidden state; returns its output hidden state.
    ///
    /// # Panics
    /// Panics if `x.len() != hidden`.
    pub fn step(&mut self, device: &Device, x: &[f32]) -> Vec<f32> {
        let config = self.decoder.config;
        let hidden = config.hidden();
        assert_eq!(x.len(), hidden, "token hidden mismatch");
        let heads = config.heads;
        let head = config.head_size;
        let scale = config.attention_scale();
        let eps = config.eps;
        let mem_len = self.mem_len;

        let mut h_state = x.to_vec();
        let layers: &[DecoderLayerWeights] = &self.decoder.weights.layers;
        for (w, (cache, (ck, cv))) in layers.iter().zip(self.cache.iter_mut().zip(self.cross_kv.iter())) {
            // --- self-attention over the cache + this token -----------
            let mut qkv = launch_gemm(device, "incremental.self_qkv", &h_state, 1, &w.self_qkv_weight, None);
            for (v, &b) in qkv.iter_mut().zip(&w.self_qkv_bias) {
                *v += b;
            }
            // Append K/V to the cache ([heads, len+1, head] layout rebuild
            // amortized by per-head interleaving on read instead).
            let step = cache.len;
            cache.k.resize((step + 1) * hidden, 0.0);
            cache.v.resize((step + 1) * hidden, 0.0);
            cache.k[step * hidden..(step + 1) * hidden].copy_from_slice(&qkv[hidden..2 * hidden]);
            cache.v[step * hidden..(step + 1) * hidden].copy_from_slice(&qkv[2 * hidden..3 * hidden]);
            cache.len += 1;
            let klen = cache.len;

            let mut sa = vec![0.0f32; hidden];
            device.launch(
                KernelSpec::new("incremental.self_attn")
                    .flops((heads * klen * head * 4) as u64)
                    .reads((2 * klen * hidden * 4 + hidden * 4) as u64)
                    .writes((hidden * 4) as u64),
                || {
                    for h in 0..heads {
                        let q_row = &qkv[h * head..(h + 1) * head];
                        let mut logits = vec![0.0f32; klen];
                        for (j, l) in logits.iter_mut().enumerate() {
                            let k_row = &cache.k[j * hidden + h * head..j * hidden + (h + 1) * head];
                            let mut dot = 0.0f32;
                            for (&a, &b) in q_row.iter().zip(k_row) {
                                dot += a * b;
                            }
                            *l = dot * scale;
                        }
                        oracle_softmax(&mut logits);
                        let out = &mut sa[h * head..(h + 1) * head];
                        for (j, &p) in logits.iter().enumerate() {
                            let v_row = &cache.v[j * hidden + h * head..j * hidden + (h + 1) * head];
                            for (o, &vv) in out.iter_mut().zip(v_row) {
                                *o += p * vv;
                            }
                        }
                    }
                },
            );
            let mut attn = launch_gemm(device, "incremental.self_proj", &sa, 1, &w.self_out_weight, None);
            for ((v, &r), &b) in attn.iter_mut().zip(&h_state).zip(&w.self_out_bias) {
                *v += r + b;
            }
            normalize_row(&mut attn, &w.ln0_gamma, &w.ln0_beta, eps);

            // --- cross-attention over the precomputed memory K/V -------
            let mut cq = launch_gemm(device, "incremental.cross_q", &attn, 1, &w.cross_q_weight, None);
            for (v, &b) in cq.iter_mut().zip(&w.cross_q_bias) {
                *v += b;
            }
            let mut ca = vec![0.0f32; hidden];
            device.launch(
                KernelSpec::new("incremental.cross_attn")
                    .flops((heads * mem_len * head * 4) as u64)
                    .reads((2 * mem_len * hidden * 4 + hidden * 4) as u64)
                    .writes((hidden * 4) as u64),
                || {
                    for h in 0..heads {
                        let q_row = &cq[h * head..(h + 1) * head];
                        let mut logits = vec![0.0f32; mem_len];
                        for (j, l) in logits.iter_mut().enumerate() {
                            let k_row = &ck[(h * mem_len + j) * head..(h * mem_len + j + 1) * head];
                            let mut dot = 0.0f32;
                            for (&a, &b) in q_row.iter().zip(k_row) {
                                dot += a * b;
                            }
                            *l = dot * scale;
                        }
                        oracle_softmax(&mut logits);
                        let out = &mut ca[h * head..(h + 1) * head];
                        for (j, &p) in logits.iter().enumerate() {
                            let v_row = &cv[(h * mem_len + j) * head..(h * mem_len + j + 1) * head];
                            for (o, &vv) in out.iter_mut().zip(v_row) {
                                *o += p * vv;
                            }
                        }
                    }
                },
            );
            let mut cattn = launch_gemm(device, "incremental.cross_proj", &ca, 1, &w.cross_out_weight, None);
            for ((v, &r), &b) in cattn.iter_mut().zip(&attn).zip(&w.cross_out_bias) {
                *v += r + b;
            }
            normalize_row(&mut cattn, &w.ln1_gamma, &w.ln1_beta, eps);

            // --- FFN ----------------------------------------------------
            let mut up = launch_gemm(device, "incremental.ffn_up", &cattn, 1, &w.ffn_up_weight, None);
            for (v, &b) in up.iter_mut().zip(&w.ffn_up_bias) {
                *v = bt_kernels::activation::gelu_tanh(*v + b);
            }
            let mut out = launch_gemm(device, "incremental.ffn_down", &up, 1, &w.ffn_down_weight, None);
            for ((v, &r), &b) in out.iter_mut().zip(&cattn).zip(&w.ffn_down_bias) {
                *v += r + b;
            }
            normalize_row(&mut out, &w.ln2_gamma, &w.ln2_beta, eps);
            h_state = out;
        }
        h_state
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // oracle-style index loops
mod tests {
    use super::*;
    use crate::config::BertConfig;
    use bt_device::CostModel;
    use bt_varlen::BatchMask;

    fn device() -> Device {
        Device::with_model(CostModel::unit())
    }

    #[test]
    fn incremental_matches_teacher_forcing_forward() {
        let config = BertConfig::tiny();
        let decoder = TransformerDecoder::new_random(config, 2, 7);
        let hidden = config.hidden();
        let tgt_len = 6;
        let mem_len = 4;
        let dev = device();

        // Full packed forward (batch of one).
        let tgt_mask = BatchMask::from_lens(vec![tgt_len], tgt_len).unwrap();
        let mem_mask = BatchMask::from_lens(vec![mem_len], mem_len).unwrap();
        let tgt = Tensor::randn([1, tgt_len, hidden], 1);
        let memory = Tensor::randn([1, mem_len, hidden], 2);
        let full = decoder.forward(&dev, &tgt, &tgt_mask, &memory, &mem_mask).unwrap();

        // Incremental session over the same memory.
        let mem_packed = memory.clone().reshape([mem_len, hidden]).unwrap();
        let mut session = DecoderSession::new(&decoder, &dev, &mem_packed);
        for s in 0..tgt_len {
            let x: Vec<f32> = (0..hidden).map(|h| tgt.at(&[0, s, h]).unwrap()).collect();
            let out = session.step(&dev, &x);
            for h in 0..hidden {
                let e = full.at(&[0, s, h]).unwrap();
                assert!((out[h] - e).abs() < 5e-3, "step {s}, dim {h}: {} vs {e}", out[h]);
            }
        }
        assert_eq!(session.steps(), tgt_len);
    }

    #[test]
    fn cross_kv_projected_once() {
        let config = BertConfig::tiny();
        let decoder = TransformerDecoder::new_random(config, 3, 9);
        let dev = device();
        let memory = Tensor::randn([5, config.hidden()], 3);
        let mut session = DecoderSession::new(&decoder, &dev, &memory);
        let kv_launches_after_new = dev.trace().iter().filter(|r| r.name.contains("cross_kv")).count();
        assert_eq!(kv_launches_after_new, 3); // one per layer, at session open
        session.step(&dev, &vec![0.1; config.hidden()]);
        session.step(&dev, &vec![0.2; config.hidden()]);
        let kv_launches_after_steps = dev.trace().iter().filter(|r| r.name.contains("cross_kv")).count();
        assert_eq!(kv_launches_after_steps, 3, "steps must not re-project memory");
    }

    #[test]
    fn per_step_cost_grows_linearly_with_cache() {
        let config = BertConfig::tiny();
        let decoder = TransformerDecoder::new_random(config, 1, 11);
        let dev = device();
        let memory = Tensor::randn([4, config.hidden()], 5);
        let mut session = DecoderSession::new(&decoder, &dev, &memory);
        let mut self_attn_flops = Vec::new();
        for s in 0..8 {
            dev.reset();
            session.step(&dev, &vec![0.05 * s as f32; config.hidden()]);
            let f: u64 = dev
                .trace()
                .iter()
                .filter(|r| r.name.contains("self_attn"))
                .map(|r| r.cost.flops)
                .sum();
            self_attn_flops.push(f);
        }
        // flops at step t ∝ (t + 1).
        assert_eq!(self_attn_flops[3], self_attn_flops[0] * 4);
        assert_eq!(self_attn_flops[7], self_attn_flops[0] * 8);
    }

    #[test]
    #[should_panic(expected = "token hidden mismatch")]
    fn wrong_token_width_panics() {
        let config = BertConfig::tiny();
        let decoder = TransformerDecoder::new_random(config, 1, 13);
        let dev = device();
        let memory = Tensor::randn([3, config.hidden()], 1);
        let mut session = DecoderSession::new(&decoder, &dev, &memory);
        session.step(&dev, &[0.0; 3]);
    }
}
