//! Encoder weights: packed QKV projection, output projection, FFN, and
//! LayerNorm parameters.
//!
//! Every GEMM weight is a [`PackedB`]: laid out once, at construction, in
//! the panel format the GEMM drivers read, as the paper's cuBLAS calls read
//! weights laid out at load. No row-major copy is kept, and no forward
//! re-lays-out a weight.

use crate::config::BertConfig;
use bt_gemm::PackedB;
use bt_tensor::rng::Xoshiro256StarStar;

/// A `rows×cols` weight drawn `normal · 1/√rows` in row-major order, each
/// value written straight into its panel slot.
fn random_weight(rows: usize, cols: usize, rng: &mut Xoshiro256StarStar) -> PackedB {
    let scale = 1.0 / (rows as f32).sqrt();
    PackedB::from_fn(rows, cols, |_, _| rng.normal() * scale)
}

/// Weights of one encoder layer.
///
/// The Q/K/V projection matrices are **packed** into a single
/// `[hidden, 3·hidden]` matrix so position encoding runs as one GEMM — the
/// paper's §III.A: "we pack these three matrices and launch a single batched
/// GEMM kernel to reduce the run-time kernel launch overhead".
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// Packed QKV projection, `[hidden, 3·hidden]` (columns: Q | K | V).
    pub qkv_weight: PackedB,
    /// Packed QKV bias, `[3·hidden]`.
    pub qkv_bias: Vec<f32>,
    /// Attention output projection, `[hidden, hidden]`.
    pub attn_out_weight: PackedB,
    /// Attention output bias, `[hidden]`.
    pub attn_out_bias: Vec<f32>,
    /// Post-attention LayerNorm scale, `[hidden]`.
    pub ln0_gamma: Vec<f32>,
    /// Post-attention LayerNorm shift, `[hidden]`.
    pub ln0_beta: Vec<f32>,
    /// FFN up-projection, `[hidden, intermediate]`.
    pub ffn_up_weight: PackedB,
    /// FFN up-projection bias, `[intermediate]`.
    pub ffn_up_bias: Vec<f32>,
    /// FFN down-projection, `[intermediate, hidden]`.
    pub ffn_down_weight: PackedB,
    /// FFN down-projection bias, `[hidden]`.
    pub ffn_down_bias: Vec<f32>,
    /// Post-FFN LayerNorm scale, `[hidden]`.
    pub ln1_gamma: Vec<f32>,
    /// Post-FFN LayerNorm shift, `[hidden]`.
    pub ln1_beta: Vec<f32>,
}

impl LayerWeights {
    /// Deterministic random initialization, scaled `1/√hidden` so
    /// activations stay well-conditioned through a 12-layer stack.
    pub fn new_random(config: &BertConfig, seed: u64) -> Self {
        let hidden = config.hidden();
        let inter = config.intermediate();
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let vec_small =
            |n: usize, rng: &mut Xoshiro256StarStar| -> Vec<f32> { (0..n).map(|_| rng.normal() * 0.02).collect() };
        let qkv_weight = random_weight(hidden, 3 * hidden, &mut rng);
        let qkv_bias = vec_small(3 * hidden, &mut rng);
        let attn_out_weight = random_weight(hidden, hidden, &mut rng);
        let attn_out_bias = vec_small(hidden, &mut rng);
        let ffn_up_weight = random_weight(hidden, inter, &mut rng);
        let ffn_up_bias = vec_small(inter, &mut rng);
        let ffn_down_weight = random_weight(inter, hidden, &mut rng);
        let ffn_down_bias = vec_small(hidden, &mut rng);
        let gamma =
            |rng: &mut Xoshiro256StarStar| -> Vec<f32> { (0..hidden).map(|_| 1.0 + rng.normal() * 0.02).collect() };
        Self {
            qkv_weight,
            qkv_bias,
            attn_out_weight,
            attn_out_bias,
            ln0_gamma: gamma(&mut rng),
            ln0_beta: vec_small(hidden, &mut rng),
            ffn_up_weight,
            ffn_up_bias,
            ffn_down_weight,
            ffn_down_bias,
            ln1_gamma: gamma(&mut rng),
            ln1_beta: vec_small(hidden, &mut rng),
        }
    }
}

/// Weights of one Transformer *decoder* layer (the paper's §II/§V decoder
/// extension): causal self-attention, cross-attention over the encoder
/// memory, and the FFN, each followed by LayerNorm.
#[derive(Debug, Clone)]
pub struct DecoderLayerWeights {
    /// Packed self-attention QKV projection, `[hidden, 3·hidden]`.
    pub self_qkv_weight: PackedB,
    /// Packed self-attention QKV bias, `[3·hidden]`.
    pub self_qkv_bias: Vec<f32>,
    /// Self-attention output projection, `[hidden, hidden]`.
    pub self_out_weight: PackedB,
    /// Self-attention output bias, `[hidden]`.
    pub self_out_bias: Vec<f32>,
    /// Post-self-attention LayerNorm scale/shift.
    pub ln0_gamma: Vec<f32>,
    /// Post-self-attention LayerNorm shift.
    pub ln0_beta: Vec<f32>,
    /// Cross-attention query projection, `[hidden, hidden]`.
    pub cross_q_weight: PackedB,
    /// Cross-attention query bias, `[hidden]`.
    pub cross_q_bias: Vec<f32>,
    /// Packed cross-attention K|V projection of the memory, `[hidden, 2·hidden]`.
    pub cross_kv_weight: PackedB,
    /// Packed cross-attention K|V bias, `[2·hidden]`.
    pub cross_kv_bias: Vec<f32>,
    /// Cross-attention output projection, `[hidden, hidden]`.
    pub cross_out_weight: PackedB,
    /// Cross-attention output bias, `[hidden]`.
    pub cross_out_bias: Vec<f32>,
    /// Post-cross-attention LayerNorm scale.
    pub ln1_gamma: Vec<f32>,
    /// Post-cross-attention LayerNorm shift.
    pub ln1_beta: Vec<f32>,
    /// FFN up-projection, `[hidden, intermediate]`.
    pub ffn_up_weight: PackedB,
    /// FFN up-projection bias, `[intermediate]`.
    pub ffn_up_bias: Vec<f32>,
    /// FFN down-projection, `[intermediate, hidden]`.
    pub ffn_down_weight: PackedB,
    /// FFN down-projection bias, `[hidden]`.
    pub ffn_down_bias: Vec<f32>,
    /// Post-FFN LayerNorm scale.
    pub ln2_gamma: Vec<f32>,
    /// Post-FFN LayerNorm shift.
    pub ln2_beta: Vec<f32>,
}

impl DecoderLayerWeights {
    /// Deterministic random initialization (same scaling policy as
    /// [`LayerWeights::new_random`]).
    pub fn new_random(config: &BertConfig, seed: u64) -> Self {
        let hidden = config.hidden();
        let inter = config.intermediate();
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0xDEC0DE);
        let vec_small =
            |n: usize, rng: &mut Xoshiro256StarStar| -> Vec<f32> { (0..n).map(|_| rng.normal() * 0.02).collect() };
        let gamma =
            |rng: &mut Xoshiro256StarStar| -> Vec<f32> { (0..hidden).map(|_| 1.0 + rng.normal() * 0.02).collect() };
        Self {
            self_qkv_weight: random_weight(hidden, 3 * hidden, &mut rng),
            self_qkv_bias: vec_small(3 * hidden, &mut rng),
            self_out_weight: random_weight(hidden, hidden, &mut rng),
            self_out_bias: vec_small(hidden, &mut rng),
            ln0_gamma: gamma(&mut rng),
            ln0_beta: vec_small(hidden, &mut rng),
            cross_q_weight: random_weight(hidden, hidden, &mut rng),
            cross_q_bias: vec_small(hidden, &mut rng),
            cross_kv_weight: random_weight(hidden, 2 * hidden, &mut rng),
            cross_kv_bias: vec_small(2 * hidden, &mut rng),
            cross_out_weight: random_weight(hidden, hidden, &mut rng),
            cross_out_bias: vec_small(hidden, &mut rng),
            ln1_gamma: gamma(&mut rng),
            ln1_beta: vec_small(hidden, &mut rng),
            ffn_up_weight: random_weight(hidden, inter, &mut rng),
            ffn_up_bias: vec_small(inter, &mut rng),
            ffn_down_weight: random_weight(inter, hidden, &mut rng),
            ffn_down_bias: vec_small(hidden, &mut rng),
            ln2_gamma: gamma(&mut rng),
            ln2_beta: vec_small(hidden, &mut rng),
        }
    }
}

/// Weights for a stacked decoder.
#[derive(Debug, Clone)]
pub struct DecoderWeights {
    /// Per-layer weights, in stacking order.
    pub layers: Vec<DecoderLayerWeights>,
}

impl DecoderWeights {
    /// Deterministic random decoder with `num_layers` layers.
    pub fn new_random(config: &BertConfig, num_layers: usize, seed: u64) -> Self {
        let layers = (0..num_layers)
            .map(|i| DecoderLayerWeights::new_random(config, seed.wrapping_add(i as u64 * 6151)))
            .collect();
        Self { layers }
    }
}

/// Weights for a full stacked encoder.
#[derive(Debug, Clone)]
pub struct ModelWeights {
    /// Per-layer weights, in stacking order.
    pub layers: Vec<LayerWeights>,
}

impl ModelWeights {
    /// Deterministic random model with `num_layers` layers.
    pub fn new_random(config: &BertConfig, num_layers: usize, seed: u64) -> Self {
        let layers = (0..num_layers)
            .map(|i| LayerWeights::new_random(config, seed.wrapping_add(i as u64 * 7919)))
            .collect();
        Self { layers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_config() {
        let c = BertConfig::tiny();
        let w = LayerWeights::new_random(&c, 1);
        assert_eq!((w.qkv_weight.k(), w.qkv_weight.n()), (16, 48));
        assert_eq!(w.qkv_bias.len(), 48);
        assert_eq!((w.ffn_up_weight.k(), w.ffn_up_weight.n()), (16, 64));
        assert_eq!((w.ffn_down_weight.k(), w.ffn_down_weight.n()), (64, 16));
        assert_eq!(w.ln0_gamma.len(), 16);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let c = BertConfig::tiny();
        let a = LayerWeights::new_random(&c, 5);
        let b = LayerWeights::new_random(&c, 5);
        let d = LayerWeights::new_random(&c, 6);
        assert_eq!(a.qkv_weight, b.qkv_weight);
        assert_ne!(a.qkv_weight, d.qkv_weight);
    }

    #[test]
    fn model_layers_differ() {
        let c = BertConfig::tiny();
        let m = ModelWeights::new_random(&c, 3, 9);
        assert_eq!(m.layers.len(), 3);
        assert_ne!(m.layers[0].qkv_weight, m.layers[1].qkv_weight);
    }

    #[test]
    fn gamma_near_one() {
        let c = BertConfig::tiny();
        let w = LayerWeights::new_random(&c, 2);
        assert!(w.ln0_gamma.iter().all(|&g| (g - 1.0).abs() < 0.2));
    }
}
