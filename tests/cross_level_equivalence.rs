//! End-to-end equivalence: an independent straight-line BERT reference
//! implementation (plain loops, no kernels, no packing) must agree with
//! every optimization level of the encoder and every framework simulation
//! on valid tokens.

use bytetransformer::kernels::activation::gelu_tanh;
use bytetransformer::prelude::*;

/// Straight-line BERT encoder layer on one sequence (no batching, no
/// padding): the independent oracle.
fn reference_layer(
    config: &BertConfig,
    w: &bytetransformer::core::weights::LayerWeights,
    x: &[f32], // [len, hidden]
    len: usize,
) -> Vec<f32> {
    let hidden = config.hidden();
    let heads = config.heads;
    let head = config.head_size;
    let inter = config.intermediate();
    let scale = config.attention_scale();

    let matmul = |a: &[f32], rows: usize, w: &[f32], k: usize, n: usize| -> Vec<f32> {
        let mut out = vec![0.0f32; rows * n];
        for i in 0..rows {
            for p in 0..k {
                let av = a[i * k + p];
                for j in 0..n {
                    out[i * n + j] += av * w[p * n + j];
                }
            }
        }
        out
    };
    let layernorm = |x: &mut [f32], gamma: &[f32], beta: &[f32]| {
        for row in x.chunks_mut(hidden) {
            let mean = row.iter().sum::<f32>() / hidden as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / hidden as f32;
            let inv = 1.0 / (var + config.eps).sqrt();
            for (i, v) in row.iter_mut().enumerate() {
                *v = gamma[i] * (*v - mean) * inv + beta[i];
            }
        }
    };

    // QKV projection + bias.
    let mut qkv = matmul(x, len, &w.qkv_weight.to_row_major(), hidden, 3 * hidden);
    for row in qkv.chunks_mut(3 * hidden) {
        for (v, &b) in row.iter_mut().zip(&w.qkv_bias) {
            *v += b;
        }
    }

    // Attention per head.
    let mut ctx = vec![0.0f32; len * hidden];
    for h in 0..heads {
        for i in 0..len {
            let q = &qkv[i * 3 * hidden + h * head..i * 3 * hidden + (h + 1) * head];
            let mut logits = vec![0.0f32; len];
            for (j, l) in logits.iter_mut().enumerate() {
                let k_row = &qkv[j * 3 * hidden + hidden + h * head..j * 3 * hidden + hidden + (h + 1) * head];
                *l = q.iter().zip(k_row).map(|(&a, &b)| a * b).sum::<f32>() * scale;
            }
            let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for l in &mut logits {
                *l = (*l - max).exp();
                sum += *l;
            }
            for l in &mut logits {
                *l /= sum;
            }
            for (j, &p) in logits.iter().enumerate() {
                let v_row = &qkv[j * 3 * hidden + 2 * hidden + h * head..j * 3 * hidden + 2 * hidden + (h + 1) * head];
                for (dd, &vv) in v_row.iter().enumerate() {
                    ctx[i * hidden + h * head + dd] += p * vv;
                }
            }
        }
    }

    // Output projection + residual + LN.
    let mut attn = matmul(&ctx, len, &w.attn_out_weight.to_row_major(), hidden, hidden);
    for (i, row) in attn.chunks_mut(hidden).enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v += x[i * hidden + j] + w.attn_out_bias[j];
        }
    }
    layernorm(&mut attn, &w.ln0_gamma, &w.ln0_beta);

    // FFN.
    let mut up = matmul(&attn, len, &w.ffn_up_weight.to_row_major(), hidden, inter);
    for row in up.chunks_mut(inter) {
        for (v, &b) in row.iter_mut().zip(&w.ffn_up_bias) {
            *v = gelu_tanh(*v + b);
        }
    }
    let mut out = matmul(&up, len, &w.ffn_down_weight.to_row_major(), inter, hidden);
    for (i, row) in out.chunks_mut(hidden).enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v += attn[i * hidden + j] + w.ffn_down_bias[j];
        }
    }
    layernorm(&mut out, &w.ln1_gamma, &w.ln1_beta);
    out
}

fn reference_forward(model: &BertModel, input: &Tensor, mask: &BatchMask) -> Vec<Vec<f32>> {
    let hidden = model.config.hidden();
    let seq = mask.max_seq_len();
    mask.seq_lens()
        .iter()
        .enumerate()
        .map(|(b, &len)| {
            let mut x = vec![0.0f32; len * hidden];
            for s in 0..len {
                for h in 0..hidden {
                    x[s * hidden + h] = input.at(&[b, s, h]).unwrap();
                }
            }
            let _ = seq;
            for w in &model.weights.layers {
                x = reference_layer(&model.config, w, &x, len);
            }
            x
        })
        .collect()
}

fn compare_valid(out: &Tensor, reference: &[Vec<f32>], mask: &BatchMask, tol: f32, label: &str) {
    let hidden = out.dims()[2];
    for (b, &len) in mask.seq_lens().iter().enumerate() {
        for s in 0..len {
            for h in 0..hidden {
                let got = out.at(&[b, s, h]).unwrap();
                let expect = reference[b][s * hidden + h];
                assert!(
                    (got - expect).abs() < tol,
                    "{label}: ({b},{s},{h}) got {got}, expected {expect}"
                );
            }
        }
    }
}

fn setup() -> (BertModel, Tensor, BatchMask) {
    let config = BertConfig::tiny();
    let model = BertModel::new_random(config, 2, 42);
    let mask = BatchMask::from_lens(vec![5, 12, 1, 8], 12).unwrap();
    let mut input = Tensor::randn([4, 12, config.hidden()], 9);
    for (b, &len) in mask.seq_lens().iter().enumerate() {
        for s in len..12 {
            for h in 0..config.hidden() {
                input.set(&[b, s, h], 0.0).unwrap();
            }
        }
    }
    (model, input, mask)
}

#[test]
fn every_opt_level_matches_the_independent_reference() {
    let (model, input, mask) = setup();
    let reference = reference_forward(&model, &input, &mask);
    for opt in OptLevel::all() {
        let dev = Device::new();
        let out = model.forward(&dev, &input, &mask, opt).unwrap();
        compare_valid(&out, &reference, &mask, 5e-3, &format!("{opt:?}"));
    }
}

#[test]
fn every_framework_matches_the_independent_reference() {
    let (model, input, mask) = setup();
    let reference = reference_forward(&model, &input, &mask);
    for kind in FrameworkKind::all() {
        let fw = SimFramework::new(kind, model.clone());
        let dev = fw.device(CostModel::a100());
        let out = fw.forward(&dev, &input, &mask).unwrap();
        compare_valid(&out, &reference, &mask, 5e-3, kind.name());
    }
}

#[test]
fn long_sequence_tiled_path_matches_reference() {
    // Past FUSED_SHORT_MAX_SEQ (384) the encoder still takes the tiled
    // Algorithm III.1 kernel: the cap is a GPU shared-memory limit.
    let config = BertConfig::tiny();
    let model = BertModel::new_random(config, 1, 4);
    let mask = BatchMask::from_lens(vec![400, 77], 400).unwrap();
    let mut input = Tensor::randn([2, 400, config.hidden()], 13);
    for s in 77..400 {
        for h in 0..config.hidden() {
            input.set(&[1, s, h], 0.0).unwrap();
        }
    }
    let reference = reference_forward(&model, &input, &mask);
    let dev = Device::new();
    let out = model.forward(&dev, &input, &mask, OptLevel::FusedMha).unwrap();
    compare_valid(&out, &reference, &mask, 5e-3, "tiled path at 400");
    // The trace must show the tiled kernel, not the grouped one.
    let trace = dev.trace();
    assert!(trace.iter().any(|r| r.name == "attention.fused_short"));
    assert!(!trace.iter().any(|r| r.name.ends_with(".qk")));
}
