//! BERT embeddings front-end: token + position + segment lookup, summed and
//! LayerNormed.
//!
//! The paper skips embeddings ("we skip the embedding descriptions in the
//! figure") because they are upstream of its optimizations — but a deployed
//! encoder needs them, and they benefit from the same idea: under the
//! zero-padding algorithm the lookup writes **directly into the packed
//! layout** ([`embed_packed`]), fusing the gather, the three-way sum, the
//! LayerNorm *and* the pack into one kernel, so the padded
//! `[batch, seq, hidden]` embedding tensor never exists.

use crate::config::BertConfig;
use bt_device::{Device, KernelSpec};
use bt_kernels::layernorm::normalize_row;
use bt_tensor::rng::Xoshiro256StarStar;
use bt_tensor::Tensor;
use bt_varlen::{BatchMask, PackingIndex, VarlenError};
use rayon::prelude::*;

/// Embedding tables and the embedding LayerNorm parameters.
#[derive(Debug, Clone)]
pub struct EmbeddingWeights {
    /// Token table, `[vocab, hidden]`.
    pub token: Tensor,
    /// Learned position table, `[max_position, hidden]`.
    pub position: Tensor,
    /// Segment (token-type) table, `[segments, hidden]`.
    pub segment: Tensor,
    /// Embedding LayerNorm scale.
    pub gamma: Vec<f32>,
    /// Embedding LayerNorm shift.
    pub beta: Vec<f32>,
}

impl EmbeddingWeights {
    /// Deterministic random tables.
    pub fn new_random(config: &BertConfig, vocab: usize, max_position: usize, seed: u64) -> Self {
        let hidden = config.hidden();
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0xE3BED);
        let table = |rows: usize, rng: &mut Xoshiro256StarStar| {
            let data = (0..rows * hidden).map(|_| rng.normal() * 0.02).collect();
            Tensor::from_vec(data, [rows, hidden]).expect("generated size matches")
        };
        Self {
            token: table(vocab, &mut rng),
            position: table(max_position, &mut rng),
            segment: table(2, &mut rng),
            gamma: (0..hidden).map(|_| 1.0 + rng.normal() * 0.02).collect(),
            beta: (0..hidden).map(|_| rng.normal() * 0.02).collect(),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.token.dims()[0]
    }

    /// Maximum supported position.
    pub fn max_position(&self) -> usize {
        self.position.dims()[0]
    }
}

/// Validates ids against the tables and mask.
fn validate(ids: &[u32], segments: &[u32], mask: &BatchMask, w: &EmbeddingWeights) -> Result<(), VarlenError> {
    let expect = mask.padded_words();
    if ids.len() != expect || segments.len() != expect {
        return Err(VarlenError::ShapeMismatch {
            expected: format!("ids/segments of {expect} (batch × max_seq_len)"),
            got: format!("{} / {}", ids.len(), segments.len()),
        });
    }
    if mask.max_seq_len() > w.max_position() {
        return Err(VarlenError::ShapeMismatch {
            expected: format!("max_seq_len ≤ {}", w.max_position()),
            got: format!("{}", mask.max_seq_len()),
        });
    }
    let n_seg = w.segment.dims()[0] as u32;
    for (b, &len) in mask.seq_lens().iter().enumerate() {
        for s in 0..len {
            let i = b * mask.max_seq_len() + s;
            if ids[i] >= w.vocab() as u32 {
                return Err(VarlenError::ShapeMismatch {
                    expected: format!("token id < {}", w.vocab()),
                    got: format!("{} at ({b}, {s})", ids[i]),
                });
            }
            if segments[i] >= n_seg {
                return Err(VarlenError::ShapeMismatch {
                    expected: format!("segment id < {n_seg}"),
                    got: format!("{} at ({b}, {s})", segments[i]),
                });
            }
        }
    }
    Ok(())
}

/// Embeds one token into `row`: token + position + segment, then LayerNorm.
/// Shared by the padded and packed front-ends, which differ only in how
/// they map a slot to its token and position.
fn embed_row(row: &mut [f32], w: &EmbeddingWeights, token: usize, pos: usize, seg: usize) {
    let hidden = row.len();
    let t = &w.token.as_slice()[token * hidden..(token + 1) * hidden];
    let p = &w.position.as_slice()[pos * hidden..(pos + 1) * hidden];
    let s = &w.segment.as_slice()[seg * hidden..(seg + 1) * hidden];
    for i in 0..hidden {
        row[i] = t[i] + p[i] + s[i];
    }
    normalize_row(row, &w.gamma, &w.beta, 1e-6);
}

/// Conventional padded embedding: produces `[batch, seq, hidden]` with
/// zeroed padding rows. One gather + sum + LN pass over every padded slot's
/// row (the padded cost the packed variant avoids).
pub fn embed_padded(
    device: &Device,
    ids: &[u32],
    segments: &[u32],
    mask: &BatchMask,
    w: &EmbeddingWeights,
) -> Result<Tensor, VarlenError> {
    validate(ids, segments, mask, w)?;
    let hidden = w.token.dims()[1];
    let (batch, seq) = (mask.batch(), mask.max_seq_len());
    let out_bytes = (batch * seq * hidden * 4) as u64;
    let data = device.launch(
        KernelSpec::new("embedding.padded")
            .flops((batch * seq * hidden * 10) as u64)
            .reads(3 * out_bytes + (batch * seq * 8) as u64)
            .writes(out_bytes),
        || {
            let mut data = vec![0.0f32; batch * seq * hidden];
            data.par_chunks_mut(seq * hidden).enumerate().for_each(|(b, rows)| {
                let len = mask.seq_lens()[b];
                for s in 0..len {
                    let i = b * seq + s;
                    embed_row(
                        &mut rows[s * hidden..(s + 1) * hidden],
                        w,
                        ids[i] as usize,
                        s,
                        segments[i] as usize,
                    );
                }
            });
            data
        },
    );
    Ok(Tensor::from_vec(data, [batch, seq, hidden]).expect("shape consistent"))
}

/// Packed embedding: gathers straight into the packed `[valid, hidden]`
/// layout — lookup + sum + LayerNorm + pack in one kernel. The input
/// `ids`/`segments` remain in the caller's padded layout (as they arrive
/// from the tokenizer); only valid slots are read.
pub fn embed_packed(
    device: &Device,
    ids: &[u32],
    segments: &[u32],
    idx: &PackingIndex,
    w: &EmbeddingWeights,
) -> Result<Tensor, VarlenError> {
    validate(ids, segments, idx.mask(), w)?;
    let hidden = w.token.dims()[1];
    let valid = idx.valid_words();
    let seq = idx.max_seq_len();
    let moved = (valid * hidden * 4) as u64;
    let data = device.launch(
        KernelSpec::new("embedding.packed_fused")
            .flops((valid * hidden * 10) as u64)
            .reads(3 * moved + valid as u64 * 12)
            .writes(moved),
        || {
            let mut data = vec![0.0f32; valid * hidden];
            data.par_chunks_mut(hidden.max(1))
                .zip(idx.positions().par_iter())
                .for_each(|(row, &slot)| {
                    let slot = slot as usize;
                    let s = slot % seq;
                    embed_row(row, w, ids[slot] as usize, s, segments[slot] as usize);
                });
            data
        },
    );
    Ok(Tensor::from_vec(data, [valid, hidden]).expect("shape consistent"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_device::CostModel;

    fn device() -> Device {
        Device::with_model(CostModel::unit())
    }

    fn setup(lens: &[usize], max: usize) -> (EmbeddingWeights, Vec<u32>, Vec<u32>, BatchMask) {
        let config = BertConfig::tiny();
        let w = EmbeddingWeights::new_random(&config, 50, max, 3);
        let mask = BatchMask::from_lens(lens.to_vec(), max).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let n = mask.padded_words();
        let ids: Vec<u32> = (0..n).map(|_| rng.below(50) as u32).collect();
        let segments: Vec<u32> = (0..n).map(|_| rng.below(2) as u32).collect();
        (w, ids, segments, mask)
    }

    #[test]
    fn packed_equals_pack_of_padded() {
        let (w, ids, segments, mask) = setup(&[5, 2, 7], 8);
        let idx = PackingIndex::from_mask(&mask);
        let dev = device();
        let padded = embed_padded(&dev, &ids, &segments, &mask, &w).unwrap();
        let packed = embed_packed(&dev, &ids, &segments, &idx, &w).unwrap();
        let repacked = idx.pack(&dev, &padded).unwrap();
        bt_tensor::compare::assert_close(packed.as_slice(), repacked.as_slice(), 1e-6);
    }

    #[test]
    fn rows_are_normalized() {
        let (w, ids, segments, mask) = setup(&[4], 4);
        let idx = PackingIndex::from_mask(&mask);
        let dev = device();
        let packed = embed_packed(&dev, &ids, &segments, &idx, &w).unwrap();
        let hidden = w.token.dims()[1];
        for r in 0..4 {
            let row = &packed.as_slice()[r * hidden..(r + 1) * hidden];
            // With gamma ≈ 1, beta ≈ 0 the row stats are near (0, 1).
            let mean: f32 = row.iter().sum::<f32>() / hidden as f32;
            assert!(mean.abs() < 0.2, "mean {mean}");
        }
    }

    #[test]
    fn position_embedding_distinguishes_repeated_tokens() {
        let config = BertConfig::tiny();
        let w = EmbeddingWeights::new_random(&config, 10, 8, 1);
        let mask = BatchMask::from_lens(vec![3], 3).unwrap();
        let idx = PackingIndex::from_mask(&mask);
        let dev = device();
        // Same token at every position: rows still differ (positions).
        let packed = embed_packed(&dev, &[7, 7, 7], &[0, 0, 0], &idx, &w).unwrap();
        assert_ne!(packed.row(0), packed.row(1));
        assert_ne!(packed.row(1), packed.row(2));
    }

    #[test]
    fn packed_declares_only_valid_traffic() {
        let (w, ids, segments, mask) = setup(&[2, 2], 16); // α = 0.125
        let idx = PackingIndex::from_mask(&mask);
        let dev_pad = device();
        embed_padded(&dev_pad, &ids, &segments, &mask, &w).unwrap();
        let dev_pk = device();
        embed_packed(&dev_pk, &ids, &segments, &idx, &w).unwrap();
        assert!(dev_pk.total_bytes() * 4 < dev_pad.total_bytes());
    }

    #[test]
    fn errors_are_typed() {
        let (w, mut ids, segments, mask) = setup(&[3], 4);
        let idx = PackingIndex::from_mask(&mask);
        let dev = device();
        // Wrong length.
        assert!(embed_packed(&dev, &ids[..2], &segments, &idx, &w).is_err());
        // Out-of-vocab id at a VALID position.
        ids[0] = 999;
        assert!(embed_packed(&dev, &ids, &segments, &idx, &w).is_err());
        // Out-of-vocab at a PADDED position is fine (never read).
        ids[0] = 1;
        let mut ids2 = ids.clone();
        ids2[3] = 999; // position 3 is padding (len 3 of 4)
        assert!(embed_packed(&dev, &ids2, &segments, &idx, &w).is_ok());
        // Sequence longer than the position table.
        let long_mask = BatchMask::from_lens(vec![4], 4).unwrap();
        let short_w = EmbeddingWeights::new_random(&BertConfig::tiny(), 50, 2, 1);
        assert!(embed_padded(&dev, &[0; 4], &[0; 4], &long_mask, &short_w).is_err());
    }
}
