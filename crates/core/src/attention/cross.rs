//! Cross-attention over packed variable-length memory — the decoder's
//! second attention: Algorithm III.2 as row dots over a rectangular unit
//! list.
//!
//! Every `(batch, head)` unit is a *rectangular* problem (`decoder_len ×
//! encoder_len`), and both lengths vary per batch. A batched-GEMM
//! implementation must pad both sides to their maxima; here each query row
//! reduces over its own sequence's memory keys, read in place from the
//! packed planes — zero padding on either axis. Nothing here is a kernel:
//! the unit list pairs target sequence `b` with memory sequence `b`, every
//! key is visible, and the rows form (`super::rows`) is the one the paged
//! decoder's cross-attention runs.

use super::{packed_rows, KeyRange};
use bt_device::Device;
use bt_tensor::Tensor;
use bt_varlen::PackingIndex;

/// Packed cross-attention: queries `[heads, tgt_valid, head]` (pre-scaled)
/// against memory keys/values `[heads, mem_valid, head]`, in one launch,
/// `cross_attention.rows`. Returns the packed `[tgt_valid, hidden]` context.
///
/// # Panics
/// Panics if the target and memory batches differ in sequence count or on
/// shape mismatches.
pub fn cross_attention(
    device: &Device,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    tgt_idx: &PackingIndex,
    mem_idx: &PackingIndex,
) -> Tensor {
    packed_rows(
        device,
        "cross_attention.rows",
        q,
        k,
        v,
        tgt_idx,
        mem_idx,
        KeyRange::Full,
    )
}

/// Host oracle for cross-attention on padded tensors: `q` is
/// `[batch, heads, tgt_seq, head]`, `k`/`v` are `[batch, heads, mem_seq,
/// head]`; lengths per batch on both sides. Padded query rows produce zeros.
#[allow(clippy::needless_range_loop)] // index loops are the oracle idiom here
pub fn cross_reference_attention(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    tgt_lens: &[usize],
    mem_lens: &[usize],
    scale: f32,
) -> Tensor {
    let qd = q.dims();
    let (batch, heads, tgt_seq, head) = (qd[0], qd[1], qd[2], qd[3]);
    let mut out = Tensor::zeros([batch, heads, tgt_seq, head]);
    for b in 0..batch {
        let tl = tgt_lens[b];
        let ml = mem_lens[b];
        for h in 0..heads {
            for i in 0..tl {
                let mut logits = vec![0.0f32; ml];
                for (j, l) in logits.iter_mut().enumerate() {
                    let mut dot = 0.0f32;
                    for d in 0..head {
                        dot += q.at(&[b, h, i, d]).unwrap() * k.at(&[b, h, j, d]).unwrap();
                    }
                    *l = dot * scale;
                }
                super::oracle_softmax(&mut logits);
                for d in 0..head {
                    let mut acc = 0.0f32;
                    for (j, &p) in logits.iter().enumerate() {
                        acc += p * v.at(&[b, h, j, d]).unwrap();
                    }
                    out.set(&[b, h, i, d], acc).unwrap();
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_device::CostModel;
    use bt_tensor::compare::assert_close;
    use bt_tensor::rng::Xoshiro256StarStar;
    use bt_varlen::BatchMask;

    fn device() -> Device {
        Device::with_model(CostModel::unit())
    }

    struct CrossFixture {
        tgt_idx: PackingIndex,
        mem_idx: PackingIndex,
        q_pad: Tensor,
        k_pad: Tensor,
        v_pad: Tensor,
        q_pk: Tensor,
        k_pk: Tensor,
        v_pk: Tensor,
        scale: f32,
    }

    fn fixture(tgt_lens: &[usize], mem_lens: &[usize], heads: usize, head: usize, seed: u64) -> CrossFixture {
        let tgt_max = tgt_lens.iter().copied().max().unwrap_or(1).max(1);
        let mem_max = mem_lens.iter().copied().max().unwrap_or(1).max(1);
        let tgt_idx = PackingIndex::from_mask(&BatchMask::from_lens(tgt_lens.to_vec(), tgt_max).unwrap());
        let mem_idx = PackingIndex::from_mask(&BatchMask::from_lens(mem_lens.to_vec(), mem_max).unwrap());
        let batch = tgt_lens.len();
        let scale = 1.0 / (head as f32).sqrt();
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut q_pad = Tensor::zeros([batch, heads, tgt_max, head]);
        let mut k_pad = Tensor::zeros([batch, heads, mem_max, head]);
        let mut v_pad = Tensor::zeros([batch, heads, mem_max, head]);
        let mut q_pk = Tensor::zeros([heads, tgt_idx.valid_words(), head]);
        let mut k_pk = Tensor::zeros([heads, mem_idx.valid_words(), head]);
        let mut v_pk = Tensor::zeros([heads, mem_idx.valid_words(), head]);
        for b in 0..batch {
            for s in 0..tgt_lens[b] {
                let w = tgt_idx.seq_offset(b) + s;
                for h in 0..heads {
                    for d in 0..head {
                        let x = rng.uniform(-1.0, 1.0);
                        q_pad.set(&[b, h, s, d], x).unwrap();
                        q_pk.set(&[h, w, d], x * scale).unwrap();
                    }
                }
            }
            for s in 0..mem_lens[b] {
                let w = mem_idx.seq_offset(b) + s;
                for h in 0..heads {
                    for d in 0..head {
                        let kx = rng.uniform(-1.0, 1.0);
                        let vx = rng.uniform(-1.0, 1.0);
                        k_pad.set(&[b, h, s, d], kx).unwrap();
                        v_pad.set(&[b, h, s, d], vx).unwrap();
                        k_pk.set(&[h, w, d], kx).unwrap();
                        v_pk.set(&[h, w, d], vx).unwrap();
                    }
                }
            }
        }
        CrossFixture {
            tgt_idx,
            mem_idx,
            q_pad,
            k_pad,
            v_pad,
            q_pk,
            k_pk,
            v_pk,
            scale,
        }
    }

    #[allow(clippy::needless_range_loop)] // oracle-style index loops
    fn check(tgt_lens: &[usize], mem_lens: &[usize], heads: usize, head: usize, seed: u64) {
        let fx = fixture(tgt_lens, mem_lens, heads, head, seed);
        let dev = device();
        let got = cross_attention(&dev, &fx.q_pk, &fx.k_pk, &fx.v_pk, &fx.tgt_idx, &fx.mem_idx);
        let expect_pad = cross_reference_attention(&fx.q_pad, &fx.k_pad, &fx.v_pad, tgt_lens, mem_lens, fx.scale);
        let hidden = heads * head;
        let mut expect = vec![0.0f32; fx.tgt_idx.valid_words() * hidden];
        for b in 0..tgt_lens.len() {
            for s in 0..tgt_lens[b] {
                let w = fx.tgt_idx.seq_offset(b) + s;
                for h in 0..heads {
                    for d in 0..head {
                        expect[w * hidden + h * head + d] = expect_pad.at(&[b, h, s, d]).unwrap();
                    }
                }
            }
        }
        assert_close(got.as_slice(), &expect, 3e-4);
    }

    #[test]
    fn rectangular_units_match_reference() {
        check(&[4, 9], &[17, 3], 2, 8, 1); // tgt shorter AND longer than mem
        check(&[70], &[130], 2, 8, 2); // multi-tile on both axes
        check(&[1, 1], &[50, 2], 1, 4, 3); // single-token queries
    }

    #[test]
    fn empty_sequences_on_either_side() {
        check(&[0, 5], &[9, 9], 2, 4, 4);
        // Empty memory: attention output for that sequence is all zeros
        // (inv_sum = 0 guard) rather than NaN.
        let fx = fixture(&[3, 2], &[4, 0], 2, 4, 5);
        let dev = device();
        let got = cross_attention(&dev, &fx.q_pk, &fx.k_pk, &fx.v_pk, &fx.tgt_idx, &fx.mem_idx);
        assert!(got.as_slice().iter().all(|v| v.is_finite()));
        // Sequence 1 (empty memory) rows are zero.
        for w in fx.tgt_idx.seq_offset(1)..fx.tgt_idx.seq_offset(1) + 2 {
            for c in 0..8 {
                assert_eq!(got.at(&[w, c]).unwrap(), 0.0);
            }
        }
    }

    #[test]
    fn cost_scales_with_both_valid_lengths() {
        let fx_small = fixture(&[8; 4], &[8; 4], 2, 8, 6);
        let fx_big = fixture(&[8; 4], &[64; 4], 2, 8, 6);
        let run = |fx: &CrossFixture| {
            let dev = device();
            cross_attention(&dev, &fx.q_pk, &fx.k_pk, &fx.v_pk, &fx.tgt_idx, &fx.mem_idx);
            dev.total_flops()
        };
        let small = run(&fx_small);
        let big = run(&fx_big);
        assert!(big > small * 6, "cost must track memory length: {small} vs {big}");
    }

    #[test]
    #[should_panic(expected = "batches must align")]
    fn mismatched_batches_rejected() {
        let fx_a = fixture(&[3], &[4], 1, 4, 7);
        let fx_b = fixture(&[3, 3], &[4, 4], 1, 4, 8);
        let dev = device();
        cross_attention(&dev, &fx_a.q_pk, &fx_b.k_pk, &fx_b.v_pk, &fx_a.tgt_idx, &fx_b.mem_idx);
    }
}
