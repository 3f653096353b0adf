//! Causal (autoregressive) attention for the decoder extension.
//!
//! The paper presents an encoder-only BERT but notes that "one can easily
//! extend to other transformers that contain the decoder part using the
//! optimizations and algorithm proposed in the paper" (§II). For the
//! decoder's masked self-attention that extension is one value:
//! `KeyRange::Causal` handed to the two fused kernels the encoder runs, so
//! token `i` attends only to `j ≤ i`.
//!
//! * Short sequences ([`super::fused_short`]): per register-tile `A` panel,
//!   `Q·Kᵀ` covers and `P·V` reduces over the panel's longest key range —
//!   the last row's — so the causal constraint removes work instead of
//!   masking it (about half the logits of the square launch). Rows shorter
//!   than their panel's range add zero probabilities past their own, which
//!   leaves every context element's bits unchanged.
//! * Long sequences ([`super::fused_grouped`]): future positions are masked
//!   to `-inf` in the logits tile before the partial softmax reduction, so
//!   the mainloop-fused normalization in the second GEMM zeroes them exactly.
//!
//! This module holds the public entry point and the host oracle.

use super::{dispatch, KeyRange};
use bt_device::Device;
use bt_tensor::Tensor;
use bt_varlen::PackingIndex;

/// Causal fused MHA over packed `[heads, valid, head]` Q/K/V (`Q`
/// pre-scaled): the shared-memory kernel up to [`super::FUSED_SHORT_MAX_SEQ`],
/// the grouped-GEMM kernel past it. Returns the packed `[valid, hidden]`
/// context.
pub fn causal_fused_attention(device: &Device, q: &Tensor, k: &Tensor, v: &Tensor, idx: &PackingIndex) -> Tensor {
    dispatch(device, q, k, v, idx, KeyRange::Causal)
}

/// Host oracle: causal attention over padded `[batch, heads, seq, head]`
/// inputs. Padded query rows produce zeros.
#[allow(clippy::needless_range_loop)] // index loops are the oracle idiom here
pub fn causal_reference_attention(q: &Tensor, k: &Tensor, v: &Tensor, seq_lens: &[usize], scale: f32) -> Tensor {
    let dims = q.dims();
    let (batch, heads, seq, head) = (dims[0], dims[1], dims[2], dims[3]);
    let mut out = Tensor::zeros([batch, heads, seq, head]);
    for b in 0..batch {
        let len = seq_lens[b];
        for h in 0..heads {
            for i in 0..len {
                let mut logits = vec![0.0f32; i + 1];
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
    use super::super::test_support::{fixture, pack_context, AttentionFixture};
    use super::*;
    use bt_device::CostModel;
    use bt_gemm::grouped::Scheduler;
    use bt_tensor::compare::assert_close;

    fn device() -> Device {
        Device::with_model(CostModel::unit())
    }

    /// The short kernel under the causal key range.
    fn causal_short(dev: &Device, fx: &AttentionFixture, split: usize) -> Tensor {
        let range = KeyRange::Causal;
        super::super::fused_short::short_attention(dev, &fx.q_packed, &fx.k_packed, &fx.v_packed, &fx.idx, split, range)
    }

    /// The grouped kernel under the causal key range.
    fn causal_grouped(dev: &Device, fx: &AttentionFixture, scheduler: Scheduler) -> Tensor {
        let range = KeyRange::Causal;
        super::super::fused_grouped::self_attention(
            dev,
            &fx.q_packed,
            &fx.k_packed,
            &fx.v_packed,
            &fx.idx,
            scheduler,
            range,
        )
    }

    fn check_short(lens: &[usize], max: usize, heads: usize, head: usize, split: usize, seed: u64) {
        let fx = fixture(lens, max, heads, head, seed);
        let dev = device();
        let got = causal_short(&dev, &fx, split);
        let expect_pad = causal_reference_attention(&fx.q_pad, &fx.k_pad, &fx.v_pad, lens, fx.scale);
        let expect = pack_context(&expect_pad, &fx.idx);
        assert_close(got.as_slice(), &expect, 3e-4);
    }

    #[test]
    fn short_kernel_matches_causal_reference() {
        check_short(&[3, 7, 1], 8, 2, 4, 32, 1);
        check_short(&[16, 16], 16, 3, 8, 4, 2);
        check_short(&[33], 33, 1, 4, 8, 3); // uneven tiles
        check_short(&[0, 5], 8, 2, 4, 32, 4); // empty sequence
    }

    #[test]
    fn grouped_kernel_matches_causal_reference() {
        let lens = [90usize, 130, 40];
        let fx = fixture(&lens, 130, 2, 8, 5);
        let dev = device();
        let got = causal_grouped(&dev, &fx, Scheduler::WarpPrefetch);
        let expect_pad = causal_reference_attention(&fx.q_pad, &fx.k_pad, &fx.v_pad, &lens, fx.scale);
        let expect = pack_context(&expect_pad, &fx.idx);
        assert_close(got.as_slice(), &expect, 3e-4);
    }

    #[test]
    fn short_and_grouped_agree() {
        let lens = [50usize, 20];
        let fx = fixture(&lens, 50, 2, 8, 6);
        let dev = device();
        let a = causal_short(&dev, &fx, 16);
        let b = causal_grouped(&dev, &fx, Scheduler::PerTile);
        assert_close(a.as_slice(), b.as_slice(), 3e-4);
    }

    #[test]
    fn first_token_attends_only_to_itself() {
        // With causal masking, row 0's output is exactly V[0].
        let fx = fixture(&[6], 6, 2, 4, 7);
        let dev = device();
        let got = causal_short(&dev, &fx, 32);
        for h in 0..2 {
            for d in 0..4 {
                let expect = fx.v_packed.at(&[h, 0, d]).unwrap();
                let v = got.at(&[0, h * 4 + d]).unwrap();
                assert!((v - expect).abs() < 1e-5, "h={h} d={d}: {v} vs {expect}");
            }
        }
    }

    #[test]
    fn causal_costs_less_than_square() {
        let fx = fixture(&[64; 4], 64, 4, 16, 8);
        let dev_sq = device();
        super::super::fused_short_attention(&dev_sq, &fx.q_packed, &fx.k_packed, &fx.v_packed, &fx.idx, 32);
        let dev_ca = device();
        causal_short(&dev_ca, &fx, 32);
        // Triangular ≈ half the square's flops.
        assert!(dev_ca.total_flops() < dev_sq.total_flops() * 6 / 10);
    }

    #[test]
    fn dispatcher_picks_both_paths() {
        let fx_short = fixture(&[30], 30, 1, 4, 9);
        let dev = device();
        causal_fused_attention(
            &dev,
            &fx_short.q_packed,
            &fx_short.k_packed,
            &fx_short.v_packed,
            &fx_short.idx,
        );
        assert!(dev.trace().iter().any(|r| r.name.contains("causal_short")));
        let fx_long = fixture(&[400], 400, 1, 4, 10);
        let dev = device();
        causal_fused_attention(
            &dev,
            &fx_long.q_packed,
            &fx_long.k_packed,
            &fx_long.v_packed,
            &fx_long.idx,
        );
        assert!(dev.trace().iter().any(|r| r.name.contains("causal_grouped")));
    }
}
