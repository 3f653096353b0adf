//! Causal (autoregressive) attention for the decoder extension.
//!
//! The paper presents an encoder-only BERT but notes that "one can easily
//! extend to other transformers that contain the decoder part using the
//! optimizations and algorithm proposed in the paper" (§II). For the
//! decoder's masked self-attention that extension is one value:
//! `KeyRange::Causal`, so token `i` attends only to `j ≤ i`, handed to the
//! form the paged decoder runs — Algorithm III.2 as row dots
//! (`super::rows`). The causal constraint removes work instead of masking
//! it, and a row's bits depend neither on the padded width of its batch nor
//! on its batch-mates.
//!
//! This module holds the packed entry point — the same form, one unit per
//! `(sequence, head)` over packed K/V planes, each query row reducing over
//! exactly the `i + 1` keys it sees; the attention-level suites reach the
//! rows form through it — and the host oracle. The decoder itself attends
//! through `crate::paged`.

use super::{packed_rows, KeyRange};
use bt_device::Device;
use bt_tensor::Tensor;
use bt_varlen::PackingIndex;

/// Causal fused MHA over packed `[heads, valid, head]` Q/K/V (`Q`
/// pre-scaled), at every length in one launch, `attention.causal_rows`.
/// Returns the packed `[valid, hidden]` context.
pub fn causal_fused_attention(device: &Device, q: &Tensor, k: &Tensor, v: &Tensor, idx: &PackingIndex) -> Tensor {
    packed_rows(device, "attention.causal_rows", q, k, v, idx, idx, KeyRange::Causal)
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
    use super::super::fused_grouped::grouped_softmax_attention;
    use super::super::test_support::{fixture, pack_context, AttentionFixture};
    use super::super::units;
    use super::*;
    use bt_device::CostModel;
    use bt_gemm::grouped::Scheduler;
    use bt_tensor::compare::assert_close;

    fn device() -> Device {
        Device::with_model(CostModel::unit())
    }

    fn causal(dev: &Device, fx: &AttentionFixture) -> Tensor {
        causal_fused_attention(dev, &fx.q_packed, &fx.k_packed, &fx.v_packed, &fx.idx)
    }

    /// The grouped engine under the causal key range.
    fn causal_grouped(dev: &Device, fx: &AttentionFixture, scheduler: Scheduler) -> Tensor {
        let kv = (fx.k_packed.as_slice(), fx.v_packed.as_slice());
        let list = units(&fx.idx, &fx.idx, fx.heads);
        grouped_softmax_attention(dev, "engine", &fx.q_packed, kv, &list, KeyRange::Causal, scheduler)
    }

    fn check(lens: &[usize], max: usize, heads: usize, head: usize, seed: u64) {
        let fx = fixture(lens, max, heads, head, seed);
        let dev = device();
        let got = causal(&dev, &fx);
        let expect_pad = causal_reference_attention(&fx.q_pad, &fx.k_pad, &fx.v_pad, lens, fx.scale);
        let expect = pack_context(&expect_pad, &fx.idx);
        assert_close(got.as_slice(), &expect, 3e-4);
    }

    #[test]
    fn matches_causal_reference() {
        check(&[3, 7, 1], 8, 2, 4, 1);
        check(&[16, 16], 16, 3, 8, 2);
        check(&[33], 33, 1, 4, 3); // past a 16-key chain block
        check(&[0, 5], 8, 2, 4, 4); // empty sequence
        check(&[90, 130, 40], 130, 2, 8, 5); // several 64-key softmax tiles
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
    fn rows_equal_the_engine_bitwise() {
        // The rows form reduces each row over exactly the keys it sees; the
        // engine masks the rest to -inf, which adds exact zeros. Lengths on
        // both sides of the 64-key tile and of FUSED_SHORT_MAX_SEQ.
        let lens = [50usize, 20, 0, 130, 400];
        let fx = fixture(&lens, 400, 2, 8, 6);
        let dev = device();
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let rows = bits(&causal(&dev, &fx));
        for scheduler in [Scheduler::PerTile, Scheduler::WarpPrefetch] {
            assert_eq!(rows, bits(&causal_grouped(&dev, &fx, scheduler)), "{scheduler:?}");
        }
    }

    #[test]
    fn first_token_attends_only_to_itself() {
        // With causal masking, row 0's output is exactly V[0].
        let fx = fixture(&[6], 6, 2, 4, 7);
        let dev = device();
        let got = causal(&dev, &fx);
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
        causal(&dev_ca, &fx);
        // Triangular ≈ half the square's flops.
        assert!(dev_ca.total_flops() < dev_sq.total_flops() * 6 / 10);
    }

    #[test]
    fn one_rows_launch_at_every_length() {
        // No length dispatch: 30 and 400 tokens alike take one rows launch
        // and no grouped GEMM (`.qk` / `.full_reduce` / `.pv`).
        for len in [30, 400] {
            let fx = fixture(&[len], len, 1, 4, 9);
            let dev = device();
            causal(&dev, &fx);
            let names: Vec<String> = dev.trace().iter().map(|r| r.name.clone()).collect();
            assert_eq!(names, ["attention.causal_rows"], "{len} tokens");
        }
    }
}
