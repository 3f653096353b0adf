//! Property-based cross-checks of every attention implementation against
//! the straight-line reference, on random variable-length batches.
#![allow(clippy::needless_range_loop)] // oracle-style index loops

use bt_core::attention::{
    batched_attention, causal_fused_attention, causal_reference_attention, flash_attention, fused_attention,
    naive_attention, reference_attention,
};
use bt_device::{CostModel, Device};
use bt_tensor::rng::Xoshiro256StarStar;
use bt_tensor::Tensor;
use bt_varlen::{BatchMask, PackingIndex};
use proptest::prelude::*;

fn device() -> Device {
    Device::with_model(CostModel::unit())
}

/// Builds consistent padded + packed Q/K/V for random lengths.
struct Fixture {
    idx: PackingIndex,
    q_pad: Tensor,
    k_pad: Tensor,
    v_pad: Tensor,
    q_pk: Tensor,
    k_pk: Tensor,
    v_pk: Tensor,
    scale: f32,
}

fn fixture(lens: &[usize], heads: usize, head: usize, seed: u64) -> Fixture {
    let max = lens.iter().copied().max().unwrap_or(0).max(1);
    let mask = BatchMask::from_lens(lens.to_vec(), max).unwrap();
    let idx = PackingIndex::from_mask(&mask);
    let batch = lens.len();
    let scale = 1.0 / (head as f32).sqrt();
    let valid = idx.valid_words();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut q_pad = Tensor::zeros([batch, heads, max, head]);
    let mut k_pad = Tensor::zeros([batch, heads, max, head]);
    let mut v_pad = Tensor::zeros([batch, heads, max, head]);
    let mut q_pk = Tensor::zeros([heads, valid, head]);
    let mut k_pk = Tensor::zeros([heads, valid, head]);
    let mut v_pk = Tensor::zeros([heads, valid, head]);
    for b in 0..batch {
        for s in 0..lens[b] {
            let w = idx.seq_offset(b) + s;
            for h in 0..heads {
                for d in 0..head {
                    let (qv, kv, vv) = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
                    q_pad.set(&[b, h, s, d], qv).unwrap();
                    k_pad.set(&[b, h, s, d], kv).unwrap();
                    v_pad.set(&[b, h, s, d], vv).unwrap();
                    q_pk.set(&[h, w, d], qv * scale).unwrap();
                    k_pk.set(&[h, w, d], kv).unwrap();
                    v_pk.set(&[h, w, d], vv).unwrap();
                }
            }
        }
    }
    Fixture {
        idx,
        q_pad,
        k_pad,
        v_pad,
        q_pk,
        k_pk,
        v_pk,
        scale,
    }
}

fn pack_ctx(ctx: &Tensor, idx: &PackingIndex) -> Vec<f32> {
    let dims = ctx.dims();
    let (heads, head) = (dims[1], dims[3]);
    let hidden = heads * head;
    let mut out = vec![0.0f32; idx.valid_words() * hidden];
    for b in 0..idx.batch() {
        for s in 0..idx.seq_len(b) {
            let w = idx.seq_offset(b) + s;
            for h in 0..heads {
                for d in 0..head {
                    out[w * hidden + h * head + d] = ctx.at(&[b, h, s, d]).unwrap();
                }
            }
        }
    }
    out
}

fn max_diff_valid(a: &Tensor, reference: &Tensor, lens: &[usize]) -> f32 {
    let dims = a.dims();
    let (heads, head) = (dims[1], dims[3]);
    let mut worst = 0.0f32;
    for (b, &len) in lens.iter().enumerate() {
        for h in 0..heads {
            for s in 0..len {
                for d in 0..head {
                    worst = worst.max((a.at(&[b, h, s, d]).unwrap() - reference.at(&[b, h, s, d]).unwrap()).abs());
                }
            }
        }
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_all_padded_variants_match_reference(
        lens in proptest::collection::vec(0usize..24, 1..5),
        heads in 1usize..4,
        head in 1usize..9,
        seed in 0u64..1000,
    ) {
        let fx = fixture(&lens, heads, head, seed);
        let dev = device();
        let reference = reference_attention(&fx.q_pad, &fx.k_pad, &fx.v_pad, &lens, fx.scale);
        let naive = naive_attention(&dev, &fx.q_pad, &fx.k_pad, &fx.v_pad, &lens, fx.scale, 0.0);
        prop_assert!(max_diff_valid(&naive, &reference, &lens) < 1e-3);
        for zeropad in [false, true] {
            let batched = batched_attention(&dev, &fx.q_pad, &fx.k_pad, &fx.v_pad, &lens, fx.scale, zeropad);
            prop_assert!(max_diff_valid(&batched, &reference, &lens) < 1e-3);
        }
        let flash = flash_attention(&dev, &fx.q_pad, &fx.k_pad, &fx.v_pad, &lens, fx.scale);
        prop_assert!(max_diff_valid(&flash, &reference, &lens) < 1e-3);
    }

    #[test]
    fn prop_fused_dispatcher_matches_reference(
        lens in proptest::collection::vec(0usize..40, 1..5),
        heads in 1usize..4,
        head in 1usize..9,
        seed in 0u64..1000,
    ) {
        let fx = fixture(&lens, heads, head, seed);
        let dev = device();
        let reference = reference_attention(&fx.q_pad, &fx.k_pad, &fx.v_pad, &lens, fx.scale);
        let expect = pack_ctx(&reference, &fx.idx);
        let fused = fused_attention(&dev, &fx.q_pk, &fx.k_pk, &fx.v_pk, &fx.idx);
        let worst = fused
            .as_slice()
            .iter()
            .zip(&expect)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        prop_assert!(worst < 1e-3, "worst {worst}");
    }

    #[test]
    fn prop_causal_attention_matches_causal_reference(
        lens in proptest::collection::vec(1usize..30, 1..4),
        heads in 1usize..3,
        head in 1usize..9,
        seed in 0u64..1000,
    ) {
        let fx = fixture(&lens, heads, head, seed);
        let dev = device();
        let reference = causal_reference_attention(&fx.q_pad, &fx.k_pad, &fx.v_pad, &lens, fx.scale);
        let expect = pack_ctx(&reference, &fx.idx);
        let fused = causal_fused_attention(&dev, &fx.q_pk, &fx.k_pk, &fx.v_pk, &fx.idx);
        let worst = fused
            .as_slice()
            .iter()
            .zip(&expect)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        prop_assert!(worst < 1e-3, "worst {worst}");
    }

    #[test]
    fn prop_attention_rows_are_convex_combinations(
        lens in proptest::collection::vec(1usize..16, 1..4),
        seed in 0u64..1000,
    ) {
        // With V ≡ c per head plane, every valid output equals c.
        let heads = 2;
        let head = 4;
        let fx = fixture(&lens, heads, head, seed);
        let dev = device();
        let v_const = Tensor::filled([heads, fx.idx.valid_words(), head], 2.5);
        let out = fused_attention(&dev, &fx.q_pk, &fx.k_pk, &v_const, &fx.idx);
        for &x in out.as_slice() {
            prop_assert!((x - 2.5).abs() < 1e-4, "{x}");
        }
    }
}
