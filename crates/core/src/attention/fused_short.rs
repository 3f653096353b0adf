//! Unpadded fused MHA for short sequences — Algorithm III.1.
//!
//! One kernel computes the whole attention unit: a threadblock owns a
//! `split_seq_len`-row tile of Q for one `(batch, head)`, stages Q/K/V tiles
//! in shared memory (`s_query`, `s_kv`), computes `P = Q·Kᵀ` into `s_logits`,
//! runs the softmax with whole rows held in registers ("register-level data
//! re-use"), multiplies by V, and streams the context straight into the
//! **packed** output tensor. The `seq×seq` intermediate never touches global
//! memory, and Q/K/V are addressed through the packing offsets, so neither
//! the memory overhead nor the padded FLOPs of the baseline exist here.
//!
//! How many keys a query row reduces over is the kernel's `KeyRange`
//! parameter: all `len` of its sequence for the encoder, the `i + 1` up to
//! the diagonal for the decoder's causal self-attention. Nothing else about
//! the kernel differs between the two — only the launch name and the
//! declared cost follow the range.
//!
//! The CPU mapping: a rayon task = one threadblock = one `(batch, q-tile)`
//! pair (looping heads inside, which keeps the packed output rows of a task
//! disjoint); stack/`Vec` tile buffers = shared memory; per-row arrays =
//! register files. Buffer sizes respect the same limits that bound the GPU
//! kernel, enforced by [`FUSED_SHORT_MAX_SEQ`].

use super::{packed_dims, KeyRange};
use bt_device::{Device, KernelSpec};
use bt_tensor::Tensor;
use bt_varlen::PackingIndex;
use rayon::prelude::*;

/// Upper sequence-length bound of the shared-memory kernel. The paper's
/// Fig. 11 evaluates this path below 384 and switches to grouped GEMM past
/// it (TensorRT's comparable fused MHA caps at 512).
pub const FUSED_SHORT_MAX_SEQ: usize = 384;

/// Default `split_seq_len` — the paper sets the Q-tile height "typically
/// to 32 or 48".
pub const DEFAULT_SPLIT_SEQ_LEN: usize = 32;

/// Fused short-sequence MHA over packed `[heads, valid, head]` Q/K/V
/// (`Q` pre-scaled by `1/√d_k`). Returns the packed `[valid, hidden]`
/// context.
///
/// # Panics
/// Panics if `idx.max_seq_len() > FUSED_SHORT_MAX_SEQ` (the dispatcher in
/// [`super::fused_attention`] routes long sequences to the grouped kernel),
/// if `split_seq_len == 0`, or on shape mismatches.
pub fn fused_short_attention(
    device: &Device,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    idx: &PackingIndex,
    split_seq_len: usize,
) -> Tensor {
    short_attention(device, q, k, v, idx, split_seq_len, KeyRange::Full)
}

/// The Algorithm III.1 kernel under either key range; panics as
/// [`fused_short_attention`] does.
pub(super) fn short_attention(
    device: &Device,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    idx: &PackingIndex,
    split_seq_len: usize,
    range: KeyRange,
) -> Tensor {
    let (heads, valid, head) = packed_dims(q, k, v, idx);
    assert!(split_seq_len > 0, "split_seq_len must be positive");
    assert!(
        idx.max_seq_len() <= FUSED_SHORT_MAX_SEQ,
        "fused short MHA caps at {FUSED_SHORT_MAX_SEQ}, got {}",
        idx.max_seq_len()
    );
    let hidden = heads * head;

    // Cost: the two tile GEMMs (4·d per logit per head) plus softmax
    // transforms, over the logits the range keeps — `len²`, or the
    // `len(len+1)/2` on and under the diagonal. K and V are re-staged once
    // per Q tile (ceil(len/split) times; the causal launch declares one
    // `len`-row plane per tile as its upper bound for "keys up to the
    // tile's last row"), Q and the output move once. The logits matrix
    // contributes nothing — it lives in shared memory.
    let (name, kv_planes) = match range {
        KeyRange::Full => ("attention.fused_short", 2),
        KeyRange::Causal => ("attention.causal_short", 1),
    };
    let mut flops = 0u64;
    let mut kv_reads = 0u64;
    for b in 0..idx.batch() {
        let len = idx.seq_len(b) as u64;
        let logits = match range {
            KeyRange::Full => len * len,
            KeyRange::Causal => len * (len + 1) / 2,
        };
        let tiles = len.div_ceil(split_seq_len as u64);
        flops += heads as u64 * (4 * logits * head as u64 + 4 * logits);
        kv_reads += heads as u64 * tiles * len * head as u64 * 4 * kv_planes;
    }
    let q_bytes = (valid * hidden * 4) as u64;

    let out = device.launch(
        KernelSpec::new(name)
            .flops(flops)
            .reads(q_bytes + kv_reads)
            .writes(q_bytes),
        || {
            let mut out = vec![0.0f32; valid * hidden];
            // One task per (batch, q-tile): split the packed output into
            // disjoint row chunks in sequence order.
            let mut tasks: Vec<(usize, usize, &mut [f32])> = Vec::new();
            {
                let mut rest: &mut [f32] = &mut out;
                for b in 0..idx.batch() {
                    let len = idx.seq_len(b);
                    let mut t0 = 0;
                    while t0 < len {
                        let rows = split_seq_len.min(len - t0);
                        let (chunk, tail) = rest.split_at_mut(rows * hidden);
                        rest = tail;
                        tasks.push((b, t0, chunk));
                        t0 += rows;
                    }
                }
            }
            let qs = q.as_slice();
            let ks = k.as_slice();
            let vs = v.as_slice();
            let plane = valid * head;
            // "s_logits": the per-tile intermediate, shared-memory sized.
            // Thread-local so each worker allocates it once and reuses it
            // across every tile it processes — like a threadblock's fixed
            // shared-memory carve-out, and zero heap traffic per tile.
            thread_local! {
                static LOGITS: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
            }
            tasks.into_par_iter().for_each(|(b, t0, out_chunk)| {
                let off = idx.seq_offset(b);
                let len = idx.seq_len(b);
                let rows = out_chunk.len() / hidden;
                // Row stride of the strip: the tile's longest key range.
                let reach = range.keys(t0 + rows - 1, len, len);
                LOGITS.with(|cell| {
                    let mut logits_buf = cell.borrow_mut();
                    if logits_buf.len() < rows * reach {
                        logits_buf.resize(rows * reach, 0.0);
                    }
                    let logits = &mut logits_buf[..rows * reach];
                    for h in 0..heads {
                        let qp = &qs[h * plane..(h + 1) * plane];
                        let kp = &ks[h * plane..(h + 1) * plane];
                        let vp = &vs[h * plane..(h + 1) * plane];
                        let k_seq = &kp[off * head..(off + len) * head];
                        let v_seq = &vp[off * head..(off + len) * head];
                        // P = Q_tile · Kᵀ (Q already carries the 1/√d scale)
                        // over each row's key range: the range is the
                        // iteration space, so a causal row costs its prefix.
                        for i in 0..rows {
                            let q_row = &qp[(off + t0 + i) * head..(off + t0 + i + 1) * head];
                            let l_row = &mut logits[i * reach..i * reach + range.keys(t0 + i, len, len)];
                            for (j, lv) in l_row.iter_mut().enumerate() {
                                let k_row = &k_seq[j * head..(j + 1) * head];
                                let mut dot = 0.0f32;
                                for (&a, &bv) in q_row.iter().zip(k_row) {
                                    dot += a * bv;
                                }
                                *lv = dot;
                            }
                            // Softmax with the whole row in "registers".
                            bt_kernels::softmax::softmax_row(l_row);
                        }
                        // O = P · V, streamed into the packed output columns of
                        // this head.
                        for i in 0..rows {
                            let l_row = &logits[i * reach..i * reach + range.keys(t0 + i, len, len)];
                            let o_row = &mut out_chunk[i * hidden + h * head..i * hidden + (h + 1) * head];
                            o_row.fill(0.0);
                            for (j, &p) in l_row.iter().enumerate() {
                                let v_row = &v_seq[j * head..(j + 1) * head];
                                for (ov, &vv) in o_row.iter_mut().zip(v_row) {
                                    *ov += p * vv;
                                }
                            }
                        }
                    }
                });
            });
            out
        },
    );
    Tensor::from_vec(out, [valid, hidden]).expect("shape consistent")
}

#[cfg(test)]
mod tests {
    use super::super::reference_attention;
    use super::super::test_support::{fixture, pack_context};
    use super::*;
    use bt_device::CostModel;
    use bt_tensor::compare::assert_close;

    fn device() -> Device {
        Device::with_model(CostModel::unit())
    }

    fn check(lens: &[usize], max: usize, heads: usize, head: usize, split: usize, seed: u64) {
        let fx = fixture(lens, max, heads, head, seed);
        let dev = device();
        let got = fused_short_attention(&dev, &fx.q_packed, &fx.k_packed, &fx.v_packed, &fx.idx, split);
        let expect_pad = reference_attention(&fx.q_pad, &fx.k_pad, &fx.v_pad, lens, fx.scale);
        let expect = pack_context(&expect_pad, &fx.idx);
        assert_close(got.as_slice(), &expect, 2e-4);
    }

    #[test]
    fn matches_reference_various_shapes() {
        check(&[3, 7, 1], 8, 2, 4, 32, 1);
        check(&[16, 16], 16, 3, 8, 4, 2); // multiple q-tiles per sequence
        check(&[5], 5, 1, 2, 2, 3); // uneven tile tail
        check(&[1, 1, 1], 4, 2, 4, 32, 4); // single-token sequences
    }

    #[test]
    fn handles_empty_sequences() {
        check(&[0, 5, 0, 3], 8, 2, 4, 32, 5);
    }

    #[test]
    fn single_launch_no_logits_traffic() {
        let lens = [32usize; 4];
        let fx = fixture(&lens, 32, 2, 8, 6);
        let dev = device();
        fused_short_attention(&dev, &fx.q_packed, &fx.k_packed, &fx.v_packed, &fx.idx, 32);
        assert_eq!(dev.launches(), 1);
        // Declared traffic excludes the seq² logits: it must be far below
        // batch·heads·seq²·4 bytes.
        let logits_bytes = (4 * 2 * 32 * 32 * 4) as u64;
        assert!(dev.total_bytes() < logits_bytes * 3);
    }

    #[test]
    fn cost_scales_with_valid_tokens_not_padding() {
        let fx_short = fixture(&[8, 8], 64, 2, 4, 7);
        let fx_full = fixture(&[64, 64], 64, 2, 4, 7);
        let d_short = device();
        fused_short_attention(
            &d_short,
            &fx_short.q_packed,
            &fx_short.k_packed,
            &fx_short.v_packed,
            &fx_short.idx,
            32,
        );
        let d_full = device();
        fused_short_attention(
            &d_full,
            &fx_full.q_packed,
            &fx_full.k_packed,
            &fx_full.v_packed,
            &fx_full.idx,
            32,
        );
        // 8 vs 64 tokens: ~64× fewer attention flops.
        assert!(d_short.total_flops() * 32 < d_full.total_flops());
    }

    #[test]
    #[should_panic(expected = "caps at")]
    fn long_sequences_rejected() {
        let fx = fixture(&[400], 400, 1, 4, 8);
        let dev = device();
        fused_short_attention(&dev, &fx.q_packed, &fx.k_packed, &fx.v_packed, &fx.idx, 32);
    }

    #[test]
    fn causal_row_is_the_full_kernels_last_row_on_the_prefix() {
        // One body, two key ranges: row i under `Causal` runs the same
        // arithmetic as the last row under `Full` once the sequence is cut
        // to i + 1 tokens — so the two agree bitwise, at any tile height.
        let (heads, head) = (2, 4);
        let lens = [0usize, 13, 5];
        let fx = fixture(&lens, 13, heads, head, 11);
        let dev = device();
        for split in [1, 4, 5, 32] {
            let causal = short_attention(
                &dev,
                &fx.q_packed,
                &fx.k_packed,
                &fx.v_packed,
                &fx.idx,
                split,
                KeyRange::Causal,
            );
            for (b, &len) in lens.iter().enumerate() {
                let off = fx.idx.seq_offset(b);
                for i in 0..len {
                    // The first i + 1 packed rows of sequence b, per head.
                    let cut = |t: &Tensor| {
                        let mut rows = Vec::with_capacity(heads * (i + 1) * head);
                        for h in 0..heads {
                            let from = (h * fx.idx.valid_words() + off) * head;
                            rows.extend_from_slice(&t.as_slice()[from..from + (i + 1) * head]);
                        }
                        Tensor::from_vec(rows, [heads, i + 1, head]).unwrap()
                    };
                    let mask = bt_varlen::BatchMask::from_lens(vec![i + 1], i + 1).unwrap();
                    let full = short_attention(
                        &dev,
                        &cut(&fx.q_packed),
                        &cut(&fx.k_packed),
                        &cut(&fx.v_packed),
                        &PackingIndex::from_mask(&mask),
                        split,
                        KeyRange::Full,
                    );
                    let hidden = heads * head;
                    let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&causal.as_slice()[(off + i) * hidden..(off + i + 1) * hidden]),
                        bits(&full.as_slice()[i * hidden..]),
                        "split {split}, sequence {b}, row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn split_seq_len_does_not_change_results() {
        let lens = [13usize, 29];
        let fx = fixture(&lens, 32, 2, 4, 9);
        let dev = device();
        let a = fused_short_attention(&dev, &fx.q_packed, &fx.k_packed, &fx.v_packed, &fx.idx, 4);
        let b = fused_short_attention(&dev, &fx.q_packed, &fx.k_packed, &fx.v_packed, &fx.idx, 48);
        assert_close(a.as_slice(), b.as_slice(), 1e-6);
    }
}
