//! FlashAttention-style fixed-shape attention baseline (ablation A3).
//!
//! The paper's related-work discussion (§II): FlashAttention "assumes
//! identical shapes of inputs and assigns the workload of a whole attention
//! unit to a single CTA. However, FlashAttention brings significant wasted
//! computations if input sequence lengths are variable." This module
//! implements that design point faithfully — streaming/online softmax with
//! no materialized `seq×seq` intermediate, but over the *padded* shape: every
//! `(batch, head)` unit processes all `max_seq` query rows and key columns,
//! masking rather than skipping dead tokens. Comparing it against
//! [`super::fused_grouped_attention`] under a sweep of α reproduces the
//! argument for variable-shape awareness.

use super::padded_dims;
use bt_device::{Device, KernelSpec};
use bt_kernels::softmax::exp;
use bt_tensor::Tensor;
use rayon::prelude::*;

/// Query/key tile height of the streaming kernel.
const TILE: usize = 64;

/// FlashAttention-style padded attention with online softmax.
///
/// Q/K/V are padded `[batch, heads, seq, head]`; `scale` multiplies the
/// logits; padded keys are masked with `-inf`; padded query rows produce
/// zeros. Cost is the full `seq²` regardless of valid lengths — that is the
/// design point being measured.
pub fn flash_attention(device: &Device, q: &Tensor, k: &Tensor, v: &Tensor, seq_lens: &[usize], scale: f32) -> Tensor {
    let (batch, heads, seq, head) = padded_dims(q, k, v, seq_lens);
    let planes = batch * heads;
    let qkv_bytes = (planes * seq * head * 4) as u64;
    let k_tiles = seq.div_ceil(TILE) as u64;

    let out = device.launch(
        KernelSpec::new("attention.flash")
            // Full padded flops: 4·seq²·head per plane plus softmax work.
            .flops(planes as u64 * (4 * (seq * seq * head) as u64 + 6 * (seq * seq) as u64))
            // Q once; K and V once per q-tile (they stream through SRAM).
            .reads(qkv_bytes + 2 * qkv_bytes * (seq.div_ceil(TILE) as u64).min(k_tiles))
            .writes(qkv_bytes),
        || {
            let qs = q.as_slice();
            let ks = k.as_slice();
            let vs = v.as_slice();
            let mut out = vec![0.0f32; planes * seq * head];
            out.par_chunks_mut(seq * head)
                .enumerate()
                .for_each(|(plane_idx, o_plane)| {
                    let b = plane_idx / heads;
                    let len = seq_lens[b];
                    let base = plane_idx * seq * head;
                    let q_plane = &qs[base..base + seq * head];
                    let k_plane = &ks[base..base + seq * head];
                    let v_plane = &vs[base..base + seq * head];
                    // Process q-tiles; every row keeps running (max, sum,
                    // acc) — the online-softmax state.
                    let mut qt = 0;
                    while qt < seq {
                        let q_rows = TILE.min(seq - qt);
                        let mut run_max = vec![f32::NEG_INFINITY; q_rows];
                        let mut run_sum = vec![0.0f32; q_rows];
                        let mut acc = vec![0.0f32; q_rows * head];
                        let mut kt = 0;
                        while kt < seq {
                            let k_rows = TILE.min(seq - kt);
                            // Scores block (computed even for fully masked
                            // tiles: fixed-shape kernels do not skip).
                            for i in 0..q_rows {
                                let q_row = &q_plane[(qt + i) * head..(qt + i + 1) * head];
                                let mut block = vec![f32::NEG_INFINITY; k_rows];
                                for (j, s) in block.iter_mut().enumerate() {
                                    let kj = kt + j;
                                    let k_row = &k_plane[kj * head..(kj + 1) * head];
                                    let mut dot = 0.0f32;
                                    for (&a, &bv) in q_row.iter().zip(k_row) {
                                        dot += a * bv;
                                    }
                                    // Mask dead keys (but the dot was paid).
                                    *s = if kj < len { dot * scale } else { f32::NEG_INFINITY };
                                }
                                // Online-softmax update for this row.
                                let block_max = block.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                                let new_max = run_max[i].max(block_max);
                                if new_max == f32::NEG_INFINITY {
                                    continue; // fully masked so far
                                }
                                let correction = if run_max[i] == f32::NEG_INFINITY {
                                    0.0
                                } else {
                                    exp(run_max[i] - new_max)
                                };
                                run_sum[i] *= correction;
                                for a in &mut acc[i * head..(i + 1) * head] {
                                    *a *= correction;
                                }
                                for (j, &s) in block.iter().enumerate() {
                                    if s == f32::NEG_INFINITY {
                                        continue;
                                    }
                                    let p = exp(s - new_max);
                                    run_sum[i] += p;
                                    let v_row = &v_plane[(kt + j) * head..(kt + j + 1) * head];
                                    for (a, &vv) in acc[i * head..(i + 1) * head].iter_mut().zip(v_row) {
                                        *a += p * vv;
                                    }
                                }
                                run_max[i] = new_max;
                            }
                            kt += k_rows;
                        }
                        for i in 0..q_rows {
                            let o_row = &mut o_plane[(qt + i) * head..(qt + i + 1) * head];
                            if run_sum[i] > 0.0 {
                                let inv = 1.0 / run_sum[i];
                                for (o, &a) in o_row.iter_mut().zip(&acc[i * head..(i + 1) * head]) {
                                    *o = a * inv;
                                }
                            } else {
                                o_row.fill(0.0);
                            }
                        }
                        qt += q_rows;
                    }
                });
            out
        },
    );
    Tensor::from_vec(out, [batch, heads, seq, head]).expect("shape consistent")
}

#[cfg(test)]
mod tests {
    use super::super::reference_attention;
    use super::super::test_support::fixture;
    use super::*;
    use bt_device::CostModel;

    fn device() -> Device {
        Device::with_model(CostModel::unit())
    }

    fn check(lens: &[usize], max: usize, heads: usize, head: usize, seed: u64) {
        let fx = fixture(lens, max, heads, head, seed);
        let dev = device();
        let got = flash_attention(&dev, &fx.q_pad, &fx.k_pad, &fx.v_pad, lens, fx.scale);
        let expect = reference_attention(&fx.q_pad, &fx.k_pad, &fx.v_pad, lens, fx.scale);
        // Padded query rows are dead outputs (a fixed-shape kernel computes
        // them as uniform attention over valid keys); compare valid rows.
        for (b, &len) in lens.iter().enumerate() {
            for h in 0..heads {
                for s in 0..len {
                    for dd in 0..head {
                        let g = got.at(&[b, h, s, dd]).unwrap();
                        let e = expect.at(&[b, h, s, dd]).unwrap();
                        assert!((g - e).abs() < 3e-4, "({b},{h},{s},{dd}): {g} vs {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn matches_reference_on_valid_rows() {
        check(&[3, 7], 8, 2, 4, 1);
        check(&[100, 30, 70], 130, 2, 8, 2); // multiple online-softmax tiles
        check(&[64], 64, 1, 16, 3); // exact tile boundary
        check(&[0, 5], 8, 2, 4, 4); // empty sequence -> zero rows
    }

    #[test]
    fn flops_do_not_shrink_with_valid_length() {
        // Fixed-shape design: α has no effect on declared work.
        let fx_a = fixture(&[128; 4], 128, 2, 8, 5);
        let fx_b = fixture(&[16; 4], 128, 2, 8, 5);
        let da = device();
        flash_attention(&da, &fx_a.q_pad, &fx_a.k_pad, &fx_a.v_pad, &[128; 4], fx_a.scale);
        let db = device();
        flash_attention(&db, &fx_b.q_pad, &fx_b.k_pad, &fx_b.v_pad, &[16; 4], fx_b.scale);
        assert_eq!(da.total_flops(), db.total_flops());
    }

    #[test]
    fn no_quadratic_intermediate_traffic() {
        let fx = fixture(&[256; 2], 256, 2, 16, 6);
        let dev = device();
        flash_attention(&dev, &fx.q_pad, &fx.k_pad, &fx.v_pad, &[256; 2], fx.scale);
        // Bytes stay far below a materialized 2·2·256²·4 logits tensor
        // round trip.
        assert!(dev.total_bytes() < (2 * 2 * 256 * 256 * 4) as u64);
    }
}
