//! Layout kernels around attention: the pack/unpack transitions *fused*
//! with bias-add and head split/merge transposes.
//!
//! Paper Fig. 2(c): "padding and remove padding operations are fused with
//! existing memory-bound footprints such as adding bias and transpose to
//! minimize the overhead led by this feature." These kernels are those
//! footprints:
//!
//! * [`add_bias_unpack_split_qkv`] — from the packed QKV projection output
//!   straight to three *padded* `[batch, heads, seq, head]` tensors (bias
//!   fused), feeding the batched-GEMM attention path.
//! * [`merge_heads_pack`] — from padded attention output straight back to
//!   the packed `[valid, hidden]` layout (re-pack fused with the transpose).
//! * [`add_bias_split_qkv_packed`] — for the fused MHA paths: packed QKV to
//!   per-head packed `[heads, valid, head]` operands with bias fused; no
//!   padded tensor is ever materialized.

use bt_device::{Device, KernelSpec};
use bt_tensor::Tensor;
use bt_varlen::PackingIndex;
use rayon::prelude::*;

/// Fused unpack + bias + head-split for the batched-GEMM attention path:
/// packed QKV GEMM output `[valid, 3·hidden]` (Q|K|V interleaved per row)
/// plus `qkv_bias[3·hidden]` → three zero-padded `[batch, heads, seq, head]`
/// tensors. One read of the packed tensor, one write of each padded tensor —
/// the unpad transition costs no extra pass.
///
/// # Panics
/// Panics on shape mismatches.
pub fn add_bias_unpack_split_qkv(
    device: &Device,
    qkv: &Tensor,
    qkv_bias: &[f32],
    idx: &PackingIndex,
    heads: usize,
) -> (Tensor, Tensor, Tensor) {
    let dims = qkv.dims();
    assert_eq!(dims.len(), 2, "qkv must be [valid, 3*hidden]");
    assert_eq!(dims[0], idx.valid_words(), "qkv rows != valid words");
    let three_hidden = dims[1];
    assert_eq!(three_hidden % 3, 0, "qkv columns must be 3*hidden");
    let hidden = three_hidden / 3;
    assert_eq!(qkv_bias.len(), three_hidden, "qkv bias length mismatch");
    assert_eq!(hidden % heads, 0, "hidden not divisible by heads");
    let head = hidden / heads;
    let (batch, seq) = (idx.batch(), idx.max_seq_len());
    let padded = batch * heads * seq * head;

    let read_bytes = (idx.valid_words() * three_hidden * 4 + three_hidden * 4) as u64 + idx.valid_words() as u64 * 4;
    let write_bytes = (3 * padded * 4) as u64;
    let (q, k, v) = device.launch(
        KernelSpec::new("layout.add_bias_unpack_split_qkv")
            .flops((idx.valid_words() * three_hidden) as u64)
            .reads(read_bytes)
            .writes(write_bytes),
        || {
            let src = qkv.as_slice();
            let mut q = vec![0.0f32; padded];
            let mut k = vec![0.0f32; padded];
            let mut v = vec![0.0f32; padded];
            // Parallelize over sequences; each writes disjoint [b] slabs.
            let q_slabs: Vec<&mut [f32]> = q.chunks_mut(heads * seq * head).collect();
            let k_slabs: Vec<&mut [f32]> = k.chunks_mut(heads * seq * head).collect();
            let v_slabs: Vec<&mut [f32]> = v.chunks_mut(heads * seq * head).collect();
            q_slabs
                .into_par_iter()
                .zip(k_slabs.into_par_iter())
                .zip(v_slabs.into_par_iter())
                .enumerate()
                .for_each(|(b, ((qd, kd), vd))| {
                    let off = idx.seq_offset(b);
                    let len = idx.seq_len(b);
                    for s in 0..len {
                        let row = &src[(off + s) * three_hidden..(off + s + 1) * three_hidden];
                        for h in 0..heads {
                            let to = (h * seq + s) * head;
                            for d in 0..head {
                                let c = h * head + d;
                                qd[to + d] = row[c] + qkv_bias[c];
                                kd[to + d] = row[hidden + c] + qkv_bias[hidden + c];
                                vd[to + d] = row[2 * hidden + c] + qkv_bias[2 * hidden + c];
                            }
                        }
                    }
                });
            (q, k, v)
        },
    );
    let shape = [batch, heads, seq, head];
    (
        Tensor::from_vec(q, shape).expect("shape consistent"),
        Tensor::from_vec(k, shape).expect("shape consistent"),
        Tensor::from_vec(v, shape).expect("shape consistent"),
    )
}

/// Fused re-pack + head-merge after batched-GEMM attention: padded
/// `[batch, heads, seq, head]` context → packed `[valid, hidden]`.
///
/// # Panics
/// Panics on shape mismatches.
pub fn merge_heads_pack(device: &Device, ctx: &Tensor, idx: &PackingIndex) -> Tensor {
    let dims = ctx.dims();
    assert_eq!(dims.len(), 4, "ctx must be [batch, heads, seq, head]");
    let (batch, heads, seq, head) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(batch, idx.batch(), "batch mismatch");
    assert_eq!(seq, idx.max_seq_len(), "seq mismatch");
    let hidden = heads * head;
    let valid = idx.valid_words();
    let moved = (valid * hidden * 4) as u64;
    let out = device.launch(
        KernelSpec::new("layout.merge_heads_pack")
            .reads(moved + valid as u64 * 4)
            .writes(moved),
        || {
            let src = ctx.as_slice();
            let mut data = vec![0.0f32; valid * hidden];
            data.par_chunks_mut(hidden.max(1))
                .zip(idx.positions().par_iter())
                .for_each(|(dst, &slot)| {
                    let b = slot as usize / seq;
                    let s = slot as usize % seq;
                    for h in 0..heads {
                        let from = ((b * heads + h) * seq + s) * head;
                        dst[h * head..(h + 1) * head].copy_from_slice(&src[from..from + head]);
                    }
                });
            data
        },
    );
    Tensor::from_vec(out, [valid, hidden]).expect("shape consistent")
}

/// The bias-add + head-split body behind the three packed splits below: a
/// packed projection `[valid, P·hidden]` (`P` parts side by side in each row)
/// plus its bias → `P` tensors `[heads, valid, head]`, part `p` multiplied by
/// `scales[p]`. Each head plane makes one pass over the source rows.
/// `spec` carries the launch name and flop count; the traffic is declared
/// here.
///
/// # Panics
/// Panics on shape mismatches.
fn add_bias_split_packed<const P: usize>(
    device: &Device,
    spec: KernelSpec,
    x: &Tensor,
    bias: &[f32],
    heads: usize,
    scales: [f32; P],
) -> [Tensor; P] {
    let dims = x.dims();
    assert_eq!(dims.len(), 2, "projection must be [valid, {P}*hidden]");
    let (valid, width) = (dims[0], dims[1]);
    assert_eq!(width % P, 0, "projection columns must be {P}*hidden");
    let hidden = width / P;
    assert_eq!(bias.len(), width, "bias length mismatch");
    assert_eq!(hidden % heads, 0, "hidden not divisible by heads");
    let head = hidden / heads;
    let moved = (valid * width * 4) as u64;

    let parts = device.launch(spec.reads(moved + width as u64 * 4).writes(moved), || {
        let src = x.as_slice();
        let plane = valid * head;
        let mut parts: [Vec<f32>; P] = std::array::from_fn(|_| vec![0.0f32; heads * plane]);
        // Parallelize over head planes: each (part, head) region is a
        // disjoint chunk. (`max(1)`: empty batches have zero-sized planes,
        // and chunk sizes must be positive.)
        let planes = parts[0].chunks(plane.max(1)).len();
        let mut chunks = parts.each_mut().map(|part| part.chunks_mut(plane.max(1)));
        let tasks: Vec<[&mut [f32]; P]> = (0..planes)
            .map(|_| chunks.each_mut().map(|c| c.next().expect("parts are the same length")))
            .collect();
        tasks.into_par_iter().enumerate().for_each(|(h, mut dst)| {
            for w in 0..valid {
                let row = &src[w * width..(w + 1) * width];
                for (p, part) in dst.iter_mut().enumerate() {
                    let c0 = p * hidden + h * head;
                    let out = &mut part[w * head..(w + 1) * head];
                    for ((o, &xv), &bv) in out.iter_mut().zip(&row[c0..c0 + head]).zip(&bias[c0..c0 + head]) {
                        *o = (xv + bv) * scales[p];
                    }
                }
            }
        });
        parts
    });
    parts.map(|part| Tensor::from_vec(part, [heads, valid, head]).expect("shape consistent"))
}

/// Fused bias + head-split **staying packed**, for the fused MHA paths:
/// packed QKV `[valid, 3·hidden]` → three `[heads, valid, head]` tensors.
/// Per `(batch, head)`, rows `seq_offset(b) .. seq_offset(b)+len` of plane
/// `h` form the contiguous `len×head` operand the grouped GEMM consumes —
/// no padded tensor exists anywhere on this path.
///
/// `q_scale` is folded into Q here (the paper fuses the `1/√d_k` scaling
/// with the load, Algorithm III.1 line 12).
///
/// # Panics
/// Panics on shape mismatches.
pub fn add_bias_split_qkv_packed(
    device: &Device,
    qkv: &Tensor,
    qkv_bias: &[f32],
    heads: usize,
    q_scale: f32,
) -> (Tensor, Tensor, Tensor) {
    let spec = KernelSpec::new("layout.add_bias_split_qkv_packed").flops(qkv.numel() as u64);
    let [q, k, v] = add_bias_split_packed(device, spec, qkv, qkv_bias, heads, [q_scale, 1.0, 1.0]);
    (q, k, v)
}

/// Fused bias + head-split of a single packed projection `[valid, hidden]`
/// → `[heads, valid, head]`, with an optional scale folded in (used for the
/// decoder's cross-attention Q; the encoder path uses the 3-way
/// [`add_bias_split_qkv_packed`]).
///
/// # Panics
/// Panics on shape mismatches.
pub fn add_bias_split_heads_packed(
    device: &Device,
    name: &str,
    x: &Tensor,
    bias: &[f32],
    heads: usize,
    scale: f32,
) -> Tensor {
    let spec = KernelSpec::new(format!("{name}.add_bias_split_heads")).flops(2 * x.numel() as u64);
    let [out] = add_bias_split_packed(device, spec, x, bias, heads, [scale]);
    out
}

/// Fused bias + head-split of a packed KV projection `[valid, 2·hidden]`
/// (columns K | V) → two `[heads, valid, head]` tensors (the decoder's
/// per-layer cross-attention memory projection).
///
/// # Panics
/// Panics on shape mismatches.
pub fn add_bias_split_kv_packed(
    device: &Device,
    name: &str,
    kv: &Tensor,
    kv_bias: &[f32],
    heads: usize,
) -> (Tensor, Tensor) {
    let spec = KernelSpec::new(format!("{name}.add_bias_split_kv")).flops(kv.numel() as u64);
    let [k, v] = add_bias_split_packed(device, spec, kv, kv_bias, heads, [1.0, 1.0]);
    (k, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_device::CostModel;
    use bt_tensor::compare::assert_close;
    use bt_varlen::BatchMask;

    fn device() -> Device {
        Device::with_model(CostModel::unit())
    }

    fn idx(lens: &[usize], max: usize) -> PackingIndex {
        PackingIndex::from_mask(&BatchMask::from_lens(lens.to_vec(), max).unwrap())
    }

    #[test]
    fn unpack_split_qkv_bias_and_padding() {
        let dev = device();
        let lens = [2usize, 1];
        let index = idx(&lens, 3);
        let hidden = 4;
        let heads = 2;
        let valid = 3;
        // Row w holds: Q = w, K = 10 + w, V = 20 + w in every column.
        let mut data = vec![0.0f32; valid * 3 * hidden];
        for w in 0..valid {
            for c in 0..hidden {
                data[w * 3 * hidden + c] = w as f32;
                data[w * 3 * hidden + hidden + c] = 10.0 + w as f32;
                data[w * 3 * hidden + 2 * hidden + c] = 20.0 + w as f32;
            }
        }
        let qkv = Tensor::from_vec(data, [valid, 3 * hidden]).unwrap();
        let bias = vec![0.5f32; 3 * hidden];
        let (q, k, v) = add_bias_unpack_split_qkv(&dev, &qkv, &bias, &index, heads);
        assert_eq!(q.dims(), &[2, heads, 3, hidden / heads]);
        // Sequence 0 token 1 -> packed row 1 -> Q value 1.5 after bias.
        assert_eq!(q.at(&[0, 0, 1, 0]).unwrap(), 1.5);
        // Sequence 1 token 0 -> packed row 2.
        assert_eq!(k.at(&[1, 1, 0, 1]).unwrap(), 12.5);
        assert_eq!(v.at(&[1, 0, 0, 0]).unwrap(), 22.5);
        // Padding slots are zero.
        assert_eq!(q.at(&[0, 0, 2, 0]).unwrap(), 0.0);
        assert_eq!(v.at(&[1, 1, 2, 1]).unwrap(), 0.0);
    }

    #[test]
    fn merge_heads_pack_inverts_unpack_split() {
        let dev = device();
        let lens = [3usize, 2];
        let index = idx(&lens, 4);
        let heads = 3;
        let hidden = 6;
        let valid = index.valid_words();
        let packed = Tensor::randn([valid, hidden], 7);
        // Build the padded per-head tensor via unpack+split of a pure-Q QKV.
        let mut qkv_data = vec![0.0f32; valid * 3 * hidden];
        for w in 0..valid {
            qkv_data[w * 3 * hidden..w * 3 * hidden + hidden]
                .copy_from_slice(&packed.as_slice()[w * hidden..(w + 1) * hidden]);
        }
        let qkv = Tensor::from_vec(qkv_data, [valid, 3 * hidden]).unwrap();
        let (q, _, _) = add_bias_unpack_split_qkv(&dev, &qkv, &vec![0.0; 3 * hidden], &index, heads);
        let repacked = merge_heads_pack(&dev, &q, &index);
        assert_eq!(repacked.dims(), packed.dims());
        assert_close(repacked.as_slice(), packed.as_slice(), 0.0);
    }

    #[test]
    fn packed_split_stays_packed_and_scales_q() {
        let dev = device();
        let valid = 4;
        let hidden = 4;
        let heads = 2;
        let qkv = Tensor::randn([valid, 3 * hidden], 3);
        let bias = vec![0.0f32; 3 * hidden];
        let (q, k, _v) = add_bias_split_qkv_packed(&dev, &qkv, &bias, heads, 0.5);
        assert_eq!(q.dims(), &[heads, valid, hidden / heads]);
        // Q plane h=0, word 0, d=0 == qkv[0, 0] * 0.5.
        assert_eq!(q.at(&[0, 0, 0]).unwrap(), qkv.at(&[0, 0]).unwrap() * 0.5);
        // K not scaled.
        assert_eq!(k.at(&[0, 0, 0]).unwrap(), qkv.at(&[0, hidden]).unwrap());
        // Head 1 plane takes columns head..2*head.
        assert_eq!(q.at(&[1, 2, 1]).unwrap(), qkv.at(&[2, 3]).unwrap() * 0.5);
    }

    #[test]
    fn single_split_matches_qkv_split_q_lane() {
        let dev = device();
        let valid = 5;
        let hidden = 8;
        let heads = 2;
        let x = Tensor::randn([valid, hidden], 11);
        let bias: Vec<f32> = (0..hidden).map(|i| 0.1 * i as f32).collect();
        let single = add_bias_split_heads_packed(&dev, "q", &x, &bias, heads, 0.5);
        // Compose an equivalent QKV tensor with K=V=0 and compare the Q lane.
        let mut qkv_data = vec![0.0f32; valid * 3 * hidden];
        for w in 0..valid {
            qkv_data[w * 3 * hidden..w * 3 * hidden + hidden]
                .copy_from_slice(&x.as_slice()[w * hidden..(w + 1) * hidden]);
        }
        let qkv = Tensor::from_vec(qkv_data, [valid, 3 * hidden]).unwrap();
        let mut qkv_bias = vec![0.0f32; 3 * hidden];
        qkv_bias[..hidden].copy_from_slice(&bias);
        let (q3, _, _) = add_bias_split_qkv_packed(&dev, &qkv, &qkv_bias, heads, 0.5);
        assert_close(single.as_slice(), q3.as_slice(), 0.0);
    }

    #[test]
    fn kv_split_places_lanes() {
        let dev = device();
        let valid = 3;
        let hidden = 4;
        let heads = 2;
        // Row w: K columns = 10+w, V columns = 20+w.
        let mut data = vec![0.0f32; valid * 2 * hidden];
        for w in 0..valid {
            for c in 0..hidden {
                data[w * 2 * hidden + c] = 10.0 + w as f32;
                data[w * 2 * hidden + hidden + c] = 20.0 + w as f32;
            }
        }
        let kv = Tensor::from_vec(data, [valid, 2 * hidden]).unwrap();
        let bias = vec![0.5f32; 2 * hidden];
        let (k, v) = add_bias_split_kv_packed(&dev, "cross", &kv, &bias, heads);
        assert_eq!(k.dims(), &[heads, valid, hidden / heads]);
        assert_eq!(k.at(&[1, 2, 1]).unwrap(), 12.5);
        assert_eq!(v.at(&[0, 0, 0]).unwrap(), 20.5);
    }

    #[test]
    fn empty_batch_zero_valid_words() {
        // Regression: an all-empty batch has zero-sized head planes; the
        // split kernels must not panic on zero-width chunking.
        let dev = device();
        let qkv = Tensor::zeros([0, 12]);
        let bias = vec![0.0f32; 12];
        let (q, k, v) = add_bias_split_qkv_packed(&dev, &qkv, &bias, 2, 1.0);
        assert_eq!(q.numel() + k.numel() + v.numel(), 0);
        let single = add_bias_split_heads_packed(&dev, "q", &Tensor::zeros([0, 4]), &[0.0; 4], 2, 1.0);
        assert_eq!(single.numel(), 0);
        let (ck, cv) = add_bias_split_kv_packed(&dev, "kv", &Tensor::zeros([0, 8]), &[0.0; 8], 2);
        assert_eq!(ck.numel() + cv.numel(), 0);
    }

    #[test]
    #[should_panic(expected = "hidden not divisible")]
    fn bad_head_count_panics() {
        let dev = device();
        let qkv = Tensor::zeros([1, 15]);
        add_bias_unpack_split_qkv(&dev, &qkv, &[0.0; 15], &idx(&[1], 1), 2);
    }
}
