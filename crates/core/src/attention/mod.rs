//! Multi-head attention implementations (paper §III.E, Figs. 11–12).
//!
//! Two input conventions exist, mirroring the paper's pipeline:
//!
//! * **Padded**: `Q, K, V` as `[batch, heads, seq, head]` tensors plus the
//!   per-sequence valid lengths. Used by the conventional baselines
//!   ([`naive`], [`batched`], [`flash`]), whose batched GEMMs require
//!   identical shapes.
//! * **Packed**: `Q, K, V` as `[heads, valid_words, head]` tensors indexed
//!   through a [`PackingIndex`] — per `(batch, head)` the rows
//!   `seq_offset(b) .. seq_offset(b)+len` are that attention unit's
//!   operand. Used by the fused paths ([`fused_short`], [`fused_grouped`]),
//!   which never materialize a padded tensor. The `1/√d_k` scale is folded
//!   into `Q` upstream (fused with the bias-add load, Algorithm III.1).
//!
//! Each runtime attention has one form:
//!
//! * The encoder's self-attention ([`fused_attention`]) runs Algorithm III.1
//!   ([`fused_short`]) at every length: the paper's 384-token boundary
//!   ([`FUSED_SHORT_MAX_SEQ`]) is a GPU shared-memory limit the CPU does not
//!   have.
//! * Every decoder attention — the teacher-forced stack's causal
//!   self-attention ([`causal`]) and cross-attention ([`cross`]), and the
//!   paged stack's two, whatever mix of prefill chunks and decode rows a
//!   forward carries — runs Algorithm III.2 as row dots (`rows`): one unit
//!   per `(sequence or session, head)` under a `KeyRange` (which of its keys
//!   a query row may see), every query row reading its keys and values in
//!   place — from the packed planes, from the cache's block storage through
//!   the session's block table, or from a session's memory planes — with no
//!   gather, no pack and no 64-row tile. A decoder row's bits therefore
//!   depend neither on its batch-mates nor on which stack runs it.
//!
//! The grouped engine ([`fused_grouped`]) runs Algorithm III.2 as the
//! paper's three launches over an `AttnUnit` list built from packing
//! indices (`units`). No forward calls it: it is the kernel Figs. 7 and 12
//! measure, and the oracle the rows form is held to, bitwise, under both
//! key ranges (`paged_forms`). No attention code lives outside this module.
//!
//! Attention is f32 at every precision, in all three forms (III.1, the
//! III.2 engine, the III.2 rows): `BYTE_GEMM_PREC` narrows the dense GEMMs
//! around it, never its own two GEMMs or its softmax. So the paged prefill
//! is bitwise the teacher-forced forward at f32, f16 and int8 alike.

pub mod batched;
pub mod causal;
pub mod cross;
pub mod flash;
pub mod fused_grouped;
pub mod fused_short;
pub mod naive;
mod rows;

pub use batched::batched_attention;
pub use causal::{causal_fused_attention, causal_reference_attention};
pub use cross::{cross_attention, cross_reference_attention};
pub use flash::flash_attention;
pub use fused_grouped::{fused_grouped_attention, SCHEDULER_VISIT_COST};
pub use fused_short::{fused_short_attention, DEFAULT_SPLIT_SEQ_LEN, FUSED_SHORT_MAX_SEQ};
pub use naive::naive_attention;

pub(crate) use rows::{session_rows, SessionKv};

use bt_device::Device;
use bt_gemm::grouped::Scheduler;
use bt_tensor::Tensor;
use bt_varlen::PackingIndex;

/// Validates a padded `[batch, heads, seq, head]` Q/K/V triple, returning
/// `(batch, heads, seq, head)`.
///
/// # Panics
/// Panics when shapes disagree — attention entry points are internal to the
/// encoder, which has already validated user input.
pub(crate) fn padded_dims(q: &Tensor, k: &Tensor, v: &Tensor, seq_lens: &[usize]) -> (usize, usize, usize, usize) {
    let d = q.dims();
    assert_eq!(d.len(), 4, "Q must be [batch, heads, seq, head]");
    assert_eq!(q.dims(), k.dims(), "Q/K shape mismatch");
    assert_eq!(q.dims(), v.dims(), "Q/V shape mismatch");
    assert_eq!(seq_lens.len(), d[0], "seq_lens length mismatch");
    (d[0], d[1], d[2], d[3])
}

/// Validates a packed `[heads, valid, head]` Q/K/V triple against its
/// packing index, returning `(heads, valid, head)`.
pub(crate) fn packed_dims(q: &Tensor, k: &Tensor, v: &Tensor, idx: &PackingIndex) -> (usize, usize, usize) {
    let d = q.dims();
    assert_eq!(d.len(), 3, "packed Q must be [heads, valid, head]");
    assert_eq!(q.dims(), k.dims(), "Q/K shape mismatch");
    assert_eq!(q.dims(), v.dims(), "Q/V shape mismatch");
    assert_eq!(d[1], idx.valid_words(), "packed rows != valid words");
    (d[0], d[1], d[2])
}

/// Which of its unit's key/value rows a query row may attend to. Crate
/// private: the public entry points and the paged decoder each fix one.
#[derive(Debug, Clone, Copy)]
pub(crate) enum KeyRange {
    /// Every key row of the unit (encoder self-attention, cross-attention).
    Full,
    /// Bottom-right causal: the unit's query rows are its last `q_len` key
    /// positions (decoder self-attention, prefill onto a cache, one step).
    Causal,
}

impl KeyRange {
    /// How many of its unit's `kv_len` keys query row `row` (unit-local, of
    /// `q_len ≤ kv_len`) reduces over — always a prefix of them. Causal is
    /// bottom-right aligned: row `r` sees `kv_len − q_len + r + 1` keys, so a
    /// square unit gives `0..=r`, a prefill of `q_len` rows onto a cache
    /// holding `kv_len − q_len` tokens gives each row its own prefix, and a
    /// one-row step sees every key. A unit's rows therefore equal, bitwise,
    /// the last `q_len` rows of the square unit over the same keys.
    fn keys(self, row: usize, q_len: usize, kv_len: usize) -> usize {
        match self {
            KeyRange::Full => kv_len,
            KeyRange::Causal => kv_len - q_len + row + 1,
        }
    }
}

/// One attention sub-problem: head plane `h`, query rows
/// `q_off .. q_off + q_len` of the packed Q tensor, key/value rows
/// `kv_off .. kv_off + kv_len` of the packed K/V. For self-attention the two
/// ranges coincide; for cross-attention they do not.
#[derive(Debug, Clone, Copy)]
struct AttnUnit {
    h: usize,
    q_off: usize,
    q_len: usize,
    kv_off: usize,
    kv_len: usize,
}

/// The grouped engine's problem list: batch-major, heads inner —
/// `batch × heads` units (Fig. 6), sequence `b` of the target index paired
/// with sequence `b` of the memory index. Self-attention passes one index
/// twice.
///
/// # Panics
/// Panics if the two indices hold a different number of sequences.
fn units(tgt_idx: &PackingIndex, mem_idx: &PackingIndex, heads: usize) -> Vec<AttnUnit> {
    assert_eq!(tgt_idx.batch(), mem_idx.batch(), "target and memory batches must align");
    (0..tgt_idx.batch())
        .flat_map(|b| (0..heads).map(move |h| (b, h)))
        .map(|(b, h)| AttnUnit {
            h,
            q_off: tgt_idx.seq_offset(b),
            q_len: tgt_idx.seq_len(b),
            kv_off: mem_idx.seq_offset(b),
            kv_len: mem_idx.seq_len(b),
        })
        .collect()
}

/// Both forms of paged attention on the same units, for the differential
/// suites: session `sessions[s].0` attends with its `sessions[s].1` query
/// rows, consecutive in `q` (`[heads, rows, head]`, pre-scaled) in session
/// order, over its keys in `layer` of `cache`, under bottom-right causal keys
/// when `causal`, else full. `k` and `v` (`[heads, Σ kv_len, head]`) hold
/// the same keys and values packed, session after session. Returns the rows
/// form's context, read through the block tables, and the grouped engine's
/// over the packed planes.
#[doc(hidden)]
pub fn paged_forms(
    cache: &crate::paged::PagedKvCache,
    layer: usize,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    sessions: &[(bt_varlen::paged::SessionId, usize)],
    causal: bool,
) -> (Tensor, Tensor) {
    let device = Device::with_model(bt_device::CostModel::unit());
    let range = if causal { KeyRange::Causal } else { KeyRange::Full };
    let heads = q.dims()[0];
    let shape: Vec<(usize, usize)> = sessions.iter().map(|&(sid, n)| (n, cache.len(sid))).collect();
    let mut rows = Vec::new();
    for &(sid, _) in sessions {
        cache.extend_rows(sid, &mut rows);
    }
    let in_place = session_rows(&device, "rows", q, &shape, range, 0, || {
        let mut rest = &rows[..];
        shape
            .iter()
            .map(|&(_, n)| {
                let session;
                (session, rest) = rest.split_at(n);
                cache.blocks(layer, session)
            })
            .collect()
    });
    let (mut q_off, mut kv_off) = (0, 0);
    let mut units = Vec::with_capacity(shape.len() * heads);
    for &(q_len, kv_len) in &shape {
        units.extend((0..heads).map(|h| AttnUnit {
            h,
            q_off,
            q_len,
            kv_off,
            kv_len,
        }));
        (q_off, kv_off) = (q_off + q_len, kv_off + kv_len);
    }
    let kv = (k.as_slice(), v.as_slice());
    let engine =
        fused_grouped::grouped_softmax_attention(&device, "engine", q, kv, &units, range, Scheduler::WarpPrefetch);
    (in_place, engine)
}

/// ByteTransformer's fused MHA for the encoder: the shared-memory kernel
/// (Algorithm III.1) at every length. The paper switches to grouped GEMM
/// past [`FUSED_SHORT_MAX_SEQ`] because a GPU's shared memory bounds the
/// logits strip; the CPU strip lives in cache at any length, and the kernel
/// stages each `(sequence, head)`'s K/V once. Returns the packed
/// `[valid, hidden]` context.
pub fn fused_attention(device: &Device, q: &Tensor, k: &Tensor, v: &Tensor, idx: &PackingIndex) -> Tensor {
    static SHORT_PATH: bt_obs::Counter = bt_obs::Counter::new(bt_obs::names::MHA_PATH_SHORT);
    SHORT_PATH.incr();
    let _span = bt_obs::span!("mha.fused.short");
    fused_short_attention(device, q, k, v, idx, DEFAULT_SPLIT_SEQ_LEN)
}

/// The teacher-forced decoder's attention over packed operands: the rows
/// form ([`session_rows`]) in one launch named `name`, one unit per
/// sequence — target sequence `b`'s query rows of `q` (`[heads, tgt_valid,
/// head]`, pre-scaled) against memory sequence `b`'s keys and values, read
/// in place from the `[heads, mem_valid, head]` planes `k` / `v`.
/// Self-attention passes one index twice. Returns the packed `[tgt_valid,
/// hidden]` context.
///
/// # Panics
/// Panics if the two indices hold a different number of sequences, or on
/// shape mismatches.
#[allow(clippy::too_many_arguments)]
fn packed_rows(
    device: &Device,
    name: &str,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    tgt_idx: &PackingIndex,
    mem_idx: &PackingIndex,
    range: KeyRange,
) -> Tensor {
    let (qd, kd) = (q.dims(), k.dims());
    assert_eq!(tgt_idx.batch(), mem_idx.batch(), "target and memory batches must align");
    assert_eq!(qd[1], tgt_idx.valid_words(), "Q rows != target valid words");
    assert_eq!(kd[1], mem_idx.valid_words(), "K rows != memory valid words");
    assert_eq!([qd[0], qd[2]], [kd[0], kd[2]], "Q/K head planes differ");
    assert_eq!(kd, v.dims(), "K/V shape mismatch");
    let (plane, head) = (kd[1] * kd[2], kd[2]);
    let units: Vec<(usize, usize)> = (0..tgt_idx.batch())
        .map(|b| (tgt_idx.seq_len(b), mem_idx.seq_len(b)))
        .collect();
    session_rows(device, name, q, &units, range, 0, || {
        (0..mem_idx.batch())
            .map(|b| {
                let at = mem_idx.seq_offset(b) * head;
                let (k, v) = (&k.as_slice()[at..], &v.as_slice()[at..]);
                SessionKv::Planes { k, v, plane }
            })
            .collect()
    })
}

/// The oracles' softmax (the reference attentions here and in `causal` /
/// `cross`, and `incremental::DecoderSession`): libm `exp` and serial folds,
/// deliberately not [`bt_kernels::softmax::softmax_row`] — an oracle that ran
/// the code under test would prove nothing.
pub(crate) fn oracle_softmax(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Straight-line host reference attention over padded inputs — the oracle
/// every variant is tested against. `scale` is applied to the logits;
/// padded key columns are masked; padded query rows produce zeros.
#[allow(clippy::needless_range_loop)] // index loops are the oracle idiom here
pub fn reference_attention(q: &Tensor, k: &Tensor, v: &Tensor, seq_lens: &[usize], scale: f32) -> Tensor {
    let (batch, heads, seq, head) = padded_dims(q, k, v, seq_lens);
    let mut out = Tensor::zeros([batch, heads, seq, head]);
    let qs = q.as_slice();
    let ks = k.as_slice();
    let vs = v.as_slice();
    let os = out.as_mut_slice();
    for b in 0..batch {
        let len = seq_lens[b];
        for h in 0..heads {
            let plane = ((b * heads) + h) * seq * head;
            for i in 0..len {
                // logits over valid keys
                let mut logits = vec![0.0f32; len];
                for (j, lj) in logits.iter_mut().enumerate() {
                    let mut dot = 0.0f32;
                    for dd in 0..head {
                        dot += qs[plane + i * head + dd] * ks[plane + j * head + dd];
                    }
                    *lj = dot * scale;
                }
                oracle_softmax(&mut logits);
                for dd in 0..head {
                    let mut acc = 0.0f32;
                    for (j, &lj) in logits.iter().enumerate() {
                        acc += lj * vs[plane + j * head + dd];
                    }
                    os[plane + i * head + dd] = acc;
                }
            }
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // oracle-style index loops
pub(crate) mod test_support {
    use super::*;
    use bt_varlen::BatchMask;

    /// Builds padded and packed Q/K/V for the same random attention inputs,
    /// so padded baselines and packed fused kernels can be cross-checked.
    /// Packed Q is pre-scaled by `scale`; padded Q is returned unscaled.
    #[allow(dead_code)] // some variants consume only a subset of fields
    pub struct AttentionFixture {
        pub idx: PackingIndex,
        pub q_pad: Tensor,
        pub k_pad: Tensor,
        pub v_pad: Tensor,
        pub q_packed: Tensor,
        pub k_packed: Tensor,
        pub v_packed: Tensor,
        pub scale: f32,
        pub heads: usize,
        pub head: usize,
    }

    pub fn fixture(lens: &[usize], max_seq: usize, heads: usize, head: usize, seed: u64) -> AttentionFixture {
        let mask = BatchMask::from_lens(lens.to_vec(), max_seq).unwrap();
        let idx = PackingIndex::from_mask(&mask);
        let batch = lens.len();
        let scale = 1.0 / (head as f32).sqrt();
        let valid = idx.valid_words();

        let mut q_pad = Tensor::zeros([batch, heads, max_seq, head]);
        let mut k_pad = Tensor::zeros([batch, heads, max_seq, head]);
        let mut v_pad = Tensor::zeros([batch, heads, max_seq, head]);
        let mut q_pk = Tensor::zeros([heads, valid, head]);
        let mut k_pk = Tensor::zeros([heads, valid, head]);
        let mut v_pk = Tensor::zeros([heads, valid, head]);

        let mut rng = bt_tensor::rng::Xoshiro256StarStar::seed_from_u64(seed);
        for b in 0..batch {
            for s in 0..lens[b] {
                let w = idx.seq_offset(b) + s;
                for h in 0..heads {
                    for dd in 0..head {
                        let qv = rng.uniform(-1.0, 1.0);
                        let kv = rng.uniform(-1.0, 1.0);
                        let vv = rng.uniform(-1.0, 1.0);
                        q_pad.set(&[b, h, s, dd], qv).unwrap();
                        k_pad.set(&[b, h, s, dd], kv).unwrap();
                        v_pad.set(&[b, h, s, dd], vv).unwrap();
                        q_pk.set(&[h, w, dd], qv * scale).unwrap();
                        k_pk.set(&[h, w, dd], kv).unwrap();
                        v_pk.set(&[h, w, dd], vv).unwrap();
                    }
                }
            }
        }
        AttentionFixture {
            idx,
            q_pad,
            k_pad,
            v_pad,
            q_packed: q_pk,
            k_packed: k_pk,
            v_packed: v_pk,
            scale,
            heads,
            head,
        }
    }

    /// Extracts the valid rows of a padded `[b,h,s,d]` context into the
    /// packed `[valid, hidden]` layout for comparison with fused outputs.
    pub fn pack_context(ctx: &Tensor, idx: &PackingIndex) -> Vec<f32> {
        let dims = ctx.dims();
        let (heads, head) = (dims[1], dims[3]);
        let hidden = heads * head;
        let mut out = vec![0.0f32; idx.valid_words() * hidden];
        for b in 0..idx.batch() {
            for s in 0..idx.seq_len(b) {
                let w = idx.seq_offset(b) + s;
                for h in 0..heads {
                    for dd in 0..head {
                        out[w * hidden + h * head + dd] = ctx.at(&[b, h, s, dd]).unwrap();
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    #[test]
    fn reference_rows_are_convex_combinations() {
        // With V = all-ones, every valid output row must be exactly 1.
        let fx = fixture(&[3, 5], 5, 2, 4, 1);
        let ones = Tensor::filled(fx.v_pad.shape().clone(), 1.0);
        let out = reference_attention(&fx.q_pad, &fx.k_pad, &ones, &[3, 5], fx.scale);
        for b in 0..2 {
            let len = [3, 5][b];
            for h in 0..2 {
                for s in 0..len {
                    for dd in 0..4 {
                        let v = out.at(&[b, h, s, dd]).unwrap();
                        assert!((v - 1.0).abs() < 1e-5, "({b},{h},{s},{dd}) = {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn reference_zeroes_padded_rows() {
        let fx = fixture(&[2], 6, 1, 4, 2);
        let out = reference_attention(&fx.q_pad, &fx.k_pad, &fx.v_pad, &[2], fx.scale);
        for s in 2..6 {
            for dd in 0..4 {
                assert_eq!(out.at(&[0, 0, s, dd]).unwrap(), 0.0);
            }
        }
    }

    #[test]
    fn fixture_padded_and_packed_agree() {
        let fx = fixture(&[2, 4], 4, 2, 4, 3);
        // Packed row for (b=1, s=1) is seq_offset(1) + 1 = 3.
        let w = fx.idx.seq_offset(1) + 1;
        for h in 0..2 {
            for dd in 0..4 {
                let padded = fx.q_pad.at(&[1, h, 1, dd]).unwrap();
                let packed = fx.q_packed.at(&[h, w, dd]).unwrap();
                assert!((packed - padded * fx.scale).abs() < 1e-7);
                assert_eq!(
                    fx.k_pad.at(&[1, h, 1, dd]).unwrap(),
                    fx.k_packed.at(&[h, w, dd]).unwrap()
                );
            }
        }
    }
}
