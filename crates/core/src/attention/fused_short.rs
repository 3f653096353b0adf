//! Unpadded fused MHA — Algorithm III.1.
//!
//! One kernel computes the whole attention unit: a threadblock owns a
//! `split_seq_len`-row tile of Q for one `(batch, head)`, stages Q/K/V tiles
//! in shared memory (`s_query`, `s_kv`), computes `P = Q·Kᵀ` into `s_logits`,
//! runs the softmax with whole rows held in registers ("register-level data
//! re-use"), multiplies by V, and streams the context straight into the
//! **packed** output tensor. The `seq×seq` intermediate never touches global
//! memory, and Q/K/V are addressed through the packing offsets, so neither
//! the memory overhead nor the padded FLOPs of the baseline exist here.
//! Every query row reduces over all `len` keys of its sequence: this is the
//! encoder's self-attention (the decoder's two attentions run the rows form
//! of Algorithm III.2, `super::rows`).
//!
//! The CPU mapping: a rayon task = one threadblock = one `(batch, q-tile)`
//! pair (looping heads inside, which keeps the packed output rows of a task
//! disjoint). The tensor-core fragments are bt-gemm's [`MicroKernel`]
//! register tiles, resolved once per launch: `Q·Kᵀ` runs on the Q tile
//! packed as `A` panels against `K` packed as transposed `B` panels, and
//! `P·V` on the probabilities packed as `A` panels against `V` as `B`
//! panels. K and V are packed once per `(sequence, head)`, in one parallel
//! pass before the Q-tile walk, into a launch-scoped buffer every tile
//! reads (the GPU kernel re-stages them per threadblock; the launch still
//! declares that traffic). The `rows × len` logits strip between the two
//! products is the shared memory; the softmax runs in place over each row.
//! The Q panels and the strip live in one per-worker scratch that grows and
//! is reused, never freed. Every stored logit and context element is one
//! multiply-accumulate chain in `p`-order whatever the tile geometry, so
//! results are bitwise independent of `split_seq_len` and of the batch a
//! sequence runs in, and equal across kernels of equal
//! [`MicroKernel::fused_fma`].
//!
//! The GPU kernel's shared memory bounds it at [`FUSED_SHORT_MAX_SEQ`]; the
//! CPU has no such limit, so the encoder's self-attention runs here at every
//! length.

use super::packed_dims;
use bt_device::{Device, KernelSpec};
use bt_gemm::isa::active_kernel;
use bt_gemm::micro::{pack_a_panel, pack_b_panel, MicroKernel, MR_MAX, NR_MAX};
use bt_tensor::Tensor;
use bt_varlen::PackingIndex;
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::{Mutex, TryLockError};

/// Upper sequence-length bound of the shared-memory kernel on the GPU. The
/// paper's Fig. 11 evaluates this path below 384 and switches to grouped
/// GEMM past it (TensorRT's comparable fused MHA caps at 512). No CPU
/// kernel is bounded by it: it is the paper's boundary, which the figures,
/// tests and examples sweep across.
pub const FUSED_SHORT_MAX_SEQ: usize = 384;

/// Default `split_seq_len` — the paper sets the Q-tile height "typically
/// to 32 or 48".
pub const DEFAULT_SPLIT_SEQ_LEN: usize = 32;

/// Fused short-sequence MHA over packed `[heads, valid, head]` Q/K/V
/// (`Q` pre-scaled by `1/√d_k`). Returns the packed `[valid, hidden]`
/// context.
///
/// # Panics
/// Panics if `split_seq_len == 0`, or on shape mismatches.
pub fn fused_short_attention(
    device: &Device,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    idx: &PackingIndex,
    split_seq_len: usize,
) -> Tensor {
    let (heads, valid, head) = packed_dims(q, k, v, idx);
    assert!(split_seq_len > 0, "split_seq_len must be positive");
    let hidden = heads * head;

    // Cost: the two tile GEMMs (4·d per logit per head) plus softmax
    // transforms over the `len²` logits. K and V are re-staged once per Q
    // tile, as the GPU kernel's threadblocks do (ceil(len/split) times), Q
    // and the output move once. The logits matrix contributes nothing — it
    // lives in shared memory.
    let mut flops = 0u64;
    let mut kv_reads = 0u64;
    for b in 0..idx.batch() {
        let len = idx.seq_len(b) as u64;
        let tiles = len.div_ceil(split_seq_len as u64);
        flops += heads as u64 * (4 * len * len * head as u64 + 4 * len * len);
        kv_reads += heads as u64 * tiles * len * head as u64 * 4 * 2;
    }
    let q_bytes = (valid * hidden * 4) as u64;

    let out = device.launch(
        KernelSpec::new("attention.fused_short")
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
            // One kernel per launch: every task agrees on the tile geometry
            // even if the process-wide selection changes mid-flight.
            let kern = active_kernel();
            with_staging(|buf| {
                let staged = Staged::pack(kern, k.as_slice(), v.as_slice(), idx, heads, head, buf);
                let q = q.as_slice();
                tasks.into_par_iter().for_each(|(b, t0, out_chunk)| {
                    let (off, len) = (idx.seq_offset(b), idx.seq_len(b));
                    let tile = Tile {
                        t0,
                        rows: out_chunk.len() / hidden,
                        len,
                        head,
                    };
                    SMEM.with(|cell| {
                        let smem = &mut *cell.borrow_mut();
                        for h in 0..heads {
                            // The sequence's rows of head plane `h` of Q.
                            let q = &q[(h * valid + off) * head..(h * valid + off + len) * head];
                            let (kb, vb) = staged.unit(b, h);
                            tile.run(kern, smem, [q, kb, vb], out_chunk, h * head, hidden);
                        }
                    });
                });
            });
            out
        },
    );
    Tensor::from_vec(out, [valid, hidden]).expect("shape consistent")
}

/// Every `(sequence, head)`'s K/V panels of the launch in flight.
/// Process-wide and grow-only, like the grouped engine's launch arena, so a
/// warm launch allocates nothing on whichever thread it runs — a serving
/// thread may live for one batch only, and a thread-local buffer would be
/// freed and re-grown with it.
static STAGING: Mutex<Vec<f32>> = Mutex::new(Vec::new());

/// Runs `f` with the staging buffer, or with a fresh one while another
/// launch holds it (concurrent forwards).
fn with_staging<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    match STAGING.try_lock() {
        Ok(mut buf) => f(&mut buf),
        // Every launch overwrites what it reads, so a panic mid-launch
        // leaves nothing to distrust.
        Err(TryLockError::Poisoned(poisoned)) => f(&mut poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => f(&mut Vec::new()),
    }
}

/// Every `(sequence, head)`'s K and V, packed once per launch as the `B`
/// operands of the two tile products: `Kᵀ` panels of depth `head`, one per
/// `nr` keys, then `V` panels of depth `len`, one per `nr` head columns.
/// Every Q tile of the unit reads all of them, so staging once per unit
/// instead of once per Q tile changes no stored bit.
struct Staged<'a> {
    buf: &'a [f32],
    heads: usize,
    /// Per unit, batch-major and heads inner: where its `Kᵀ` panels start,
    /// where its `V` panels start, where it ends.
    bounds: Vec<[usize; 3]>,
}

impl<'a> Staged<'a> {
    /// Packs the units of `k` / `v` (`[heads, valid, head]`) into `buf`, in
    /// one parallel pass over `(sequence, head)`.
    fn pack(
        kern: &MicroKernel,
        k: &[f32],
        v: &[f32],
        idx: &PackingIndex,
        heads: usize,
        head: usize,
        buf: &'a mut Vec<f32>,
    ) -> Self {
        let nr = kern.nr;
        let mut bounds = Vec::with_capacity(idx.batch() * heads);
        let mut end = 0;
        for b in 0..idx.batch() {
            let len = idx.seq_len(b);
            for _ in 0..heads {
                let k0 = end;
                let v0 = k0 + len.div_ceil(nr) * head * nr;
                end = v0 + head.div_ceil(nr) * len * nr;
                bounds.push([k0, v0, end]);
            }
        }
        let mut rest = grow(buf, end);
        let mut units = Vec::with_capacity(bounds.len());
        for (u, &[k0, v0, end]) in bounds.iter().enumerate() {
            let (chunk, tail) = rest.split_at_mut(end - k0);
            rest = tail;
            units.push((u, chunk.split_at_mut(v0 - k0)));
        }
        let valid = idx.valid_words();
        units.into_par_iter().for_each(|(u, (kb, vb))| {
            let (b, h) = (u / heads, u % heads);
            let (off, len) = (idx.seq_offset(b), idx.seq_len(b));
            if len == 0 {
                return;
            }
            let span = (h * valid + off) * head..(h * valid + off + len) * head;
            let (k, v) = (&k[span.clone()], &v[span]);
            for (panel, c0) in kb.chunks_exact_mut(head * nr).zip((0..len).step_by(nr)) {
                pack_b_panel(panel, k, true, c0, nr.min(len - c0), len, head, nr);
            }
            for (panel, c0) in vb.chunks_exact_mut(len * nr).zip((0..head).step_by(nr)) {
                pack_b_panel(panel, v, false, c0, nr.min(head - c0), head, len, nr);
            }
        });
        Staged {
            buf: &buf[..end],
            heads,
            bounds,
        }
    }

    /// Unit `(b, h)`'s `Kᵀ` panels and `V` panels.
    fn unit(&self, b: usize, h: usize) -> (&[f32], &[f32]) {
        let [k0, v0, end] = self.bounds[b * self.heads + h];
        (&self.buf[k0..v0], &self.buf[v0..end])
    }
}

/// The per-worker "shared memory": the staged Q tile and the logits strip.
/// It grows geometrically to the largest tile a worker has seen and is
/// reused for every later tile — like a threadblock's fixed shared-memory
/// carve-out, with zero heap traffic per tile.
#[derive(Default)]
struct Smem {
    /// The Q tile as `A` panels of depth `head`.
    q: Vec<f32>,
    /// One `P` row panel as an `A` panel of depth `len`.
    p: Vec<f32>,
    /// `s_logits`: the `rows × len` strip.
    logits: Vec<f32>,
}

thread_local! {
    static SMEM: RefCell<Smem> = RefCell::new(Smem::default());
}

/// The first `n` elements of `buf`, growing it (geometrically, as `Vec`
/// does) when it is shorter.
fn grow(buf: &mut Vec<f32>, n: usize) -> &mut [f32] {
    if buf.len() < n {
        buf.resize(n, 0.0);
    }
    &mut buf[..n]
}

/// One Q tile of one sequence: rows `t0 .. t0 + rows` of a `len`-token
/// unit.
struct Tile {
    t0: usize,
    rows: usize,
    len: usize,
    head: usize,
}

impl Tile {
    /// Algorithm III.1 for one head: `q` is the sequence's `len × head` Q
    /// plane (pre-scaled), `kb` / `vb` its staged `Kᵀ` and `V` panels; the
    /// context lands in columns `col .. col + head` of the `ld`-wide packed
    /// output rows of `out`.
    fn run(
        &self,
        kern: &MicroKernel,
        smem: &mut Smem,
        [q, kb, vb]: [&[f32]; 3],
        out: &mut [f32],
        col: usize,
        ld: usize,
    ) {
        let (mr, nr, rows, len, head) = (kern.mr, kern.nr, self.rows, self.len, self.head);
        let (qa_len, kb_len, vb_len) = (head * mr, head * nr, len * nr);
        let Smem { q: qa, p: pa, logits } = smem;
        let qa = grow(qa, rows.div_ceil(mr) * qa_len);
        let pa = grow(pa, len * mr);
        let logits = grow(logits, rows * len);

        // Stage the Q rows.
        let q_tile = &q[self.t0 * head..(self.t0 + rows) * head];
        for (i, r0) in (0..rows).step_by(mr).enumerate() {
            let panel = &mut qa[i * qa_len..(i + 1) * qa_len];
            pack_a_panel(panel, q_tile, false, r0, mr.min(rows - r0), rows, head, mr);
        }

        let mut acc = [0.0f32; MR_MAX * NR_MAX];
        let acc = &mut acc[..mr * nr];
        // S = Q_tile · Kᵀ (Q already carries the 1/√d scale), one register
        // block at a time.
        for (i, r0) in (0..rows).step_by(mr).enumerate() {
            let r = mr.min(rows - r0);
            let a = &qa[i * qa_len..(i + 1) * qa_len];
            for (j, c0) in (0..len).step_by(nr).enumerate() {
                let c = nr.min(len - c0);
                acc.fill(0.0);
                kern.run(head, a, &kb[j * kb_len..(j + 1) * kb_len], acc);
                for (l_row, a_row) in logits[r0 * len..].chunks_mut(len).zip(acc.chunks(nr)).take(r) {
                    l_row[c0..c0 + c].copy_from_slice(&a_row[..c]);
                }
            }
        }
        // Softmax in place over each row.
        for l_row in logits.chunks_mut(len) {
            bt_kernels::softmax::softmax_row(l_row);
        }
        // O = P · V, the blocks stored straight into this head's packed
        // output columns.
        for r0 in (0..rows).step_by(mr) {
            let r = mr.min(rows - r0);
            pack_a_panel(pa, logits, false, r0, r, rows, len, mr);
            for (j, c0) in (0..head).step_by(nr).enumerate() {
                let c = nr.min(head - c0);
                acc.fill(0.0);
                kern.run(len, pa, &vb[j * vb_len..(j + 1) * vb_len], acc);
                for (o_row, a_row) in out[r0 * ld..].chunks_mut(ld).zip(acc.chunks(nr)).take(r) {
                    o_row[col + c0..col + c0 + c].copy_from_slice(&a_row[..c]);
                }
            }
        }
    }
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
    fn long_sequences_match_reference() {
        // The encoder's launch has no length cap: lengths on both sides of
        // FUSED_SHORT_MAX_SEQ, an empty one and a single token.
        check(&[700, 390, 0, 1], 700, 2, 4, 32, 8);
    }

    #[test]
    fn a_sequences_rows_do_not_depend_on_its_batch_mates() {
        // Batch invariance: a 200-token sequence's context is the same bits
        // alone at width 200 and beside a 500-token batch-mate at width 512
        // — the encoder takes one kernel at both widths, and the kernel
        // stages every (sequence, head) on its own.
        let (heads, head) = (2, 8);
        let alone = fixture(&[200], 200, heads, head, 12);
        let paired = fixture(&[200, 500], 512, heads, head, 12);
        let dev = device();
        let run = |fx: &super::super::test_support::AttentionFixture| {
            super::super::fused_attention(&dev, &fx.q_packed, &fx.k_packed, &fx.v_packed, &fx.idx)
        };
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let rows = 200 * heads * head;
        assert_eq!(bits(&run(&paired).as_slice()[..rows]), bits(run(&alone).as_slice()));
    }

    #[test]
    fn split_seq_len_does_not_change_results() {
        // Every stored element is one chain in `p`-order whatever the tile
        // height, so the results agree bitwise — splits that are not a
        // multiple of any `mr` included, and a sequence past
        // FUSED_SHORT_MAX_SEQ.
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let dev = device();
        let fx = fixture(&[13, 29, 400], 400, 2, 4, 9);
        let run = |split| fused_short_attention(&dev, &fx.q_packed, &fx.k_packed, &fx.v_packed, &fx.idx, split);
        let base = bits(&run(1));
        for split in [5, 16, 32, 48] {
            assert_eq!(bits(&run(split)), base, "split {split} vs 1");
        }
    }
}
