//! Algorithm III.2 at `m = 1`: the paged decoder's one-row units, with
//! their keys and values read where they lie.
//!
//! A decode step's attention unit is one query row against one session's
//! keys. On the grouped engine ([`super::fused_grouped`]) that row fills a
//! 64 × 64 tile and an `mr`-row micropanel, each tile packs 64 single-use
//! keys, and the session's K/V must first be gathered out of the cache
//! blocks into contiguous planes. This form does the same arithmetic with
//! none of that padding or copying (the paper's first rule, §III.B–E,
//! applied to the M dimension):
//!
//! * **Logits.** Each `q·k_j` is one `p`-ascending multiply-accumulate chain
//!   from `0.0`, fused or not per the launch kernel's
//!   [`MicroKernel::fused_fma`](bt_gemm::micro::MicroKernel::fused_fma), as
//!   the engine's microkernel forms it. Sixteen keys' chains advance side by
//!   side, reading each key row where it lies; the compiler vectorises them
//!   across keys, transposing each block of key rows itself. (Keeping the
//!   cache's keys block-transposed instead measured no faster: at decode
//!   shapes this launch is bound by reading K/V, not by the dots.)
//! * **Partials.** `(max, Σ exp(x − max))` per 64-key tile: the engine's
//!   GEMM-1 epilogue, [`tile_partials`].
//! * **Merge.** The engine's full reduction, [`merge_partials`].
//! * **P·V.** One key-ascending chain per output column over
//!   `exp(x − M) / S`, as the engine's mainloop-normalised second GEMM
//!   forms it; each value row is read once, in place.
//!
//! Every output is therefore **bitwise** the engine's on the same units
//! (`tests/differential_decode.rs` checks it on every ISA tier), so the
//! paged decoder's prefill ≡ steps, paged ≡ teacher-forced and block-size
//! invariance hold whichever form a forward takes. A one-row unit sees every
//! key under either `KeyRange` (bottom-right causal gives its only row
//! `kv_len` keys), so no key is ever masked here.

use super::fused_grouped::{merge_partials, normalize, tile_partials};
use bt_device::{Device, KernelSpec};
use bt_gemm::grouped::GroupedConfig;
use bt_gemm::isa::active_kernel;
use bt_tensor::Tensor;
use rayon::prelude::*;
use std::cell::RefCell;

/// Keys whose logit chains advance side by side: enough independent
/// multiply-adds to cover the FMA latency.
const KEY_BLOCK: usize = 16;
/// Head columns per `P·V` block.
const COL_BLOCK: usize = 64;

/// Where one session's keys and values lie for one layer.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SessionKv<'a> {
    /// Contiguous `[heads, kv_len, head]` K and V planes.
    Planes { k: &'a [f32], v: &'a [f32] },
    /// Token `t`'s `[heads · head]` K and V rows start at `rows[t]` of `k`
    /// and `v`: a layer's block storage, addressed through the session's
    /// block table.
    Blocks {
        k: &'a [f32],
        v: &'a [f32],
        rows: &'a [usize],
    },
}

/// Algorithm III.2 at `m = 1` — the form `super::rows_form` picks — in one
/// launch named `name`: session `s` is query row `s` of `q` (`[heads,
/// sessions, head]`, pre-scaled) against its `kv_lens[s]` keys, one unit
/// per `(session, head)`, and the context comes back packed `[sessions,
/// heads · head]`, bitwise `super::session_attention` on the same units.
///
/// `kv` runs first inside the launch and says where each session's K/V
/// lie; the paged decoder stores this forward's `stored` new K/V rows into
/// the cache there, so the append is part of the launch that reads them.
pub(crate) fn session_rows<'s>(
    device: &Device,
    name: &str,
    q: &Tensor,
    kv_lens: &[usize],
    stored: usize,
    kv: impl FnOnce() -> Vec<SessionKv<'s>>,
) -> Tensor {
    let qd = q.dims();
    assert_eq!(qd.len(), 3, "Q must be [heads, sessions, head]");
    let (heads, sessions, head) = (qd[0], qd[1], qd[2]);
    assert_eq!(sessions, kv_lens.len(), "one query row per session");
    let hidden = heads * head;
    let tile_n = GroupedConfig::default().tile_n;

    // The engine's arithmetic per unit (two row GEMMs, the epilogue's
    // max / exp / sum, the merge, the normalisation); the K/V rows read, Q,
    // the context and the rows the launch stores.
    let (mut flops, mut kv_bytes) = (0u64, 0u64);
    for &n in kv_lens {
        let tiles = n.div_ceil(tile_n).max(1);
        flops += (heads * (4 * n * head + 5 * n + 3 * tiles)) as u64;
        kv_bytes += (2 * n * hidden * 4) as u64;
    }
    let (row_bytes, stored_bytes) = ((sessions * hidden * 4) as u64, (2 * stored * hidden * 4) as u64);
    let spec = KernelSpec::new(name)
        .flops(flops)
        .reads(row_bytes + kv_bytes + stored_bytes)
        .writes(row_bytes + stored_bytes);

    let out = device.launch(spec, || {
        let kv = kv();
        assert_eq!(kv.len(), sessions, "one K/V source per session");
        // One kernel per launch: every task agrees on the contraction mode
        // even if the process-wide selection changes mid-flight.
        let fused = active_kernel().fused_fma;
        let qs = q.as_slice();
        let mut out = vec![0.0f32; sessions * hidden];
        // One task per session, its heads inside.
        out.par_chunks_mut(hidden).enumerate().for_each(|(s, ctx)| {
            SMEM.with(|cell| {
                let smem = &mut *cell.borrow_mut();
                // The session's query row, heads side by side.
                let q = grow(&mut smem.q, hidden);
                for (h, q) in q.chunks_exact_mut(head).enumerate() {
                    q.copy_from_slice(&qs[(h * sessions + s) * head..][..head]);
                }
                let launch = Launch { fused, tile_n, heads };
                match kv[s] {
                    SessionKv::Planes { k, v } => {
                        let plane = k.len() / heads;
                        launch.run(smem, [k, v], plane / head, |h, j| h * plane + j * head, ctx);
                    }
                    SessionKv::Blocks { k, v, rows } => {
                        launch.run(smem, [k, v], rows.len(), |h, j| rows[j] + h * head, ctx);
                    }
                }
            });
        });
        out
    });
    Tensor::from_vec(out, [sessions, hidden]).expect("shape consistent")
}

/// A worker's scratch: the session's query row, its logits (then its
/// probabilities) head by head, and one head's per-tile partials. It grows
/// to the longest session the worker has seen and is reused for every
/// later one, with no heap traffic per unit.
#[derive(Default)]
struct Smem {
    q: Vec<f32>,
    logits: Vec<f32>,
    maxes: Vec<f32>,
    sums: Vec<f32>,
}

thread_local! {
    static SMEM: RefCell<Smem> = RefCell::new(Smem::default());
}

/// The first `n` elements of `buf`, growing it when it is shorter.
fn grow(buf: &mut Vec<f32>, n: usize) -> &mut [f32] {
    if buf.len() < n {
        buf.resize(n, 0.0);
    }
    &mut buf[..n]
}

/// One multiply-accumulate step, contracted or not per `FUSED`.
#[inline(always)]
fn mac<const FUSED: bool>(a: f32, b: f32, c: f32) -> f32 {
    if FUSED {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// What every session of a launch shares: the contraction mode, the
/// softmax key tile and the head count.
struct Launch {
    fused: bool,
    tile_n: usize,
    heads: usize,
}

impl Launch {
    /// One session's units, one per head: the query row in `smem.q`
    /// against `n` keys, key / value `j` of head `h` at `kv[0][at(h, j)..]`
    /// / `kv[1][at(h, j)..]`; writes the packed context row to `out`.
    fn run(&self, smem: &mut Smem, kv: [&[f32]; 2], n: usize, at: impl Fn(usize, usize) -> usize, out: &mut [f32]) {
        if self.fused {
            self.session::<true>(smem, kv, n, at, out);
        } else {
            self.session::<false>(smem, kv, n, at, out);
        }
    }

    /// [`Launch::run`] at a fixed contraction mode. Keys run outermost, so a
    /// block-table row is read front to back across the heads.
    fn session<const FUSED: bool>(
        &self,
        smem: &mut Smem,
        [k, v]: [&[f32]; 2],
        n: usize,
        at: impl Fn(usize, usize) -> usize,
        out: &mut [f32],
    ) {
        out.fill(0.0);
        if n == 0 {
            return;
        }
        let (heads, tile_n) = (self.heads, self.tile_n);
        let head = out.len() / heads;
        let Smem { q, logits, maxes, sums } = smem;
        let logits = grow(logits, heads * n);

        // Logits: per head, sixteen keys' chains side by side, each over
        // `p` ascending.
        for j0 in (0..n).step_by(KEY_BLOCK) {
            let keys = KEY_BLOCK.min(n - j0);
            for (h, (q, logits)) in q.chunks_exact(head).zip(logits.chunks_exact_mut(n)).enumerate() {
                let mut acc = [0.0f32; KEY_BLOCK];
                if keys == KEY_BLOCK {
                    let block: [&[f32]; KEY_BLOCK] = std::array::from_fn(|l| &k[at(h, j0 + l)..][..head]);
                    for (p, &qp) in q.iter().enumerate() {
                        for (a, key) in acc.iter_mut().zip(&block) {
                            *a = mac::<FUSED>(qp, key[p], *a);
                        }
                    }
                } else {
                    for (a, j) in acc.iter_mut().zip(j0..n) {
                        let key = &k[at(h, j)..][..head];
                        *a = q.iter().zip(key).fold(0.0, |a, (&qp, &x)| mac::<FUSED>(qp, x, a));
                    }
                }
                logits[j0..j0 + keys].copy_from_slice(&acc[..keys]);
            }
        }

        // Per head: partials per key tile, merged, then the probabilities.
        let tiles = n.div_ceil(tile_n);
        let (maxes, sums) = (grow(maxes, tiles), grow(sums, tiles));
        for logits in logits.chunks_exact_mut(n) {
            for ((m, s), seg) in maxes.iter_mut().zip(sums.iter_mut()).zip(logits.chunks(tile_n)) {
                (*m, *s) = tile_partials(seg);
            }
            let (max, inv_sum) = merge_partials(maxes, sums);
            for x in logits.iter_mut() {
                *x = normalize(*x, max, inv_sum);
            }
        }

        // P·V: keys outermost again, each value row read once, in place.
        for j in 0..n {
            for (h, out) in out.chunks_exact_mut(head).enumerate() {
                let (p, value) = (logits[h * n + j], &v[at(h, j)..][..head]);
                for (out, value) in out.chunks_mut(COL_BLOCK).zip(value.chunks(COL_BLOCK)) {
                    // A full block's fixed width compiles to straight
                    // vector code; a narrower head takes the general loop.
                    match (
                        <&mut [f32; COL_BLOCK]>::try_from(&mut *out),
                        <&[f32; COL_BLOCK]>::try_from(value),
                    ) {
                        (Ok(out), Ok(value)) => {
                            for (o, &x) in out.iter_mut().zip(value) {
                                *o = mac::<FUSED>(p, x, *o);
                            }
                        }
                        _ => {
                            for (o, &x) in out.iter_mut().zip(value) {
                                *o = mac::<FUSED>(p, x, *o);
                            }
                        }
                    }
                }
            }
        }
    }
}
