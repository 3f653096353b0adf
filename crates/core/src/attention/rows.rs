//! Algorithm III.2 as row dots: every decoder attention, each query row
//! reading its keys and values where they lie.
//!
//! A paged attention unit is one session's `q_len ≥ 1` newest query rows
//! against its keys: one row in a decode step, a chunk of rows in a
//! prefill (a teacher-forced target is one), both side by side in a mixed
//! step. A packed unit ([`super::causal`], [`super::cross`]) is one
//! sequence's rows against its own keys (causal) or its memory's (cross),
//! read from the packed `[heads, valid, head]` planes. On the grouped
//! engine
//! ([`super::fused_grouped`]) the session's K/V would first be gathered out
//! of the cache blocks into contiguous planes, a short unit would fill a
//! 64 × 64 tile and an `mr`-row micropanel, and each tile would pack 64
//! single-use keys. This form does the same arithmetic per row with none of
//! that copying or padding (the paper's first rule, §III.B–E, applied to
//! the M dimension):
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
//! A row reduces over exactly the keys its `KeyRange` lets it see, a prefix
//! of its unit's, and stops there; the engine masks the rest to `-inf`,
//! which adds exact zeros to every fold. A row's bits therefore do not
//! depend on how many rows share its unit, and every output is **bitwise**
//! the engine's on the same units (`tests/differential_decode.rs` checks
//! units of 1 … `kv_len` rows under both key ranges on every ISA tier), so
//! the paged decoder's prefill ≡ steps and block-size invariance hold, and
//! a row does not depend on its batch-mates. The arithmetic is f32 at every
//! precision tier, as Algorithm III.1's ([`super::fused_short`]) and the
//! engine's are.
//!
//! A row task's query row, logits and partials are an `Smem` checked out of
//! this kernel's process-wide [`bt_gemm::scratch::Pool`]: grow-only, never
//! freed, and warm for whichever thread runs the next launch.

use super::fused_grouped::{merge_partials, normalize, tile_partials};
use super::KeyRange;
use bt_device::{Device, KernelSpec};
use bt_gemm::dispatch;
use bt_gemm::grouped::GroupedConfig;
use bt_gemm::scratch::{grow, Pool};
use bt_tensor::Tensor;
use rayon::prelude::*;

/// Keys whose logit chains advance side by side: enough independent
/// multiply-adds to cover the FMA latency.
const KEY_BLOCK: usize = 16;
/// Head columns per `P·V` block.
const COL_BLOCK: usize = 64;

/// Where one session's keys and values lie for one layer.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SessionKv<'a> {
    /// Key / value `j` of head `h` at `h · plane + j · head` of `k` / `v`:
    /// `[heads, ·, head]` planes, `plane` elements apart.
    Planes { k: &'a [f32], v: &'a [f32], plane: usize },
    /// Token `t`'s `[heads · head]` K and V rows start at `rows[t]` of `k`
    /// and `v`: a layer's block storage, addressed through the session's
    /// block table.
    Blocks {
        k: &'a [f32],
        v: &'a [f32],
        rows: &'a [usize],
    },
}

/// Algorithm III.2 as row dots, in one launch named `name`: `units` holds
/// each session's `(q_len, kv_len)`, its query rows consecutive in `q`
/// (`[heads, rows, head]`, pre-scaled) in session order; one unit per
/// `(session, head)`, row `r` of a unit reducing over the first
/// `range.keys(r, q_len, kv_len)` keys. Returns the packed `[rows, heads ·
/// head]` context, bitwise the grouped engine's on the same units.
///
/// `kv` runs first inside the launch and says where each session's (or
/// sequence's) K/V lie; the paged decoder stores this forward's `stored` new K/V rows into
/// the cache there, so the append is part of the launch that reads them.
pub(crate) fn session_rows<'s>(
    device: &Device,
    name: &str,
    q: &Tensor,
    units: &[(usize, usize)],
    range: KeyRange,
    stored: usize,
    kv: impl FnOnce() -> Vec<SessionKv<'s>>,
) -> Tensor {
    let qd = q.dims();
    assert_eq!(qd.len(), 3, "Q must be [heads, rows, head]");
    let (heads, rows, head) = (qd[0], qd[1], qd[2]);
    let hidden = heads * head;
    let tile_n = GroupedConfig::default().tile_n;
    // Each query row's session and key count.
    let row_keys: Vec<(usize, usize)> = units
        .iter()
        .enumerate()
        .flat_map(|(s, &(q_len, kv_len))| (0..q_len).map(move |r| (s, range.keys(r, q_len, kv_len))))
        .collect();
    assert_eq!(row_keys.len(), rows, "units must cover Q's rows");

    // The engine's arithmetic per row over the keys it sees (two row GEMMs,
    // the epilogue's max / exp / sum, the merge, the normalisation); every
    // session's K/V rows read once, Q, the context and the rows the launch
    // stores.
    let flops: u64 = row_keys
        .iter()
        .map(|&(_, n)| (heads * (4 * n * head + 5 * n + 3 * n.div_ceil(tile_n).max(1))) as u64)
        .sum();
    let kv_bytes: u64 = units.iter().map(|&(_, n)| (2 * n * hidden * 4) as u64).sum();
    let (row_bytes, stored_bytes) = ((rows * hidden * 4) as u64, (2 * stored * hidden * 4) as u64);
    let spec = KernelSpec::new(name)
        .flops(flops)
        .reads(row_bytes + kv_bytes + stored_bytes)
        .writes(row_bytes + stored_bytes);

    let out = device.launch(spec, || {
        let kv = kv();
        assert_eq!(kv.len(), units.len(), "one K/V source per session");
        // One kernel per launch: every task agrees on the contraction mode
        // even if the process-wide selection changes mid-flight.
        let launch = Launch {
            fused: dispatch::active().micro.fused_fma,
            tile_n,
            heads,
        };
        let qs = q.as_slice();
        let mut out = vec![0.0f32; rows * hidden];
        // One task per query row, its heads inside.
        out.par_chunks_mut(hidden).enumerate().for_each(|(i, ctx)| {
            SMEM.with(|smem| {
                // The query row, heads side by side.
                let q = grow(&mut smem.q, hidden);
                for (h, q) in q.chunks_exact_mut(head).enumerate() {
                    q.copy_from_slice(&qs[(h * rows + i) * head..][..head]);
                }
                let (s, n) = row_keys[i];
                match kv[s] {
                    SessionKv::Planes { k, v, plane } => {
                        launch.run(smem, [k, v], n, |h, j| h * plane + j * head, ctx);
                    }
                    SessionKv::Blocks { k, v, rows: starts } => {
                        launch.run(smem, [k, v], n, |h, j| starts[j] + h * head, ctx);
                    }
                }
            });
        });
        out
    });
    Tensor::from_vec(out, [rows, hidden]).expect("shape consistent")
}

/// A task's scratch: the query row, its logits (then its probabilities)
/// head by head, and one head's per-tile partials. It grows to the most
/// keys of any row it has served and is reused for every later row, with no
/// heap traffic per unit.
#[derive(Default)]
struct Smem {
    q: Vec<f32>,
    logits: Vec<f32>,
    maxes: Vec<f32>,
    sums: Vec<f32>,
}

/// Every launch's `Smem`s: one per concurrent task, process-wide and
/// grow-only (see [`bt_gemm::scratch`]).
static SMEM: Pool<Smem> = Pool::new();

/// One multiply-accumulate step, contracted or not per `FUSED`.
#[inline(always)]
fn mac<const FUSED: bool>(a: f32, b: f32, c: f32) -> f32 {
    if FUSED {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// What every row of a launch shares: the contraction mode, the softmax
/// key tile and the head count.
struct Launch {
    fused: bool,
    tile_n: usize,
    heads: usize,
}

impl Launch {
    /// One query row's units, one per head: the row in `smem.q` against its
    /// first `n` keys, key / value `j` of head `h` at `kv[0][at(h, j)..]`
    /// / `kv[1][at(h, j)..]`; writes the packed context row to `out`.
    fn run(&self, smem: &mut Smem, kv: [&[f32]; 2], n: usize, at: impl Fn(usize, usize) -> usize, out: &mut [f32]) {
        if self.fused {
            self.row::<true>(smem, kv, n, at, out);
        } else {
            self.row::<false>(smem, kv, n, at, out);
        }
    }

    /// [`Launch::run`] at a fixed contraction mode. Keys run outermost, so a
    /// block-table row is read front to back across the heads.
    fn row<const FUSED: bool>(
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
