//! The skinny-`M` f32 driver: few rows of `A` against a `B` that is **read
//! in place** — a caller's row-major slice or a weight's [`PackedB`] panels.
//!
//! The packed driver in [`crate::blocked`] parallelises over 32-row panels
//! of `C`. That is the right trade when `M` rows amortise its `A` packing
//! and give every core a panel; at the auto-regressive decode step (`M` =
//! live sessions, a handful) it leaves one task for the whole product. This
//! driver is the CPU counterpart of cuBLAS's GEMV-shaped kernels for those
//! shapes:
//!
//! * only the tiny `A` is packed (once per launch, k-major, one micropanel
//!   per row group, into a process-wide grow-only buffer; `M = 1` is
//!   already that layout and is used as is);
//! * `B` is consumed straight from where it lives: a strip kernel reads
//!   element `(p, j)` at `p·ldb + (j / 16)·vs + j % 16`, so one kernel
//!   serves a row-major slice (`ldb = n`, `vs = 16`) and the 16-column
//!   panels of a [`PackedB`] (`ldb = 16`, `vs = 16·k`) — no allocation
//!   proportional to `k·n` either way;
//! * `C` is split into **column blocks**, one pool task per block, so every
//!   core streams its own share of the weights;
//! * inside a block the product runs `K`-chunk by `K`-chunk over
//!   [`SkinnyKernel::cols`]-wide strips (a multiple of 16, so a strip is
//!   whole panels) with a register tile specialised on the row count
//!   (`M = 8` does not pay for 16 rows; `M = 1` is a GEMV), the intrinsic
//!   tiers software-prefetching the next chunk's rows while the current one
//!   computes.
//!
//! Numerics: every output element is still one `p`-ascending
//! multiply-accumulate chain started from `0.0` — register tiles spilled to
//! the task's scratch between chunks round-trip exactly — and is finished by
//! the packed driver's `store_row`, so the result is **bitwise identical**
//! to the packed driver of the same [`crate::micro::MicroKernel::fused_fma`]
//! class, on either layout of `B` (`tests/skinny_differential.rs`).
//!
//! Safety story: the intrinsic kernels read `B` at `p·ldb + (j / 16)·vs +
//! j % 16` for exactly the `p < kc`, `j < cols` the safe wrapper
//! [`SkinnyKernel::run`] bounds against the slice it was handed; a strip
//! narrower than the tile uses masked loads (AVX-512 `k`-masks, AVX2
//! `vmaskmov`), which do not touch masked-off lanes, so nothing past
//! `b.len()` is ever read — a ragged raw slice needs that, panels are
//! zero-padded anyway. Prefetch addresses are formed with `wrapping_add` and
//! never dereferenced.

#![allow(unsafe_code)]

use crate::blocked::store_row;
use crate::grouped::TileEpilogue;
use crate::micro::{contract, pack_a_panel, SCALAR_FUSED_FMA};
use crate::packed::{BView, PANEL_NR};
use crate::scratch::{grow, LAUNCH, TASK};
use crate::store::DisjointWriter;
use rayon::prelude::*;

/// Largest `m` the shape-driven selection in `blocked.rs` sends here
/// (re-exported, hidden, for the tests and benches that pin the boundary).
/// Read off the `skinny` section of `BENCH_gemm.json` (`gemm_isa` bench,
/// both drivers pinned at the decode weight shapes, on `PackedB` weights —
/// what every layer GEMM reads): it is the largest row count there at which
/// this driver is no slower than the packed one on the widest tier, and the
/// packed driver does not win it on **every** tier. On PackedB the AVX-512
/// skinny driver still leads by 1.05–1.15× at 256 (two full runs) and
/// falls behind at 512; scalar and AVX2 read 0.79–1.00× at 256, so 256
/// stays. (Before weights were packed once, the packed driver repacked `B`
/// per launch and the AVX-512 lead at 256 was ~1.3×.)
/// End to end the constant decides nothing for `decode_paged` (8 rows) and
/// moves `serve_open` (51–256 rows per batch) the right way; EXPERIMENTS.md
/// has both tables.
pub const SKINNY_MAX_M: usize = 256;

/// `K` rows per chunk. A task sweeps its column block one `KC`-row slab of
/// `B` at a time: the slab is what later row groups re-read from cache, and
/// one slab is the prefetch distance. 16 rows × the widest block is an L1's
/// worth; in the `gemm_isa` sweep longer chunks lost 10–25 % of the `B`
/// stream rate at `M ≤ 16` and gained nothing above.
const KC: usize = 16;

/// Upper bound on a task's column-block width, in strips. Wide blocks read
/// long contiguous runs of each `B` row (what the stream rate wants); the
/// cap keeps a slab cache-resident whatever `n / lanes` is.
const MAX_BLOCK_STRIPS: usize = 16;

/// Raw strip kernel for `R` rows: continues the accumulation chains in
/// `acc` (`R × cols_per_strip`, row-major at full strip width) with
/// `acc[i][j] += a[p*R + i] · B(p, j)` for `p` in `0..kc` ascending and
/// `j < cols`, where `B(p, j)` is `b[p*ldb + (j / 16)*vs + j % 16]`; lanes
/// `j ≥ cols` hold don't-care values. `pf` rows ahead of each `B` row it
/// reads, the kernel may issue a prefetch.
///
/// # Safety
/// `a` must be valid for `kc*R` reads, `acc` for `R × strip width` reads
/// and writes, `b` for reads of `B(p, j)` for every `p < kc`, `j < cols`;
/// and the CPU must support the kernel's ISA.
type SkinnyFn =
    unsafe fn(kc: usize, a: *const f32, b: *const f32, ldb: usize, vs: usize, cols: usize, pf: usize, acc: *mut f32);

/// One ISA tier's family of row-count-specialised strip kernels.
pub(crate) struct SkinnyKernel {
    /// Rows of the tallest register tile (row groups are cut at this).
    pub rows: usize,
    /// Columns of one strip (the register tile's width), a multiple of 16.
    pub cols: usize,
    /// `funcs[r - 1]` is the kernel for an `r`-row group.
    funcs: &'static [SkinnyFn],
}

impl SkinnyKernel {
    /// Runs the `r`-row kernel over `kc` steps of one strip of `cols`
    /// columns; `b` starts at the strip's first element of the chunk's
    /// first row, `ldb` is `B`'s row stride and `vs` its 16-column stride.
    ///
    /// # Panics
    /// Panics if `r`/`cols` exceed the tile or a slice is too short for the
    /// extents the kernel reads.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn run(&self, r: usize, kc: usize, a: &[f32], b: BView<'_>, cols: usize, pf: usize, acc: &mut [f32]) {
        assert!((1..=self.rows).contains(&r) && (1..=self.cols).contains(&cols));
        assert!(b.ldb >= 1 && b.vs >= PANEL_NR, "strides out of range");
        assert!(a.len() >= kc * r, "A micropanel too short");
        // The last element read is `B(kc - 1, cols - 1)`; both strides are
        // positive, so every other one lies below it.
        let last = |kc: usize| (kc - 1) * b.ldb + ((cols - 1) / PANEL_NR) * b.vs + (cols - 1) % PANEL_NR;
        assert!(kc == 0 || b.data.len() > last(kc), "B strip too short");
        assert!(acc.len() >= r * self.cols, "accumulator tile too short");
        // SAFETY: extents asserted above; a kernel table is only reachable
        // through a `MicroKernel` of a tier `crate::dispatch` found on this
        // CPU.
        unsafe { (self.funcs[r - 1])(kc, a.as_ptr(), b.data.as_ptr(), b.ldb, b.vs, cols, pf, acc.as_mut_ptr()) }
    }
}

/// Runs `f` with `a`'s `m` rows packed for the strip kernels — group `g` a
/// `k × r` k-major micropanel at its own height (no zero rows) starting at
/// `g*rmax*k` — in a launch buffer. One row is that layout already.
fn with_packed_a<R>(a: &[f32], m: usize, k: usize, rmax: usize, f: impl FnOnce(&[f32]) -> R) -> R {
    if m == 1 {
        return f(&a[..k]);
    }
    LAUNCH.with(|buf| {
        let buf = grow(buf, m * k);
        for g0 in (0..m).step_by(rmax) {
            let r = rmax.min(m - g0);
            pack_a_panel(&mut buf[g0 * k..][..r * k], a, g0, r, k, r);
        }
        f(buf)
    })
}

/// `C = alpha * A·B` for few rows: see the module docs.
/// `kern` is the launch's strip family; `b` is `k×n`, row-major or panels
/// (`transb` is the packed driver's business). Shapes are validated by the
/// caller.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sgemm_skinny(
    kern: &SkinnyKernel,
    alpha: f32,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: BView<'_>,
    c: &mut [f32],
    epilogue: Option<&dyn TileEpilogue>,
) {
    debug_assert!(m > 0 && n > 0 && k > 0);
    let (rmax, w) = (kern.rows, kern.cols);
    let groups = m.div_ceil(rmax);
    let group_rows = |g: usize| rmax.min(m - g * rmax);

    // Column blocks: about two per pool lane (the launch cursor balances
    // them), whole strips, capped so a chunk's slab of B stays in cache.
    let lanes = rayon::current_num_threads().max(1);
    let block_strips = n.div_ceil(w).div_ceil(2 * lanes).clamp(1, MAX_BLOCK_STRIPS);
    let nb = block_strips * w;
    let writer = DisjointWriter::new(&mut c[..m * n]);

    with_packed_a(a, m, k, rmax, |a_pack| {
        (0..n.div_ceil(nb)).into_par_iter().for_each(|jb| {
            let j0 = jb * nb;
            let strips = nb.min(n - j0).div_ceil(w);
            TASK.with(|scratch| {
                // One `rmax × w` accumulator tile per (group, strip), spilled
                // here between K chunks.
                let tile_len = rmax * w;
                let acc = scratch.tile(groups * strips * tile_len);
                acc.fill(0.0);
                for p0 in (0..k).step_by(KC) {
                    let kc = KC.min(k - p0);
                    // Prefetch one chunk ahead, from the first row group only
                    // (later groups find the slab already in cache).
                    let pf = if p0 + kc < k { kc } else { 0 };
                    for s in 0..strips {
                        let col = j0 + s * w;
                        let cols = w.min(n - col);
                        let b_strip = BView {
                            data: b.at(p0, col),
                            ..b
                        };
                        for g in 0..groups {
                            let r = group_rows(g);
                            kern.run(
                                r,
                                kc,
                                &a_pack[g * rmax * k + p0 * r..][..kc * r],
                                b_strip,
                                cols,
                                if g == 0 { pf } else { 0 },
                                &mut acc[(g * strips + s) * tile_len..][..tile_len],
                            );
                        }
                    }
                }
                // Each row's share of the block is finished strip by strip,
                // then handed to the epilogue whole.
                let block_cols = nb.min(n - j0);
                for g in 0..groups {
                    for i in 0..group_rows(g) {
                        let row = g * rmax + i;
                        writer.update(row * n + j0, block_cols, |c_seg| {
                            for (s, c_strip) in c_seg.chunks_mut(w).enumerate() {
                                let acc_row = &acc[(g * strips + s) * tile_len + i * w..][..c_strip.len()];
                                store_row(c_strip, acc_row, alpha);
                            }
                            if let Some(epi) = epilogue {
                                epi.apply(0, row, j0, 1, block_cols, c_seg);
                            }
                        });
                    }
                }
            });
        });
    });
}

// --- scalar tier -----------------------------------------------------------

/// Strip width of the portable tier (one 64-byte line of `B` per step).
const SCALAR_W: usize = PANEL_NR;

/// Portable strip kernel, `R ≤ 4` rows × 16 columns (one cache line of `B`
/// wide, so a strip is one panel and `vs` is never needed): fixed bounds
/// unroll and autovectorize to whatever the build's target CPU offers;
/// contraction is pinned like the packed scalar kernel's
/// ([`SCALAR_FUSED_FMA`]). No prefetch — the tier stays portable safe code
/// past its slice construction.
///
/// # Safety
/// See [`SkinnyFn`].
#[allow(clippy::too_many_arguments)]
unsafe fn scalar_skinny<const R: usize, const FUSED: bool>(
    kc: usize,
    a: *const f32,
    b: *const f32,
    ldb: usize,
    _vs: usize,
    cols: usize,
    _pf: usize,
    acc: *mut f32,
) {
    if kc == 0 {
        return;
    }
    // SAFETY: caller guarantees exactly these extents (`cols ≤ 16`: one
    // 16-column group per row).
    let (a, b, acc) = unsafe {
        (
            std::slice::from_raw_parts(a, kc * R),
            std::slice::from_raw_parts(b, (kc - 1) * ldb + cols),
            std::slice::from_raw_parts_mut(acc, R * SCALAR_W),
        )
    };
    let mut c = [[0.0f32; SCALAR_W]; R];
    for (row, src) in c.iter_mut().zip(acc.chunks_exact(SCALAR_W)) {
        row.copy_from_slice(src);
    }
    // Two instances of one loop: the full-width one loads a fixed-size row
    // (a variable-length copy in the hot loop becomes a `memcpy` call that
    // spills every accumulator around it), the tail one stages through a
    // zero-padded row.
    if cols == SCALAR_W {
        scalar_steps::<R, FUSED>(&mut c, a, kc, |p| {
            *b[p * ldb..p * ldb + SCALAR_W].first_chunk().expect("full strip")
        });
    } else {
        scalar_steps::<R, FUSED>(&mut c, a, kc, |p| {
            let mut bp = [0.0f32; SCALAR_W];
            bp[..cols].copy_from_slice(&b[p * ldb..p * ldb + cols]);
            bp
        });
    }
    for (row, dst) in c.iter().zip(acc.chunks_exact_mut(SCALAR_W)) {
        dst.copy_from_slice(row);
    }
}

/// The `kc`-step accumulation of [`scalar_skinny`] over rows of `B` produced
/// by `b_row` (full-width or zero-padded).
#[inline(always)]
fn scalar_steps<const R: usize, const FUSED: bool>(
    c: &mut [[f32; SCALAR_W]; R],
    a: &[f32],
    kc: usize,
    b_row: impl Fn(usize) -> [f32; SCALAR_W],
) {
    for p in 0..kc {
        let ap: &[f32; R] = a[p * R..p * R + R].try_into().expect("R slice");
        let bp = b_row(p);
        for i in 0..R {
            for j in 0..SCALAR_W {
                c[i][j] = contract::<FUSED>(ap[i], bp[j], c[i][j]);
            }
        }
    }
}

pub(crate) static SCALAR_SKINNY: SkinnyKernel = SkinnyKernel {
    rows: 4,
    cols: SCALAR_W,
    funcs: &[
        scalar_skinny::<1, SCALAR_FUSED_FMA>,
        scalar_skinny::<2, SCALAR_FUSED_FMA>,
        scalar_skinny::<3, SCALAR_FUSED_FMA>,
        scalar_skinny::<4, SCALAR_FUSED_FMA>,
    ],
};

// --- AVX2 tier ---------------------------------------------------------------

/// AVX2+FMA strip kernel, `R ≤ 6` rows × 16 columns (one 16-column group,
/// so `vs` is never needed): `2R` `ymm` accumulators, two `B` vectors per
/// step shared by every row, one broadcast `A` element per row — at `R = 6`
/// the twelve FMAs per step the old 4 × 24 tile issued, in 15 registers. A narrow
/// strip takes the `vmaskmov` loop, which never touches lanes at or past
/// `cols`.
///
/// # Safety
/// See [`SkinnyFn`]; the CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn avx2_skinny<const R: usize>(
    kc: usize,
    a: *const f32,
    b: *const f32,
    ldb: usize,
    _vs: usize,
    cols: usize,
    pf: usize,
    acc: *mut f32,
) {
    use std::arch::x86_64::*;
    const V: usize = 2;
    // SAFETY: extents guaranteed by the caller contract; masked loads read
    // only lanes below `cols`; prefetch addresses are never dereferenced.
    unsafe {
        let mut c = [[_mm256_setzero_ps(); V]; R];
        for (i, row) in c.iter_mut().enumerate() {
            for (v, x) in row.iter_mut().enumerate() {
                *x = _mm256_loadu_ps(acc.add((i * V + v) * 8));
            }
        }
        // One k step of every row against the step's two B vectors.
        let fma_rows = |c: &mut [[__m256; V]; R], p: usize, bv: [__m256; V]| {
            for (i, row) in c.iter_mut().enumerate() {
                let ai = _mm256_set1_ps(*a.add(p * R + i));
                for (x, bvv) in row.iter_mut().zip(bv) {
                    *x = _mm256_fmadd_ps(ai, bvv, *x);
                }
            }
        };
        if cols == V * 8 {
            for p in 0..kc {
                let bp = b.add(p * ldb);
                let ahead = b.wrapping_add((p + pf) * ldb);
                _mm_prefetch::<_MM_HINT_T0>(ahead as *const i8);
                _mm_prefetch::<_MM_HINT_T0>(ahead.wrapping_add(V * 8 - 1) as *const i8);
                fma_rows(&mut c, p, [_mm256_loadu_ps(bp), _mm256_loadu_ps(bp.add(8))]);
            }
        } else {
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let mask = |v: usize| _mm256_cmpgt_epi32(_mm256_set1_epi32(cols as i32 - (v * 8) as i32), lane);
            let masks = [mask(0), mask(1)];
            for p in 0..kc {
                let bp = b.add(p * ldb);
                let bv = [
                    _mm256_maskload_ps(bp, masks[0]),
                    _mm256_maskload_ps(bp.wrapping_add(8), masks[1]),
                ];
                fma_rows(&mut c, p, bv);
            }
        }
        for (i, row) in c.iter().enumerate() {
            for (v, x) in row.iter().enumerate() {
                _mm256_storeu_ps(acc.add((i * V + v) * 8), *x);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) static AVX2_SKINNY: SkinnyKernel = SkinnyKernel {
    rows: 6,
    cols: 16,
    funcs: &[
        avx2_skinny::<1>,
        avx2_skinny::<2>,
        avx2_skinny::<3>,
        avx2_skinny::<4>,
        avx2_skinny::<5>,
        avx2_skinny::<6>,
    ],
};

// --- AVX-512 tier ------------------------------------------------------------

/// AVX-512F strip kernel, `R ≤ 8` rows × 48 columns: `3R` `zmm`
/// accumulators, three `B` vectors per step — one per 16-column group, `vs`
/// apart — shared by every row. Every `B` load is `k`-masked — a full mask
/// costs nothing, a partial or empty one leaves the lanes at or past `cols`
/// untouched — so one loop serves full and narrow strips.
///
/// # Safety
/// See [`SkinnyFn`]; the CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn avx512_skinny<const R: usize>(
    kc: usize,
    a: *const f32,
    b: *const f32,
    ldb: usize,
    vs: usize,
    cols: usize,
    pf: usize,
    acc: *mut f32,
) {
    use std::arch::x86_64::*;
    const V: usize = 3;
    let mask = |v: usize| -> __mmask16 {
        let live = cols.saturating_sub(v * 16).min(16);
        ((1u32 << live) - 1) as __mmask16
    };
    let masks = [mask(0), mask(1), mask(2)];
    // SAFETY: extents guaranteed by the caller contract; masked loads read
    // only lanes below `cols`; prefetch addresses are never dereferenced.
    unsafe {
        let mut c = [[_mm512_setzero_ps(); V]; R];
        for (i, row) in c.iter_mut().enumerate() {
            for (v, x) in row.iter_mut().enumerate() {
                *x = _mm512_loadu_ps(acc.add((i * V + v) * 16));
            }
        }
        for p in 0..kc {
            let bp = b.add(p * ldb);
            let ahead = b.wrapping_add((p + pf) * ldb);
            let mut bv = [_mm512_setzero_ps(); V];
            for (v, x) in bv.iter_mut().enumerate() {
                _mm_prefetch::<_MM_HINT_T0>(ahead.wrapping_add(v * vs) as *const i8);
                *x = _mm512_maskz_loadu_ps(masks[v], bp.wrapping_add(v * vs));
            }
            for (i, row) in c.iter_mut().enumerate() {
                let ai = _mm512_set1_ps(*a.add(p * R + i));
                for (x, &bvv) in row.iter_mut().zip(&bv) {
                    *x = _mm512_fmadd_ps(ai, bvv, *x);
                }
            }
        }
        for (i, row) in c.iter().enumerate() {
            for (v, x) in row.iter().enumerate() {
                _mm512_storeu_ps(acc.add((i * V + v) * 16), *x);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) static AVX512_SKINNY: SkinnyKernel = SkinnyKernel {
    rows: 8,
    cols: 48,
    funcs: &[
        avx512_skinny::<1>,
        avx512_skinny::<2>,
        avx512_skinny::<3>,
        avx512_skinny::<4>,
        avx512_skinny::<5>,
        avx512_skinny::<6>,
        avx512_skinny::<7>,
        avx512_skinny::<8>,
    ],
};
