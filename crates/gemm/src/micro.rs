//! Register-blocked microkernels — the shared innermost level of both the
//! blocked and grouped GEMM paths.
//!
//! This is the CPU analogue of the paper's register tile: an `MR×NR` block
//! of `C` lives entirely in registers while the full `K` extent streams
//! through it, so every loaded `A` element is reused `NR` times and every
//! `B` element `MR` times (the seed's axpy loops reused each `B` element
//! once). Operands are consumed from *packed micropanels* — k-major
//! interleaved buffers analogous to the staged shared-memory tiles of a GPU
//! kernel — which makes the inner loop two contiguous streams regardless of
//! a `B` transpose.
//!
//! The microkernel is a *family*: the portable scalar 4×16 kernel
//! (autovectorized under whatever `-C target-cpu` the build used), an
//! explicit AVX2+FMA 8×16 kernel, and an explicit AVX-512 16×16 kernel —
//! the CPU counterpart of the paper's hardware-wide CUTLASS tiles and
//! `__half2` SIMD2 vectorization (§III.C, §III.E). One kernel is selected
//! at runtime by [`crate::dispatch`]. Every tier is 16 columns wide
//! ([`crate::packed::PANEL_NR`]), so a weight packed once into a
//! [`crate::PackedB`] is every tier's `B` panel set and tiers can switch
//! mid-process; `MR` differs per kernel, so the packing routines here and
//! both drivers take the geometry as runtime parameters.
//!
//! Panel layout (for a kernel of geometry `mr×nr`):
//!
//! * `A` micropanel: `kc × mr`, element `(p, i)` at `a[p*mr + i]` — one
//!   panel per `mr`-row strip, short strips zero-padded.
//! * `B` micropanel: `kc × nr`, element `(p, j)` at `b[p*nr + j]` — one
//!   panel per `nr`-column strip, short strips zero-padded.
//!
//! Zero padding keeps the microkernels branch-free at the edges: padded
//! lanes compute zeros that callers simply never store. This is also the
//! safety invariant the intrinsic kernels rely on — they load full `nr`-wide
//! vectors unconditionally, which is in-bounds precisely because every
//! micropanel is allocated and packed at full tile width.

// Unsafe is confined to `MicroKernel::run`'s call through the kernel
// function pointer (soundness argument at the call site) and to the
// intrinsic kernels in `crate::isa`.
#![allow(unsafe_code)]

use crate::blocked::BOperand;
use crate::dispatch::Precision;
use crate::isa::Isa;
use crate::packed::PANEL_NR;
use crate::scratch::PanelElem;
use crate::skinny::SkinnyKernel;
use std::borrow::Cow;

/// Largest `MR` of any kernel in the family (the AVX-512 tile height).
/// Stack accumulators in the drivers are sized `MR_MAX × NR_MAX`.
pub const MR_MAX: usize = 16;
/// Largest `NR` of any kernel in the family (the AVX512-FP16 low-precision
/// tile width — see [`crate::lowp`]).
pub const NR_MAX: usize = 32;

/// Geometry of the portable scalar kernel.
pub(crate) const SCALAR_MR: usize = 4;
/// Geometry of the portable scalar kernel: the shared panel width.
pub(crate) const SCALAR_NR: usize = crate::packed::PANEL_NR;

/// Whether the scalar kernel contracts with hardware FMA. Decided **once,
/// at kernel definition**, from the features the *crate* was compiled with:
/// `mul_add` without hardware support lowers to a libm call, so the scalar
/// kernel only fuses when the build guarantees an `fma` instruction.
///
/// This constant is the fix for a latent PR 1 bug: the old `fmadd` helper
/// buried `cfg!(target_feature = "fma")` inside a shared `#[inline(always)]`
/// function, whose meaning would silently diverge if the helper were ever
/// inlined into a `#[target_feature]`-enabled caller (the `cfg!` is resolved
/// at crate compile time and ignores caller-enabled features). Contraction
/// is now an explicit, documented property of each kernel — the intrinsic
/// kernels always fuse (they *are* the FMA instructions), and the scalar
/// kernel's choice is pinned here and exported via
/// [`MicroKernel::fused_fma`] so tests can pick bitwise vs. tolerance
/// comparisons accordingly.
pub(crate) const SCALAR_FUSED_FMA: bool = cfg!(target_feature = "fma");

/// Raw microkernel entry point: `acc[i*nr + j] += Σ_p a[p*mr + i] ·
/// b[p*nr + j]` over `kc` steps, for the kernel's own `mr×nr` geometry.
///
/// # Safety
/// `a` must be valid for `kc*mr` reads, `b` for `kc*nr` reads, `acc` for
/// `mr*nr` reads and writes; and the CPU must support the kernel's ISA.
pub(crate) type KernelFn = unsafe fn(kc: usize, a: *const f32, b: *const f32, acc: *mut f32);

/// One member of the microkernel family: an ISA tier plus its register-tile
/// geometry and contraction mode, and its strip kernels for the skinny
/// driver. Obtain instances from [`crate::dispatch::active`] or
/// [`crate::isa::kernel_for`] — both hand out only tiers the host runs.
pub struct MicroKernel {
    /// The instruction-set tier this kernel is implemented in.
    pub isa: Isa,
    /// Rows of the register tile.
    pub mr: usize,
    /// Columns of the register tile.
    pub nr: usize,
    /// Whether multiply-accumulate is contracted (single rounding per
    /// step). All kernels of equal `fused_fma` produce **bitwise
    /// identical** stored elements for the same operands: every output
    /// element is one accumulation chain in `p`-order regardless of tile
    /// geometry, and padded lanes never reach a store.
    pub fused_fma: bool,
    pub(crate) func: KernelFn,
    /// The tier's row-count-specialised strip kernels ([`crate::skinny`]).
    pub(crate) skinny: &'static SkinnyKernel,
}

impl MicroKernel {
    /// Runs the kernel: `acc[i*nr + j] += Σ_p a[p*mr + i] · b[p*nr + j]`
    /// over `kc` steps. The accumulator block stays in registers for the
    /// whole `kc` loop.
    ///
    /// # Panics
    /// Panics if a micropanel or the accumulator is shorter than the
    /// kernel's geometry requires.
    #[inline]
    pub fn run(&self, kc: usize, a: &[f32], b: &[f32], acc: &mut [f32]) {
        assert!(a.len() >= kc * self.mr, "A micropanel too short");
        assert!(b.len() >= kc * self.nr, "B micropanel too short");
        assert!(acc.len() >= self.mr * self.nr, "accumulator too short");
        // SAFETY: lengths asserted above; a kernel is only handed out for an
        // ISA that `crate::dispatch` found on this CPU (scalar is
        // universally valid).
        unsafe { (self.func)(kc, a.as_ptr(), b.as_ptr(), acc.as_mut_ptr()) }
    }
}

/// What the packed dense driver needs from a kernel: its geometry, its
/// packed panel format, and its register-block kernel. Precision is only a
/// panel format — [`MicroKernel`] packs f32 panels and ignores scales,
/// [`crate::lowp::LowpKernel`] packs byte panels with per-row / per-column
/// scales and code sums — so the packed driver is one generic body,
/// monomorphised per implementation. The grouped engine is f32 at every
/// precision and calls [`MicroKernel`] and the f32 packers directly.
///
/// Scale slices hold one entry per panel row (`A`,
/// [`PanelKernel::a_scale_lanes`]) or column (`B`, `nr`), which f32 never
/// reads; every packer overwrites all lanes of its panel and scales, pads
/// included, so reused scratch needs no clearing.
pub(crate) trait PanelKernel: Sync {
    /// Element of a packed micropanel.
    type Elem: PanelElem;
    /// Whether panels carry scales and stage through conversion buffers.
    const NARROW: bool;
    /// The dispatch path: ISA tier and panel precision.
    fn path(&self) -> (Isa, Precision);
    /// The register tile, `(mr, nr)`.
    fn tile(&self) -> (usize, usize);
    /// Elements of one packed `A` and one packed `B` micropanel of depth `k`.
    fn panel_lens(&self, k: usize) -> (usize, usize);
    /// Packs `r ≤ mr` contiguous rows of length `k` (row `i` at
    /// `rows[i*k ..]`) into one `A` panel with their scales in `sa`, pad
    /// lanes neutral.
    fn pack_a_rows(&self, dst: &mut [Self::Elem], sa: &mut [f32], rows: &[f32], r: usize, k: usize, cvt: &mut [u16]);
    /// `b` in this kernel's panel format: ⌈n/nr⌉ panels of
    /// [`PanelKernel::panel_lens`]`(k).1` elements, each with `nr` scale /
    /// code-sum lanes when [`PanelKernel::NARROW`]. f32 borrows a
    /// [`crate::PackedB`]'s own panels (a raw slice is packed into them); a
    /// narrow format quantises `b` where it lies, once per launch.
    fn b_panels<'b>(&self, b: BOperand<'b>) -> BPanels<'b, Self::Elem>;
    /// Accumulates one register block over depth `k` into `acc`.
    #[allow(clippy::too_many_arguments)] // the full kernel operand set is the point
    fn run_block(
        &self,
        k: usize,
        a: &[Self::Elem],
        b: &[Self::Elem],
        acc: &mut [f32],
        sa: &[f32],
        sb: &[f32],
        colsum: &[i32],
    );
    /// Counts packed panel elements for telemetry (narrow formats only).
    fn count_pack_bytes(&self, _elems: usize) {}

    /// Scale lanes per `A` panel (one per row).
    fn a_scale_lanes(&self) -> usize {
        if Self::NARROW {
            self.tile().0
        } else {
            0
        }
    }

    /// Scale and code-sum lanes per `B` panel (one per column).
    fn b_scale_lanes(&self) -> usize {
        if Self::NARROW {
            self.tile().1
        } else {
            0
        }
    }
}

/// A launch's `B` in a kernel's panel format, with the per-column scales
/// and code sums of a narrow format (empty for f32).
pub(crate) struct BPanels<'b, E: Clone> {
    pub data: Cow<'b, [E]>,
    pub sb: Vec<f32>,
    pub colsum: Vec<i32>,
}

impl PanelKernel for MicroKernel {
    type Elem = f32;
    const NARROW: bool = false;

    fn path(&self) -> (Isa, Precision) {
        (self.isa, Precision::F32)
    }

    fn tile(&self) -> (usize, usize) {
        (self.mr, self.nr)
    }

    fn panel_lens(&self, k: usize) -> (usize, usize) {
        (k * self.mr, k * self.nr)
    }

    fn pack_a_rows(&self, dst: &mut [f32], _: &mut [f32], rows: &[f32], r: usize, k: usize, _: &mut [u16]) {
        interleave_rows(dst, rows, r, k, self.mr);
    }

    fn b_panels<'b>(&self, b: BOperand<'b>) -> BPanels<'b, f32> {
        debug_assert_eq!(self.nr, PANEL_NR, "every f32 tier reads the shared panel format");
        BPanels {
            data: match b.panels() {
                Cow::Borrowed(packed) => Cow::Borrowed(packed.panels()),
                Cow::Owned(packed) => Cow::Owned(packed.into_panels()),
            },
            sb: Vec::new(),
            colsum: Vec::new(),
        }
    }

    fn run_block(&self, k: usize, a: &[f32], b: &[f32], acc: &mut [f32], _: &[f32], _: &[f32], _: &[i32]) {
        self.run(k, a, b, acc);
    }
}

impl std::fmt::Debug for MicroKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MicroKernel")
            .field("isa", &self.isa)
            .field("mr", &self.mr)
            .field("nr", &self.nr)
            .field("fused_fma", &self.fused_fma)
            .finish()
    }
}

/// One explicit multiply-accumulate step with the contraction mode fixed by
/// the const parameter — never by the caller's (or a helper's) feature
/// context.
#[inline(always)]
pub(crate) fn contract<const FUSED: bool>(a: f32, b: f32, c: f32) -> f32 {
    if FUSED {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// The portable scalar kernel (4×16). With fixed loop bounds the two inner
/// loops fully unroll and autovectorize to whatever the build's target CPU
/// offers; `FUSED` pins the contraction mode per [`SCALAR_FUSED_FMA`].
///
/// # Safety
/// See [`KernelFn`].
pub(crate) unsafe fn scalar_kernel<const FUSED: bool>(kc: usize, a: *const f32, b: *const f32, acc: *mut f32) {
    // SAFETY: caller guarantees the panel and accumulator extents.
    let (a, b, acc) = unsafe {
        (
            std::slice::from_raw_parts(a, kc * SCALAR_MR),
            std::slice::from_raw_parts(b, kc * SCALAR_NR),
            std::slice::from_raw_parts_mut(acc, SCALAR_MR * SCALAR_NR),
        )
    };
    let mut c = [0.0f32; SCALAR_MR * SCALAR_NR];
    c.copy_from_slice(acc);
    for p in 0..kc {
        let ap: &[f32; SCALAR_MR] = a[p * SCALAR_MR..p * SCALAR_MR + SCALAR_MR]
            .try_into()
            .expect("MR slice");
        let bp: &[f32; SCALAR_NR] = b[p * SCALAR_NR..p * SCALAR_NR + SCALAR_NR]
            .try_into()
            .expect("NR slice");
        for i in 0..SCALAR_MR {
            let ai = ap[i];
            for j in 0..SCALAR_NR {
                c[i * SCALAR_NR + j] = contract::<FUSED>(ai, bp[j], c[i * SCALAR_NR + j]);
            }
        }
    }
    acc.copy_from_slice(&c);
}

/// Packs one `A` micropanel of an `mr`-row kernel: rows `row0 .. row0+r`
/// (`r ≤ mr`), the full `k` extent, from a row-major matrix of row length
/// `k`. Rows `r..mr` are zero lanes — every lane is overwritten, so reused
/// scratch needs no pre-clearing.
pub fn pack_a_panel(dst: &mut [f32], src: &[f32], row0: usize, r: usize, k: usize, mr: usize) {
    debug_assert!(dst.len() >= k * mr);
    debug_assert!(r <= mr);
    interleave_rows(dst, &src[row0 * k..(row0 + r) * k], r, k, mr);
}

/// Interleaves `r ≤ width` contiguous rows of length `k` (row `i` at
/// `rows[i*k ..]`) into a `k`-deep micropanel of `width` lanes, element
/// `(p, i)` at `dst[p*width + i]`, zeroing lanes `r..width` — an `A` panel's
/// rows, or a transposed `B` panel's columns. Panel order: each `k` step
/// reads one element of every row (`r` sequential streams) and writes one
/// contiguous stretch, so every panel cache line is written once — a
/// lane-by-lane scatter revisits each line `width` times, and a panel deeper
/// than L1 loses it in between.
pub(crate) fn interleave_rows(dst: &mut [f32], rows: &[f32], r: usize, k: usize, width: usize) {
    debug_assert!(r <= width && rows.len() >= r * k);
    for (p, lanes) in dst[..k * width].chunks_exact_mut(width).enumerate() {
        for (i, v) in lanes[..r].iter_mut().enumerate() {
            *v = rows[i * k + p];
        }
        lanes[r..].fill(0.0);
    }
}

/// Packs one `B` micropanel of an `nr`-column kernel: columns
/// `col0 .. col0+c` (`c ≤ nr`), the full `k` extent, from a row-major `k×n`
/// matrix (or `n×k` when `trans`). Columns `c..nr` are zero lanes — every
/// lane is overwritten, so reused scratch needs no pre-clearing.
#[allow(clippy::too_many_arguments)] // geometry params are the point
pub fn pack_b_panel(dst: &mut [f32], src: &[f32], trans: bool, col0: usize, c: usize, n: usize, k: usize, nr: usize) {
    debug_assert!(dst.len() >= k * nr);
    debug_assert!(c <= nr);
    if trans {
        // src is n×k: column `col` of B is the contiguous row src[col*k ..].
        interleave_rows(dst, &src[col0 * k..(col0 + c) * k], c, k, nr);
    } else {
        for p in 0..k {
            let s = &src[p * n + col0..p * n + col0 + c];
            let d = &mut dst[p * nr..p * nr + nr];
            d[..c].copy_from_slice(s);
            d[c..].fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::available_isas;
    use crate::isa;

    #[test]
    fn every_kernel_matches_naive() {
        let kc = 13;
        for tier in available_isas() {
            let kern = isa::kernel_for(tier).expect("available tier has a kernel");
            let (mr, nr) = (kern.mr, kern.nr);
            let a: Vec<f32> = (0..kc * mr).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..kc * nr).map(|i| (i as f32 * 0.51).cos()).collect();
            let mut acc = vec![1.0f32; mr * nr]; // nonzero start: must accumulate
            kern.run(kc, &a, &b, &mut acc);
            for i in 0..mr {
                for j in 0..nr {
                    let mut expect = 1.0f32;
                    for p in 0..kc {
                        expect += a[p * mr + i] * b[p * nr + j];
                    }
                    assert!(
                        (acc[i * nr + j] - expect).abs() < 1e-4,
                        "{tier:?} ({i},{j}): {} vs {expect}",
                        acc[i * nr + j]
                    );
                }
            }
        }
    }

    #[test]
    fn every_kernel_k_zero_is_identity() {
        for tier in available_isas() {
            let kern = isa::kernel_for(tier).unwrap();
            let mut acc = vec![3.0f32; kern.mr * kern.nr];
            kern.run(0, &[], &[], &mut acc);
            assert!(acc.iter().all(|&v| v == 3.0), "{tier:?} k=0 must be identity");
        }
    }

    #[test]
    fn geometry_bounded_by_maxima() {
        for tier in available_isas() {
            let kern = isa::kernel_for(tier).unwrap();
            assert!(kern.mr <= MR_MAX, "{tier:?} mr {} > MR_MAX", kern.mr);
            assert!(kern.nr <= NR_MAX, "{tier:?} nr {} > NR_MAX", kern.nr);
        }
    }

    #[test]
    fn pack_b_transposed_agrees_with_plain() {
        for nr in [8usize, 16] {
            let (n, k) = (21, 7);
            let b: Vec<f32> = (0..n * k).map(|i| (i * 3) as f32).collect();
            let mut b_t = vec![0.0f32; n * k];
            for p in 0..k {
                for j in 0..n {
                    b_t[j * k + p] = b[p * n + j];
                }
            }
            let c = 5;
            let mut plain = vec![f32::NAN; k * nr];
            let mut trans = vec![f32::NAN; k * nr];
            pack_b_panel(&mut plain, &b, false, 16, c, n, k, nr);
            pack_b_panel(&mut trans, &b_t, true, 16, c, n, k, nr);
            assert_eq!(plain, trans);
            assert_eq!(plain[c], 0.0);
        }
    }
}
