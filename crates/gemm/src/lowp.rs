//! Low-precision microkernel family — the [`crate::dispatch::Precision`]
//! axis of runtime dispatch.
//!
//! This is the measured CPU realization of the paper's §III.C SIMD2
//! `half2` path: packed panels are stored half-width (f16) or
//! quarter-width (int8) and expanded *in-register* inside the microkernel,
//! so the bytes streaming through the cache hierarchy shrink by 2–4× while
//! the accumulation stays f32 (or exact i32 for int8). Packing always uses
//! the best conversion hardware the host has (F16C `vcvtps2ph` for f16),
//! independent of the compute ISA tier — the software [`bt_tensor::half::f16`]
//! conversion is round-to-nearest-even and bitwise identical to the
//! hardware instruction, which keeps scalar and vector tiers comparable.
//!
//! One implementation per precision × ISA tier: scalar 8×8 for both, AVX2
//! 8×8 (F16C widen + FMA; `pmaddwd` pairs), and on AVX-512 a 16×32
//! `vfmadd231ph` f16 kernel (AVX512-FP16) and a 16×16 `vpdpbusd` int8 one
//! (VNNI). Which runs is [`crate::dispatch`]'s decision.
//!
//! Numeric contract (what the differential suite asserts):
//!
//! * Implementations with the same [`Chain`] are **bitwise identical** for
//!   identical operands: the packed codes are identical (one documented
//!   conversion per element), and every output element is one f32
//!   accumulation chain in `p`-order.
//! * `int8` is bitwise identical across **all three** tiers: quantized
//!   codes are identical, integer dots are exact, and dequantization is the
//!   fixed sequence `acc + (sa[i]·sb[j])·(dot as f32)` — three roundings in
//!   the same order everywhere.
//! * The AVX512-FP16 kernel accumulates in f16 within chunks of ≤ 128
//!   k-steps (promoted to f32 between chunks), so it is its own
//!   [`Chain::ChunkedF16`] class, compared by [`dot_error_bound`] only.
//!
//! int8 quantization scheme (symmetric, per-A-row / per-B-column):
//! `sa = rowmax/127` (1.0 when the row is all-zero/non-normal), code
//! `q = round_ties_even(x/sa)` clamped to ±127, NaN → 0. The VNNI kernel
//! needs unsigned A operands, so A codes are stored biased (`q+128` as u8,
//! zero-pad code 128) and the bias is removed exactly with per-column code
//! sums: `dot = acc_u − 128·colsum[j]`.
//!
//! Precision is only a panel format: [`LowpKernel`] implements the same
//! pack/kernel trait as the f32 [`crate::micro::MicroKernel`], so the packed
//! dense driver is one generic body for every tier. (The grouped engine is
//! f32 only: attention never runs on these kernels.)

// Unsafe is confined to the `#[target_feature]` intrinsic kernels, one
// `asm!` kernel, and the raw-slice plumbing of the scalar kernels.
#![allow(unsafe_code)]

use crate::blocked::{count_b_pack, BOperand};
use crate::dispatch::{host, Precision};
use crate::isa::Isa;
use crate::micro::{contract, BPanels, PanelKernel, SCALAR_FUSED_FMA};
use crate::packed::{BView, PackedB};
use crate::scratch::TASK;
use bt_tensor::half::f16;
use rayon::prelude::*;
use std::borrow::Cow;

/// Accumulation-chain class of a kernel. Implementations with equal chains
/// produce bitwise-identical stored elements for identical operands;
/// different chains are compared within [`dot_error_bound`] /
/// [`int8_dot_error_bound`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chain {
    /// Convert to f32, fused multiply-add in `p`-order.
    FusedF32,
    /// Convert to f32, separate mul + add in `p`-order (scalar builds
    /// without guaranteed FMA).
    UnfusedF32,
    /// Exact i32 dot + fixed three-rounding dequantization.
    ExactInt,
    /// f16 accumulation in ≤128-step chunks, f32 between chunks (the
    /// AVX512-FP16 `vfmadd231ph` kernel). Tolerance-only comparisons.
    ChunkedF16,
}

/// Storage layout of a packed low-precision `A` micropanel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AFmt {
    /// f16 bits duplicated into both halves of a dword: u32 at `p*mr + i`
    /// holding `h | (h << 16)` — one `vpbroadcastd` yields a 32-lane
    /// `h`-pair vector for `vfmadd231ph`.
    F16Dup,
    /// Plain f16 bits: u16 at `p*mr + i`.
    F16,
    /// Biased int8 codes (`q+128`) in k-quads for `vpdpbusd`: u8 at
    /// `(p/4)*mr*4 + i*4 + p%4`, zero-pad code 128.
    U8Quads,
    /// Signed codes widened to i16 in k-pairs for `pmaddwd`: i16 at
    /// `(p/2)*mr*2 + i*2 + p%2`, zero-pad 0.
    I16Pairs,
    /// Plain signed codes: i8 at `p*mr + i`.
    I8,
}

/// Storage layout of a packed low-precision `B` micropanel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BFmt {
    /// f16 bits: u16 at `p*nr + j`.
    F16,
    /// Signed codes in k-groups of `k_step`: i8 at
    /// `(p/ks)*nr*ks + j*ks + p%ks` (`ks = 1` degenerates to `p*nr + j`).
    I8Quads,
}

/// Raw low-precision kernel entry: `kq` is the number of packed k-groups
/// (`padded_k / k_step`); `acc[i*nr + j] +=` the dequantized dot. `sa`,
/// `sb`, `colsum` are only read by int8 kernels.
///
/// # Safety
/// `a`/`b` must cover the packed panel byte extents for `kq` groups, `acc`
/// must cover `mr*nr` f32, int8 kernels additionally need `sa`/`sb`/`colsum`
/// at `mr`/`nr`/`nr` — and the CPU must support the kernel's features.
type LowpKernelFn =
    unsafe fn(kq: usize, a: *const u8, b: *const u8, acc: *mut f32, sa: *const f32, sb: *const f32, colsum: *const i32);

/// One member of the low-precision kernel family: a precision × ISA
/// implementation with its geometry, packing formats and chain class.
/// Obtain instances from [`lowp_impl`] or [`crate::dispatch::active`].
pub struct LowpKernel {
    /// Storage precision of the packed panels.
    pub prec: Precision,
    /// ISA tier of the implementation.
    pub isa: Isa,
    /// Rows of the register tile.
    pub mr: usize,
    /// Columns of the register tile.
    pub nr: usize,
    /// k-group size of the packed layout (1, 2 or 4). Panels are padded to
    /// a multiple of this with neutral codes.
    pub k_step: usize,
    /// Accumulation-chain class (drives bitwise vs tolerance comparison).
    pub chain: Chain,
    a_fmt: AFmt,
    b_fmt: BFmt,
    func: LowpKernelFn,
}

impl LowpKernel {
    /// `k` rounded up to a whole number of k-groups.
    pub fn padded_k(&self, k: usize) -> usize {
        k.div_ceil(self.k_step) * self.k_step
    }

    /// Byte length of one packed `A` micropanel for depth `k`.
    pub fn a_panel_bytes(&self, k: usize) -> usize {
        let elem_bytes = match self.a_fmt {
            AFmt::F16Dup => 4,
            AFmt::F16 | AFmt::I16Pairs => 2,
            AFmt::U8Quads | AFmt::I8 => 1,
        };
        self.padded_k(k) * self.mr * elem_bytes
    }

    /// Byte length of one packed `B` micropanel for depth `k`.
    pub fn b_panel_bytes(&self, k: usize) -> usize {
        let elem_bytes = if self.b_fmt == BFmt::F16 { 2 } else { 1 };
        self.padded_k(k) * self.nr * elem_bytes
    }
}

impl std::fmt::Debug for LowpKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LowpKernel")
            .field("prec", &self.prec)
            .field("isa", &self.isa)
            .field("mr", &self.mr)
            .field("nr", &self.nr)
            .field("k_step", &self.k_step)
            .field("chain", &self.chain)
            .finish()
    }
}

impl PanelKernel for LowpKernel {
    type Elem = u8;
    const NARROW: bool = true;

    fn path(&self) -> (Isa, Precision) {
        (self.isa, self.prec)
    }

    fn tile(&self) -> (usize, usize) {
        (self.mr, self.nr)
    }

    fn panel_lens(&self, k: usize) -> (usize, usize) {
        (self.a_panel_bytes(k), self.b_panel_bytes(k))
    }

    fn pack_a_rows(&self, dst: &mut [u8], sa: &mut [f32], rows: &[f32], r: usize, k: usize, cvt: &mut [u16]) {
        for (i, sa) in sa[..self.mr].iter_mut().enumerate() {
            *sa = if i < r {
                pack_a_row_lowp(self, dst, &rows[i * k..(i + 1) * k], i, cvt)
            } else {
                pack_a_pad_row_lowp(self, dst, i, k);
                1.0
            };
        }
    }

    /// Quantises `b` into this format, one parallel task per panel: the
    /// per-launch `B` work a narrow precision still does. A weight's panels
    /// and an untransposed raw slice are read where they lie; a transposed
    /// slice is packed into f32 panels first.
    fn b_panels<'b>(&self, b: BOperand<'b>) -> BPanels<'b, u8> {
        let ((k, n), nr) = (b.dims(), self.nr);
        let packed;
        let src = if b.transb() {
            packed = b.panels();
            BView::panels(&packed)
        } else {
            b.view()
        };
        let n_panels = n.div_ceil(nr);
        let bpl = self.b_panel_bytes(k);
        let mut data = vec![0u8; n_panels * bpl];
        let mut sb = vec![0.0f32; n_panels * nr];
        let mut colsum = vec![0i32; n_panels * nr];
        data.par_chunks_mut(bpl)
            .zip(sb.par_chunks_mut(nr))
            .zip(colsum.par_chunks_mut(nr))
            .enumerate()
            .for_each(|(jb, ((dst, sb), colsum))| {
                let col0 = jb * nr;
                TASK.with(|scratch| {
                    let cvt = scratch.panels(self, k, 0, 0, 0, 0).cvt;
                    pack_b_view(self, dst, sb, colsum, src, k, col0, nr.min(n - col0), cvt);
                });
            });
        self.count_pack_bytes(n_panels * bpl);
        count_b_pack();
        BPanels {
            data: Cow::Owned(data),
            sb,
            colsum,
        }
    }

    /// Runs the kernel over `k` (unpadded) steps:
    /// `acc[i*nr + j] += dequant(Σ_p A[i,p]·B[p,j])`.
    ///
    /// # Panics
    /// Panics if a panel, the accumulator, or (for int8) a scale/colsum
    /// slice is shorter than the geometry requires.
    fn run_block(&self, k: usize, a: &[u8], b: &[u8], acc: &mut [f32], sa: &[f32], sb: &[f32], colsum: &[i32]) {
        if k == 0 {
            return;
        }
        assert!(a.len() >= self.a_panel_bytes(k), "A micropanel too short");
        assert!(b.len() >= self.b_panel_bytes(k), "B micropanel too short");
        assert!(acc.len() >= self.mr * self.nr, "accumulator too short");
        if self.prec == Precision::Int8 {
            assert!(sa.len() >= self.mr, "A scales too short");
            assert!(sb.len() >= self.nr, "B scales too short");
            assert!(colsum.len() >= self.nr, "colsum too short");
        }
        let kq = self.padded_k(k) / self.k_step;
        // SAFETY: extents asserted above; a kernel is only handed out for a
        // `prec × isa` that `crate::dispatch` found on this CPU.
        unsafe {
            (self.func)(
                kq,
                a.as_ptr(),
                b.as_ptr(),
                acc.as_mut_ptr(),
                sa.as_ptr(),
                sb.as_ptr(),
                colsum.as_ptr(),
            )
        }
    }

    fn count_pack_bytes(&self, elems: usize) {
        if bt_obs::enabled() {
            let name = format!("{}{}", bt_obs::names::GEMM_LOWP_PACK_BYTES_PREFIX, self.prec);
            bt_obs::counter(&name).add(elems as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Conversion helpers
// ---------------------------------------------------------------------------

/// f32 → f16 bits, round-to-nearest-even. Bitwise identical to hardware
/// `vcvtps2ph` (the slice variant below uses the instruction when present).
pub fn f16_bits(x: f32) -> u16 {
    f16::from_f32(x).to_bits()
}

/// The int8 symmetric scale for a vector with absolute maximum `maxabs`:
/// `maxabs/127`, or 1.0 when that is zero/subnormal/non-finite (all-zero
/// rows quantize to all-zero codes either way; a non-normal scale would
/// poison the dequantization).
pub fn int8_scale(maxabs: f32) -> f32 {
    let s = maxabs / 127.0;
    if s.is_normal() {
        s
    } else {
        1.0
    }
}

/// Quantizes one value with the reciprocal scale: round-to-nearest-even,
/// clamped to ±127 (−128 is never produced), NaN → 0.
pub fn quantize_i8(x: f32, inv_scale: f32) -> i8 {
    // NaN propagates through clamp and saturates to 0 in the cast.
    (x * inv_scale).round_ties_even().clamp(-127.0, 127.0) as i8
}

/// Converts an f32 slice to f16 bits, round-to-nearest-even, using F16C
/// `vcvtps2ph` when the host has it (bitwise identical to the software
/// path — asserted by a unit test sweeping all rounding classes).
pub fn f32_to_f16_bits_slice(dst: &mut [u16], src: &[f32]) {
    assert!(dst.len() >= src.len());
    #[cfg(target_arch = "x86_64")]
    if host().f16c {
        // SAFETY: f16c verified present on this CPU.
        unsafe { f16_cvt_slice_f16c(&mut dst[..src.len()], src) };
        return;
    }
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = f16_bits(x);
    }
}

/// # Safety
/// CPU must support F16C; `dst.len() >= src.len()` (checked by the caller).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "f16c")]
unsafe fn f16_cvt_slice_f16c(dst: &mut [u16], src: &[f32]) {
    use std::arch::x86_64::*;
    let n = src.len();
    let chunks = n / 8;
    // SAFETY: each 8-lane load/store is within the slices' extents.
    unsafe {
        for c in 0..chunks {
            let v = _mm256_loadu_ps(src.as_ptr().add(c * 8));
            let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v);
            _mm_storeu_si128(dst.as_mut_ptr().add(c * 8) as *mut _, h);
        }
    }
    for i in chunks * 8..n {
        dst[i] = f16_bits(src[i]);
    }
}

/// Absolute maximum of a slice, NaN entries skipped (like a fold over
/// `f32::max`, which returns the other operand on NaN) — the scale pass of
/// the int8 quantizer, through `maxabs_lanes` 16 lanes at a time (`max`
/// over the non-NaN values is order-independent, so every path agrees).
pub fn maxabs_f32(src: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 16];
    for chunk in src.chunks(16) {
        maxabs_lanes(&mut lanes[..chunk.len()], chunk);
    }
    lanes.into_iter().fold(0.0, f32::max)
}

/// Lane-wise `acc[j] = max(acc[j], |src[j]|)` — the streaming (row-major
/// friendly) form of the B-panel scale pass. NaN lanes are skipped, like
/// `f32::max`.
fn maxabs_lanes(acc: &mut [f32], src: &[f32]) {
    debug_assert_eq!(acc.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if host().avx512f {
        // SAFETY: avx512f verified present.
        unsafe { maxabs_lanes_avx512(acc, src) };
        return;
    }
    for (a, &x) in acc.iter_mut().zip(src) {
        *a = a.max(x.abs());
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn maxabs_lanes_avx512(acc: &mut [f32], src: &[f32]) {
    use std::arch::x86_64::*;
    let absmask = _mm512_set1_epi32(0x7FFF_FFFF);
    let mut done = 0;
    while done < src.len() {
        let len = 16.min(src.len() - done);
        let m = ((1u32 << len) - 1) as __mmask16;
        // SAFETY: masked ops touch exactly `len` in-bounds lanes.
        unsafe {
            let x = _mm512_maskz_loadu_ps(m, src.as_ptr().add(done));
            let a = _mm512_maskz_loadu_ps(m, acc.as_ptr().add(done));
            let ax = _mm512_castsi512_ps(_mm512_and_si512(_mm512_castps_si512(x), absmask));
            let r = _mm512_max_ps(ax, a); // NaN |x| lane → keeps `a`
            _mm512_mask_storeu_ps(acc.as_mut_ptr().add(done), m, r);
        }
        done += len;
    }
}

/// Quantizes a slice with one reciprocal scale, through
/// `quantize_i8_lanes` 16 lanes at a time — bitwise identical to
/// [`quantize_i8`] per element.
pub fn quantize_i8_slice(dst: &mut [i8], src: &[f32], inv_scale: f32) {
    assert!(dst.len() >= src.len());
    let inv = [inv_scale; 16];
    for (d, x) in dst.chunks_mut(16).zip(src.chunks(16)) {
        quantize_i8_lanes(&mut d[..x.len()], x, &inv[..x.len()]);
    }
}

/// One 16-lane quantize step: clamp(t) then RNE convert, NaN → 0.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn quantize16(t: std::arch::x86_64::__m512) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    // Pure register ops under the caller's avx512f guarantee.
    let ord = _mm512_cmp_ps_mask::<_CMP_ORD_Q>(t, t);
    let clamped = _mm512_min_ps(_mm512_max_ps(t, _mm512_set1_ps(-127.0)), _mm512_set1_ps(127.0));
    let z = _mm512_maskz_mov_ps(ord, clamped);
    _mm512_cvtepi32_epi8(_mm512_cvtps_epi32(z))
}

/// Quantizes with per-lane reciprocal scales (the B panel's per-column
/// symmetric scales). Bitwise identical to [`quantize_i8`] per lane (the
/// AVX-512 path clamps in the float domain, which commutes with
/// round-to-nearest-even at ±127.5, zeroes NaN lanes the way `as i8` does,
/// then does one RNE convert).
fn quantize_i8_lanes(dst: &mut [i8], src: &[f32], inv: &[f32]) {
    debug_assert!(dst.len() == src.len() && src.len() == inv.len());
    #[cfg(target_arch = "x86_64")]
    if host().avx512f {
        // SAFETY: avx512f verified present.
        unsafe { quantize_i8_lanes_avx512(dst, src, inv) };
        return;
    }
    for ((d, &x), &v) in dst.iter_mut().zip(src).zip(inv) {
        *d = quantize_i8(x, v);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn quantize_i8_lanes_avx512(dst: &mut [i8], src: &[f32], inv: &[f32]) {
    use std::arch::x86_64::*;
    let mut done = 0;
    while done < src.len() {
        let len = 16.min(src.len() - done);
        let m = ((1u32 << len) - 1) as __mmask16;
        // SAFETY: masked loads touch exactly `len` in-bounds lanes; the
        // byte store bounces through a stack buffer.
        unsafe {
            let x = _mm512_maskz_loadu_ps(m, src.as_ptr().add(done));
            let v = _mm512_maskz_loadu_ps(m, inv.as_ptr().add(done));
            let q = quantize16(_mm512_mul_ps(x, v));
            let mut out = [0i8; 16];
            _mm_storeu_si128(out.as_mut_ptr() as *mut _, q);
            dst[done..done + len].copy_from_slice(&out[..len]);
        }
        done += len;
    }
}

// Packed panels live in byte arenas (no alignment guarantee — kernels use
// unaligned loads throughout); multi-byte codes are little-endian, the
// native order of every ISA with an intrinsic kernel.
#[inline(always)]
fn put_u16(dst: &mut [u8], idx: usize, v: u16) {
    dst[idx * 2..idx * 2 + 2].copy_from_slice(&v.to_le_bytes());
}

#[inline(always)]
fn put_u32(dst: &mut [u8], idx: usize, v: u32) {
    dst[idx * 4..idx * 4 + 4].copy_from_slice(&v.to_le_bytes());
}

#[inline(always)]
fn get_u16(src: &[u8], idx: usize) -> u16 {
    u16::from_le_bytes([src[idx * 2], src[idx * 2 + 1]])
}

/// Stores a run of u16 codes at consecutive indices starting at `idx0` —
/// one contiguous byte copy on little-endian hosts (panels are LE).
#[inline(always)]
fn store_u16_run(dst: &mut [u8], idx0: usize, vals: &[u16]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: every bit pattern is a valid u8; the length is exact.
        let (_, bytes, _) = unsafe { vals.align_to::<u8>() };
        dst[idx0 * 2..idx0 * 2 + bytes.len()].copy_from_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    for (j, &v) in vals.iter().enumerate() {
        put_u16(dst, idx0 + j, v);
    }
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Packs one staged `A` row (`row.len() == k`) into lane `i` of a packed
/// panel, returning the row's dequantization scale (1.0 for float
/// precisions). `cvt` is conversion scratch of at least `k` u16.
pub fn pack_a_row_lowp(kern: &LowpKernel, dst: &mut [u8], row: &[f32], i: usize, cvt: &mut [u16]) -> f32 {
    let k = row.len();
    let mr = kern.mr;
    debug_assert!(dst.len() >= kern.a_panel_bytes(k));
    debug_assert!(i < mr);
    match kern.a_fmt {
        AFmt::F16Dup => {
            f32_to_f16_bits_slice(cvt, row);
            for (p, &h) in cvt[..k].iter().enumerate() {
                let h = h as u32;
                put_u32(dst, p * mr + i, h | (h << 16));
            }
            1.0
        }
        AFmt::F16 => {
            f32_to_f16_bits_slice(cvt, row);
            for (p, &h) in cvt[..k].iter().enumerate() {
                put_u16(dst, p * mr + i, h);
            }
            1.0
        }
        AFmt::U8Quads | AFmt::I16Pairs | AFmt::I8 => {
            let sa = int8_scale(maxabs_f32(row));
            let inv = sa.recip();
            let pk = kern.padded_k(k);
            // Quantize the row in vectorized chunks, then scatter the codes
            // into the strided layout (byte moves only; `+128` biasing is a
            // sign-bit flip).
            let mut q = [0i8; 256];
            let mut p0 = 0usize;
            while p0 < k {
                let len = q.len().min(k - p0);
                quantize_i8_slice(&mut q[..len], &row[p0..p0 + len], inv);
                match kern.a_fmt {
                    AFmt::U8Quads => {
                        for (o, &qv) in q[..len].iter().enumerate() {
                            let p = p0 + o;
                            dst[(p / 4) * mr * 4 + i * 4 + p % 4] = (qv as u8) ^ 0x80;
                        }
                    }
                    AFmt::I16Pairs => {
                        for (o, &qv) in q[..len].iter().enumerate() {
                            let p = p0 + o;
                            put_u16(dst, (p / 2) * mr * 2 + i * 2 + p % 2, qv as i16 as u16);
                        }
                    }
                    _ => {
                        for (o, &qv) in q[..len].iter().enumerate() {
                            dst[(p0 + o) * mr + i] = qv as u8;
                        }
                    }
                }
                p0 += len;
            }
            match kern.a_fmt {
                AFmt::U8Quads => {
                    for p in k..pk {
                        dst[(p / 4) * mr * 4 + i * 4 + p % 4] = 128;
                    }
                }
                AFmt::I16Pairs => {
                    for p in k..pk {
                        put_u16(dst, (p / 2) * mr * 2 + i * 2 + p % 2, 0);
                    }
                }
                _ => {}
            }
            sa
        }
    }
}

/// Writes neutral codes into pad lane `i` (rows `r..mr` of a short strip)
/// across the whole padded-`k` extent. The matching scale is 1.0.
pub fn pack_a_pad_row_lowp(kern: &LowpKernel, dst: &mut [u8], i: usize, k: usize) {
    let mr = kern.mr;
    let pk = kern.padded_k(k);
    match kern.a_fmt {
        AFmt::F16Dup => {
            for p in 0..pk {
                put_u32(dst, p * mr + i, 0);
            }
        }
        AFmt::F16 => {
            for p in 0..pk {
                put_u16(dst, p * mr + i, 0);
            }
        }
        AFmt::U8Quads => {
            for p in 0..pk {
                dst[(p / 4) * mr * 4 + i * 4 + p % 4] = 128;
            }
        }
        AFmt::I16Pairs => {
            for p in 0..pk {
                put_u16(dst, (p / 2) * mr * 2 + i * 2 + p % 2, 0);
            }
        }
        AFmt::I8 => {
            for p in 0..pk {
                dst[p * mr + i] = 0;
            }
        }
    }
}

/// Low-precision counterpart of [`crate::micro::pack_a_panel`]: packs rows
/// `row0..row0+r` of a row-major matrix of row length `k` into one
/// micropanel, converting each row through `cvt` (≥ `k` u16) scratch, and
/// records per-row scales in `sa[..mr]`. Every lane — including pads — is
/// overwritten.
#[allow(clippy::too_many_arguments)] // geometry params are the point
pub fn pack_a_panel_lowp(
    kern: &LowpKernel,
    dst: &mut [u8],
    sa: &mut [f32],
    src: &[f32],
    row0: usize,
    r: usize,
    k: usize,
    cvt: &mut [u16],
) {
    debug_assert!(r <= kern.mr);
    kern.pack_a_rows(dst, sa, &src[row0 * k..(row0 + r) * k], r, k, cvt);
}

/// Quantises columns `col0..col0+c` of `src`'s panels into one micropanel
/// (see `pack_b_view`).
#[allow(clippy::too_many_arguments)] // geometry params are the point
pub fn pack_b_panel_lowp(
    kern: &LowpKernel,
    dst: &mut [u8],
    sb: &mut [f32],
    colsum: &mut [i32],
    src: &PackedB,
    col0: usize,
    c: usize,
    cvt: &mut [u16],
) {
    pack_b_view(kern, dst, sb, colsum, BView::panels(src), src.k(), col0, c, cvt);
}

/// Quantises columns `col0..col0+c` of the `k`-row `src` into one
/// micropanel, recording per-column scales in `sb[..nr]` and (for int8)
/// per-column code sums in `colsum[..nr]`. Each k-step's row segment is read
/// in the pieces `src` holds it in (one per 16-column panel it spans, one for
/// a row-major row). Every lane — including pads — is overwritten; pad
/// columns get scale 1.0 and colsum 0.
#[allow(clippy::too_many_arguments)] // geometry params are the point
fn pack_b_view(
    kern: &LowpKernel,
    dst: &mut [u8],
    sb: &mut [f32],
    colsum: &mut [i32],
    src: BView<'_>,
    k: usize,
    col0: usize,
    c: usize,
    cvt: &mut [u16],
) {
    let nr = kern.nr;
    debug_assert!(c <= nr);
    debug_assert!(dst.len() >= kern.b_panel_bytes(k));
    debug_assert!(sb.len() >= nr && colsum.len() >= nr);
    match kern.b_fmt {
        BFmt::F16 => {
            // The destination lanes `p*nr..p*nr+c` are consecutive u16s, so
            // each converted row segment stores as one contiguous image.
            for p in 0..k {
                for (off, seg) in src.row_pieces(p, col0, c) {
                    f32_to_f16_bits_slice(cvt, seg);
                    store_u16_run(dst, p * nr + off, &cvt[..seg.len()]);
                }
                for j in c..nr {
                    put_u16(dst, p * nr + j, 0);
                }
            }
            sb[..nr].fill(1.0);
            colsum[..nr].fill(0);
        }
        BFmt::I8Quads => {
            let ks = kern.k_step;
            let pk = kern.padded_k(k);
            // Pass 1: per-column absolute maxima → symmetric scales, one
            // streamed row segment per k-step.
            let mut inv = [0.0f32; crate::micro::NR_MAX];
            let mut maxabs = [0.0f32; crate::micro::NR_MAX];
            for p in 0..k {
                for (off, seg) in src.row_pieces(p, col0, c) {
                    maxabs_lanes(&mut maxabs[off..off + seg.len()], seg);
                }
            }
            for j in 0..c {
                sb[j] = int8_scale(maxabs[j]);
                inv[j] = sb[j].recip();
            }
            sb[c..nr].fill(1.0);
            // Pass 2: quantize (vectorized), scatter into k-groups,
            // accumulate code sums.
            colsum[..nr].fill(0);
            let mut q = [0i8; crate::micro::NR_MAX];
            for p in 0..k {
                for (off, seg) in src.row_pieces(p, col0, c) {
                    quantize_i8_lanes(&mut q[off..off + seg.len()], seg, &inv[off..off + seg.len()]);
                }
                let base = (p / ks) * nr * ks + p % ks;
                for j in 0..c {
                    dst[base + j * ks] = q[j] as u8;
                    colsum[j] += q[j] as i32;
                }
                for j in c..nr {
                    dst[base + j * ks] = 0;
                }
            }
            for p in k..pk {
                let base = (p / ks) * nr * ks + p % ks;
                for j in 0..nr {
                    dst[base + j * ks] = 0;
                }
            }
        }
    }
}

/// Decodes element `(p, i)` of a packed `A` panel: the numeric value for
/// float precisions, the signed quantized code for int8. Test/debug aid.
pub fn a_panel_code(kern: &LowpKernel, panel: &[u8], p: usize, i: usize) -> f32 {
    let mr = kern.mr;
    match kern.a_fmt {
        AFmt::F16Dup => {
            let lo = get_u16(panel, (p * mr + i) * 2);
            f16::from_bits(lo).to_f32()
        }
        AFmt::F16 => f16::from_bits(get_u16(panel, p * mr + i)).to_f32(),
        AFmt::U8Quads => (panel[(p / 4) * mr * 4 + i * 4 + p % 4] as i32 - 128) as f32,
        AFmt::I16Pairs => get_u16(panel, (p / 2) * mr * 2 + i * 2 + p % 2) as i16 as f32,
        AFmt::I8 => panel[p * mr + i] as i8 as f32,
    }
}

/// Decodes element `(p, j)` of a packed `B` panel (see [`a_panel_code`]).
pub fn b_panel_code(kern: &LowpKernel, panel: &[u8], p: usize, j: usize) -> f32 {
    let nr = kern.nr;
    match kern.b_fmt {
        BFmt::F16 => f16::from_bits(get_u16(panel, p * nr + j)).to_f32(),
        BFmt::I8Quads => {
            let ks = kern.k_step;
            panel[(p / ks) * nr * ks + j * ks + p % ks] as i8 as f32
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar kernels (universal fallbacks; one per precision)
// ---------------------------------------------------------------------------

unsafe fn f16_scalar_8x8<const FUSED: bool>(
    kq: usize,
    a: *const u8,
    b: *const u8,
    acc: *mut f32,
    _sa: *const f32,
    _sb: *const f32,
    _cs: *const i32,
) {
    // SAFETY: caller guarantees the panel/accumulator extents.
    let (a, b, acc) = unsafe {
        (
            std::slice::from_raw_parts(a, kq * 8 * 2),
            std::slice::from_raw_parts(b, kq * 8 * 2),
            std::slice::from_raw_parts_mut(acc, 64),
        )
    };
    for p in 0..kq {
        let mut bp = [0.0f32; 8];
        for (j, v) in bp.iter_mut().enumerate() {
            *v = f16::from_bits(get_u16(b, p * 8 + j)).to_f32();
        }
        for i in 0..8 {
            let ai = f16::from_bits(get_u16(a, p * 8 + i)).to_f32();
            for j in 0..8 {
                acc[i * 8 + j] = contract::<FUSED>(ai, bp[j], acc[i * 8 + j]);
            }
        }
    }
}

unsafe fn int8_scalar_8x8(
    kq: usize,
    a: *const u8,
    b: *const u8,
    acc: *mut f32,
    sa: *const f32,
    sb: *const f32,
    _cs: *const i32,
) {
    // SAFETY: caller guarantees the panel/accumulator/scale extents.
    let (a, b, acc, sa, sb) = unsafe {
        (
            std::slice::from_raw_parts(a, kq * 8),
            std::slice::from_raw_parts(b, kq * 8),
            std::slice::from_raw_parts_mut(acc, 64),
            std::slice::from_raw_parts(sa, 8),
            std::slice::from_raw_parts(sb, 8),
        )
    };
    // Exact integer dots first; the fixed three-rounding dequantization
    // (`acc + (sa·sb)·dot`) happens once per element, identical to the
    // vector kernels' epilogues.
    let mut dots = [0i32; 64];
    for p in 0..kq {
        for i in 0..8 {
            let ai = a[p * 8 + i] as i8 as i32;
            for j in 0..8 {
                dots[i * 8 + j] += ai * (b[p * 8 + j] as i8 as i32);
            }
        }
    }
    for i in 0..8 {
        for j in 0..8 {
            acc[i * 8 + j] += (sa[i] * sb[j]) * dots[i * 8 + j] as f32;
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels
// ---------------------------------------------------------------------------

/// # Safety
/// [`LowpKernelFn`] extents; CPU must support AVX2+FMA+F16C.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
unsafe fn f16_avx2_8x8(
    kq: usize,
    a: *const u8,
    b: *const u8,
    acc: *mut f32,
    _sa: *const f32,
    _sb: *const f32,
    _cs: *const i32,
) {
    use std::arch::x86_64::*;
    // SAFETY: extents guaranteed by the caller contract.
    unsafe {
        let mut c = [_mm256_setzero_ps(); 8];
        for (i, row) in c.iter_mut().enumerate() {
            *row = _mm256_loadu_ps(acc.add(i * 8));
        }
        let mut abuf = [0.0f32; 8];
        for p in 0..kq {
            let bv = _mm256_cvtph_ps(_mm_loadu_si128(b.add(p * 16) as *const _));
            let av = _mm256_cvtph_ps(_mm_loadu_si128(a.add(p * 16) as *const _));
            _mm256_storeu_ps(abuf.as_mut_ptr(), av);
            for (i, row) in c.iter_mut().enumerate() {
                *row = _mm256_fmadd_ps(_mm256_set1_ps(abuf[i]), bv, *row);
            }
        }
        for (i, row) in c.iter().enumerate() {
            _mm256_storeu_ps(acc.add(i * 8), *row);
        }
    }
}

/// AVX2 int8: A as sign-extended i16 k-pairs, `pmaddwd` against
/// sign-extended B codes. Products are ≤ 127·127 each, so the i16-pair sum
/// ≤ 32258 never saturates (`maddubs`-style u8×i8 would).
///
/// # Safety
/// [`LowpKernelFn`] extents; CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn int8_avx2_8x8(
    kq: usize,
    a: *const u8,
    b: *const u8,
    acc: *mut f32,
    sa: *const f32,
    sb: *const f32,
    _cs: *const i32,
) {
    use std::arch::x86_64::*;
    // SAFETY: extents guaranteed by the caller contract.
    unsafe {
        let mut c = [_mm256_setzero_si256(); 8];
        for q in 0..kq {
            // One k-pair group: B is 8 columns × 2 codes = 16 i8.
            let b16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.add(q * 16) as *const _));
            for (i, row) in c.iter_mut().enumerate() {
                let av = _mm256_set1_epi32((a.add(q * 32 + i * 4) as *const i32).read_unaligned());
                *row = _mm256_add_epi32(*row, _mm256_madd_epi16(av, b16));
            }
        }
        let sbv = _mm256_loadu_ps(sb);
        for (i, row) in c.iter().enumerate() {
            let scale = _mm256_mul_ps(_mm256_set1_ps(*sa.add(i)), sbv);
            let val = _mm256_mul_ps(scale, _mm256_cvtepi32_ps(*row));
            let accv = _mm256_add_ps(_mm256_loadu_ps(acc.add(i * 8)), val);
            _mm256_storeu_ps(acc.add(i * 8), accv);
        }
    }
}

// ---------------------------------------------------------------------------
// AVX-512 kernels
// ---------------------------------------------------------------------------

/// AVX512-FP16 16×32 kernel: native `vfmadd231ph` on 32-lane f16 vectors,
/// A broadcast as pre-duplicated dword pairs. Accumulates in f16 within
/// chunks of ≤128 k-steps, promoting each chunk into the f32 accumulator
/// via `vcvtph2ps` — bounding the f16 accumulation error at the chunk
/// length ([`Chain::ChunkedF16`], covered by [`dot_error_bound`]).
///
/// Written in inline asm because the AVX512-FP16 intrinsics are not yet
/// stable; `asm!` with explicit register clobbers is.
///
/// # Safety
/// [`LowpKernelFn`] extents with `kq > 0`; CPU must support AVX512-FP16.
#[cfg(target_arch = "x86_64")]
unsafe fn f16_avx512fp16_16x32(
    kq: usize,
    a: *const u8,
    b: *const u8,
    acc: *mut f32,
    _sa: *const f32,
    _sb: *const f32,
    _cs: *const i32,
) {
    debug_assert!(kq > 0); // `run` guards k == 0
                           // SAFETY: caller guarantees extents and the avx512fp16 feature. The asm
                           // clobbers zmm0–17 only, keeps the stack untouched, and walks a/b
                           // exactly kq 64-byte groups.
    unsafe {
        std::arch::asm!(
            // Outer loop (label 2): one chunk of ≤128 k-steps in f16
            // accumulators zmm0–15, then a promotion pass into `acc`.
            "2:",
            "vpxorq zmm0, zmm0, zmm0", "vpxorq zmm1, zmm1, zmm1",
            "vpxorq zmm2, zmm2, zmm2", "vpxorq zmm3, zmm3, zmm3",
            "vpxorq zmm4, zmm4, zmm4", "vpxorq zmm5, zmm5, zmm5",
            "vpxorq zmm6, zmm6, zmm6", "vpxorq zmm7, zmm7, zmm7",
            "vpxorq zmm8, zmm8, zmm8", "vpxorq zmm9, zmm9, zmm9",
            "vpxorq zmm10, zmm10, zmm10", "vpxorq zmm11, zmm11, zmm11",
            "vpxorq zmm12, zmm12, zmm12", "vpxorq zmm13, zmm13, zmm13",
            "vpxorq zmm14, zmm14, zmm14", "vpxorq zmm15, zmm15, zmm15",
            "mov {cn}, {rem}",
            "cmp {cn}, 128",
            "cmova {cn}, {c128}",
            "sub {rem}, {cn}",
            // Inner loop (label 3): one k-step = one 32-lane B row (64 B)
            // and 16 dup-dword A broadcasts.
            "3:",
            "vmovups zmm16, zmmword ptr [{b}]",
            "vpbroadcastd zmm17, dword ptr [{a}]",
            "vfmadd231ph zmm0, zmm17, zmm16",
            "vpbroadcastd zmm17, dword ptr [{a} + 4]",
            "vfmadd231ph zmm1, zmm17, zmm16",
            "vpbroadcastd zmm17, dword ptr [{a} + 8]",
            "vfmadd231ph zmm2, zmm17, zmm16",
            "vpbroadcastd zmm17, dword ptr [{a} + 12]",
            "vfmadd231ph zmm3, zmm17, zmm16",
            "vpbroadcastd zmm17, dword ptr [{a} + 16]",
            "vfmadd231ph zmm4, zmm17, zmm16",
            "vpbroadcastd zmm17, dword ptr [{a} + 20]",
            "vfmadd231ph zmm5, zmm17, zmm16",
            "vpbroadcastd zmm17, dword ptr [{a} + 24]",
            "vfmadd231ph zmm6, zmm17, zmm16",
            "vpbroadcastd zmm17, dword ptr [{a} + 28]",
            "vfmadd231ph zmm7, zmm17, zmm16",
            "vpbroadcastd zmm17, dword ptr [{a} + 32]",
            "vfmadd231ph zmm8, zmm17, zmm16",
            "vpbroadcastd zmm17, dword ptr [{a} + 36]",
            "vfmadd231ph zmm9, zmm17, zmm16",
            "vpbroadcastd zmm17, dword ptr [{a} + 40]",
            "vfmadd231ph zmm10, zmm17, zmm16",
            "vpbroadcastd zmm17, dword ptr [{a} + 44]",
            "vfmadd231ph zmm11, zmm17, zmm16",
            "vpbroadcastd zmm17, dword ptr [{a} + 48]",
            "vfmadd231ph zmm12, zmm17, zmm16",
            "vpbroadcastd zmm17, dword ptr [{a} + 52]",
            "vfmadd231ph zmm13, zmm17, zmm16",
            "vpbroadcastd zmm17, dword ptr [{a} + 56]",
            "vfmadd231ph zmm14, zmm17, zmm16",
            "vpbroadcastd zmm17, dword ptr [{a} + 60]",
            "vfmadd231ph zmm15, zmm17, zmm16",
            "add {a}, 64",
            "add {b}, 64",
            "dec {cn}",
            "jnz 3b",
            // Promotion: row r holds 32 f16 sums; widen each 16-lane half
            // with vcvtph2ps and add into acc[r*32..r*32+32].
            "mov {cn}, {acc}",
            "vcvtph2ps zmm16, ymm0", "vextractf64x4 ymm17, zmm0, 1", "vcvtph2ps zmm17, ymm17",
            "vaddps zmm16, zmm16, [{cn}]", "vmovups [{cn}], zmm16",
            "vaddps zmm17, zmm17, [{cn}+64]", "vmovups [{cn}+64], zmm17",
            "vcvtph2ps zmm16, ymm1", "vextractf64x4 ymm17, zmm1, 1", "vcvtph2ps zmm17, ymm17",
            "vaddps zmm16, zmm16, [{cn}+128]", "vmovups [{cn}+128], zmm16",
            "vaddps zmm17, zmm17, [{cn}+192]", "vmovups [{cn}+192], zmm17",
            "vcvtph2ps zmm16, ymm2", "vextractf64x4 ymm17, zmm2, 1", "vcvtph2ps zmm17, ymm17",
            "vaddps zmm16, zmm16, [{cn}+256]", "vmovups [{cn}+256], zmm16",
            "vaddps zmm17, zmm17, [{cn}+320]", "vmovups [{cn}+320], zmm17",
            "vcvtph2ps zmm16, ymm3", "vextractf64x4 ymm17, zmm3, 1", "vcvtph2ps zmm17, ymm17",
            "vaddps zmm16, zmm16, [{cn}+384]", "vmovups [{cn}+384], zmm16",
            "vaddps zmm17, zmm17, [{cn}+448]", "vmovups [{cn}+448], zmm17",
            "vcvtph2ps zmm16, ymm4", "vextractf64x4 ymm17, zmm4, 1", "vcvtph2ps zmm17, ymm17",
            "vaddps zmm16, zmm16, [{cn}+512]", "vmovups [{cn}+512], zmm16",
            "vaddps zmm17, zmm17, [{cn}+576]", "vmovups [{cn}+576], zmm17",
            "vcvtph2ps zmm16, ymm5", "vextractf64x4 ymm17, zmm5, 1", "vcvtph2ps zmm17, ymm17",
            "vaddps zmm16, zmm16, [{cn}+640]", "vmovups [{cn}+640], zmm16",
            "vaddps zmm17, zmm17, [{cn}+704]", "vmovups [{cn}+704], zmm17",
            "vcvtph2ps zmm16, ymm6", "vextractf64x4 ymm17, zmm6, 1", "vcvtph2ps zmm17, ymm17",
            "vaddps zmm16, zmm16, [{cn}+768]", "vmovups [{cn}+768], zmm16",
            "vaddps zmm17, zmm17, [{cn}+832]", "vmovups [{cn}+832], zmm17",
            "vcvtph2ps zmm16, ymm7", "vextractf64x4 ymm17, zmm7, 1", "vcvtph2ps zmm17, ymm17",
            "vaddps zmm16, zmm16, [{cn}+896]", "vmovups [{cn}+896], zmm16",
            "vaddps zmm17, zmm17, [{cn}+960]", "vmovups [{cn}+960], zmm17",
            "vcvtph2ps zmm16, ymm8", "vextractf64x4 ymm17, zmm8, 1", "vcvtph2ps zmm17, ymm17",
            "vaddps zmm16, zmm16, [{cn}+1024]", "vmovups [{cn}+1024], zmm16",
            "vaddps zmm17, zmm17, [{cn}+1088]", "vmovups [{cn}+1088], zmm17",
            "vcvtph2ps zmm16, ymm9", "vextractf64x4 ymm17, zmm9, 1", "vcvtph2ps zmm17, ymm17",
            "vaddps zmm16, zmm16, [{cn}+1152]", "vmovups [{cn}+1152], zmm16",
            "vaddps zmm17, zmm17, [{cn}+1216]", "vmovups [{cn}+1216], zmm17",
            "vcvtph2ps zmm16, ymm10", "vextractf64x4 ymm17, zmm10, 1", "vcvtph2ps zmm17, ymm17",
            "vaddps zmm16, zmm16, [{cn}+1280]", "vmovups [{cn}+1280], zmm16",
            "vaddps zmm17, zmm17, [{cn}+1344]", "vmovups [{cn}+1344], zmm17",
            "vcvtph2ps zmm16, ymm11", "vextractf64x4 ymm17, zmm11, 1", "vcvtph2ps zmm17, ymm17",
            "vaddps zmm16, zmm16, [{cn}+1408]", "vmovups [{cn}+1408], zmm16",
            "vaddps zmm17, zmm17, [{cn}+1472]", "vmovups [{cn}+1472], zmm17",
            "vcvtph2ps zmm16, ymm12", "vextractf64x4 ymm17, zmm12, 1", "vcvtph2ps zmm17, ymm17",
            "vaddps zmm16, zmm16, [{cn}+1536]", "vmovups [{cn}+1536], zmm16",
            "vaddps zmm17, zmm17, [{cn}+1600]", "vmovups [{cn}+1600], zmm17",
            "vcvtph2ps zmm16, ymm13", "vextractf64x4 ymm17, zmm13, 1", "vcvtph2ps zmm17, ymm17",
            "vaddps zmm16, zmm16, [{cn}+1664]", "vmovups [{cn}+1664], zmm16",
            "vaddps zmm17, zmm17, [{cn}+1728]", "vmovups [{cn}+1728], zmm17",
            "vcvtph2ps zmm16, ymm14", "vextractf64x4 ymm17, zmm14, 1", "vcvtph2ps zmm17, ymm17",
            "vaddps zmm16, zmm16, [{cn}+1792]", "vmovups [{cn}+1792], zmm16",
            "vaddps zmm17, zmm17, [{cn}+1856]", "vmovups [{cn}+1856], zmm17",
            "vcvtph2ps zmm16, ymm15", "vextractf64x4 ymm17, zmm15, 1", "vcvtph2ps zmm17, ymm17",
            "vaddps zmm16, zmm16, [{cn}+1920]", "vmovups [{cn}+1920], zmm16",
            "vaddps zmm17, zmm17, [{cn}+1984]", "vmovups [{cn}+1984], zmm17",
            "test {rem}, {rem}",
            "jnz 2b",
            rem = inout(reg) kq => _,
            cn = out(reg) _,
            c128 = in(reg) 128usize,
            a = inout(reg) a => _,
            b = inout(reg) b => _,
            acc = in(reg) acc,
            out("zmm0") _, out("zmm1") _, out("zmm2") _, out("zmm3") _,
            out("zmm4") _, out("zmm5") _, out("zmm6") _, out("zmm7") _,
            out("zmm8") _, out("zmm9") _, out("zmm10") _, out("zmm11") _,
            out("zmm12") _, out("zmm13") _, out("zmm14") _, out("zmm15") _,
            out("zmm16") _, out("zmm17") _,
            options(nostack)
        );
    }
}

/// AVX512-VNNI int8: `vpdpbusd` consumes unsigned A × signed B k-quads, so
/// A codes are stored biased (`q+128`); the bias is removed exactly in the
/// epilogue with the per-column code sums (`dot = acc_u − 128·colsum[j]`).
///
/// # Safety
/// [`LowpKernelFn`] extents; CPU must support AVX-512F/BW/VNNI.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vnni")]
unsafe fn int8_avx512vnni_16x16(
    kq: usize,
    a: *const u8,
    b: *const u8,
    acc: *mut f32,
    sa: *const f32,
    sb: *const f32,
    colsum: *const i32,
) {
    use std::arch::x86_64::*;
    // SAFETY: extents guaranteed by the caller contract.
    unsafe {
        let mut c = [_mm512_setzero_si512(); 16];
        for q in 0..kq {
            // One k-quad group: B is 16 columns × 4 codes = 64 i8.
            let bv = _mm512_loadu_si512(b.add(q * 64) as *const _);
            for (i, row) in c.iter_mut().enumerate() {
                let av = _mm512_set1_epi32((a.add(q * 64 + i * 4) as *const i32).read_unaligned());
                *row = _mm512_dpbusd_epi32(*row, av, bv);
            }
        }
        let csv = _mm512_loadu_si512(colsum as *const _);
        let corr = _mm512_slli_epi32::<7>(csv); // 128·colsum
        let sbv = _mm512_loadu_ps(sb);
        for (i, row) in c.iter().enumerate() {
            let dot = _mm512_sub_epi32(*row, corr);
            let scale = _mm512_mul_ps(_mm512_set1_ps(*sa.add(i)), sbv);
            let val = _mm512_mul_ps(scale, _mm512_cvtepi32_ps(dot));
            let accv = _mm512_add_ps(_mm512_loadu_ps(acc.add(i * 16)), val);
            _mm512_storeu_ps(acc.add(i * 16), accv);
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel table
// ---------------------------------------------------------------------------

static F16_SCALAR: LowpKernel = LowpKernel {
    prec: Precision::F16,
    isa: Isa::Scalar,
    mr: 8,
    nr: 8,
    k_step: 1,
    chain: if SCALAR_FUSED_FMA {
        Chain::FusedF32
    } else {
        Chain::UnfusedF32
    },
    a_fmt: AFmt::F16,
    b_fmt: BFmt::F16,
    func: f16_scalar_8x8::<SCALAR_FUSED_FMA>,
};

static INT8_SCALAR: LowpKernel = LowpKernel {
    prec: Precision::Int8,
    isa: Isa::Scalar,
    mr: 8,
    nr: 8,
    k_step: 1,
    chain: Chain::ExactInt,
    a_fmt: AFmt::I8,
    b_fmt: BFmt::I8Quads,
    func: int8_scalar_8x8,
};

#[cfg(target_arch = "x86_64")]
static F16_AVX2: LowpKernel = LowpKernel {
    prec: Precision::F16,
    isa: Isa::Avx2,
    mr: 8,
    nr: 8,
    k_step: 1,
    chain: Chain::FusedF32,
    a_fmt: AFmt::F16,
    b_fmt: BFmt::F16,
    func: f16_avx2_8x8,
};

#[cfg(target_arch = "x86_64")]
static INT8_AVX2: LowpKernel = LowpKernel {
    prec: Precision::Int8,
    isa: Isa::Avx2,
    mr: 8,
    nr: 8,
    k_step: 2,
    chain: Chain::ExactInt,
    a_fmt: AFmt::I16Pairs,
    b_fmt: BFmt::I8Quads,
    func: int8_avx2_8x8,
};

#[cfg(target_arch = "x86_64")]
static F16_AVX512: LowpKernel = LowpKernel {
    prec: Precision::F16,
    isa: Isa::Avx512,
    mr: 16,
    nr: 32,
    k_step: 1,
    chain: Chain::ChunkedF16,
    a_fmt: AFmt::F16Dup,
    b_fmt: BFmt::F16,
    func: f16_avx512fp16_16x32,
};

#[cfg(target_arch = "x86_64")]
static INT8_AVX512: LowpKernel = LowpKernel {
    prec: Precision::Int8,
    isa: Isa::Avx512,
    mr: 16,
    nr: 16,
    k_step: 4,
    chain: Chain::ExactInt,
    a_fmt: AFmt::U8Quads,
    b_fmt: BFmt::I8Quads,
    func: int8_avx512vnni_16x16,
};

/// The `prec × isa` implementation, unchecked (`None` at f32, which the
/// [`crate::isa`] family serves): callers pass a pair the host was checked
/// for ([`crate::dispatch`] resolves against it, [`lowp_impl`] asks it).
pub(crate) fn implementation(prec: Precision, isa: Isa) -> Option<&'static LowpKernel> {
    match (prec, isa) {
        (Precision::F32, _) => None,
        (Precision::F16, Isa::Scalar) => Some(&F16_SCALAR),
        (Precision::Int8, Isa::Scalar) => Some(&INT8_SCALAR),
        #[cfg(target_arch = "x86_64")]
        (Precision::F16, Isa::Avx2) => Some(&F16_AVX2),
        #[cfg(target_arch = "x86_64")]
        (Precision::Int8, Isa::Avx2) => Some(&INT8_AVX2),
        #[cfg(target_arch = "x86_64")]
        (Precision::F16, Isa::Avx512) => Some(&F16_AVX512),
        #[cfg(target_arch = "x86_64")]
        (Precision::Int8, Isa::Avx512) => Some(&INT8_AVX512),
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("no intrinsic tier is ever detected off x86_64"),
    }
}

/// The `prec × isa` implementation, or `None` when this host cannot run it
/// (or `prec` is F32).
pub fn lowp_impl(prec: Precision, isa: Isa) -> Option<&'static LowpKernel> {
    host().supports(prec, isa).then(|| implementation(prec, isa)).flatten()
}

// ---------------------------------------------------------------------------
// Documented accuracy bounds (what the differential suite asserts)
// ---------------------------------------------------------------------------

/// Absolute error bound for one dequantized dot product of depth `k` with
/// `sum_abs = Σ_p |a_p·b_p|` (computed on the *converted* operands), versus
/// an f64 reference on the same converted operands.
///
/// * `f32`: plain f32 accumulation — `S·k·2⁻²³`.
/// * `f16`: operand conversion (2 roundings per product at ≤ 2⁻¹¹ relative)
///   plus at most `min(k, 128)` steps of f16 accumulation per chunk —
///   `S·(min(k,128)+2)·2⁻¹¹`.
///
/// A `1e-8` absolute floor covers zero-sum cases. int8 error depends on the
/// scales, not `sum_abs` — use [`int8_dot_error_bound`].
pub fn dot_error_bound(prec: Precision, k: usize, sum_abs: f64) -> f64 {
    let kf = k.max(1) as f64;
    let rel = match prec {
        Precision::F32 => kf * 2f64.powi(-23),
        Precision::F16 => (kf.min(128.0) + 2.0) * 2f64.powi(-11),
        Precision::Int8 => panic!("int8 bound depends on scales: use int8_dot_error_bound"),
    };
    sum_abs * rel + 1e-8
}

/// Absolute error bound for one int8-quantized dot product versus the f64
/// dot of the unquantized operands. Per k-step, each operand is off by at
/// most half a quantization step (`scale/2`), giving
/// `Σ_p (sa·|b_p|/2 + sb·|a_p|/2 + sa·sb/4)`; the `·1.01` covers the three
/// f32 dequantization roundings and the `1e-6` relative + `1e-8` absolute
/// floors cover accumulation of the reference itself.
pub fn int8_dot_error_bound(a_row: &[f32], b_col: &[f32], sa: f32, sb: f32) -> f64 {
    let (sa, sb) = (sa as f64, sb as f64);
    let mut quant = 0.0f64;
    let mut sum_abs = 0.0f64;
    for (&a, &b) in a_row.iter().zip(b_col) {
        let (a, b) = (a as f64, b as f64);
        quant += sa * b.abs() / 2.0 + sb * a.abs() / 2.0 + sa * sb / 4.0;
        sum_abs += (a * b).abs();
    }
    quant * 1.01 + sum_abs * 1e-6 + 1e-8
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWP: [Precision; 2] = [Precision::F16, Precision::Int8];

    /// This host's implementations of `prec`, poorest tier first.
    fn impls(prec: Precision) -> impl Iterator<Item = &'static LowpKernel> {
        Isa::ALL.into_iter().filter_map(move |isa| lowp_impl(prec, isa))
    }

    #[test]
    fn scalar_impl_exists_for_every_low_precision() {
        for prec in LOWP {
            let k = lowp_impl(prec, Isa::Scalar).expect("scalar impl is universal");
            assert_eq!((k.prec, k.isa), (prec, Isa::Scalar));
        }
        for isa in Isa::ALL {
            assert!(lowp_impl(Precision::F32, isa).is_none());
        }
    }

    #[test]
    fn hardware_f16_conversion_matches_software_bitwise() {
        // Sweep values exercising every rounding class: normals, ties,
        // subnormals, overflow, zero, infinity, NaN payloads.
        let mut vals: Vec<f32> = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            1.0 + (2.0f32).powi(-11), // tie
            1.0 + 3.0 * (2.0f32).powi(-11),
            65504.0,
            65520.0, // overflow tie
            1e-7,    // subnormal range
            5.96e-8,
            1e-10, // underflow
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let mut x = 1.0e-9f32;
        while x < 1.0e6 {
            vals.push(x);
            vals.push(-x);
            x *= 1.7;
        }
        let mut hw = vec![0u16; vals.len()];
        f32_to_f16_bits_slice(&mut hw, &vals);
        for (&v, &h) in vals.iter().zip(&hw) {
            let sw = f16_bits(v);
            if v.is_nan() {
                // NaN payload choice may legitimately differ per path; both
                // must still be NaN.
                assert!(f16::from_bits(h).is_nan() && f16::from_bits(sw).is_nan());
            } else {
                assert_eq!(h, sw, "hw vs sw f16 conversion diverged at {v}");
            }
        }
    }

    #[test]
    fn quantization_edge_cases() {
        assert_eq!(int8_scale(0.0), 1.0, "all-zero row must keep a usable scale");
        assert_eq!(int8_scale(f32::NAN), 1.0);
        let s = int8_scale(127.0);
        assert_eq!(s, 1.0);
        assert_eq!(quantize_i8(127.0, 1.0), 127);
        assert_eq!(quantize_i8(-127.0, 1.0), -127);
        assert_eq!(quantize_i8(-1000.0, 1.0), -127, "clamp keeps -128 unreachable");
        assert_eq!(quantize_i8(f32::NAN, 1.0), 0);
        assert_eq!(quantize_i8(0.5, 1.0), 0, "ties to even");
        assert_eq!(quantize_i8(1.5, 1.0), 2, "ties to even");
    }

    /// Packs A and B panels for `kern` from small row-major operands and
    /// runs the kernel once; returns the dequantized `mr×nr` accumulator.
    fn pack_and_run(kern: &LowpKernel, a: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
        let mut a_panel = vec![0xA5u8; kern.a_panel_bytes(k)];
        let mut b_panel = vec![0xA5u8; kern.b_panel_bytes(k)];
        let mut sa = vec![f32::NAN; kern.mr];
        let mut sb = vec![f32::NAN; kern.nr];
        let mut colsum = vec![i32::MAX; kern.nr];
        let mut cvt = vec![0u16; k.max(kern.nr)];
        pack_a_panel_lowp(kern, &mut a_panel, &mut sa, a, 0, m, k, &mut cvt);
        pack_b_panel_lowp(
            kern,
            &mut b_panel,
            &mut sb,
            &mut colsum,
            &PackedB::pack(b, false, k, n),
            0,
            n,
            &mut cvt,
        );
        let mut acc = vec![0.0f32; kern.mr * kern.nr];
        kern.run_block(k, &a_panel, &b_panel, &mut acc, &sa, &sb, &colsum);
        acc
    }

    #[test]
    fn every_available_impl_matches_its_scalar_tier() {
        // m×k · k×n with strips shorter than every tile: exercises pad
        // lanes in both panels plus the k-group padding of int8 layouts.
        let (m, n, k) = (5usize, 6usize, 13usize);
        let a: Vec<f32> = (0..m * k).map(|i| ((i as f32) * 0.37).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i as f32) * 0.51).cos()).collect();
        for prec in LOWP {
            let scalar = lowp_impl(prec, Isa::Scalar).unwrap();
            let reference = pack_and_run(scalar, &a, &b, m, n, k);
            for kern in impls(prec) {
                let isa = kern.isa;
                let acc = pack_and_run(kern, &a, &b, m, n, k);
                for i in 0..m {
                    for j in 0..n {
                        let got = acc[i * kern.nr + j];
                        let want = reference[i * scalar.nr + j];
                        if kern.chain == scalar.chain {
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{prec}/{isa} ({i},{j}): equal chains must be bitwise"
                            );
                        } else {
                            // Cross-chain: both within the documented bound
                            // of each other (twice the one-sided bound).
                            let sum_abs: f64 = (0..k).map(|p| (a[i * k + p] as f64 * b[p * n + j] as f64).abs()).sum();
                            let bound = 2.0 * dot_error_bound(prec, k, sum_abs);
                            assert!(
                                ((got - want) as f64).abs() <= bound,
                                "{prec}/{isa} ({i},{j}): {got} vs {want} (bound {bound})"
                            );
                        }
                    }
                }
                // Pad lanes must have computed exact zeros.
                for i in m..kern.mr {
                    for j in 0..kern.nr {
                        assert_eq!(acc[i * kern.nr + j], 0.0, "{prec}/{isa} pad row {i}");
                    }
                }
                for i in 0..kern.mr {
                    for j in n..kern.nr {
                        assert_eq!(acc[i * kern.nr + j], 0.0, "{prec}/{isa} pad col {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_tiers_track_the_true_product_within_bounds() {
        let (m, n, k) = (4usize, 5usize, 29usize);
        let a: Vec<f32> = (0..m * k).map(|i| ((i as f32) * 0.71).sin() * 3.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i as f32) * 0.29).cos() * 2.0).collect();
        for prec in LOWP {
            let kern = lowp_impl(prec, Isa::Scalar).unwrap();
            let acc = pack_and_run(kern, &a, &b, m, n, k);
            for i in 0..m {
                for j in 0..n {
                    let exact: f64 = (0..k).map(|p| a[i * k + p] as f64 * b[p * n + j] as f64).sum();
                    let bound = match prec {
                        Precision::Int8 => {
                            let col: Vec<f32> = (0..k).map(|p| b[p * n + j]).collect();
                            let sa = int8_scale((0..k).fold(0.0f32, |mx, p| mx.max(a[i * k + p].abs())));
                            let sb = int8_scale(col.iter().fold(0.0f32, |mx, &x| mx.max(x.abs())));
                            int8_dot_error_bound(&a[i * k..i * k + k], &col, sa, sb)
                        }
                        _ => {
                            let sum_abs: f64 = (0..k).map(|p| (a[i * k + p] as f64 * b[p * n + j] as f64).abs()).sum();
                            dot_error_bound(prec, k, sum_abs)
                        }
                    };
                    let got = acc[i * kern.nr + j] as f64;
                    assert!(
                        (got - exact).abs() <= bound,
                        "{prec} ({i},{j}): {got} vs {exact} (bound {bound})"
                    );
                }
            }
        }
    }

    #[test]
    fn k_zero_is_identity_for_every_impl() {
        for prec in LOWP {
            for kern in impls(prec) {
                let mut acc = vec![3.0f32; kern.mr * kern.nr];
                kern.run_block(0, &[], &[], &mut acc, &[], &[], &[]);
                assert!(
                    acc.iter().all(|&v| v == 3.0),
                    "{prec}/{} k=0 must be identity",
                    kern.isa
                );
            }
        }
    }
}
