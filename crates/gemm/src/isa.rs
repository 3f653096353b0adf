//! The f32 microkernel family, one kernel per ISA tier.
//!
//! The paper's fused kernels are written against hardware-wide register
//! tiles (CUTLASS tensor-core fragments, `__half2` SIMD2 pairs); the CPU
//! analogue is one kernel per SIMD tier:
//!
//! | tier     | tile (`mr×nr`) | inner step                                  |
//! |----------|----------------|---------------------------------------------|
//! | `scalar` | 4×16           | autovectorized loops, portable everywhere    |
//! | `avx2`   | 8×16           | `_mm256_fmadd_ps` on 16 `ymm` accumulators   |
//! | `avx512` | 16×16          | `_mm512_fmadd_ps` on 16 `zmm` accumulators   |
//!
//! Every tier is 16 columns wide, the [`crate::PackedB`] panel width, so a
//! weight packed once serves whichever tier runs. Each tier also has a
//! family of row-count-specialised strip kernels for the skinny driver
//! (`crate::skinny`: scalar `≤4×16`, avx2 `≤4×16`, avx512 `≤8×48`, reading
//! `B` in place, row-major or panels), which its [`MicroKernel`] carries.
//!
//! Which tier runs is [`crate::dispatch`]'s decision (`BYTE_GEMM_ISA`, the
//! host probe, the strict [`crate::dispatch::set_active_isa`]); this module
//! only holds the family.
//!
//! Safety story: `unsafe` is confined to the two intrinsic kernels, each
//! behind `#[target_feature]` and only ever reachable through a
//! [`MicroKernel`] constructed after its feature was detected. Both rely on
//! one documented invariant: **micropanels are always allocated and packed
//! at full `mr`/`nr` tile width, zero-padded** (guaranteed by
//! [`crate::micro::pack_a_panel`] / [`crate::micro::pack_b_panel`] and the
//! drivers' panel sizing), so unconditional full-width vector loads are
//! in-bounds even on remainder strips.

// Unsafe is confined to the `#[target_feature]` intrinsic kernels below.
#![allow(unsafe_code)]

use crate::dispatch::{host, Precision};
use crate::micro::{scalar_kernel, MicroKernel, SCALAR_FUSED_FMA, SCALAR_MR, SCALAR_NR};
use crate::skinny;

/// Instruction-set tiers of the microkernel family, poorest to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// Portable scalar kernel — compiled for the build's target CPU, no
    /// runtime feature requirements. The universal fallback.
    Scalar,
    /// AVX2 + FMA, 256-bit vectors.
    Avx2,
    /// AVX-512F, 512-bit vectors.
    Avx512,
}

impl Isa {
    /// Every tier, poorest to widest.
    pub const ALL: [Isa; 3] = [Isa::Scalar, Isa::Avx2, Isa::Avx512];

    /// The tier's canonical lowercase name (the `BYTE_GEMM_ISA` spelling).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

static SCALAR_KERNEL: MicroKernel = MicroKernel {
    isa: Isa::Scalar,
    mr: SCALAR_MR,
    nr: SCALAR_NR,
    fused_fma: SCALAR_FUSED_FMA,
    func: scalar_kernel::<SCALAR_FUSED_FMA>,
    skinny: &skinny::SCALAR_SKINNY,
};

#[cfg(target_arch = "x86_64")]
static AVX2_KERNEL: MicroKernel = MicroKernel {
    isa: Isa::Avx2,
    mr: 8,
    nr: 16,
    fused_fma: true,
    func: avx2_kernel_8x16,
    skinny: &skinny::AVX2_SKINNY,
};

#[cfg(target_arch = "x86_64")]
static AVX512_KERNEL: MicroKernel = MicroKernel {
    isa: Isa::Avx512,
    mr: 16,
    nr: 16,
    fused_fma: true,
    func: avx512_kernel_16x16,
    skinny: &skinny::AVX512_SKINNY,
};

/// A tier's kernel, unchecked: callers pass a tier the host was checked
/// for ([`crate::dispatch`] resolves against it, [`kernel_for`] asks it).
pub(crate) fn tier_kernel(isa: Isa) -> &'static MicroKernel {
    match isa {
        Isa::Scalar => &SCALAR_KERNEL,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => &AVX2_KERNEL,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => &AVX512_KERNEL,
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("no intrinsic tier is ever detected off x86_64"),
    }
}

/// The kernel implementing a tier, or `None` when this host cannot run it.
pub fn kernel_for(isa: Isa) -> Option<&'static MicroKernel> {
    host().supports(Precision::F32, isa).then(|| tier_kernel(isa))
}

/// AVX2+FMA 8×16 kernel: 16 `ymm` accumulators (rows × two 8-lane column
/// vectors), one broadcast `A` element per row per step.
///
/// # Safety
/// Caller must guarantee the [`crate::micro::KernelFn`] extents (panels at
/// full 8/16 tile width — the packers' zero-padding invariant) and that the
/// CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn avx2_kernel_8x16(kc: usize, a: *const f32, b: *const f32, acc: *mut f32) {
    use std::arch::x86_64::*;
    // SAFETY: extents guaranteed by the caller contract above.
    unsafe {
        let mut c = [[_mm256_setzero_ps(); 2]; 8];
        for (i, row) in c.iter_mut().enumerate() {
            row[0] = _mm256_loadu_ps(acc.add(i * 16));
            row[1] = _mm256_loadu_ps(acc.add(i * 16 + 8));
        }
        for p in 0..kc {
            let b0 = _mm256_loadu_ps(b.add(p * 16));
            let b1 = _mm256_loadu_ps(b.add(p * 16 + 8));
            for (i, row) in c.iter_mut().enumerate() {
                let ai = _mm256_set1_ps(*a.add(p * 8 + i));
                row[0] = _mm256_fmadd_ps(ai, b0, row[0]);
                row[1] = _mm256_fmadd_ps(ai, b1, row[1]);
            }
        }
        for (i, row) in c.iter().enumerate() {
            _mm256_storeu_ps(acc.add(i * 16), row[0]);
            _mm256_storeu_ps(acc.add(i * 16 + 8), row[1]);
        }
    }
}

/// AVX-512F 16×16 kernel: 16 `zmm` accumulators (one full-width row each),
/// a single 16-lane `B` load per step shared by all 16 rows — the highest
/// loaded-element reuse in the family (16 FMAs per element loaded).
///
/// # Safety
/// Caller must guarantee the [`crate::micro::KernelFn`] extents (panels at
/// full 16/16 tile width — the packers' zero-padding invariant) and that
/// the CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512_kernel_16x16(kc: usize, a: *const f32, b: *const f32, acc: *mut f32) {
    use std::arch::x86_64::*;
    // SAFETY: extents guaranteed by the caller contract above.
    unsafe {
        let mut c = [_mm512_setzero_ps(); 16];
        for (i, row) in c.iter_mut().enumerate() {
            *row = _mm512_loadu_ps(acc.add(i * 16));
        }
        for p in 0..kc {
            let bv = _mm512_loadu_ps(b.add(p * 16));
            for (i, row) in c.iter_mut().enumerate() {
                let ai = _mm512_set1_ps(*a.add(p * 16 + i));
                *row = _mm512_fmadd_ps(ai, bv, *row);
            }
        }
        for (i, row) in c.iter().enumerate() {
            _mm512_storeu_ps(acc.add(i * 16), *row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::available_isas;

    #[test]
    fn scalar_always_available() {
        assert!(available_isas().contains(&Isa::Scalar));
        assert!(kernel_for(Isa::Scalar).is_some());
    }

    #[test]
    fn available_tiers_have_kernels_with_matching_isa() {
        for tier in available_isas() {
            let k = kernel_for(tier).expect("available tier must have a kernel");
            assert_eq!(k.isa, tier);
        }
    }
}
