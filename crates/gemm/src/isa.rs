//! Runtime ISA dispatch for the microkernel family.
//!
//! The paper's fused kernels are written against hardware-wide register
//! tiles (CUTLASS tensor-core fragments, `__half2` SIMD2 pairs); the CPU
//! analogue is picking the widest SIMD tier the host actually has. One
//! kernel is selected for the whole process:
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
//! `B` in place, row-major or panels); the tier selected here picks those
//! too.
//!
//! Selection happens once, lazily, from `is_x86_feature_detected!` — best
//! tier wins — and can be overridden with the `BYTE_GEMM_ISA` environment
//! variable (`scalar|avx2|avx512|auto`) for testing and benchmarking. An
//! unknown value panics with the accepted set; requesting a tier the host
//! lacks falls back to the best available one with a one-time warning on
//! stderr (the env var is a *preference*, scripts must keep working on
//! smaller hosts). Programmatic selection via [`set_active_isa`] is strict
//! and returns an error instead.
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

use crate::micro::{scalar_kernel, MicroKernel, SCALAR_FUSED_FMA, SCALAR_MR, SCALAR_NR};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Once;

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

    fn index(self) -> u8 {
        match self {
            Isa::Scalar => 0,
            Isa::Avx2 => 1,
            Isa::Avx512 => 2,
        }
    }

    fn from_index(idx: u8) -> Isa {
        Isa::ALL[idx as usize]
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A parsed `BYTE_GEMM_ISA` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsaRequest {
    /// Pick the widest tier the host supports (the default).
    Auto,
    /// Prefer one specific tier.
    Exact(Isa),
}

/// Parses a `BYTE_GEMM_ISA` value (case-insensitive, surrounding whitespace
/// ignored).
///
/// # Errors
/// Returns a message naming the offending value and the accepted set —
/// this is what [`active_kernel`] panics with on an unknown override.
pub fn parse_isa_request(s: &str) -> Result<IsaRequest, String> {
    match s.trim().to_ascii_lowercase().as_str() {
        "auto" => Ok(IsaRequest::Auto),
        "scalar" => Ok(IsaRequest::Exact(Isa::Scalar)),
        "avx2" => Ok(IsaRequest::Exact(Isa::Avx2)),
        "avx512" => Ok(IsaRequest::Exact(Isa::Avx512)),
        _ => Err(format!(
            "BYTE_GEMM_ISA: unknown value `{s}` (expected one of `scalar`, `avx2`, `avx512`, `auto`)"
        )),
    }
}

/// Whether the running CPU supports a tier's kernel.
fn detected(isa: Isa) -> bool {
    match isa {
        Isa::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => is_x86_feature_detected!("avx512f"),
        #[cfg(not(target_arch = "x86_64"))]
        _ => false,
    }
}

/// The tiers this host can run, poorest to widest. Always contains
/// [`Isa::Scalar`].
pub fn available_isas() -> Vec<Isa> {
    Isa::ALL.into_iter().filter(|&i| detected(i)).collect()
}

/// Resolves a request against an availability set (pure — unit-testable
/// without faking CPUID). Returns the selected tier and, when the request
/// had to be downgraded, a human-readable warning.
pub fn resolve_request(request: IsaRequest, available: &[Isa]) -> (Isa, Option<String>) {
    let best = available.iter().copied().max().unwrap_or(Isa::Scalar);
    match request {
        IsaRequest::Auto => (best, None),
        IsaRequest::Exact(isa) if available.contains(&isa) => (isa, None),
        IsaRequest::Exact(isa) => (
            best,
            Some(format!(
                "BYTE_GEMM_ISA={} requested but this host does not support it; falling back to `{}`",
                isa.name(),
                best.name()
            )),
        ),
    }
}

/// Emits a degraded-dispatch diagnostic through [`bt_obs::warn_once`]: it
/// prints at most once per process and lands in the captured warning log,
/// so tests assert on it instead of scraping stderr.
fn emit_warning(w: &str) {
    bt_obs::warn_once("bt-gemm.isa", &format!("bt-gemm: {w}"));
}

static SCALAR_KERNEL: MicroKernel = MicroKernel::new(
    Isa::Scalar,
    SCALAR_MR,
    SCALAR_NR,
    SCALAR_FUSED_FMA,
    scalar_kernel::<SCALAR_FUSED_FMA>,
);

#[cfg(target_arch = "x86_64")]
static AVX2_KERNEL: MicroKernel = MicroKernel::new(Isa::Avx2, 8, 16, true, avx2_kernel_8x16);

#[cfg(target_arch = "x86_64")]
static AVX512_KERNEL: MicroKernel = MicroKernel::new(Isa::Avx512, 16, 16, true, avx512_kernel_16x16);

/// The kernel implementing a tier, or `None` when this host cannot run it.
pub fn kernel_for(isa: Isa) -> Option<&'static MicroKernel> {
    if !detected(isa) {
        return None;
    }
    match isa {
        Isa::Scalar => Some(&SCALAR_KERNEL),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => Some(&AVX2_KERNEL),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => Some(&AVX512_KERNEL),
        #[cfg(not(target_arch = "x86_64"))]
        _ => None,
    }
}

/// Active tier index, or `UNSET` before first use.
static ACTIVE: AtomicU8 = AtomicU8::new(UNSET);
static ENV_INIT: Once = Once::new();
const UNSET: u8 = u8::MAX;

fn init_from_env() {
    ENV_INIT.call_once(|| {
        let request = match std::env::var("BYTE_GEMM_ISA") {
            Ok(s) => parse_isa_request(&s).unwrap_or_else(|e| panic!("{e}")),
            Err(_) => IsaRequest::Auto,
        };
        let (isa, warning) = resolve_request(request, &available_isas());
        if let Some(w) = warning {
            emit_warning(&w);
        }
        // `store` may race a concurrent `set_active_isa`; either value is a
        // valid selection and the `Once` keeps the env consulted only once.
        let _ = ACTIVE.compare_exchange(UNSET, isa.index(), Ordering::Release, Ordering::Relaxed);
    });
}

/// The process-wide active tier (initialized from `BYTE_GEMM_ISA` or auto
/// detection on first use).
pub fn active_isa() -> Isa {
    active_kernel().isa
}

/// The process-wide active microkernel. Every GEMM launch reads this once
/// at entry, so a launch is internally consistent even if the selection is
/// changed concurrently.
///
/// # Panics
/// Panics (once) if `BYTE_GEMM_ISA` is set to an unknown value.
pub fn active_kernel() -> &'static MicroKernel {
    let mut idx = ACTIVE.load(Ordering::Acquire);
    if idx == UNSET {
        init_from_env();
        idx = ACTIVE.load(Ordering::Acquire);
    }
    kernel_for(Isa::from_index(idx)).expect("active tier was verified available at selection time")
}

/// Forces the active tier — the programmatic hook the differential tests
/// and benches use to pin each tier in turn. Unlike the env override this
/// is strict: requesting an unavailable tier is an error, not a fallback.
///
/// # Errors
/// Returns a message naming the unsupported tier.
pub fn set_active_isa(isa: Isa) -> Result<(), String> {
    if !detected(isa) {
        return Err(format!("ISA tier `{}` is not supported on this host", isa.name()));
    }
    // Mark env processing as done so a later `active_kernel` cannot undo an
    // explicit selection (`Once` tolerates redundant calls).
    ENV_INIT.call_once(|| {});
    ACTIVE.store(isa.index(), Ordering::Release);
    Ok(())
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

    #[test]
    fn active_kernel_is_available() {
        let k = active_kernel();
        assert!(available_isas().contains(&k.isa));
    }

    #[test]
    fn unavailable_tier_warning_is_captured_once() {
        // Emit the same degraded-dispatch warning twice; the captured log
        // must hold exactly one entry for the key (warn_once dedupes).
        let (_, warning) = resolve_request(IsaRequest::Exact(Isa::Avx512), &[Isa::Scalar]);
        let w = warning.expect("unavailable tier must warn");
        assert!(w.contains("avx512") && w.contains("scalar"));
        emit_warning(&w);
        emit_warning(&w);
        let captured: Vec<_> = bt_obs::warnings()
            .into_iter()
            .filter(|(k, _)| k == "bt-gemm.isa")
            .collect();
        assert_eq!(captured.len(), 1, "warn_once must dedupe by key");
        assert!(captured[0].1.contains("bt-gemm:"));
    }
}
