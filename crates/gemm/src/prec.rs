//! Runtime precision dispatch — the second axis of the kernel family.
//!
//! [`crate::isa`] picks *how wide* the microkernel computes; this module
//! picks *how narrow* the packed panels are stored. It is the CPU analogue
//! of the paper's §III.C SIMD2 `half2` path: panels are written half-width
//! (or quarter-width) at pack time and expanded in-register inside the
//! microkernel, so the bytes crossing the cache hierarchy shrink while the
//! arithmetic stays (mostly) f32. A precision changes only the panel format:
//! every tier runs through the same packed-driver body. It applies to the
//! dense GEMMs only: the grouped engine, like every attention form, is f32
//! at every precision (see [`crate::grouped`]).
//!
//! | precision | packed elems        | accumulation                        |
//! |-----------|---------------------|-------------------------------------|
//! | `f32`     | f32 (4 B)           | f32 FMA (the [`crate::isa`] family) |
//! | `f16`     | IEEE binary16 (2 B) | `vfmadd231ph` or convert + f32 FMA  |
//! | `int8`    | symmetric i8 (1 B)  | i32 dot, dequantized per tile       |
//!
//! Selection mirrors the ISA axis exactly: lazy process-wide init from
//! `BYTE_GEMM_PREC` (`f32|f16|int8`, unknown values panic with the
//! accepted set), a strict programmatic setter for tests and benches, and
//! one read per GEMM launch so a launch is internally consistent. Every
//! precision has a scalar implementation, so unlike the ISA axis a
//! *precision* is never unavailable — only a particular precision × ISA
//! *implementation* can be missing, in which case kernel resolution in
//! [`crate::lowp`] degrades to a narrower ISA tier with a
//! [`bt_obs::warn_once`] diagnostic.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Once;

/// Storage precisions of the GEMM panel/kernel family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Precision {
    /// Full f32 panels — the original [`crate::isa`] microkernel family.
    F32,
    /// IEEE binary16 panels, round-to-nearest-even conversion at pack time.
    F16,
    /// Symmetric per-row/per-column int8 quantization, exact i32 dots.
    Int8,
}

impl Precision {
    /// Every precision, widest storage first.
    pub const ALL: [Precision; 3] = [Precision::F32, Precision::F16, Precision::Int8];

    /// Canonical lowercase name (the `BYTE_GEMM_PREC` spelling).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F16 => "f16",
            Precision::Int8 => "int8",
        }
    }

    /// Bytes per packed panel element (the byte-traffic lever: 4/2/1).
    pub fn elem_bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F16 => 2,
            Precision::Int8 => 1,
        }
    }

    fn index(self) -> u8 {
        match self {
            Precision::F32 => 0,
            Precision::F16 => 1,
            Precision::Int8 => 2,
        }
    }

    fn from_index(idx: u8) -> Precision {
        Precision::ALL[idx as usize]
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses a `BYTE_GEMM_PREC` value (case-insensitive, surrounding
/// whitespace ignored).
///
/// # Errors
/// Returns a message naming the offending value and the accepted set —
/// this is what [`active_precision`] panics with on an unknown override.
pub fn parse_prec_request(s: &str) -> Result<Precision, String> {
    match s.trim().to_ascii_lowercase().as_str() {
        "f32" => Ok(Precision::F32),
        "f16" => Ok(Precision::F16),
        "int8" => Ok(Precision::Int8),
        _ => Err(format!(
            "BYTE_GEMM_PREC: unknown value `{s}` (expected one of `f32`, `f16`, `int8`)"
        )),
    }
}

/// Active precision index, or `UNSET` before first use.
static ACTIVE: AtomicU8 = AtomicU8::new(UNSET);
static ENV_INIT: Once = Once::new();
const UNSET: u8 = u8::MAX;

fn init_from_env() {
    ENV_INIT.call_once(|| {
        let prec = match std::env::var("BYTE_GEMM_PREC") {
            Ok(s) => parse_prec_request(&s).unwrap_or_else(|e| panic!("{e}")),
            Err(_) => Precision::F32,
        };
        // May race a concurrent `set_active_precision`; either value is a
        // valid selection and the `Once` keeps the env consulted only once.
        let _ = ACTIVE.compare_exchange(UNSET, prec.index(), Ordering::Release, Ordering::Relaxed);
    });
}

/// The process-wide active precision (initialized from `BYTE_GEMM_PREC` on
/// first use, default `f32`). Every GEMM launch reads this once at entry.
///
/// # Panics
/// Panics (once) if `BYTE_GEMM_PREC` is set to an unknown value.
pub fn active_precision() -> Precision {
    let mut idx = ACTIVE.load(Ordering::Acquire);
    if idx == UNSET {
        init_from_env();
        idx = ACTIVE.load(Ordering::Acquire);
    }
    Precision::from_index(idx)
}

/// Forces the active precision — the programmatic hook the differential
/// tests and benches use to pin each precision in turn. Always succeeds:
/// every precision has a scalar implementation, so there is no unavailable
/// precision (only per-ISA implementations can be missing, handled at
/// kernel resolution with a warning).
pub fn set_active_precision(prec: Precision) {
    // Mark env processing as done so a later `active_precision` cannot undo
    // an explicit selection (`Once` tolerates redundant calls).
    ENV_INIT.call_once(|| {});
    ACTIVE.store(prec.index(), Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_spellings() {
        for p in Precision::ALL {
            assert_eq!(parse_prec_request(p.name()), Ok(p));
            assert_eq!(parse_prec_request(&format!("  {}  ", p.name().to_uppercase())), Ok(p));
        }
    }

    #[test]
    fn parse_rejects_unknown_with_accepted_set() {
        let err = parse_prec_request("fp8").unwrap_err();
        assert!(err.contains("fp8"));
        for p in Precision::ALL {
            assert!(err.contains(p.name()), "error must list `{}`: {err}", p.name());
        }
    }

    #[test]
    fn elem_bytes_shrink_monotonically() {
        assert_eq!(
            Precision::ALL.map(Precision::elem_bytes),
            [4, 2, 1],
            "precision axis exists to shrink panel bytes"
        );
    }
}
