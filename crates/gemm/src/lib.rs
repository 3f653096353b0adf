//! # bt-gemm — GEMM substrate (the cuBLAS/CUTLASS substitute)
//!
//! The paper leans on three vendor GEMM capabilities:
//!
//! 1. **Plain / batched GEMM** (cuBLAS) for the four projection/FFN GEMMs and
//!    the baseline attention path ([`sgemm`], [`batched`]).
//! 2. **Fused epilogues** (CUTLASS): element-wise transforms applied while
//!    the result tile is still in registers — add-bias + GELU (§III.C.2) and
//!    the softmax partial reduction of fused MHA (§III.E.2, Fig. 8).
//!    [`sgemm_epilogue`] and the grouped-GEMM entry points reproduce these
//!    fusion points through one contract, [`TileEpilogue`]: the transform
//!    runs on each finished output segment *before* the driver moves on, so
//!    the unfused variant's extra global-memory round trip never happens.
//! 3. **Grouped GEMM** (CUTLASS 2.10, which ByteTransformer itself extended):
//!    many sub-GEMMs of *arbitrary* shapes walked tile-by-tile by a built-in
//!    scheduler. [`grouped`] implements the round-robin problem visitor, the
//!    paper's **warp-prefetch scheduler optimization** (Fig. 7: one scheduler
//!    interaction fetches 32 tile assignments), and the **mainloop fusion**
//!    hook of Algorithm III.2 (an element-wise transform applied to A
//!    fragments as they are loaded, used to fold softmax normalization into
//!    the second attention GEMM).
//!
//! Operands are row-major `f32` slices, except a model weight: that is a
//! [`PackedB`], laid out once at load in the 16-column panel format every
//! f32 microkernel reads, and multiplied through [`sgemm_prepacked`]. A raw
//! `B` may be consumed transposed (`transb`), which is how `Q·Kᵀ` is
//! expressed. Parallelism maps CUDA threadblocks onto rayon tasks. Plain
//! GEMM has two f32 drivers and picks one from the shape alone: up to
//! `SKINNY_MAX_M` rows against an untransposed `B` (the decode step's
//! weight products) the skinny driver reads `B` in place — row-major or
//! panels — and parallelizes over **column blocks** of `C`; every other
//! shape (and every low-precision tier) runs register tiles over `B`'s
//! panels and parallelizes over **row panels** of `C`. The two are bitwise
//! interchangeable, so the choice is invisible to callers. Grouped GEMM
//! spawns a fixed number of virtual CTAs that pull tiles from the scheduler
//! exactly as Fig. 5 describes.

// `deny` rather than `forbid`: the lock-free output store (`store`) confines
// its raw-pointer writes behind a module-level `allow` with debug-checked
// disjointness, the ISA-dispatched microkernels (`isa`, `micro`) confine
// theirs behind `#[target_feature]` entry points with a documented
// zero-padded-panel invariant, and the in-place strip kernels (`skinny`)
// behind a wrapper that bounds every `B` element they read; everything else
// stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batched;
mod blocked;
pub mod dispatch;
pub mod grouped;
pub mod isa;
pub mod lowp;
pub mod micro;
mod packed;
mod reference;
pub mod scratch;
mod skinny;
pub mod store;

pub use blocked::{sgemm, sgemm_epilogue, sgemm_pinned, sgemm_prepacked, sgemm_prepacked_pinned, Driver, GemmSpec};
pub use dispatch::{
    active_isa, active_precision, available_isas, parse_prec_request, set_active_isa, set_active_precision, Precision,
};
pub use grouped::TileEpilogue;
pub use isa::Isa;
pub use lowp::{dot_error_bound, int8_dot_error_bound, lowp_impl, Chain, LowpKernel};
pub use packed::{PackedB, PANEL_NR};
pub use reference::gemm_ref;
#[doc(hidden)]
pub use skinny::SKINNY_MAX_M;
pub use store::DisjointWriter;

use bt_device::KernelSpec;

/// Builds the standard [`KernelSpec`] cost for an `m×n×k` GEMM with
/// `elem_bytes`-wide storage: `2mnk` FLOPs, `(mk + kn)` elements read,
/// `mn` elements written.
pub fn gemm_kernel_spec(name: impl Into<String>, m: usize, n: usize, k: usize, elem_bytes: usize) -> KernelSpec {
    KernelSpec::new(name)
        .flops(2 * (m as u64) * (n as u64) * (k as u64))
        .reads(((m * k + k * n) * elem_bytes) as u64)
        .writes((m * n * elem_bytes) as u64)
}

/// Like [`gemm_kernel_spec`] but priced at the *active precision*'s packed
/// element width — the cost-model view of the `BYTE_GEMM_PREC` axis (panel
/// bytes are what actually stream through the cache hierarchy).
pub fn gemm_kernel_spec_active(name: impl Into<String>, m: usize, n: usize, k: usize) -> KernelSpec {
    gemm_kernel_spec(name, m, n, k, active_precision().elem_bytes())
}
