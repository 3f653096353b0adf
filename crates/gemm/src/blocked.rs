//! Rayon-parallel SGEMM with a fused-epilogue entry point: the public
//! entry points, the driver selection, and the packed driver built on the
//! shared register-blocked microkernel in [`crate::micro`].
//!
//! A launch's `B` is either a caller's raw slice ([`sgemm`],
//! [`sgemm_epilogue`]) or a [`PackedB`] laid out once ahead of time
//! ([`sgemm_prepacked`]) — every model weight, as the paper's cuBLAS calls
//! read weights laid out at load. There are two f32 drivers, and every entry
//! point chooses between them **from the shape alone** — no environment
//! variable, no configuration field, nothing a caller passes:
//!
//! * `m ≤ SKINNY_MAX_M` and `B` not transposed → the skinny driver
//!   ([`crate::skinny`]): `B` read in place (row-major slice or panels),
//!   only the few rows of `A` packed, parallel over column blocks of `C`.
//!   This is the decode step (`m` = live sessions) and every other short
//!   launch;
//! * anything else — more rows, `transb`, and every low-precision tier —
//!   → the packed driver below.
//!
//! Both accumulate every output element as one `p`-ascending chain and
//! finish it with the same [`store_row`], so for one
//! [`MicroKernel::fused_fma`](crate::micro::MicroKernel::fused_fma) class
//! the stored bits do not depend on which driver ran, nor on whether `B`
//! came raw or packed: a row computed at `m = 1` equals the same row inside
//! an `m = 1024` product (`tests/skinny_differential.rs`). The crossover is
//! therefore a pure performance constant, read off the `skinny` section of
//! `BENCH_gemm.json`.
//!
//! The packed driver's layout mirrors a classic GotoBLAS/cuBLAS
//! decomposition adapted to CPU threads standing in for threadblocks:
//!
//! * `B` is read as [`PackedB`]'s 16-wide k-major micropanels (the staged
//!   "shared memory" image, shared read-only by every task). A weight is
//!   already in that form; a raw slice is packed into it once per launch
//!   (consuming the `transb` layout directly — no separate transpose pass),
//!   and then the same body runs; a narrow precision quantises `B` into its
//!   own format per launch, from the panels or the untransposed raw slice;
//! * `C` is split into row panels, one rayon task per panel (the
//!   "threadblock" grid); each task packs its own row-major `A` rows into
//!   `MR`-wide micropanels;
//! * each `MR×NR` output block accumulates in microkernel locals across the
//!   *entire* `K` extent (the "register tile"), and the optional
//!   [`TileEpilogue`] runs on the task's row panel as soon as the task has
//!   stored it, while it is still in the core's cache — the fusion point the
//!   paper uses to hide add-bias + GELU inside the GEMM (§III.C.2). One call
//!   per panel rather than per `NR`-wide row segment: a dynamic call costs
//!   as much as a 16-element GELU, and a long contiguous segment is what the
//!   epilogue's loop vectorises best.

use crate::dispatch::{self, Precision};
use crate::grouped::TileEpilogue;
use crate::micro::{PanelKernel, MR_MAX, NR_MAX};
use crate::packed::{BView, PackedB};
use crate::scratch::TASK;
use crate::skinny::SKINNY_MAX_M;
use bt_obs::names::{GEMM_BLOCKED_LAUNCHES_PREFIX, GEMM_B_PACKS, GEMM_SKINNY_LAUNCHES_PREFIX};
use rayon::prelude::*;
use std::borrow::Cow;

/// Rows of `C` per parallel task (a multiple of every kernel's `MR`).
const PANEL_ROWS: usize = 32;

/// GEMM configuration for `C = alpha * A·op(B)`: `A` is row-major `m×k`,
/// `B` row-major `k×n` or, transposed, `n×k`.
#[derive(Debug, Clone, Copy)]
pub struct GemmSpec {
    /// Consume `B` transposed (`B` stored `n×k`).
    pub transb: bool,
    /// Scale on the product.
    pub alpha: f32,
}

impl GemmSpec {
    /// No transpose, `alpha = 1`.
    pub fn nn() -> Self {
        Self {
            transb: false,
            alpha: 1.0,
        }
    }

    /// `B` transposed (the `Q·Kᵀ` shape), `alpha = 1`.
    pub fn nt() -> Self {
        Self {
            transb: true,
            ..Self::nn()
        }
    }

    /// Sets `alpha`.
    pub fn alpha(mut self, alpha: f32) -> Self {
        self.alpha = alpha;
        self
    }
}

/// `C = alpha * A·op(B)`, row-major, parallel; `C`'s contents are never read.
///
/// # Panics
/// Panics if a slice is shorter than its declared shape.
pub fn sgemm(spec: GemmSpec, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    sgemm_inner(spec.alpha, m, a, BOperand::raw(spec, k, n, b), c, None, None)
}

/// [`sgemm`] with a fused epilogue: every region of `C` a task finishes
/// (still in cache) goes through `epilogue` in place before the task ends —
/// the CPU form of the paper's CUTLASS epilogue fusion. The values it sees
/// are exactly what [`sgemm`] would have stored, so `sgemm` followed by the
/// same element-wise pass gives the same bits.
#[allow(clippy::too_many_arguments)]
pub fn sgemm_epilogue(
    spec: GemmSpec,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    epilogue: &dyn TileEpilogue,
) {
    sgemm_inner(spec.alpha, m, a, BOperand::raw(spec, k, n, b), c, Some(epilogue), None)
}

/// `C = A·B` against a `B` packed once ahead of time — a model weight —
/// with an optional fused epilogue: the launch lays out no part of `B`
/// (at f32; the f16 / int8 tiers quantise it from the panels). Same driver
/// choice and the same stored bits as [`sgemm`] / [`sgemm_epilogue`] on
/// `b.to_row_major()`.
///
/// # Panics
/// Panics if `a` is shorter than `m × b.k()` or `c` than `m × b.n()`.
pub fn sgemm_prepacked(m: usize, a: &[f32], b: &PackedB, c: &mut [f32], epilogue: Option<&dyn TileEpilogue>) {
    sgemm_inner(1.0, m, a, BOperand::Packed(b), c, epilogue, None)
}

/// Stores one microkernel accumulator row into a `C` row segment scaled by
/// `alpha`. The finish every dense driver shares; the epilogue runs after
/// it, on what it stored.
#[inline]
pub(crate) fn store_row(c_row: &mut [f32], acc_row: &[f32], alpha: f32) {
    for (cv, &av) in c_row.iter_mut().zip(acc_row) {
        *cv = alpha * av;
    }
}

/// Records one launch of every engine on `kern`'s dispatch path: the rate
/// inputs `gemm.calls.<isa>.<prec>` and `gemm.flops.<isa>.<prec>` (`flops` =
/// 2·m·n·k summed over the launch's problems; the windowed snapshot divides
/// its delta by the window to report GFLOP/s per path), and `units` on the
/// driver's own counter `<driver><isa>` (f32) or `<driver><isa>.<prec>`.
pub(crate) fn record_dispatch<K: PanelKernel>(kern: &K, flops: u64, driver: &str, units: u64) {
    if bt_obs::enabled() {
        let (isa, prec) = kern.path();
        let path = format!("{}.{prec}", isa.name());
        bt_obs::counter(&format!("{}{path}", bt_obs::names::GEMM_CALLS_PREFIX)).incr();
        bt_obs::counter(&format!("{}{path}", bt_obs::names::GEMM_FLOPS_PREFIX)).add(flops);
        let suffix = if prec == Precision::F32 { isa.name() } else { &path };
        bt_obs::counter(&format!("{driver}{suffix}")).add(units);
    }
}

/// The two f32 drivers. Production entry points pick one from the shape
/// alone (see [`sgemm_inner`]); benches and the differential suite pin one
/// through [`sgemm_pinned`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `B` as 16-column panels, parallel over row panels of `C`.
    Packed,
    /// `B` read in place, row-major or panels, parallel over column blocks
    /// of `C` ([`crate::skinny`]); requires `transb == false`.
    Skinny,
}

impl Driver {
    /// The driver's name in bench rows.
    pub fn name(self) -> &'static str {
        match self {
            Driver::Packed => "packed",
            Driver::Skinny => "skinny",
        }
    }
}

/// [`sgemm_epilogue`] on the f32 family of the active ISA tier with the
/// driver pinned instead of chosen from the shape — the test/bench seam for
/// comparing the two drivers on identical operands. Not a tuning knob:
/// production callers have no way to reach it through configuration.
///
/// # Panics
/// Panics on short slices, or if `Driver::Skinny` is pinned with `transb`.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn sgemm_pinned(
    driver: Driver,
    spec: GemmSpec,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    epilogue: Option<&dyn TileEpilogue>,
) {
    assert!(
        !(driver == Driver::Skinny && spec.transb),
        "the skinny driver reads B untransposed; transb is the packed driver's"
    );
    sgemm_inner(
        spec.alpha,
        m,
        a,
        BOperand::raw(spec, k, n, b),
        c,
        epilogue,
        Some(driver),
    )
}

/// [`sgemm_prepacked`] with the driver pinned (see [`sgemm_pinned`]).
#[doc(hidden)]
pub fn sgemm_prepacked_pinned(
    driver: Driver,
    m: usize,
    a: &[f32],
    b: &PackedB,
    c: &mut [f32],
    epilogue: Option<&dyn TileEpilogue>,
) {
    sgemm_inner(1.0, m, a, BOperand::Packed(b), c, epilogue, Some(driver))
}

/// A launch's `B`: a caller's raw slice, or a matrix packed ahead of time.
#[derive(Clone, Copy)]
pub(crate) enum BOperand<'b> {
    /// Row-major `k×n` (`n×k` when `transb`).
    Raw {
        b: &'b [f32],
        transb: bool,
        k: usize,
        n: usize,
    },
    Packed(&'b PackedB),
}

impl<'b> BOperand<'b> {
    fn raw(spec: GemmSpec, k: usize, n: usize, b: &'b [f32]) -> Self {
        assert!(b.len() >= k * n, "B too short: {} < {}", b.len(), k * n);
        BOperand::Raw {
            b,
            transb: spec.transb,
            k,
            n,
        }
    }

    /// `(k, n)`.
    pub(crate) fn dims(self) -> (usize, usize) {
        match self {
            BOperand::Raw { k, n, .. } => (k, n),
            BOperand::Packed(b) => (b.k(), b.n()),
        }
    }

    pub(crate) fn transb(self) -> bool {
        matches!(self, BOperand::Raw { transb: true, .. })
    }

    /// `B` as f32 panels: a raw slice is packed here, once per launch
    /// (counted on `gemm.b_packs`); a [`PackedB`] is used as is.
    pub(crate) fn panels(self) -> Cow<'b, PackedB> {
        match self {
            BOperand::Raw { b, transb, k, n } => {
                count_b_pack();
                Cow::Owned(PackedB::pack(b, transb, k, n))
            }
            BOperand::Packed(b) => Cow::Borrowed(b),
        }
    }

    /// `B` where it lies (never transposed): the skinny driver's view.
    pub(crate) fn view(self) -> BView<'b> {
        match self {
            BOperand::Raw { b, n, .. } => BView::row_major(b, n),
            BOperand::Packed(b) => BView::panels(b),
        }
    }
}

/// Counts one per-launch layout of a `B` operand (an f32 pack of a raw
/// slice, or a low-precision quantisation of panels) on `gemm.b_packs`.
pub(crate) fn count_b_pack() {
    if bt_obs::enabled() {
        bt_obs::counter(GEMM_B_PACKS).incr();
    }
}

fn sgemm_inner(
    alpha: f32,
    m: usize,
    a: &[f32],
    b: BOperand<'_>,
    c: &mut [f32],
    epilogue: Option<&dyn TileEpilogue>,
    pinned: Option<Driver>,
) {
    let (k, n) = b.dims();
    assert!(a.len() >= m * k, "A too short: {} < {}", a.len(), m * k);
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Degenerate product: every element is `alpha·0`, what `store_row`
        // stores from an empty accumulation (kernel-independent — no
        // dispatch needed).
        c[..m * n].fill(alpha * 0.0);
        if let Some(epi) = epilogue {
            epi.apply(0, 0, 0, m, n, &mut c[..m * n]);
        }
        return;
    }

    // One read of the selection per launch, so its geometry holds even if
    // the selection changes mid-flight. Below f32 the packed driver runs the
    // low-precision kernel; a pinned driver (tests, benches) is f32.
    let kernels = dispatch::active();
    if let (Some(lk), None) = (kernels.lowp, pinned) {
        return sgemm_packed(lk, alpha, m, a, b, c, epilogue);
    }
    let kern = kernels.micro;
    // The driver is a function of the shape alone: few rows stream `B` in
    // place; everything else runs register tiles over its panels. Both
    // produce the same bits (see `crate::skinny`).
    let driver = pinned.unwrap_or(if m <= SKINNY_MAX_M && !b.transb() {
        Driver::Skinny
    } else {
        Driver::Packed
    });
    if driver == Driver::Packed {
        return sgemm_packed(kern, alpha, m, a, b, c, epilogue);
    }
    record_dispatch(kern, 2 * (m * n * k) as u64, GEMM_SKINNY_LAUNCHES_PREFIX, 1);
    crate::skinny::sgemm_skinny(kern.skinny, alpha, m, n, k, a, b.view(), c, epilogue)
}

/// The packed driver, one body for every precision: `B`'s panels in
/// `kern`'s format (a [`PackedB`]'s own for f32; quantised once per
/// launch, each panel with its scale lanes, for a narrow format), one rayon
/// task per `C` row panel packing its own `A` rows, register-tile
/// accumulation over the full `K` extent, and the shared alpha store and
/// epilogue. Monomorphised per kernel type, so the f32 instance is the
/// plain f32 loop.
fn sgemm_packed<K: PanelKernel>(
    kern: &K,
    alpha: f32,
    m: usize,
    a: &[f32],
    b: BOperand<'_>,
    c: &mut [f32],
    epilogue: Option<&dyn TileEpilogue>,
) {
    let (k, n) = b.dims();
    record_dispatch(kern, 2 * (m * n * k) as u64, GEMM_BLOCKED_LAUNCHES_PREFIX, 1);
    let (mr, nr) = kern.tile();
    let (apl, bpl) = kern.panel_lens(k);
    debug_assert_eq!(PANEL_ROWS % mr, 0, "row panels must hold whole micropanels");
    let n_panels = n.div_ceil(nr);
    let b_panels = kern.b_panels(b);
    let (sa_lanes, sb_lanes) = (kern.a_scale_lanes(), kern.b_scale_lanes());

    c[..m * n]
        .par_chunks_mut(PANEL_ROWS * n)
        .enumerate()
        .for_each(|(chunk_idx, c_panel)| {
            let row0 = chunk_idx * PANEL_ROWS;
            let rows = c_panel.len() / n;
            let m_panels = rows.div_ceil(mr);
            // Packed A rows (the task's full K extent, reused across every
            // column panel) live in pooled task scratch — no heap
            // allocation once the process has seen this panel size. The
            // packers overwrite every lane including the pads, so stale
            // contents are harmless.
            TASK.with(|scratch| {
                let s = scratch.panels(kern, k, m_panels, 0, 0, 0);
                for ib in 0..m_panels {
                    let (r0, r) = (row0 + ib * mr, mr.min(rows - ib * mr));
                    kern.pack_a_rows(
                        &mut s.a[ib * apl..(ib + 1) * apl],
                        &mut s.sa[ib * sa_lanes..(ib + 1) * sa_lanes],
                        &a[r0 * k..(r0 + r) * k],
                        r,
                        k,
                        s.cvt,
                    );
                }
                kern.count_pack_bytes(m_panels * apl);
                for jb in 0..n_panels {
                    let col0 = jb * nr;
                    let cols = nr.min(n - col0);
                    let b_panel = &b_panels.data[jb * bpl..(jb + 1) * bpl];
                    let scales = jb * sb_lanes..(jb + 1) * sb_lanes;
                    for ib in 0..m_panels {
                        let r = mr.min(rows - ib * mr);
                        let mut acc = [0.0f32; MR_MAX * NR_MAX];
                        kern.run_block(
                            k,
                            &s.a[ib * apl..(ib + 1) * apl],
                            b_panel,
                            &mut acc,
                            &s.sa[ib * sa_lanes..(ib + 1) * sa_lanes],
                            &b_panels.sb[scales.clone()],
                            &b_panels.colsum[scales.clone()],
                        );
                        for i in 0..r {
                            let row = ib * mr + i;
                            store_row(
                                &mut c_panel[row * n + col0..row * n + col0 + cols],
                                &acc[i * nr..i * nr + cols],
                                alpha,
                            );
                        }
                    }
                }
            });
            if let Some(epi) = epilogue {
                epi.apply(0, row0, 0, rows, n, c_panel);
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::gemm_ref;
    use bt_tensor::compare::assert_close;
    use bt_tensor::rng::Xoshiro256StarStar;

    fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
    }

    fn check_against_ref(spec: GemmSpec, m: usize, n: usize, k: usize) {
        let a = rand_vec(m * k, 1);
        let b = rand_vec(k * n, 2);
        let mut c1 = rand_vec(m * n, 3);
        let mut c2 = c1.clone();
        sgemm(spec, m, n, k, &a, &b, &mut c1);
        gemm_ref(spec.transb, m, n, k, spec.alpha, &a, &b, &mut c2);
        assert_close(&c1, &c2, 1e-4 * k as f32);
    }

    #[test]
    fn matches_reference_various_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (32, 32, 32),
            (33, 65, 127),
            (64, 256, 64),
            (100, 30, 300),
        ] {
            check_against_ref(GemmSpec::nn(), m, n, k);
        }
    }

    #[test]
    fn matches_reference_microtile_remainders() {
        // Shapes straddling every MR/NR remainder class.
        for &(m, n, k) in &[(7, 9, 5), (8, 8, 8), (9, 7, 16), (15, 17, 1), (31, 33, 40)] {
            check_against_ref(GemmSpec::nn(), m, n, k);
            check_against_ref(GemmSpec::nt(), m, n, k);
        }
    }

    #[test]
    fn matches_reference_transposed() {
        check_against_ref(GemmSpec::nt(), 33, 47, 65);
        check_against_ref(GemmSpec::nt().alpha(0.5), 19, 23, 40);
    }

    #[test]
    fn alpha_respected() {
        check_against_ref(GemmSpec::nn().alpha(2.5), 40, 40, 40);
    }

    #[test]
    fn k_zero_stores_zero() {
        let mut c = vec![2.0f32; 4];
        sgemm(GemmSpec::nn(), 2, 2, 0, &[], &[], &mut c);
        assert_eq!(c, vec![0.0; 4]);
    }

    #[test]
    fn empty_output_is_noop() {
        let mut c: Vec<f32> = vec![];
        sgemm(GemmSpec::nn(), 0, 5, 3, &[0.0; 0], &[0.0; 15], &mut c);
        sgemm(GemmSpec::nn(), 5, 0, 3, &[0.0; 15], &[], &mut c);
    }

    /// Adds `1000·row + col` to every element, so an epilogue call with the
    /// wrong global coordinates would show.
    struct StampCoords;

    impl TileEpilogue for StampCoords {
        fn apply(&self, _: usize, row0: usize, col0: usize, rows: usize, cols: usize, tile: &mut [f32]) {
            for i in 0..rows {
                for j in 0..cols {
                    tile[i * cols + j] += (1000 * (row0 + i) + col0 + j) as f32;
                }
            }
        }
    }

    #[test]
    fn epilogue_sees_global_coordinates_on_both_drivers() {
        // Skinny (m ≤ SKINNY_MAX_M, row-major B) and packed (taller, or
        // transb) shapes, ragged in both tile dimensions.
        for &(m, n, k, transb) in &[
            (7, 9, 11, false),
            (40, 70, 13, false),
            (300, 37, 5, false),
            (33, 70, 9, true),
        ] {
            let a = rand_vec(m * k, 4);
            let b = rand_vec(k * n, 5);
            let spec = GemmSpec {
                transb,
                ..GemmSpec::nn()
            };
            let mut plain = vec![0.0f32; m * n];
            let mut fused = vec![0.0f32; m * n];
            sgemm(spec, m, n, k, &a, &b, &mut plain);
            sgemm_epilogue(spec, m, n, k, &a, &b, &mut fused, &StampCoords);
            for i in 0..m {
                for j in 0..n {
                    let want = plain[i * n + j] + (1000 * i + j) as f32;
                    assert_eq!(fused[i * n + j].to_bits(), want.to_bits(), "{m}x{n}x{k} ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn epilogue_applied_when_k_zero() {
        let mut c = vec![1.0f32, -2.0, 3.0, -4.0];
        sgemm_epilogue(GemmSpec::nn(), 2, 2, 0, &[], &[], &mut c, &StampCoords);
        assert_eq!(c, vec![0.0, 1.0, 1000.0, 1001.0]);
    }

    #[test]
    fn large_parallel_shape_matches() {
        // Exercises multiple row panels and both packing paths.
        check_against_ref(GemmSpec::nn(), 200, 70, 600);
    }
}
