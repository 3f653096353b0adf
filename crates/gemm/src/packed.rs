//! [`PackedB`]: a dense GEMM's `B` operand held in the one panel format
//! both f32 drivers read.
//!
//! The paper's dense GEMMs are cuBLAS calls against weights laid out once at
//! load (§III.A even fuses Q/K/V into one matrix there). A `PackedB` is that
//! layout on the CPU: the `k×n` matrix as ⌈n/16⌉ zero-padded, k-major,
//! 16-column panels — element `(p, j)` at `panel(j / 16)[p·16 + j % 16]` —
//! which is the `B` micropanel of every f32 microkernel tier (all of them
//! have `nr = 16`, so one format serves scalar, AVX2 and AVX-512 in one
//! process). Model weights are built straight into it and never exist
//! row-major:
//!
//! * the packed driver ([`crate::blocked`]) uses its panels as they are;
//! * the skinny driver ([`crate::skinny`]) reads them through the same
//!   strip kernels that read a row-major slice, with a row stride of 16 and
//!   a 16-column stride of one panel;
//! * the f16 / int8 tiers quantise `B` per launch ([`crate::lowp`]), from
//!   these panels or an untransposed raw slice alike.
//!
//! Otherwise a raw-slice [`crate::sgemm`] on the packed driver packs its `B`
//! first ([`PackedB::pack`]); `gemm.b_packs` counts that and quantisations.

use crate::micro::pack_b_panel;
use rayon::prelude::*;

/// Columns of one [`PackedB`] panel: the `nr` of every f32 microkernel.
pub const PANEL_NR: usize = 16;

/// A `k×n` matrix stored as ⌈n/16⌉ zero-padded, k-major, 16-column panels
/// (see the module docs). Pad lanes of the last panel are zero.
#[derive(Clone, PartialEq)]
pub struct PackedB {
    k: usize,
    n: usize,
    data: Vec<f32>,
}

impl PackedB {
    /// Builds a `k×n` matrix from values produced in row-major order:
    /// `next(p, j)` is called for `p` in `0..k`, then `j` in `0..n`. The
    /// values are drawn 16 rows at a time into a staging block, and each
    /// panel then takes its 16 × 16 piece of the block as one sequential
    /// run (a value written straight into its panel slot would jump
    /// `k · 16` elements per 16 columns).
    pub fn from_fn(k: usize, n: usize, mut next: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = vec![0.0f32; n.div_ceil(PANEL_NR) * k * PANEL_NR];
        let mut block = vec![0.0f32; PANEL_NR * n];
        for p0 in (0..k).step_by(PANEL_NR) {
            let rows = PANEL_NR.min(k - p0);
            let block = &mut block[..rows * n];
            for (i, row) in block.chunks_exact_mut(n.max(1)).enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = next(p0 + i, j);
                }
            }
            for (jb, panel) in data.chunks_exact_mut(k * PANEL_NR).enumerate() {
                let (c0, c) = (jb * PANEL_NR, PANEL_NR.min(n - jb * PANEL_NR));
                let dst = &mut panel[p0 * PANEL_NR..(p0 + rows) * PANEL_NR];
                for (dst, row) in dst.chunks_exact_mut(PANEL_NR).zip(block.chunks_exact(n)) {
                    dst[..c].copy_from_slice(&row[c0..c0 + c]);
                }
            }
        }
        Self { k, n, data }
    }

    /// Packs a row-major `k×n` slice (`n×k` when `transb`), one parallel
    /// task per panel.
    ///
    /// # Panics
    /// Panics if `b` holds fewer than `k·n` elements.
    pub fn pack(b: &[f32], transb: bool, k: usize, n: usize) -> Self {
        assert!(b.len() >= k * n, "B too short: {} < {}", b.len(), k * n);
        let mut data = vec![0.0f32; n.div_ceil(PANEL_NR) * k * PANEL_NR];
        if k > 0 {
            data.par_chunks_mut(k * PANEL_NR).enumerate().for_each(|(jb, dst)| {
                let col0 = jb * PANEL_NR;
                pack_b_panel(dst, b, transb, col0, PANEL_NR.min(n - col0), n, k, PANEL_NR);
            });
        }
        Self { k, n, data }
    }

    /// Rows (the contraction depth).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The matrix row-major, `k×n` — for oracles and tests.
    pub fn to_row_major(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.k * self.n];
        for (p, row) in out.chunks_exact_mut(self.n.max(1)).take(self.k).enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = self.data[self.offset(p, j)];
            }
        }
        out
    }

    /// Every panel, back to back: ⌈n/16⌉ panels of `k·16` elements, element
    /// `(p, j)` at `(j / 16)·k·16 + p·16 + j % 16`, pad lanes zero.
    pub fn panels(&self) -> &[f32] {
        &self.data
    }

    /// Index of element `(p, j)` in [`Self::panels`].
    fn offset(&self, p: usize, j: usize) -> usize {
        (j / PANEL_NR) * self.k * PANEL_NR + p * PANEL_NR + j % PANEL_NR
    }

    /// The panels, handed over (a raw slice's per-launch pack).
    pub(crate) fn into_panels(self) -> Vec<f32> {
        self.data
    }
}

impl std::fmt::Debug for PackedB {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedB")
            .field("k", &self.k)
            .field("n", &self.n)
            .finish()
    }
}

/// A `B` operand as the skinny strip kernels address it: element `(p, j)`
/// at `data[p·ldb + (j / 16)·vs + j % 16]`. A row-major `k×n` slice is
/// `ldb = n, vs = 16`; a [`PackedB`] is `ldb = 16, vs = 16·k`.
#[derive(Clone, Copy)]
pub(crate) struct BView<'a> {
    pub data: &'a [f32],
    /// Distance between consecutive rows (`p`).
    pub ldb: usize,
    /// Distance between consecutive 16-column groups.
    pub vs: usize,
}

impl<'a> BView<'a> {
    /// A row-major `k×n` slice.
    pub fn row_major(b: &'a [f32], n: usize) -> Self {
        Self {
            data: b,
            ldb: n,
            vs: PANEL_NR,
        }
    }

    /// The panels of `b`.
    pub fn panels(b: &'a PackedB) -> Self {
        Self {
            data: &b.data,
            ldb: PANEL_NR,
            vs: b.k * PANEL_NR,
        }
    }

    /// The view from row `p`, column `col` (a multiple of 16) on.
    pub fn at(self, p: usize, col: usize) -> &'a [f32] {
        debug_assert_eq!(col % PANEL_NR, 0);
        &self.data[p * self.ldb + (col / PANEL_NR) * self.vs..]
    }

    /// Row `p`, columns `col0 .. col0 + c`, as the contiguous pieces the view
    /// holds it in: `(column offset from col0, values)` — one per 16-column
    /// panel, one for a row-major row (fewer, longer conversion runs).
    pub fn row_pieces(self, p: usize, col0: usize, c: usize) -> impl Iterator<Item = (usize, &'a [f32])> {
        let mut j = col0;
        std::iter::from_fn(move || {
            (j < col0 + c).then(|| {
                let run_on = self.vs == PANEL_NR; // adjacent groups: a row-major row
                let end = if run_on {
                    col0 + c
                } else {
                    (j / PANEL_NR + 1) * PANEL_NR
                };
                let len = end.min(col0 + c) - j;
                let piece = (j - col0, &self.at(p, j - j % PANEL_NR)[j % PANEL_NR..][..len]);
                j += len;
                piece
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_major(k: usize, n: usize) -> Vec<f32> {
        (0..k * n).map(|i| i as f32 + 0.5).collect()
    }

    #[test]
    fn from_fn_draws_row_major_and_equals_pack() {
        // One partial row block, whole blocks with a ragged one after, an
        // exact panel, and the empty shapes.
        for (k, n) in [(5, 37), (40, 37), (16, 16), (33, 3), (0, 5), (3, 0)] {
            let b = row_major(k, n);
            let mut order = Vec::new();
            let built = PackedB::from_fn(k, n, |p, j| {
                order.push((p, j));
                b[p * n + j]
            });
            assert_eq!(
                order,
                (0..k).flat_map(|p| (0..n).map(move |j| (p, j))).collect::<Vec<_>>()
            );
            assert_eq!(built, PackedB::pack(&b, false, k, n), "k {k} n {n}");
        }
    }

    #[test]
    fn row_pieces_cover_a_span_in_both_layouts() {
        let (k, n) = (3, 40);
        let b = row_major(k, n);
        let pb = PackedB::pack(&b, false, k, n);
        for view in [BView::panels(&pb), BView::row_major(&b, n)] {
            let mut got = vec![0.0f32; 32];
            for (off, piece) in view.row_pieces(2, 8, 32) {
                got[off..off + piece.len()].copy_from_slice(piece);
            }
            assert_eq!(got, b[2 * n + 8..2 * n + 40]);
        }
    }
}
