//! Worker-keyed scratch arenas for the GEMM hot paths.
//!
//! One [`Scratch`] lives in a thread-local slot per pool worker (the rayon
//! shim's workers are persistent, so "per thread" *is* "per worker id"),
//! and **survives across launches**: a virtual CTA borrows its worker's
//! arena for the duration of one task, reuses it across every tile it
//! computes — the analogue of a threadblock's fixed shared-memory
//! allocation — and the next launch finds the buffers already at their
//! high-water marks. Buffers only ever grow, so the steady state performs
//! **zero heap allocations per tile, and zero per launch once shapes have
//! been seen**; the grow counter makes both properties assertable in tests
//! via [`crate::grouped::GroupedStats::scratch_grows`].
//!
//! Requested lengths are geometry-dependent — callers size panels from the
//! active microkernel's `mr×nr` tile (see [`crate::isa`]) — so switching
//! dispatch tiers mid-process at most ratchets a new high-water mark once;
//! the arenas themselves are geometry-agnostic byte pools.
//!
//! Borrow discipline: [`with_worker_scratch`] hands out the arena for the
//! span of one closure. The closure must not re-enter the parallel runtime
//! while holding it (every current caller is a leaf task); if a re-entrant
//! borrow ever happens anyway, the fallback is a fresh one-shot arena —
//! correct, just not amortized.

use std::cell::RefCell;

thread_local! {
    static WORKER_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Runs `f` with this worker's persistent scratch arena.
pub(crate) fn with_worker_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    WORKER_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        // Re-entrant borrow (nested GEMM on one worker): fall back to a
        // temporary arena rather than aliasing or panicking.
        Err(_) => f(&mut Scratch::new()),
    })
}

/// Reusable packing + accumulation buffers for one virtual CTA.
///
/// The f32 buffers serve the [`crate::isa`] family; the byte/scale/colsum
/// buffers serve the [`crate::lowp`] family (packed low-precision panels
/// are byte pools — per-kernel layouts are imposed by the packers, and the
/// `cvt` buffer stages one row's f16/bf16 conversion).
pub(crate) struct Scratch {
    a_pack: Vec<f32>,
    b_pack: Vec<f32>,
    tile: Vec<f32>,
    row_buf: Vec<f32>,
    lowp_a: Vec<u8>,
    lowp_b: Vec<u8>,
    scale_a: Vec<f32>,
    scale_b: Vec<f32>,
    colsum: Vec<i32>,
    cvt: Vec<u16>,
    grows: u64,
}

impl Scratch {
    pub(crate) fn new() -> Self {
        Self {
            a_pack: Vec::new(),
            b_pack: Vec::new(),
            tile: Vec::new(),
            row_buf: Vec::new(),
            lowp_a: Vec::new(),
            lowp_b: Vec::new(),
            scale_a: Vec::new(),
            scale_b: Vec::new(),
            colsum: Vec::new(),
            cvt: Vec::new(),
            grows: 0,
        }
    }

    /// Times any buffer had to grow. Stays flat once every shape in the
    /// problem set has been seen — the "zero allocations per tile" invariant.
    pub(crate) fn grow_count(&self) -> u64 {
        self.grows
    }

    /// Total f32-equivalent elements currently held across all buffers —
    /// the arena's high-water mark (buffers only ever grow), reported to
    /// telemetry. Sub-f32 buffers are rounded up to whole elements.
    pub(crate) fn high_water_elems(&self) -> usize {
        self.a_pack.len()
            + self.b_pack.len()
            + self.tile.len()
            + self.row_buf.len()
            + self.scale_a.len()
            + self.scale_b.len()
            + self.colsum.len()
            + (self.lowp_a.len() + self.lowp_b.len()).div_ceil(4)
            + (self.cvt.len() * 2).div_ceil(4)
    }

    /// Returns just the `A`-micropanel buffer at the requested length (the
    /// blocked-GEMM row-panel tasks pack only `A` per task; `B` is packed
    /// once per launch and shared).
    pub(crate) fn a_panels(&mut self, len: usize) -> &mut [f32] {
        grow(&mut self.a_pack, len, &mut self.grows);
        &mut self.a_pack[..len]
    }

    /// Returns just the accumulator-tile buffer at the requested length (the
    /// skinny driver's column-block tasks spill their register tiles here
    /// between `K` chunks; `A` is packed once per launch and shared, `B` is
    /// read in place).
    pub(crate) fn tile(&mut self, len: usize) -> &mut [f32] {
        grow(&mut self.tile, len, &mut self.grows);
        &mut self.tile[..len]
    }

    /// Returns `(a_pack, b_pack, tile, row_buf)` slices of at least the
    /// requested lengths, growing the backing buffers only on a new
    /// high-water mark. Contents are stale — callers overwrite fully.
    pub(crate) fn panels(
        &mut self,
        a_len: usize,
        b_len: usize,
        tile_len: usize,
        row_len: usize,
    ) -> (&mut [f32], &mut [f32], &mut [f32], &mut [f32]) {
        grow(&mut self.a_pack, a_len, &mut self.grows);
        grow(&mut self.b_pack, b_len, &mut self.grows);
        grow(&mut self.tile, tile_len, &mut self.grows);
        grow(&mut self.row_buf, row_len, &mut self.grows);
        (
            &mut self.a_pack[..a_len],
            &mut self.b_pack[..b_len],
            &mut self.tile[..tile_len],
            &mut self.row_buf[..row_len],
        )
    }

    /// Low-precision blocked-GEMM task buffers: `(a_bytes, scale_a,
    /// row_buf, cvt)` — the packed `A` byte panels, their per-row scales,
    /// and the f32/u16 staging rows for conversion.
    pub(crate) fn lowp_a_panels(
        &mut self,
        a_bytes: usize,
        sa_len: usize,
        row_len: usize,
        cvt_len: usize,
    ) -> (&mut [u8], &mut [f32], &mut [f32], &mut [u16]) {
        grow(&mut self.lowp_a, a_bytes, &mut self.grows);
        grow(&mut self.scale_a, sa_len, &mut self.grows);
        grow(&mut self.row_buf, row_len, &mut self.grows);
        grow(&mut self.cvt, cvt_len, &mut self.grows);
        (
            &mut self.lowp_a[..a_bytes],
            &mut self.scale_a[..sa_len],
            &mut self.row_buf[..row_len],
            &mut self.cvt[..cvt_len],
        )
    }

    /// Low-precision grouped-GEMM tile buffers: `(a_bytes, b_bytes, tile,
    /// row_buf, scale_a, scale_b, colsum, cvt)`.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)] // one tile's full working set
    pub(crate) fn lowp_tile_panels(
        &mut self,
        a_bytes: usize,
        b_bytes: usize,
        tile_len: usize,
        row_len: usize,
        sa_len: usize,
        sb_len: usize,
        cs_len: usize,
        cvt_len: usize,
    ) -> (
        &mut [u8],
        &mut [u8],
        &mut [f32],
        &mut [f32],
        &mut [f32],
        &mut [f32],
        &mut [i32],
        &mut [u16],
    ) {
        grow(&mut self.lowp_a, a_bytes, &mut self.grows);
        grow(&mut self.lowp_b, b_bytes, &mut self.grows);
        grow(&mut self.tile, tile_len, &mut self.grows);
        grow(&mut self.row_buf, row_len, &mut self.grows);
        grow(&mut self.scale_a, sa_len, &mut self.grows);
        grow(&mut self.scale_b, sb_len, &mut self.grows);
        grow(&mut self.colsum, cs_len, &mut self.grows);
        grow(&mut self.cvt, cvt_len, &mut self.grows);
        (
            &mut self.lowp_a[..a_bytes],
            &mut self.lowp_b[..b_bytes],
            &mut self.tile[..tile_len],
            &mut self.row_buf[..row_len],
            &mut self.scale_a[..sa_len],
            &mut self.scale_b[..sb_len],
            &mut self.colsum[..cs_len],
            &mut self.cvt[..cvt_len],
        )
    }
}

fn grow<T: Default + Clone>(buf: &mut Vec<T>, len: usize, grows: &mut u64) {
    if buf.len() < len {
        // Geometric growth keeps the number of grows logarithmic even when
        // successive tiles ratchet the high-water mark up gradually.
        let target = len.max(buf.len() * 2);
        buf.resize(target, T::default());
        *grows += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_stops_growing() {
        let mut s = Scratch::new();
        s.panels(100, 200, 64, 32);
        let after_first = s.grow_count();
        assert!(after_first > 0);
        for _ in 0..1000 {
            let (a, b, t, r) = s.panels(100, 200, 64, 32);
            assert_eq!((a.len(), b.len(), t.len(), r.len()), (100, 200, 64, 32));
        }
        assert_eq!(s.grow_count(), after_first, "reuse must not reallocate");
    }

    #[test]
    fn smaller_requests_reuse_high_water() {
        let mut s = Scratch::new();
        s.panels(512, 512, 512, 512);
        let g = s.grow_count();
        s.panels(8, 8, 8, 8);
        assert_eq!(s.grow_count(), g);
    }
}
