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
//! A second, equally grow-only [`Scratch`] per thread is the **launch
//! arena** ([`with_launch_arena`]): the thread that launches a grouped GEMM
//! keeps the f32 operand panels it packs once per problem there, for every
//! CTA of the launch to read. The grouped engine is f32 at every precision,
//! so only the packed dense driver ever asks for byte panels, scales or
//! conversion space.
//!
//! Requested lengths are geometry-dependent — callers size panels from the
//! launch kernel's `mr×nr` tile and panel format (see
//! [`PanelKernel`]) — so switching dispatch tiers mid-process at most
//! ratchets a new high-water mark once; the arenas themselves are
//! geometry-agnostic pools.
//!
//! Borrow discipline: [`with_worker_scratch`] hands out the arena for the
//! span of one closure. The closure must not re-enter the parallel runtime
//! while holding it (every current caller is a leaf task); if a re-entrant
//! borrow ever happens anyway, the fallback is a fresh one-shot arena —
//! correct, just not amortized.

use crate::micro::PanelKernel;
use std::cell::RefCell;
use std::thread::LocalKey;

thread_local! {
    static WORKER_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
    static LAUNCH_ARENA: RefCell<Scratch> = RefCell::new(Scratch::new());
}

fn with_arena<R>(key: &'static LocalKey<RefCell<Scratch>>, f: impl FnOnce(&mut Scratch) -> R) -> R {
    key.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        // Re-entrant borrow (nested GEMM on one worker): fall back to a
        // temporary arena rather than aliasing or panicking.
        Err(_) => f(&mut Scratch::new()),
    })
}

/// Runs `f` with this worker's persistent scratch arena.
pub(crate) fn with_worker_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    with_arena(&WORKER_SCRATCH, f)
}

/// Runs `f` with the calling thread's persistent launch arena: the operand
/// panels a grouped launch packs once before its CTA walk and every CTA then
/// reads (see [`crate::grouped`]). A second arena per thread, so a launch
/// that runs CTAs on its own thread never aliases the worker scratch.
pub(crate) fn with_launch_arena<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    with_arena(&LAUNCH_ARENA, f)
}

/// Element type of a packed micropanel — `f32`, or the bytes of a narrow
/// format ([`crate::lowp`]) — each with its own `[A, B]` pool pair.
pub(crate) trait PanelElem: Copy + Default + Send + Sync {
    /// This element type's `[A, B]` panel pools.
    fn pools(pools: &mut PanelPools) -> &mut [Vec<Self>; 2];
}

/// The arena's packed-panel pools, one `[A, B]` pair per element type.
#[derive(Default)]
pub(crate) struct PanelPools {
    f32: [Vec<f32>; 2],
    bytes: [Vec<u8>; 2],
}

impl PanelElem for f32 {
    fn pools(pools: &mut PanelPools) -> &mut [Vec<f32>; 2] {
        &mut pools.f32
    }
}

impl PanelElem for u8 {
    fn pools(pools: &mut PanelPools) -> &mut [Vec<u8>; 2] {
        &mut pools.bytes
    }
}

/// One task's working set, every slice at exactly its requested length
/// (contents are stale, callers overwrite fully): packed `A` / `B`
/// micropanels, the accumulator tile, f32 staging for `A` rows, and — for
/// narrow formats only — the `A` panels' scales and conversion staging
/// (a launch's `B` panels are the weight's own, or built once per launch).
pub(crate) struct Panels<'s, E> {
    pub a: &'s mut [E],
    pub b: &'s mut [E],
    pub tile: &'s mut [f32],
    pub row: &'s mut [f32],
    pub sa: &'s mut [f32],
    pub cvt: &'s mut [u16],
}

/// Reusable packing + accumulation buffers for one virtual CTA: panel
/// pools per element type, plus the f32 tile / staging row and the scale
/// and conversion buffers only narrow formats ask for.
pub(crate) struct Scratch {
    pools: PanelPools,
    tile: Vec<f32>,
    row_buf: Vec<f32>,
    scale_a: Vec<f32>,
    cvt: Vec<u16>,
    grows: u64,
}

impl Scratch {
    pub(crate) fn new() -> Self {
        Self {
            pools: PanelPools::default(),
            tile: Vec::new(),
            row_buf: Vec::new(),
            scale_a: Vec::new(),
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
        let [a, b] = &self.pools.f32;
        let [la, lb] = &self.pools.bytes;
        a.len()
            + b.len()
            + self.tile.len()
            + self.row_buf.len()
            + self.scale_a.len()
            + (la.len() + lb.len()).div_ceil(4)
            + (self.cvt.len() * 2).div_ceil(4)
    }

    /// Returns just the accumulator-tile buffer at the requested length (the
    /// skinny driver's column-block tasks spill their register tiles here
    /// between `K` chunks; `A` is packed once per launch and shared, `B` is
    /// read in place).
    pub(crate) fn tile(&mut self, len: usize) -> &mut [f32] {
        grow(&mut self.tile, len, &mut self.grows);
        &mut self.tile[..len]
    }

    /// The working set of one task of `kern` at depth `k`: `a_panels` `A`
    /// micropanels with their scale lanes, `b_panels` `B` micropanels, a
    /// `tile_len` accumulator tile and a `row_len` staging row. Buffers grow
    /// only on a new high-water mark, and an f32 kernel asks for no scale or
    /// conversion space at all.
    pub(crate) fn panels<K: PanelKernel>(
        &mut self,
        kern: &K,
        k: usize,
        a_panels: usize,
        b_panels: usize,
        tile_len: usize,
        row_len: usize,
    ) -> Panels<'_, K::Elem> {
        let sa_lanes = kern.a_scale_lanes();
        let (apl, bpl) = kern.panel_lens(k);
        self.take(Lens {
            a: a_panels * apl,
            b: b_panels * bpl,
            sa: a_panels * sa_lanes,
            tile: tile_len,
            row: row_len,
            cvt: if K::NARROW { k.max(kern.tile().1) } else { 0 },
        })
    }

    /// A grouped launch's pre-packed operand store: `a` / `b` f32 panel
    /// elements; no scales, tile, staging row or conversion space.
    pub(crate) fn packed(&mut self, a: usize, b: usize) -> Panels<'_, f32> {
        self.take(Lens {
            a,
            b,
            ..Lens::default()
        })
    }

    fn take<E: PanelElem>(&mut self, len: Lens) -> Panels<'_, E> {
        let [a, b] = E::pools(&mut self.pools);
        let g = &mut self.grows;
        grow(a, len.a, g);
        grow(b, len.b, g);
        grow(&mut self.tile, len.tile, g);
        grow(&mut self.row_buf, len.row, g);
        grow(&mut self.scale_a, len.sa, g);
        grow(&mut self.cvt, len.cvt, g);
        Panels {
            a: &mut a[..len.a],
            b: &mut b[..len.b],
            tile: &mut self.tile[..len.tile],
            row: &mut self.row_buf[..len.row],
            sa: &mut self.scale_a[..len.sa],
            cvt: &mut self.cvt[..len.cvt],
        }
    }
}

/// Buffer lengths of one [`Panels`] request.
#[derive(Default)]
struct Lens {
    a: usize,
    b: usize,
    sa: usize,
    tile: usize,
    row: usize,
    cvt: usize,
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
    use crate::isa::{kernel_for, Isa};

    #[test]
    fn steady_state_stops_growing() {
        let kern = kernel_for(Isa::Scalar).unwrap();
        let mut s = Scratch::new();
        s.panels(kern, 8, 3, 4, 64, 32);
        let after_first = s.grow_count();
        assert!(after_first > 0);
        for _ in 0..1000 {
            let p = s.panels(kern, 8, 3, 4, 64, 32);
            assert_eq!(
                (p.a.len(), p.b.len(), p.tile.len(), p.row.len()),
                (3 * 8 * kern.mr, 4 * 8 * kern.nr, 64, 32)
            );
            assert_eq!((p.sa.len(), p.cvt.len()), (0, 0));
        }
        assert_eq!(s.grow_count(), after_first, "reuse must not reallocate");
    }

    #[test]
    fn smaller_requests_reuse_high_water() {
        let kern = kernel_for(Isa::Scalar).unwrap();
        let mut s = Scratch::new();
        s.panels(kern, 64, 8, 8, 512, 512);
        let g = s.grow_count();
        s.panels(kern, 8, 1, 1, 8, 8);
        assert_eq!(s.grow_count(), g);
    }
}
