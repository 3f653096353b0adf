//! Grow-only kernel working memory and its one owner, [`Pool`].
//!
//! A fused kernel on the GPU keeps its working state in a fixed
//! shared-memory carve-out per threadblock (§III.E: Algorithm III.1's
//! logits tile, the grouped GEMM's per-CTA tiles). Here every buffer a
//! kernel keeps between calls lives in a `Pool`, under one lifetime policy:
//! **a buffer belongs to its pool for the life of the process; a task
//! checks one out for the span of one closure, it only ever grows, and it
//! is never freed.** Its contents are stale at checkout — every caller
//! overwrites what it reads. A pool is keyed by nothing, not by thread and
//! not by pool lane, so a thread that lives for one batch (a serving
//! thread per burst) finds the buffers earlier threads grew. It holds one
//! buffer per concurrent checkout it has seen: a checkout while every
//! buffer is out (a second lane, a GEMM nested in an epilogue) builds
//! another.
//!
//! The pools:
//!
//! * [`LAUNCH`]: buffers that live for one launch — the skinny driver's
//!   packed `A`, the tiled MHA's K/V staging, the grouped engine's operand
//!   panels packed once per problem. Launches run one after another, so the
//!   three share one high-water mark.
//! * The GEMM drivers' per-task `Scratch`: one virtual CTA's packed
//!   micropanels, accumulator tile and `A` staging row, plus the scales and
//!   conversion space only narrow formats ask for.
//! * The attention kernels' own `Smem` (`bt_core::attention`), one pool per
//!   kernel.
//!
//! Every buffer grows through [`grow`], which fills only up to the
//! requested length — the capacity `Vec` reserves ahead is never touched,
//! so it costs no resident memory. It is where telemetry sees the pools:
//! each reallocation counts one `gemm.scratch.grows`, and every new length
//! raises `gemm.scratch.high_water_elems` (the longest pooled buffer, in
//! f32 elements). Once every shape in a workload has been seen,
//! no task allocates.
//!
//! Requested lengths are geometry-dependent — callers size panels from the
//! launch kernel's `mr×nr` tile and panel format (see `PanelKernel`) — so
//! switching dispatch tiers mid-process at most ratchets a new high-water
//! mark once.

use crate::micro::PanelKernel;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A process-wide free list of grow-only `T`s (see the module doc).
pub struct Pool<T> {
    free: Mutex<Vec<T>>,
}

impl<T: Default + Send> Pool<T> {
    /// An empty pool: its `T`s are built by the checkouts that find none
    /// free. (Pools are `static`s, so a `const` constructor is all they
    /// need.)
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        Self {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` with a `T` checked out of the pool — a new one when every
    /// `T` is checked out — and returns it to the pool afterwards.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut t = self.free().pop().unwrap_or_default();
        let r = f(&mut t);
        self.free().push(t);
        r
    }

    fn free(&self) -> MutexGuard<'_, Vec<T>> {
        // The lock is never held across `f`, so a poisoned list is whole.
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Buffers that live for one launch (see the module doc).
pub static LAUNCH: Pool<Vec<f32>> = Pool::new();

/// The GEMM drivers' per-task working sets.
pub(crate) static TASK: Pool<Scratch> = Pool::new();

static GROWS: bt_obs::Counter = bt_obs::Counter::new(bt_obs::names::GEMM_SCRATCH_GROWS);
static HIGH_WATER: bt_obs::Counter = bt_obs::Counter::new(bt_obs::names::GEMM_SCRATCH_HIGH_WATER);

/// The first `len` elements of `buf`, growing it when it is shorter. Only
/// elements up to `len` are written; a longer `buf` reports its new length
/// (in f32 elements) as a high-water mark, and a reallocation counts one
/// grow.
pub fn grow<T: Default + Clone>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        let cap = buf.capacity();
        buf.resize(len, T::default());
        HIGH_WATER.record_max((len * std::mem::size_of::<T>()).div_ceil(4) as u64);
        if buf.capacity() != cap {
            GROWS.incr();
        }
    }
    &mut buf[..len]
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
#[derive(Default)]
pub(crate) struct Scratch {
    pools: PanelPools,
    tile: Vec<f32>,
    row_buf: Vec<f32>,
    scale_a: Vec<f32>,
    cvt: Vec<u16>,
}

impl Scratch {
    /// Returns just the accumulator-tile buffer at the requested length (the
    /// skinny driver's column-block tasks spill their register tiles here
    /// between `K` chunks; `A` is packed once per launch and shared, `B` is
    /// read in place).
    pub(crate) fn tile(&mut self, len: usize) -> &mut [f32] {
        grow(&mut self.tile, len)
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

    fn take<E: PanelElem>(&mut self, len: Lens) -> Panels<'_, E> {
        let [a, b] = E::pools(&mut self.pools);
        Panels {
            a: grow(a, len.a),
            b: grow(b, len.b),
            tile: grow(&mut self.tile, len.tile),
            row: grow(&mut self.row_buf, len.row),
            sa: grow(&mut self.scale_a, len.sa),
            cvt: grow(&mut self.cvt, len.cvt),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{kernel_for, Isa};

    /// Where each of `s`'s buffers lives and how much it holds: equal
    /// before and after a request only if nothing reallocated.
    fn allocations(s: &Scratch) -> [(usize, usize); 8] {
        fn at<T>(v: &Vec<T>) -> (usize, usize) {
            (v.as_ptr() as usize, v.capacity())
        }
        let [a, b] = &s.pools.f32;
        let [la, lb] = &s.pools.bytes;
        [
            at(a),
            at(b),
            at(la),
            at(lb),
            at(&s.tile),
            at(&s.row_buf),
            at(&s.scale_a),
            at(&s.cvt),
        ]
    }

    #[test]
    fn steady_state_stops_growing() {
        let kern = kernel_for(Isa::Scalar).unwrap();
        let mut s = Scratch::default();
        // The counter only ever rises, so other tests running meanwhile
        // cannot hide this first request's grows.
        let before = GROWS.get();
        s.panels(kern, 8, 3, 4, 64, 32);
        assert!(GROWS.get() >= before + 4, "a fresh scratch grows a, b, tile and row");
        let warm = allocations(&s);
        for _ in 0..1000 {
            let p = s.panels(kern, 8, 3, 4, 64, 32);
            assert_eq!(
                (p.a.len(), p.b.len(), p.tile.len(), p.row.len()),
                (3 * 8 * kern.mr, 4 * 8 * kern.nr, 64, 32)
            );
            assert_eq!((p.sa.len(), p.cvt.len()), (0, 0));
        }
        assert_eq!(allocations(&s), warm, "reuse must not reallocate");
    }

    #[test]
    fn smaller_requests_reuse_high_water() {
        let kern = kernel_for(Isa::Scalar).unwrap();
        let mut s = Scratch::default();
        s.panels(kern, 64, 8, 8, 512, 512);
        let warm = allocations(&s);
        s.panels(kern, 8, 1, 1, 8, 8);
        assert_eq!(allocations(&s), warm);
    }

    #[test]
    fn nested_checkouts_get_their_own_buffer_and_keep_it() {
        let pool: Pool<Vec<u8>> = Pool::new();
        pool.with(|outer| {
            grow(outer, 10);
            pool.with(|inner| {
                assert!(inner.is_empty(), "every buffer is checked out: a new one");
                grow(inner, 20);
            });
            assert_eq!(outer.len(), 10);
        });
        // Both stay in the pool, grown: the last one returned comes out first.
        pool.with(|a| pool.with(|b| assert_eq!((a.len(), b.len()), (10, 20))));
        pool.with(|a| assert_eq!(a.len(), 10));
    }

    #[test]
    fn grow_fills_only_the_requested_length() {
        let mut buf = vec![1.0f32; 4];
        assert_eq!(grow(&mut buf, 2), &[1.0, 1.0]);
        let before = GROWS.get();
        assert_eq!(grow(&mut buf, 6), &[1.0, 1.0, 1.0, 1.0, 0.0, 0.0]);
        assert_eq!(buf.len(), 6);
        assert!(GROWS.get() > before, "outgrowing a full Vec reallocates: one grow");
        assert!(HIGH_WATER.get() >= 6);
    }
}
