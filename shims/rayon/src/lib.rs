//! Offline stand-in for the `rayon` crate, backed by a **persistent
//! launch pool**.
//!
//! The build environment has no network access and no registry cache, so
//! the real rayon can never be fetched. This crate implements the exact
//! parallel subset the workspace uses — `par_iter`, `par_chunks`,
//! `par_chunks_mut`, `into_par_iter` (ranges and `Vec`), the `zip` /
//! `enumerate` / `map` / `for_each` / `collect` adapters, plus [`join`]
//! and [`scope`] — on top of the in-tree pool in [`mod@pool`] (lazily
//! spawned workers, one shared job queue, eventcount parking; see that
//! module's docs for the full protocol).
//!
//! A launch is a stack descriptor plus `width − 1` two-word tokens queued
//! for persistent workers: no thread creation and no per-launch
//! allocation on the submit path, so the many small memory-bound kernels
//! (add-bias + LayerNorm, add-bias + GELU, pack/unpack) are not swamped by
//! dispatch — the per-launch overhead ByteTransformer's fused, back-to-back
//! GPU kernels exist to avoid.
//!
//! Semantics match rayon where it matters for this workspace:
//!
//! * every closure runs exactly once per item, and `map` preserves item
//!   order in its output;
//! * closures must be `Sync` (shared across workers by reference);
//! * nested parallel calls are real fork-join on the shared pool (a
//!   waiting worker executes other pool jobs, so nesting cannot deadlock
//!   or spawn unbounded threads);
//! * scheduling is dynamic: lanes pull the next unclaimed item from a
//!   shared cursor, so uneven per-item cost (e.g. grouped-GEMM CTAs with
//!   different tile counts) balances across lanes.
//!
//! Beyond rayon's API there are two test hooks: [`sequential`] forces
//! every parallel entry point inline on the calling thread (the
//! single-thread reference for differential tests), and
//! [`current_worker_id`] exposes the stable worker index. The pool width
//! is `BYTE_POOL_THREADS` (default: host parallelism).

mod job;
pub mod pool;

pub use pool::{current_num_threads, current_worker_id, join, scope, sequential, Scope};

/// Runs `f` over every item on the pool, returning results in item order.
fn run<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n < 2 || pool::current_num_threads() < 2 {
        return items.into_iter().map(f).collect();
    }

    // Hand the items to the lanes by index: slot `i` is read exactly once
    // (the launch cursor claims each index once) and result slot `i` is
    // written exactly once, so the raw-pointer sharing is disjoint.
    struct SharedItems<T>(*const T);
    unsafe impl<T: Send> Sync for SharedItems<T> {}
    impl<T> SharedItems<T> {
        // Methods (not field reads) so the closure captures the Sync
        // wrapper, not the raw pointer field.
        fn at(&self, i: usize) -> *const T {
            unsafe { self.0.add(i) }
        }
    }
    struct SharedResults<R>(*mut Option<R>);
    unsafe impl<R: Send> Sync for SharedResults<R> {}
    impl<R> SharedResults<R> {
        fn at(&self, i: usize) -> *mut Option<R> {
            unsafe { self.0.add(i) }
        }
    }

    let mut items = items;
    let items_ptr = SharedItems(items.as_ptr());
    // Elements are moved out via ptr::read; len 0 keeps the eventual Vec
    // drop (including on unwind) from double-dropping them while still
    // freeing the allocation.
    unsafe { items.set_len(0) };
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let results_ptr = SharedResults(results.as_mut_ptr());

    pool::parallel_for(n, &|i| {
        let item = unsafe { std::ptr::read(items_ptr.at(i)) };
        let r = f(item);
        unsafe { *results_ptr.at(i) = Some(r) };
    });

    results
        .into_iter()
        .map(|r| r.expect("launch drained every item"))
        .collect()
}

/// A materialized parallel iterator: adapters are cheap sequential
/// transforms, and `map` / `for_each` fan the items out over the pool.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Pairs items positionally with another parallel iterator.
    pub fn zip<U: Send>(self, other: ParIter<U>) -> ParIter<(T, U)> {
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Attaches each item's index.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Applies `f` to every item in parallel, preserving order.
    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIter {
            items: run(self.items, f),
        }
    }

    /// Consumes every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        run(self.items, f);
    }

    /// Gathers the items (already in order) into a collection.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// `par_chunks` / `par_chunks_mut` on slices.
pub trait ParallelSlice<T: Send> {
    /// Parallel iterator over `size`-element chunks.
    fn par_chunks(&self, size: usize) -> ParIter<&[T]>;
    /// Parallel iterator over mutable `size`-element chunks.
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]>;
    /// Parallel iterator over element references.
    fn par_iter(&self) -> ParIter<&T>;
}

impl<T: Send + Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParIter<&[T]> {
        ParIter {
            items: self.chunks(size).collect(),
        }
    }

    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]> {
        ParIter {
            items: self.chunks_mut(size).collect(),
        }
    }

    fn par_iter(&self) -> ParIter<&T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// `into_par_iter` on owned collections and ranges.
pub trait IntoParallelIterator {
    /// Item type produced by the iterator.
    type Item: Send;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

pub mod prelude {
    //! Drop-in for `rayon::prelude::*`.
    pub use crate::{IntoParallelIterator, ParIter, ParallelSlice};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    /// Widens the pool for this test binary (unless the harness pinned a
    /// width via the environment) before anything touches the lazy global.
    fn ensure_pool() {
        static INIT: std::sync::Once = std::sync::Once::new();
        INIT.call_once(|| {
            if std::env::var("BYTE_POOL_THREADS").is_err() {
                std::env::set_var("BYTE_POOL_THREADS", "4");
            }
        });
    }

    #[test]
    fn chunks_mut_covers_all_elements() {
        ensure_pool();
        let mut v = vec![0u32; 1000];
        v.par_chunks_mut(7).enumerate().for_each(|(i, chunk)| {
            for x in chunk {
                *x = i as u32;
            }
        });
        assert_eq!(v[0], 0);
        assert_eq!(v[999], 142);
        assert_eq!(v[7], 1);
    }

    #[test]
    fn map_preserves_order() {
        ensure_pool();
        let out: Vec<usize> = (0..100).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zip_pairs_positionally() {
        ensure_pool();
        let a = [1, 2, 3];
        let mut out = vec![0; 3];
        out.par_chunks_mut(1)
            .zip(a.par_iter())
            .for_each(|(o, &x)| o[0] = x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        ensure_pool();
        let mut v = vec![0u32; 64];
        v.par_chunks_mut(8).for_each(|chunk| {
            chunk.par_chunks_mut(2).for_each(|c| c.fill(1));
        });
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn join_returns_both_results() {
        ensure_pool();
        let (a, b) = crate::join(|| 6 * 7, || "forty-two");
        assert_eq!(a, 42);
        assert_eq!(b, "forty-two");
    }

    #[test]
    fn scope_tasks_all_run_and_may_borrow() {
        ensure_pool();
        let counter = std::sync::atomic::AtomicUsize::new(0);
        crate::scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 16);
    }

    #[test]
    fn sequential_mode_runs_inline_in_order() {
        ensure_pool();
        let order = std::sync::Mutex::new(Vec::new());
        crate::sequential(|| {
            (0..32).into_par_iter().for_each(|i| {
                order.lock().unwrap().push(i);
            });
        });
        assert_eq!(*order.lock().unwrap(), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn workers_persist_across_launches() {
        ensure_pool();
        if crate::current_num_threads() < 2 {
            // Width pinned to 1: everything runs inline on the caller.
            crate::scope(|s| s.spawn(|| assert!(crate::current_worker_id().is_none())));
            return;
        }
        // Spawns from an external thread land in the injector, which only
        // pool workers drain — so the recorded ids are genuinely workers.
        let ids_of = || {
            let ids = std::sync::Mutex::new(std::collections::HashSet::new());
            crate::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        assert!(crate::current_worker_id().is_some());
                        ids.lock().unwrap().insert(std::thread::current().id());
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    });
                }
            });
            ids.into_inner().unwrap()
        };
        let first = ids_of();
        let second = ids_of();
        assert!(!first.is_empty() && !second.is_empty());
        assert!(
            first.intersection(&second).next().is_some(),
            "launches must reuse persistent workers, got disjoint thread sets"
        );
    }
}
