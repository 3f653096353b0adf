//! Lock-free stores to provably disjoint output regions.
//!
//! Grouped-GEMM tiles partition each output buffer: no two tiles ever write
//! the same element, so the per-problem mutexes of the seed implementation
//! (and the *global* lock on the packed activation in the strided path)
//! serialized writers for no reason. [`DisjointWriter`] erases the `&mut`
//! into a raw pointer so many CTAs can store concurrently; the disjointness
//! contract is enforced in debug builds by a per-element claim map that
//! panics on the first overlapping write.
//!
//! The unsafe code here is confined to the `copy_nonoverlapping` / slice
//! reconstruction behind an always-on bounds assertion.

#![allow(unsafe_code)]

use std::marker::PhantomData;

#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicBool, Ordering};

/// Shared-writer view of an output buffer whose writers promise element
/// disjointness.
///
/// Writes are raw `memcpy`s with release-mode bounds assertions; in debug
/// builds every element may be written **at most once** per writer lifetime
/// (the claim map catches tile-overlap bugs the type system cannot).
pub struct DisjointWriter<'a> {
    ptr: *mut f32,
    len: usize,
    #[cfg(debug_assertions)]
    claims: Vec<AtomicBool>,
    _marker: PhantomData<&'a mut [f32]>,
}

// SAFETY: the writer hands out no references beyond the span of an `update`
// closure; all access goes through `write`/`write_at`/`update`, which only
// touch in-bounds elements, and callers guarantee (debug-checked) that
// concurrent accesses never alias an element.
unsafe impl Send for DisjointWriter<'_> {}
unsafe impl Sync for DisjointWriter<'_> {}

impl<'a> DisjointWriter<'a> {
    /// Wraps an exclusive buffer borrow for the duration of a launch.
    pub fn new(buf: &'a mut [f32]) -> Self {
        Self {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
            #[cfg(debug_assertions)]
            claims: (0..buf.len()).map(|_| AtomicBool::new(false)).collect(),
            _marker: PhantomData,
        }
    }

    /// Length of the wrapped buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wrapped buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[cfg(debug_assertions)]
    fn claim(&self, offset: usize, count: usize) {
        for idx in offset..offset + count {
            assert!(
                !self.claims[idx].swap(true, Ordering::Relaxed),
                "disjointness violated: element {idx} written twice"
            );
        }
    }

    /// Copies `src` to elements `offset .. offset + src.len()`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds, or (debug builds) if any
    /// element was already written through this writer.
    pub fn write(&self, offset: usize, src: &[f32]) {
        assert!(
            offset + src.len() <= self.len,
            "write [{offset}, {}) out of bounds (len {})",
            offset + src.len(),
            self.len
        );
        #[cfg(debug_assertions)]
        self.claim(offset, src.len());
        // SAFETY: range is in bounds (asserted above); `src` borrows data
        // disjoint from the output (the output is exclusively borrowed by
        // this writer); concurrent element-disjointness is the caller
        // contract, claim-checked in debug builds.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(offset), src.len());
        }
    }

    /// Runs `f` on elements `offset .. offset + len` as an exclusive slice —
    /// the read-modify-write form of [`DisjointWriter::write`], for stores
    /// that rewrite what they stored (epilogues).
    ///
    /// # Panics
    /// Panics if the range is out of bounds, or (debug builds) if any
    /// element was already claimed through this writer.
    pub fn update<R>(&self, offset: usize, len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
        assert!(
            offset + len <= self.len,
            "update [{offset}, {}) out of bounds (len {})",
            offset + len,
            self.len
        );
        #[cfg(debug_assertions)]
        self.claim(offset, len);
        // SAFETY: range is in bounds (asserted above) inside the buffer this
        // writer borrows exclusively; no other reference to these elements
        // exists for the closure's duration because concurrent
        // element-disjointness is the caller contract, claim-checked in
        // debug builds — the same contract `write` relies on.
        f(unsafe { std::slice::from_raw_parts_mut(self.ptr.add(offset), len) })
    }

    /// Writes a single element at `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds, or (debug builds) if the element
    /// was already written through this writer.
    pub fn write_at(&self, idx: usize, value: f32) {
        assert!(idx < self.len, "write at {idx} out of bounds (len {})", self.len);
        #[cfg(debug_assertions)]
        self.claim(idx, 1);
        // SAFETY: `idx < len` asserted; disjointness is the caller contract.
        unsafe {
            *self.ptr.add(idx) = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_land_in_place() {
        let mut buf = vec![0.0f32; 10];
        {
            let w = DisjointWriter::new(&mut buf);
            w.write(2, &[1.0, 2.0, 3.0]);
            w.write_at(7, 9.0);
        }
        assert_eq!(buf, vec![0.0, 0.0, 1.0, 2.0, 3.0, 0.0, 0.0, 9.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_rejected() {
        let mut buf = vec![0.0f32; 4];
        let w = DisjointWriter::new(&mut buf);
        w.write(3, &[1.0, 2.0]);
    }

    #[test]
    fn update_blends_in_place() {
        let mut buf = vec![1.0f32, 2.0, 3.0, 4.0];
        {
            let w = DisjointWriter::new(&mut buf);
            let sum = w.update(1, 2, |s| {
                for v in s.iter_mut() {
                    *v *= 10.0;
                }
                s.iter().sum::<f32>()
            });
            assert_eq!(sum, 50.0);
        }
        assert_eq!(buf, vec![1.0, 20.0, 30.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_update_rejected() {
        let mut buf = vec![0.0f32; 4];
        let w = DisjointWriter::new(&mut buf);
        w.update(3, 2, |_| ());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "disjointness violated")]
    fn update_overlapping_a_write_caught_in_debug() {
        let mut buf = vec![0.0f32; 4];
        let w = DisjointWriter::new(&mut buf);
        w.write(0, &[1.0, 2.0]);
        w.update(1, 2, |_| ());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "disjointness violated")]
    fn overlapping_write_caught_in_debug() {
        let mut buf = vec![0.0f32; 4];
        let w = DisjointWriter::new(&mut buf);
        w.write(0, &[1.0, 2.0]);
        w.write(1, &[3.0]);
    }

    #[test]
    fn concurrent_disjoint_writers_race_free() {
        // Many threads write interleaved disjoint stripes through one
        // shared writer; every element must land exactly once.
        let n_threads = 8;
        let per = 1024;
        let mut buf = vec![-1.0f32; n_threads * per];
        let w = DisjointWriter::new(&mut buf);
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let w = &w;
                s.spawn(move || {
                    // Stripe: element i belongs to thread i % n_threads.
                    for i in 0..per {
                        w.write_at(i * n_threads + t, (i * n_threads + t) as f32);
                    }
                });
            }
        });
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v, i as f32);
        }
    }
}
