//! Type-erased jobs: the two-word unit of work the pool's queue moves
//! between threads.
//!
//! A [`JobRef`] is a `(data, exec)` pair — the moral equivalent of rayon's
//! `JobRef`. The pointee lives either on the launching thread's stack
//! (fork-join: [`crate::pool::parallel_for`] descriptors, `join`'s stack
//! job) or on the heap (`scope` spawns). Stack pointees are kept alive by
//! the launch protocol: the launcher never returns until every token or
//! latch has retired, and retiring is the executor's final access.

/// Type-erased pointer to a job plus its executor.
#[derive(Clone, Copy, Debug)]
pub(crate) struct JobRef {
    /// Borrowed pointer to the concrete job structure.
    pub data: *const (),
    /// Executor; must be the `execute` fn of `data`'s concrete type.
    ///
    /// # Safety contract
    /// Implementations must catch unwinds internally — a panic escaping an
    /// executor would tear down its worker thread.
    pub exec: unsafe fn(*const ()),
}

unsafe impl Send for JobRef {}
unsafe impl Sync for JobRef {}

impl JobRef {
    /// Runs the job.
    ///
    /// # Safety
    /// `data` must still be alive and `exec` must match its type.
    #[inline]
    pub(crate) unsafe fn execute(self) {
        (self.exec)(self.data)
    }
}
