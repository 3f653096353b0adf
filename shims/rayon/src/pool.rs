//! The persistent launch pool: N workers, one shared job queue, and an
//! eventcount parking protocol.
//!
//! ## Topology
//!
//! The pool is a lazily-initialized global (`global`) sized by
//! `BYTE_POOL_THREADS` (default: `available_parallelism`). For a total
//! parallelism of `T` it spawns `T − 1` *workers*; the thread that issues
//! a parallel call is always the remaining lane, so a launch never blocks
//! a thread just to coordinate. Workers live for the process lifetime, so
//! a launch never pays for thread creation — the property the paper gets
//! from a GPU's resident SMs.
//!
//! ## Scheduling
//!
//! Every submission, from a worker or from an outside thread, goes to the
//! one FIFO queue (`Registry::injector`). Workers pop its front and park on
//! the eventcount when it is empty. A launcher runs its own lane first and
//! then takes back every token of its launch still in the queue
//! (`Registry::cancel_injected`), so it only ever waits on tokens some
//! other lane has already claimed.
//!
//! ## Parking protocol
//!
//! `Sleep` is a classic eventcount: a generation counter under a mutex
//! plus a condvar. A would-be sleeper (1) reads the epoch, (2) re-checks
//! the queue, and only then (3) parks, conditional on the epoch being
//! unchanged. Every producer bumps the epoch *after* publishing work, so
//! the re-check/park pair can never miss a wakeup. Terminal events (a
//! launch's last token retiring, a `join` job completing, a scope's last
//! task finishing) bump it too, so blocked launchers park on the same
//! mechanism instead of spinning.
//!
//! ## Launch protocol (no per-launch allocation)
//!
//! `parallel_for` drives every `par_*` iterator: the launch descriptor
//! (cursor, body, panic slot, token refcount) lives on the launcher's
//! stack, and `width − 1` two-word `JobRef` *tokens* pointing at it are
//! queued. Each token claims items from the shared atomic cursor until it
//! runs dry, so uneven per-item cost balances dynamically. The launcher
//! runs the same loop inline, cancels its unclaimed tokens, then waits for
//! the claimed ones to retire; a worker launcher executes other queued
//! jobs while it waits (this is what makes nested `par_iter`/`join`
//! deadlock-free), an outside launcher parks. Retiring (`refs -= 1`) is
//! the token's final access to the descriptor, so the stack frame can
//! never be vacated early.
//!
//! ## Panic discipline
//!
//! A panicking task poisons only its own launch, never the pool: every
//! executor catches unwinds, records the payload, and the *launcher*
//! rethrows after the launch fully drains. Propagation is deterministic —
//! lowest item index for `parallel_for`, the `a` side first for [`join`],
//! lowest spawn sequence for [`Scope`] — instead of whichever thread
//! happens to unwind last.

use crate::job::JobRef;
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;

thread_local! {
    /// `Some(index)` on pool worker threads.
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
    /// Forces every parallel entry point to run inline (see [`sequential`]).
    static FORCE_SEQUENTIAL: Cell<bool> = const { Cell::new(false) };
}

/// Total parallelism `T` from `BYTE_POOL_THREADS` (panicking on a value
/// [`parse_threads`] rejects), falling back to the host parallelism.
fn configured_threads() -> usize {
    match std::env::var("BYTE_POOL_THREADS") {
        Ok(v) => parse_threads(&v).unwrap_or_else(|e| panic!("{e}")),
        Err(_) => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// A `BYTE_POOL_THREADS` value: a positive integer, capped at 256.
fn parse_threads(v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n.min(256)),
        _ => Err(format!(
            "BYTE_POOL_THREADS: invalid value `{v}` (expected a positive integer)"
        )),
    }
}

/// Eventcount: epoch under a mutex + condvar. See the module docs for the
/// read-epoch / re-check / park discipline that makes it lossless.
struct Sleep {
    epoch: Mutex<u64>,
    cv: Condvar,
}

impl Sleep {
    fn new() -> Self {
        Self {
            epoch: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    fn epoch(&self) -> u64 {
        *self.epoch.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes an event: advances the epoch and wakes every sleeper.
    fn bump(&self) {
        let mut g = self.epoch.lock().unwrap_or_else(|e| e.into_inner());
        *g += 1;
        drop(g);
        self.cv.notify_all();
    }

    /// Parks until the epoch moves past `seen`. The timeout is a pure
    /// safety net — with correct bumps it never fires under load.
    fn wait(&self, seen: u64) {
        let mut g = self.epoch.lock().unwrap_or_else(|e| e.into_inner());
        while *g == seen {
            let (guard, timeout) = self
                .cv
                .wait_timeout(g, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner());
            g = guard;
            if timeout.timed_out() {
                break;
            }
        }
    }
}

/// Per-lane telemetry counters (one set per worker plus one for the
/// external lane). Interned once at pool construction so the hot paths
/// never format names; every bump is a single relaxed atomic when
/// recording is on and one branch when it is off.
struct LaneObs {
    launches: &'static bt_obs::Counter,
    injector_pops: &'static bt_obs::Counter,
    parks: &'static bt_obs::Counter,
    unparks: &'static bt_obs::Counter,
}

impl LaneObs {
    fn new(lane: &str) -> Self {
        LaneObs {
            launches: bt_obs::counter(&format!("pool.{lane}.launches")),
            injector_pops: bt_obs::counter(&format!("pool.{lane}.injector_pops")),
            parks: bt_obs::counter(&format!("pool.{lane}.parks")),
            unparks: bt_obs::counter(&format!("pool.{lane}.unparks")),
        }
    }
}

/// Lane label for panic accounting (cold path — formats on demand).
fn lane_name(me: Option<usize>) -> String {
    me.map_or_else(|| "ext".to_string(), |i| format!("worker{i}"))
}

/// The global pool: the one job queue and the parking eventcount.
pub(crate) struct Registry {
    /// Every queued job, oldest first: launch tokens, `join` jobs and
    /// scope spawns alike.
    injector: Mutex<VecDeque<JobRef>>,
    sleep: Sleep,
    /// Total parallelism `T` (= workers + the launching lane).
    threads: usize,
    /// `obs[i]` for worker `i`; the last entry is the external lane.
    obs: Box<[LaneObs]>,
}

static REGISTRY: OnceLock<&'static Registry> = OnceLock::new();

/// The lazily-initialized global registry. Never torn down: worker
/// threads persist for the process lifetime.
pub(crate) fn global() -> &'static Registry {
    REGISTRY.get_or_init(|| {
        let threads = configured_threads();
        let n_workers = threads.saturating_sub(1);
        let registry: &'static Registry = Box::leak(Box::new(Registry {
            injector: Mutex::new(VecDeque::new()),
            sleep: Sleep::new(),
            threads,
            obs: (0..=n_workers)
                .map(|i| LaneObs::new(&lane_name(Some(i).filter(|&i| i < n_workers))))
                .collect(),
        }));
        for index in 0..n_workers {
            std::thread::Builder::new()
                .name(format!("byte-pool-{index}"))
                .spawn(move || worker_main(registry, index))
                .expect("spawn pool worker");
        }
        registry
    })
}

fn worker_main(registry: &'static Registry, index: usize) {
    WORKER_INDEX.with(|w| w.set(Some(index)));
    // A worker is a launcher waiting on a condition that never holds: it
    // runs queued jobs, and parks while there are none.
    registry.wait_until(&|| false);
}

impl Registry {
    /// The [`LaneObs`] for worker `me`, or the external lane when `None`.
    fn lane_obs(&self, me: Option<usize>) -> &LaneObs {
        &self.obs[me.unwrap_or(self.obs.len() - 1)]
    }

    /// Pops the oldest queued job on behalf of worker `me`.
    fn pop(&self, me: usize) -> Option<JobRef> {
        let job = self.injector.lock().unwrap_or_else(|e| e.into_inner()).pop_front();
        if job.is_some() {
            self.obs[me].injector_pops.incr();
        }
        job
    }

    /// Queues `count` copies of `job`, then bumps the eventcount once.
    fn submit_n(&self, job: JobRef, count: usize) {
        self.injector
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(std::iter::repeat_n(job, count));
        self.sleep.bump();
    }

    /// Takes back the still-queued copies of `job` (by identity), returning
    /// how many were cancelled. Every launcher calls this once its own
    /// share is done, so what it then waits on has all been claimed.
    fn cancel_injected(&self, data: *const ()) -> usize {
        let mut inj = self.injector.lock().unwrap_or_else(|e| e.into_inner());
        let before = inj.len();
        inj.retain(|j| !std::ptr::eq(j.data, data));
        before - inj.len()
    }

    /// Blocks until `cond` holds. A worker keeps executing queued jobs
    /// while it waits (nested fork-join stays deadlock-free); an external
    /// thread parks on the eventcount.
    fn wait_until(&self, cond: &dyn Fn() -> bool) {
        let me = WORKER_INDEX.with(|w| w.get());
        let run_one = || match me.and_then(|i| self.pop(i)) {
            Some(job) => {
                // SAFETY: a queued job's pointee outlives it: a launcher
                // waits for its tokens to retire or be cancelled before
                // its stack descriptor goes, and a scope job is boxed
                // until it runs. `exec` was paired with `data` at submit.
                unsafe { job.execute() };
                true
            }
            None => false,
        };
        while !cond() {
            if run_one() {
                continue;
            }
            let seen = self.sleep.epoch();
            // Re-check after reading the epoch: a producer that published
            // work (or an event) in between has already bumped, so `wait`
            // returns at once.
            if cond() {
                return;
            }
            if run_one() {
                continue;
            }
            let lane = self.lane_obs(me);
            lane.parks.incr();
            self.sleep.wait(seen);
            lane.unparks.incr();
        }
    }
}

/// First-panic store: keeps the payload with the lowest key (item index /
/// spawn sequence), making propagation independent of thread timing.
struct PanicStore {
    slot: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    armed: AtomicBool,
}

impl PanicStore {
    fn new() -> Self {
        Self {
            slot: Mutex::new(None),
            armed: AtomicBool::new(false),
        }
    }

    fn record(&self, key: usize, payload: Box<dyn Any + Send>) {
        // Cold path: a task panicked. Attribute it to the unwinding lane.
        bt_obs::counter(&format!("pool.{}.panics", lane_name(WORKER_INDEX.with(|w| w.get())))).incr();
        let mut g = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        match &*g {
            Some((k, _)) if *k <= key => {}
            _ => *g = Some((key, payload)),
        }
        self.armed.store(true, SeqCst);
    }

    fn rethrow_if_armed(&self) {
        if self.armed.load(SeqCst) {
            let payload = self
                .slot
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("armed panic store holds a payload");
            resume_unwind(payload.1);
        }
    }
}

/// Total parallelism of the pool (`BYTE_POOL_THREADS` or host CPUs).
pub fn current_num_threads() -> usize {
    global().threads
}

/// Index of the current pool worker (`None` on threads outside the pool).
/// Stable for the life of the process.
pub fn current_worker_id() -> Option<usize> {
    WORKER_INDEX.with(|w| w.get())
}

/// Runs `f` with every parallel entry point (`par_*`, [`join`],
/// [`scope`]) executing inline on the calling thread, in item order. The
/// single-thread reference mode of the differential test harness.
pub fn sequential<R>(f: impl FnOnce() -> R) -> R {
    struct Guard(bool);
    impl Drop for Guard {
        fn drop(&mut self) {
            FORCE_SEQUENTIAL.with(|s| s.set(self.0));
        }
    }
    let _guard = FORCE_SEQUENTIAL.with(|s| {
        let prev = s.get();
        s.set(true);
        Guard(prev)
    });
    f()
}

/// True when parallel execution is both possible and profitable for `n`
/// items.
fn parallel_enabled(n: usize) -> bool {
    n >= 2 && !FORCE_SEQUENTIAL.with(|s| s.get()) && global().threads >= 2
}

// ---------------------------------------------------------------------------
// parallel_for
// ---------------------------------------------------------------------------

/// Stack-resident launch descriptor shared (by raw pointer) with every
/// token of one `parallel_for`.
struct ForLaunch<'a> {
    cursor: AtomicUsize,
    n: usize,
    body: &'a (dyn Fn(usize) + Sync),
    panic: PanicStore,
    /// Outstanding tokens. Decrementing this is a token's final access.
    refs: AtomicUsize,
}

impl ForLaunch<'_> {
    /// One lane: claim items off the shared cursor until it runs dry.
    /// Panics are caught per item and recorded by index, so the launch
    /// always drains completely.
    fn run_lane(&self) {
        loop {
            let i = self.cursor.fetch_add(1, SeqCst);
            if i >= self.n {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.body)(i))) {
                self.panic.record(i, payload);
            }
        }
    }
}

unsafe fn for_token_exec(data: *const ()) {
    let launch = unsafe { &*(data as *const ForLaunch<'_>) };
    launch.run_lane();
    // Final access: after this decrement the launcher may return and the
    // descriptor's stack frame may be gone.
    if launch.refs.fetch_sub(1, SeqCst) == 1 {
        global().sleep.bump();
    }
}

/// Runs `body(0..n)` across the pool. Items are claimed dynamically from
/// a shared cursor, so uneven per-item cost balances across lanes; the
/// caller is always one of the lanes. Panics rethrow deterministically:
/// the panicking item with the lowest index wins.
pub(crate) fn parallel_for(n: usize, body: &(dyn Fn(usize) + Sync)) {
    if n == 0 {
        return;
    }
    if !parallel_enabled(n) {
        for i in 0..n {
            body(i);
        }
        return;
    }
    let registry = global();
    let _span = bt_obs::span!("pool.parallel_for");
    registry.lane_obs(WORKER_INDEX.with(|w| w.get())).launches.incr();
    let width = registry.threads.min(n);
    let tokens = width - 1;
    let launch = ForLaunch {
        cursor: AtomicUsize::new(0),
        n,
        body,
        panic: PanicStore::new(),
        refs: AtomicUsize::new(tokens),
    };
    let job = JobRef {
        data: &launch as *const ForLaunch<'_> as *const (),
        exec: for_token_exec,
    };
    registry.submit_n(job, tokens);
    launch.run_lane();
    // The cursor is dry: a token nobody claimed has nothing left to run.
    launch.refs.fetch_sub(registry.cancel_injected(job.data), SeqCst);
    registry.wait_until(&|| launch.refs.load(SeqCst) == 0);
    launch.panic.rethrow_if_armed();
}

// ---------------------------------------------------------------------------
// join
// ---------------------------------------------------------------------------

/// Stack job for the `b` side of a [`join`].
struct JoinJob<B, RB> {
    func: Mutex<Option<B>>,
    result: Mutex<Option<std::thread::Result<RB>>>,
    done: AtomicBool,
}

impl<B, RB> JoinJob<B, RB>
where
    B: FnOnce() -> RB,
{
    fn run(&self) {
        let f = self
            .func
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("join job claimed twice");
        let r = catch_unwind(AssertUnwindSafe(f));
        *self.result.lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
        self.done.store(true, SeqCst);
    }

    unsafe fn exec(data: *const ()) {
        let job = unsafe { &*(data as *const Self) };
        job.run();
        global().sleep.bump();
    }
}

/// Potentially-parallel fork-join: runs `a` on the calling thread while
/// `b` is offered to the pool; if no worker claimed `b`, the caller runs
/// it inline after `a`. Panics propagate deterministically — `a`'s panic
/// wins over `b`'s, and both sides always run to completion first.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if !parallel_enabled(2) {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    let registry = global();
    let job = JoinJob::<B, RB> {
        func: Mutex::new(Some(b)),
        result: Mutex::new(None),
        done: AtomicBool::new(false),
    };
    let job_ref = JobRef {
        data: &job as *const JoinJob<B, RB> as *const (),
        exec: JoinJob::<B, RB>::exec,
    };
    registry.submit_n(job_ref, 1);
    let ra = catch_unwind(AssertUnwindSafe(a));
    if registry.cancel_injected(job_ref.data) == 1 {
        job.run();
    }
    registry.wait_until(&|| job.done.load(SeqCst));

    let rb = job
        .result
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .expect("join job completed without a result");
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(pa), _) => resume_unwind(pa),
        (_, Err(pb)) => resume_unwind(pb),
    }
}

// ---------------------------------------------------------------------------
// scope
// ---------------------------------------------------------------------------

/// A fork-join scope: tasks spawned on it may borrow from the enclosing
/// stack frame (`'scope`), and [`scope`] does not return until every one
/// of them has finished.
pub struct Scope<'scope> {
    pending: AtomicUsize,
    next_seq: AtomicUsize,
    panic: PanicStore,
    _marker: std::marker::PhantomData<&'scope mut &'scope ()>,
}

/// Heap job for one scope spawn.
struct ScopeJob<F> {
    scope: *const Scope<'static>,
    seq: usize,
    f: F,
}

impl<F: FnOnce() + Send> ScopeJob<F> {
    unsafe fn exec(data: *const ()) {
        let boxed = unsafe { Box::from_raw(data as *mut Self) };
        let scope = unsafe { &*boxed.scope };
        let seq = boxed.seq;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(boxed.f)) {
            scope.panic.record(seq, payload);
        }
        // Final access to the scope: after this the launcher may return.
        if scope.pending.fetch_sub(1, SeqCst) == 1 {
            global().sleep.bump();
        }
    }
}

impl<'scope> Scope<'scope> {
    /// Spawns a task on the pool. The closure may borrow anything that
    /// outlives the scope. Panics are recorded (not propagated here) and
    /// rethrown by [`scope`] once every task has finished — always the
    /// panic of the *earliest spawned* panicking task, regardless of
    /// which thread unwinds first.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let seq = self.next_seq.fetch_add(1, SeqCst);
        if !parallel_enabled(2) {
            // Inline, but with identical panic bookkeeping so semantics
            // do not depend on the pool width.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                self.panic.record(seq, payload);
            }
            return;
        }
        self.pending.fetch_add(1, SeqCst);
        // Erase 'scope: the job cannot outlive the scope because `scope`
        // blocks on `pending == 0` before returning.
        let scope_ptr: *const Scope<'static> = (self as *const Scope<'scope>).cast();
        let job = Box::new(ScopeJob {
            scope: scope_ptr,
            seq,
            f,
        });
        let job_ref = JobRef {
            data: Box::into_raw(job) as *const (),
            exec: ScopeJob::<F>::exec,
        };
        global().submit_n(job_ref, 1);
    }
}

/// Creates a fork-join scope, runs `f` with it, waits for every spawned
/// task, and returns `f`'s result. If anything panicked, the rethrow is
/// deterministic: the root closure's panic wins, else the earliest
/// spawned panicking task's.
pub fn scope<'scope, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R,
{
    let s = Scope {
        pending: AtomicUsize::new(0),
        next_seq: AtomicUsize::new(0),
        panic: PanicStore::new(),
        _marker: std::marker::PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&s)));
    if s.pending.load(SeqCst) > 0 {
        global().wait_until(&|| s.pending.load(SeqCst) == 0);
    }
    match result {
        Err(root_panic) => resume_unwind(root_panic),
        Ok(value) => {
            s.panic.rethrow_if_armed();
            value
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_threads;

    #[test]
    fn pool_threads_accepts_positive_integers_and_caps_at_256() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 4 "), Ok(4));
        assert_eq!(parse_threads("256"), Ok(256));
        assert_eq!(parse_threads("10000"), Ok(256));
    }

    #[test]
    fn pool_threads_rejects_zero_and_non_integers_by_name() {
        for bad in ["0", "two", "", "-1", "2.5"] {
            let err = parse_threads(bad).unwrap_err();
            assert!(
                err.contains("BYTE_POOL_THREADS") && err.contains(&format!("`{bad}`")),
                "{err}"
            );
        }
    }
}
