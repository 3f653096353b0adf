//! The live recording layer: thread-local span rings, label interning,
//! counter/histogram registries, and the drain that merges everything into
//! a [`Profile`].
//!
//! Concurrency model: each ring is single-producer (its owning thread)
//! single-consumer (the drainer, serialized by a global lock). The writer
//! publishes slots with a `Release` store of `head`; the drainer `Acquire`-
//! loads `head`, reads the slots behind it, and advances `tail`. A full
//! ring drops new events (counted) rather than blocking or overwriting.

use crate::profile::{EventKind, HistogramSnapshot, Profile, SpanEvent};
use crate::snapshot::{bucket_of, HistogramWindow, HIST_BUCKETS};
use crate::trace::TraceId;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{LazyLock, Mutex, OnceLock};
use std::time::Instant;

/// Slots per thread-local ring (power of two; ~2 MiB per thread).
const RING_CAP: usize = 1 << 14;

// Event kind lives in the low two bits of `Slot::packed`.
const KIND_ENTER: u64 = 0;
const KIND_EXIT: u64 = 1;
const KIND_POINT: u64 = 2;
const KIND_MASK: u64 = 3;

// ---------------------------------------------------------------------------
// enable switch
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// True when recording is active: on from process start until
/// [`set_enabled`] turns it off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off at run time.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// clock + sequence
// ---------------------------------------------------------------------------

static SEQ: AtomicU64 = AtomicU64::new(0);

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide telemetry epoch. Exposed so callers
/// that mix wall-clock spans with explicit-timestamp trace marks (see
/// [`trace_mark_at`]) can stamp both from the same clock.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// label interning
// ---------------------------------------------------------------------------

#[derive(Default)]
struct LabelTable {
    /// Index `id - 1` → name (id 0 means "unset / span inactive").
    names: Vec<&'static str>,
    by_name: HashMap<&'static str, u32>,
}

static LABELS: LazyLock<Mutex<LabelTable>> = LazyLock::new(Default::default);

fn intern(name: &str) -> u32 {
    let mut t = LABELS.lock().expect("label table poisoned");
    if let Some(&id) = t.by_name.get(name) {
        return id;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    let id = (t.names.len() + 1) as u32;
    t.names.push(leaked);
    t.by_name.insert(leaked, id);
    id
}

fn label_names() -> Vec<&'static str> {
    LABELS.lock().expect("label table poisoned").names.clone()
}

/// A per-call-site span label, interned on first use. Declared by the
/// [`span!`](crate::span!) macro; user code rarely constructs one directly.
pub struct LabelId {
    name: &'static str,
    id: AtomicU32,
}

impl LabelId {
    /// A label for `name`, not yet interned.
    pub const fn new(name: &'static str) -> Self {
        LabelId {
            name,
            id: AtomicU32::new(0),
        }
    }

    fn resolve(&self) -> u32 {
        let id = self.id.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        let id = intern(self.name);
        self.id.store(id, Ordering::Relaxed);
        id
    }
}

// ---------------------------------------------------------------------------
// thread-local rings
// ---------------------------------------------------------------------------

struct Slot {
    /// `label_id << 2 | kind`.
    packed: AtomicU64,
    t_ns: AtomicU64,
    seq: AtomicU64,
    /// Request tag (raw [`TraceId`]); 0 = untagged process-wide event.
    tag: AtomicU64,
}

struct Ring {
    slots: Vec<Slot>,
    /// Writer cursor (monotonic, not wrapped); published with `Release`.
    head: AtomicUsize,
    /// Reader cursor; only advanced under the drain lock.
    tail: AtomicUsize,
    dropped: AtomicU64,
    thread: usize,
    name: String,
}

impl Ring {
    fn push(&self, kind: u64, label: u32, tag: u64, t_ns: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        if head - tail >= RING_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot = &self.slots[head & (RING_CAP - 1)];
        slot.packed.store((label as u64) << 2 | kind, Ordering::Relaxed);
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.seq.store(SEQ.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
        slot.tag.store(tag, Ordering::Relaxed);
        self.head.store(head + 1, Ordering::Release);
    }
}

static RINGS: Mutex<Vec<&'static Ring>> = Mutex::new(Vec::new());

thread_local! {
    static MY_RING: Cell<Option<&'static Ring>> = const { Cell::new(None) };
}

#[cold]
fn make_ring() -> &'static Ring {
    let mut rings = RINGS.lock().expect("ring registry poisoned");
    let thread = rings.len();
    let name = std::thread::current()
        .name()
        .map(|n| n.to_string())
        .unwrap_or_else(|| format!("thread-{thread}"));
    let ring: &'static Ring = Box::leak(Box::new(Ring {
        slots: (0..RING_CAP)
            .map(|_| Slot {
                packed: AtomicU64::new(0),
                t_ns: AtomicU64::new(0),
                seq: AtomicU64::new(0),
                tag: AtomicU64::new(0),
            })
            .collect(),
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        dropped: AtomicU64::new(0),
        thread,
        name,
    }));
    rings.push(ring);
    ring
}

#[inline]
fn push_tagged(kind: u64, label: u32, tag: u64, t_ns: u64) {
    MY_RING.with(|cell| {
        let ring = match cell.get() {
            Some(r) => r,
            None => {
                let r = make_ring();
                cell.set(Some(r));
                r
            }
        };
        ring.push(kind, label, tag, t_ns);
    });
}

#[inline]
fn push_event(kind: u64, label: u32) {
    push_tagged(kind, label, 0, now_ns());
}

// ---------------------------------------------------------------------------
// spans
// ---------------------------------------------------------------------------

/// RAII guard for an open span; `Drop` records the exit event.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    /// Interned label, or 0 when the span is inactive (recording disabled).
    id: u32,
    /// Request tag carried onto both events (0 = untagged).
    tag: u64,
}

impl SpanGuard {
    /// Opens a span for an interned label (the `span!` macro's entry point).
    #[inline]
    pub fn enter(label: &'static LabelId) -> SpanGuard {
        if !enabled() {
            return SpanGuard { id: 0, tag: 0 };
        }
        let id = label.resolve();
        push_event(KIND_ENTER, id);
        SpanGuard { id, tag: 0 }
    }

    /// An inactive guard, for conditional instrumentation.
    #[inline]
    pub fn none() -> SpanGuard {
        SpanGuard { id: 0, tag: 0 }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.id != 0 {
            push_tagged(KIND_EXIT, self.id, self.tag, now_ns());
        }
    }
}

/// Opens a span with a runtime-computed name (interned via a global table;
/// costlier than `span!`, intended for per-kernel names on traced devices).
pub fn span_dyn(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { id: 0, tag: 0 };
    }
    let id = intern(name);
    push_event(KIND_ENTER, id);
    SpanGuard { id, tag: 0 }
}

// ---------------------------------------------------------------------------
// request-scoped trace events
// ---------------------------------------------------------------------------

/// Records a point event tagged with `id` at the current wall clock. Point
/// events mark request-lifecycle transitions (enqueue, admit, shed, round,
/// token, done); [`crate::trace::reconstruct`] groups them back into
/// per-request timelines after [`drain`].
#[inline]
pub fn trace_mark(id: TraceId, label: &'static LabelId) {
    if enabled() {
        push_tagged(KIND_POINT, label.resolve(), id.raw(), now_ns());
    }
}

/// Records a point event tagged with `id` at an explicit timestamp.
///
/// Virtual-time serving loops (`run_open_loop`, `run_decode_loop`) pass
/// their simulated clock (in nanoseconds) here so that per-phase durations
/// reconstructed from the trace match the loop's own ledger *exactly*;
/// mixing these with wall-clock events in one profile is fine because trace
/// reconstruction only compares timestamps within a single request.
#[inline]
pub fn trace_mark_at(id: TraceId, label: &'static LabelId, t_ns: u64) {
    if enabled() {
        push_tagged(KIND_POINT, label.resolve(), id.raw(), t_ns);
    }
}

/// Opens a span whose enter/exit events both carry the request tag `id`.
#[inline]
pub fn trace_span(id: TraceId, label: &'static LabelId) -> SpanGuard {
    if !enabled() {
        return SpanGuard { id: 0, tag: 0 };
    }
    let lid = label.resolve();
    let tag = id.raw();
    push_tagged(KIND_ENTER, lid, tag, now_ns());
    SpanGuard { id: lid, tag }
}

// ---------------------------------------------------------------------------
// counters
// ---------------------------------------------------------------------------

/// A named monotonic counter, bumped with relaxed atomics. Declare as a
/// `static`; it self-registers into the global registry on first touch.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());

impl Counter {
    /// A counter named `name`, initially zero and unregistered.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    #[cold]
    fn register(&'static self) {
        COUNTERS.lock().expect("counter registry poisoned").push(self);
    }

    #[inline]
    fn touch(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            self.register();
        }
    }

    /// Adds `n` (no-op while recording is disabled).
    #[inline]
    pub fn add(&'static self, n: u64) {
        if enabled() {
            self.touch();
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Raises the counter to `v` if `v` is larger (high-water marks).
    #[inline]
    pub fn record_max(&'static self, v: u64) {
        if enabled() {
            self.touch();
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Interns a runtime-named counter (e.g. per-worker lanes). The counter is
/// registered at creation and lives forever.
pub fn counter(name: &str) -> &'static Counter {
    static DYN: Mutex<Option<HashMap<&'static str, &'static Counter>>> = Mutex::new(None);
    let mut map = DYN.lock().expect("dynamic counter registry poisoned");
    let map = map.get_or_insert_with(HashMap::new);
    if let Some(&c) = map.get(name) {
        return c;
    }
    let leaked_name: &'static str = Box::leak(name.to_string().into_boxed_str());
    let c: &'static Counter = Box::leak(Box::new(Counter::new(leaked_name)));
    c.registered.store(true, Ordering::Relaxed);
    COUNTERS.lock().expect("counter registry poisoned").push(c);
    map.insert(leaked_name, c);
    c
}

/// Times `f` and accumulates the elapsed nanoseconds into `c`. Used where
/// per-iteration spans would flood the rings (GEMM pack/compute phases).
#[inline]
pub fn timed<R>(c: &'static Counter, f: impl FnOnce() -> R) -> R {
    if enabled() {
        let start = Instant::now();
        let out = f();
        c.add(start.elapsed().as_nanos() as u64);
        out
    } else {
        f()
    }
}

// ---------------------------------------------------------------------------
// histograms
// ---------------------------------------------------------------------------

/// A fixed-bucket atomic histogram: values below 256 are recorded exactly,
/// larger values land in per-power-of-two buckets (percentiles then report
/// the bucket's upper bound). Bucket geometry lives in [`crate::snapshot`]
/// so windowed aggregation reproduces the exact same percentile math.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    registered: AtomicBool,
}

static HISTOGRAMS: Mutex<Vec<&'static Histogram>> = Mutex::new(Vec::new());

impl Histogram {
    /// A histogram named `name`, initially empty and unregistered.
    pub const fn new(name: &'static str) -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            buckets: [ZERO; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Records one observation (no-op while recording is disabled).
    #[inline]
    pub fn record(&'static self, v: u64) {
        if enabled() {
            if !self.registered.swap(true, Ordering::Relaxed) {
                HISTOGRAMS.lock().expect("histogram registry poisoned").push(self);
            }
            self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// The raw cumulative bucket state, for windowed aggregation.
    pub fn window(&self) -> HistogramWindow {
        HistogramWindow {
            name: self.name.to_string(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// A point-in-time snapshot with p50/p95/p99.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.window().snapshot()
    }
}

// ---------------------------------------------------------------------------
// drain
// ---------------------------------------------------------------------------

/// Drains every thread-local ring into a merged, time-ordered [`Profile`]
/// and snapshots all registered counters and histograms (counter values are
/// cumulative — draining does not reset them; ring events are consumed).
pub fn drain() -> Profile {
    static DRAIN_LOCK: Mutex<()> = Mutex::new(());
    let _guard = DRAIN_LOCK.lock().expect("drain lock poisoned");

    let names = label_names();
    let rings: Vec<&'static Ring> = RINGS.lock().expect("ring registry poisoned").clone();

    let mut events = Vec::new();
    let mut dropped = 0u64;
    let mut threads = Vec::new();
    for ring in &rings {
        threads.push(ring.name.clone());
        let head = ring.head.load(Ordering::Acquire);
        let tail = ring.tail.load(Ordering::Relaxed);
        for i in tail..head {
            let slot = &ring.slots[i & (RING_CAP - 1)];
            let packed = slot.packed.load(Ordering::Relaxed);
            let label = (packed >> 2) as usize;
            let name = names
                .get(label.wrapping_sub(1))
                .map(|n| n.to_string())
                .unwrap_or_else(|| format!("label-{label}"));
            events.push(SpanEvent {
                name,
                kind: match packed & KIND_MASK {
                    KIND_ENTER => EventKind::Enter,
                    KIND_EXIT => EventKind::Exit,
                    _ => EventKind::Point,
                },
                t_ns: slot.t_ns.load(Ordering::Relaxed),
                seq: slot.seq.load(Ordering::Relaxed),
                thread: ring.thread,
                trace: slot.tag.load(Ordering::Relaxed),
            });
        }
        ring.tail.store(head, Ordering::Relaxed);
        dropped += ring.dropped.swap(0, Ordering::Relaxed);
    }
    events.sort_by_key(|e| (e.t_ns, e.seq));

    let counters = counter_values();
    let histograms: Vec<HistogramSnapshot> = {
        let regs = HISTOGRAMS.lock().expect("histogram registry poisoned");
        let mut v: Vec<HistogramSnapshot> = regs.iter().map(|h| h.snapshot()).collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    };

    Profile {
        events,
        counters,
        histograms,
        dropped,
        threads,
    }
}

// ---------------------------------------------------------------------------
// registry access for windowed aggregation
// ---------------------------------------------------------------------------

/// Current `(name, cumulative value)` of every registered counter, sorted by
/// name. Unlike [`drain`] this consumes nothing; the windowed
/// [`crate::snapshot::Aggregator`] diffs successive reads.
pub fn counter_values() -> Vec<(String, u64)> {
    let regs = COUNTERS.lock().expect("counter registry poisoned");
    let mut v: Vec<(String, u64)> = regs.iter().map(|c| (c.name.to_string(), c.get())).collect();
    v.sort();
    v
}

/// Current cumulative bucket state of every registered histogram, sorted by
/// name. Non-consuming, for the windowed aggregator.
pub fn histogram_windows() -> Vec<HistogramWindow> {
    let regs = HISTOGRAMS.lock().expect("histogram registry poisoned");
    let mut v: Vec<HistogramWindow> = regs.iter().map(|h| h.window()).collect();
    v.sort_by(|a, b| a.name.cmp(&b.name));
    v
}

/// Names registered more than once across the counter and histogram
/// registries. Two distinct `static`s sharing one name would silently split
/// a metric across instruments; [`assert_unique_registrations`] turns that
/// into a hard failure.
pub fn duplicate_registrations() -> Vec<String> {
    let mut seen: HashMap<String, usize> = HashMap::new();
    for (name, _) in counter_values() {
        *seen.entry(name).or_insert(0) += 1;
    }
    for h in histogram_windows() {
        *seen.entry(h.name).or_insert(0) += 1;
    }
    let mut dupes: Vec<String> = seen.into_iter().filter(|&(_, n)| n > 1).map(|(n, _)| n).collect();
    dupes.sort();
    dupes
}

/// Panics if any counter or histogram name is registered by more than one
/// instrument. Called by the telemetry test suite after exercising the
/// serving paths.
pub fn assert_unique_registrations() {
    let dupes = duplicate_registrations();
    assert!(dupes.is_empty(), "duplicate telemetry registrations: {dupes:?}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::bucket_upper;
    use std::sync::MutexGuard;

    /// Drain-based tests share global state; serialize them.
    fn lock() -> MutexGuard<'static, ()> {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let _ = drain(); // discard events from earlier tests
        guard
    }

    #[test]
    fn span_macro_records_matched_pair() {
        let _l = lock();
        {
            let _s = crate::span!("test.outer");
            let _inner = crate::span!("test.inner");
        }
        let p = drain();
        let names: Vec<(&str, EventKind)> = p.events.iter().map(|e| (e.name.as_str(), e.kind)).collect();
        assert!(names.contains(&("test.outer", EventKind::Enter)));
        assert!(names.contains(&("test.inner", EventKind::Enter)));
        assert!(names.contains(&("test.inner", EventKind::Exit)));
        assert!(names.contains(&("test.outer", EventKind::Exit)));
        let totals = p.span_totals();
        assert_eq!(totals["test.outer"].0, 1);
    }

    #[test]
    fn events_are_time_ordered_and_sequenced() {
        let _l = lock();
        for _ in 0..10 {
            let _s = crate::span!("test.order");
        }
        let p = drain();
        let evs: Vec<&SpanEvent> = p.events.iter().filter(|e| e.name == "test.order").collect();
        assert_eq!(evs.len(), 20);
        for w in evs.windows(2) {
            assert!((w[0].t_ns, w[0].seq) <= (w[1].t_ns, w[1].seq));
        }
    }

    #[test]
    fn disabled_recording_is_invisible() {
        let _l = lock();
        set_enabled(false);
        {
            let _s = crate::span!("test.disabled");
            static C: Counter = Counter::new("test.disabled.counter");
            C.incr();
            assert_eq!(C.get(), 0);
        }
        set_enabled(true);
        let p = drain();
        assert!(p.events.iter().all(|e| e.name != "test.disabled"));
    }

    #[test]
    fn counters_register_and_accumulate() {
        let _l = lock();
        static C: Counter = Counter::new("test.counter.acc");
        let before = C.get();
        C.add(5);
        C.incr();
        assert_eq!(C.get(), before + 6);
        let p = drain();
        assert!(p.counters.iter().any(|(n, v)| n == "test.counter.acc" && *v >= 6));
    }

    #[test]
    fn dynamic_counters_intern_to_one_instance() {
        let _l = lock();
        let a = counter("test.dyn.lane0");
        let b = counter("test.dyn.lane0");
        assert!(std::ptr::eq(a, b));
        let before = a.get();
        a.add(3);
        assert_eq!(b.get(), before + 3);
    }

    #[test]
    fn record_max_is_high_water() {
        let _l = lock();
        static HWM: Counter = Counter::new("test.hwm");
        HWM.record_max(10);
        HWM.record_max(4);
        HWM.record_max(12);
        assert_eq!(HWM.get(), 12);
    }

    #[test]
    fn timed_accumulates_nanos() {
        let _l = lock();
        static T: Counter = Counter::new("test.timed.ns");
        let before = T.get();
        let out = timed(&T, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            7
        });
        assert_eq!(out, 7);
        assert!(T.get() - before >= 500_000, "timed() should record >= 0.5ms");
    }

    #[test]
    fn histogram_percentiles_exact_in_linear_range() {
        let _l = lock();
        static H: Histogram = Histogram::new("test.hist.linear");
        for v in 1..=100u64 {
            H.record(v);
        }
        let s = H.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99);
    }

    #[test]
    fn histogram_log_range_reports_upper_bound() {
        let _l = lock();
        static H: Histogram = Histogram::new("test.hist.log");
        H.record(1000); // bucket [512, 1024) -> upper 1023
        let s = H.snapshot();
        assert_eq!(s.p50, 1023);
        assert!(s.p99 >= 1000);
    }

    #[test]
    fn ring_overflow_drops_and_counts() {
        let _l = lock();
        // Fill well past capacity without draining.
        for _ in 0..(RING_CAP) {
            let _s = crate::span!("test.flood");
        }
        let p = drain();
        assert!(p.dropped > 0, "flooding one ring must report drops");
        // Drop counter resets after drain.
        let p2 = drain();
        assert_eq!(p2.dropped, 0);
    }

    #[test]
    fn cross_thread_events_carry_thread_ids() {
        let _l = lock();
        std::thread::spawn(|| {
            let _s = crate::span!("test.cross_thread");
        })
        .join()
        .unwrap();
        let _s = crate::span!("test.main_thread");
        drop(_s);
        let p = drain();
        let t_a = p
            .events
            .iter()
            .find(|e| e.name == "test.cross_thread")
            .map(|e| e.thread);
        let t_b = p.events.iter().find(|e| e.name == "test.main_thread").map(|e| e.thread);
        assert!(t_a.is_some() && t_b.is_some());
        assert_ne!(t_a, t_b);
        assert!(p.threads.len() >= 2);
    }

    #[test]
    fn bucket_math_is_monotonic() {
        let mut last = 0;
        for v in [0u64, 1, 255, 256, 511, 512, 1 << 20, 1 << 40, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= last);
            assert!(b < HIST_BUCKETS);
            assert!(bucket_upper(b) >= v, "upper bound must cover {v}");
            last = b;
        }
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn trace_marks_carry_tags_and_explicit_timestamps() {
        let _l = lock();
        let id = TraceId::from_request(7);
        crate::trace_mark!(id, "test.trace.enq", 1_000);
        crate::trace_mark!(id, "test.trace.done", 5_000);
        {
            let _s = crate::trace_span!(id, "test.trace.span");
        }
        let _untagged = crate::span!("test.trace.untagged");
        let p = drain();
        let tagged: Vec<&SpanEvent> = p.events.iter().filter(|e| e.trace == id.raw()).collect();
        assert_eq!(tagged.len(), 4, "two marks + span enter/exit");
        let enq = tagged.iter().find(|e| e.name == "test.trace.enq").unwrap();
        assert_eq!((enq.kind, enq.t_ns), (EventKind::Point, 1_000));
        let done = tagged.iter().find(|e| e.name == "test.trace.done").unwrap();
        assert_eq!(done.t_ns, 5_000);
        assert!(tagged
            .iter()
            .any(|e| e.name == "test.trace.span" && e.kind == EventKind::Enter));
        assert!(tagged
            .iter()
            .any(|e| e.name == "test.trace.span" && e.kind == EventKind::Exit));
        let untagged = p.events.iter().find(|e| e.name == "test.trace.untagged").unwrap();
        assert_eq!(untagged.trace, 0);
    }

    #[test]
    fn counter_values_and_histogram_windows_are_nonconsuming() {
        let _l = lock();
        static C: Counter = Counter::new("test.windowed.counter");
        static H: Histogram = Histogram::new("test.windowed.hist");
        C.add(4);
        H.record(10);
        let find = || {
            counter_values()
                .into_iter()
                .find(|(n, _)| n == "test.windowed.counter")
                .map(|(_, v)| v)
        };
        let first = find().expect("registered");
        assert_eq!(find(), Some(first), "reading twice must not consume");
        let w = histogram_windows()
            .into_iter()
            .find(|w| w.name == "test.windowed.hist")
            .expect("registered");
        assert_eq!(w.buckets.len(), HIST_BUCKETS);
        assert!(w.count() >= 1);
    }

    #[test]
    fn no_duplicate_registrations_in_this_process() {
        let _l = lock();
        static A: Counter = Counter::new("test.unique.one");
        A.incr();
        assert_unique_registrations();
    }
}
