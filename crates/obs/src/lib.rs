//! `bt-obs` — lock-free runtime telemetry for the ByteTransformer runtime.
//!
//! Three primitives, all cheap enough for hot paths:
//!
//! * **Spans** — `span!("gemm.grouped.cta")` pushes an enter event into a
//!   thread-local ring buffer and the guard's `Drop` pushes the matching
//!   exit; each event carries an `Instant`-based nanosecond timestamp plus a
//!   global monotonic sequence number so a merged profile is totally
//!   ordered even when timestamps tie.
//! * **Counters** — `static N: Counter = Counter::new("pool.launches")`
//!   bumped with relaxed atomics; `counter("name")` interns dynamic names.
//! * **Histograms** — fixed 312-bucket (256 linear + 56 log2) atomic
//!   histograms with p50/p95/p99 snapshots, for batch occupancy and
//!   queue-wait distributions.
//!
//! [`drain`] empties every thread's ring into a time-ordered
//! [`profile::Profile`] which renders as a hierarchical span tree,
//! `chrome://tracing` JSON, or a flat Prometheus-style text dump.
//!
//! Two layers sit on top of the rings:
//!
//! * **Request traces** — serving loops tag lifecycle point events with a
//!   [`trace::TraceId`] (`trace_mark!` / `trace_span!`);
//!   [`trace::reconstruct`] groups a drained profile into per-request
//!   causal timelines with exact queue-wait / compute / egress phase
//!   breakdowns. Names live in the documented [`names`] table.
//! * **Windowed snapshots** — [`snapshot::Aggregator`] diffs successive
//!   registry reads into per-window [`snapshot::MetricsSnapshot`]s (delta
//!   counters, windowed percentiles from raw bucket deltas, GEMM rates,
//!   shed breakdown) that merge across shards;
//!   [`snapshot::SnapshotLoop`] runs the periodic loop at a caller-chosen
//!   cadence.
//!
//! Recording is on from process start. [`set_enabled`]`(false)` is the one
//! off switch: every span, counter and histogram call then costs a relaxed
//! load and a branch, bounded at < 5 ns per `span!` + counter increment
//! (asserted by the `obs_overhead` bench). [`warn_once`] works whether
//! recording is on or off, so diagnostics never vanish.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod names;
pub mod profile;
pub mod snapshot;
pub mod trace;
mod warn;

pub use trace::TraceId;
pub use warn::{reset_warnings, warn_once, warnings};

mod record;
pub use record::{
    assert_unique_registrations, counter, counter_values, drain, duplicate_registrations, enabled, histogram_windows,
    now_ns, set_enabled, span_dyn, timed, trace_mark, trace_mark_at, trace_span, Counter, Histogram, LabelId,
    SpanGuard,
};

/// Opens a span named by a string literal; the returned guard closes it on
/// drop. The label is interned once per call site via a hidden `static`, so
/// the steady-state cost is one atomic load plus two ring pushes (and a
/// single branch when recording is disabled).
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __BT_OBS_LABEL: $crate::LabelId = $crate::LabelId::new($name);
        $crate::SpanGuard::enter(&__BT_OBS_LABEL)
    }};
}

/// Records a request-tagged point event. Two-argument form stamps the
/// telemetry wall clock; the three-argument form takes an explicit
/// nanosecond timestamp (virtual-time serving loops pass their simulated
/// clock so trace phase sums reconcile exactly with their ledgers).
#[macro_export]
macro_rules! trace_mark {
    ($id:expr, $name:expr) => {{
        static __BT_OBS_LABEL: $crate::LabelId = $crate::LabelId::new($name);
        $crate::trace_mark($id, &__BT_OBS_LABEL)
    }};
    ($id:expr, $name:expr, $t_ns:expr) => {{
        static __BT_OBS_LABEL: $crate::LabelId = $crate::LabelId::new($name);
        $crate::trace_mark_at($id, &__BT_OBS_LABEL, $t_ns)
    }};
}

/// Opens a span whose enter and exit events carry a request tag, so the
/// span shows up in that request's reconstructed timeline.
#[macro_export]
macro_rules! trace_span {
    ($id:expr, $name:expr) => {{
        static __BT_OBS_LABEL: $crate::LabelId = $crate::LabelId::new($name);
        $crate::trace_span($id, &__BT_OBS_LABEL)
    }};
}
