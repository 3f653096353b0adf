//! Windowed metrics aggregation.
//!
//! The recording layer keeps *cumulative* counters and histogram buckets;
//! this module turns successive reads of that state into per-window
//! [`MetricsSnapshot`]s: delta counters, windowed p50/p95/p99 (computed
//! from raw bucket deltas with the exact same math the live histograms
//! use), per-ISA/per-precision GEMM rates, KV-pool high-water, and the
//! shed-reason breakdown. Snapshots [`merge`] so N shards can be rolled up
//! into one fleet view.
//!
//! [`SnapshotLoop`] runs the periodic loop on a background thread at a
//! cadence its caller chooses (`btx top` uses 1000 ms).

use crate::names;
use crate::profile::HistogramSnapshot;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// bucket geometry (shared by the live histograms and windowed aggregation)
// ---------------------------------------------------------------------------

/// Linear buckets (exact) below this value; log2 buckets above.
pub const HIST_LINEAR: usize = 256;
/// 256 linear + one bucket per power of two from 2^8 through 2^63.
pub const HIST_BUCKETS: usize = HIST_LINEAR + 56;

/// The bucket index recording value `v`.
pub fn bucket_of(v: u64) -> usize {
    if v < HIST_LINEAR as u64 {
        v as usize
    } else {
        HIST_LINEAR + (63 - v.leading_zeros() as usize) - 8
    }
}

/// Upper bound of bucket `i` (exact for linear buckets).
pub fn bucket_upper(i: usize) -> u64 {
    if i < HIST_LINEAR {
        i as u64
    } else {
        let e = i - HIST_LINEAR + 9;
        if e >= 64 {
            u64::MAX
        } else {
            (1u64 << e) - 1
        }
    }
}

// ---------------------------------------------------------------------------
// windowed histogram
// ---------------------------------------------------------------------------

/// A histogram's raw bucket state — cumulative when read from the registry,
/// a per-window delta inside a [`MetricsSnapshot`]. Carrying the buckets
/// (not pre-baked percentiles) is what makes shard merging exact:
/// percentiles are recomputed after summing buckets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramWindow {
    /// Histogram name.
    pub name: String,
    /// One count per bucket ([`HIST_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramWindow {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The value at quantile `q` (same rank-scan as the live layer:
    /// exact below 256, bucket upper bound above).
    ///
    /// # Resolution
    /// The report is the upper bound of the bucket holding the rank-`q`
    /// observation `v`, so the error is bounded by the bucket geometry:
    /// **exact** for `v <` [`HIST_LINEAR`] (linear buckets record each
    /// value in its own bucket), and within one power of two above —
    /// `v ≤ reported < 2·v` — since log2 buckets span `[2^e, 2^{e+1})` and
    /// report `2^{e+1} − 1`. Merging shards preserves these bounds exactly
    /// (buckets are summed, never re-binned); the property suite
    /// (`snapshot_merge_properties.rs`) pins both.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(HIST_BUCKETS - 1)
    }

    /// A p50/p95/p99 snapshot of this window.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            name: self.name.clone(),
            count: self.count(),
            sum: self.sum,
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
        }
    }

    /// Bucket-wise difference `self − earlier` (for cumulative reads taken
    /// at window edges).
    fn delta_since(&self, earlier: Option<&HistogramWindow>) -> HistogramWindow {
        match earlier {
            None => self.clone(),
            Some(e) => HistogramWindow {
                name: self.name.clone(),
                buckets: self
                    .buckets
                    .iter()
                    .zip(e.buckets.iter().chain(std::iter::repeat(&0)))
                    .map(|(now, then)| now.saturating_sub(*then))
                    .collect(),
                sum: self.sum.saturating_sub(e.sum),
            },
        }
    }

    /// Adds `other`'s buckets into this window (shard merge).
    fn absorb(&mut self, other: &HistogramWindow) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.sum += other.sum;
    }
}

// ---------------------------------------------------------------------------
// snapshot
// ---------------------------------------------------------------------------

/// One counter inside a snapshot window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterDelta {
    /// Counter name.
    pub name: String,
    /// Increment observed during this window.
    pub delta: u64,
    /// Cumulative value at the window's end.
    pub total: u64,
}

/// One aggregation window: delta counters and windowed histograms, plus
/// derived serving views. Produced by [`Aggregator::snapshot`]; mergeable
/// across shards with [`merge`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Shard label (hostname, worker index, …); `merge` concatenates.
    pub shard: String,
    /// Window length in milliseconds.
    pub window_ms: u64,
    /// Per-counter deltas, sorted by name.
    pub counters: Vec<CounterDelta>,
    /// Per-histogram windowed bucket deltas, sorted by name.
    pub histograms: Vec<HistogramWindow>,
}

impl MetricsSnapshot {
    /// The window's increment of counter `name` (0 if unregistered).
    pub fn delta(&self, name: &str) -> u64 {
        self.counters.iter().find(|c| c.name == name).map_or(0, |c| c.delta)
    }

    /// The cumulative value of counter `name` at window end.
    pub fn total(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.total)
    }

    /// Events per second of counter `name` over this window.
    pub fn rate_per_sec(&self, name: &str) -> f64 {
        if self.window_ms == 0 {
            return 0.0;
        }
        self.delta(name) as f64 * 1e3 / self.window_ms as f64
    }

    /// Windowed GFLOP/s per GEMM dispatch path, from the
    /// `gemm.flops.<isa>.<prec>` counters: `[("avx512.f32", 12.3), …]`.
    pub fn gemm_rates(&self) -> Vec<(String, f64)> {
        self.counters
            .iter()
            .filter(|c| c.name.starts_with(names::GEMM_FLOPS_PREFIX))
            .map(|c| {
                let path = c.name[names::GEMM_FLOPS_PREFIX.len()..].to_string();
                (path, self.rate_per_sec(&c.name) / 1e9)
            })
            .collect()
    }

    /// Windowed shed counts by `<loop>.<reason>`, from every counter whose
    /// name contains `.shed` (zero-delta reasons omitted).
    pub fn shed_breakdown(&self) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .filter(|c| c.name.contains(".shed") && c.delta > 0)
            .map(|c| (c.name.clone(), c.delta))
            .collect()
    }

    /// The KV block-pool high-water mark, if the pool has reported one.
    pub fn kv_pool_high_water(&self) -> Option<u64> {
        self.total(names::KV_POOL_HIGH_WATER)
    }

    /// The windowed view of histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&HistogramWindow> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Rolls N shard snapshots into one: counter deltas and histogram buckets
/// are summed by name (percentiles recomputed from the summed buckets, so
/// the merged quantiles are exact), high-water counters (name contains
/// `high_water`) merge by max, and the window is the widest input window.
/// The operation is associative and commutative up to the synthesized
/// `shard` label `merge(N)` (pinned by the property suite), so shards can
/// be folded in any order or grouping.
pub fn merge(shards: &[MetricsSnapshot]) -> MetricsSnapshot {
    let mut counters: HashMap<String, CounterDelta> = HashMap::new();
    let mut histograms: HashMap<String, HistogramWindow> = HashMap::new();
    for s in shards {
        for c in &s.counters {
            let e = counters.entry(c.name.clone()).or_insert_with(|| CounterDelta {
                name: c.name.clone(),
                delta: 0,
                total: 0,
            });
            if c.name.contains("high_water") {
                e.delta = e.delta.max(c.delta);
                e.total = e.total.max(c.total);
            } else {
                e.delta += c.delta;
                e.total += c.total;
            }
        }
        for h in &s.histograms {
            histograms
                .entry(h.name.clone())
                .or_insert_with(|| HistogramWindow {
                    name: h.name.clone(),
                    buckets: vec![0; HIST_BUCKETS],
                    sum: 0,
                })
                .absorb(h);
        }
    }
    let mut counters: Vec<CounterDelta> = counters.into_values().collect();
    counters.sort_by(|a, b| a.name.cmp(&b.name));
    let mut histograms: Vec<HistogramWindow> = histograms.into_values().collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    MetricsSnapshot {
        shard: format!("merge({})", shards.len()),
        window_ms: shards.iter().map(|s| s.window_ms).max().unwrap_or(0),
        counters,
        histograms,
    }
}

// ---------------------------------------------------------------------------
// aggregator + periodic loop
// ---------------------------------------------------------------------------

/// Diffs successive reads of the cumulative registries into windowed
/// [`MetricsSnapshot`]s. Construction primes the baseline, so the first
/// `snapshot()` covers activity since `new()` (not since process start).
pub struct Aggregator {
    shard: String,
    last: Instant,
    prev_counters: HashMap<String, u64>,
    prev_hists: HashMap<String, HistogramWindow>,
}

impl Aggregator {
    /// An aggregator labeled `shard`, primed on the current registry state.
    pub fn new(shard: &str) -> Aggregator {
        let mut a = Aggregator {
            shard: shard.to_string(),
            last: Instant::now(),
            prev_counters: HashMap::new(),
            prev_hists: HashMap::new(),
        };
        a.prime();
        a
    }

    fn prime(&mut self) {
        self.prev_counters = crate::counter_values().into_iter().collect();
        self.prev_hists = crate::histogram_windows()
            .into_iter()
            .map(|h| (h.name.clone(), h))
            .collect();
        self.last = Instant::now();
    }

    /// Closes the current window and returns its snapshot.
    pub fn snapshot(&mut self) -> MetricsSnapshot {
        let window_ms = (self.last.elapsed().as_millis() as u64).max(1);
        let counters: Vec<CounterDelta> = crate::counter_values()
            .into_iter()
            .map(|(name, total)| {
                let prev = self.prev_counters.get(&name).copied().unwrap_or(0);
                CounterDelta {
                    delta: total.saturating_sub(prev),
                    name,
                    total,
                }
            })
            .collect();
        let histograms: Vec<HistogramWindow> = crate::histogram_windows()
            .into_iter()
            .map(|h| h.delta_since(self.prev_hists.get(&h.name)))
            .collect();
        self.prime();
        MetricsSnapshot {
            shard: self.shard.clone(),
            window_ms,
            counters,
            histograms,
        }
    }
}

/// A background thread that emits one [`MetricsSnapshot`] per window to a
/// sink callback. Stopping (or dropping) the loop flushes a final partial
/// window so short runs still produce at least one snapshot.
pub struct SnapshotLoop {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl SnapshotLoop {
    /// Spawns the loop with cadence `window`, labeling snapshots `shard`.
    pub fn spawn(
        shard: &str,
        window: Duration,
        mut sink: impl FnMut(MetricsSnapshot) + Send + 'static,
    ) -> SnapshotLoop {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let shard = shard.to_string();
        let handle = std::thread::Builder::new()
            .name("bt-obs-snapshot".to_string())
            .spawn(move || {
                let mut agg = Aggregator::new(&shard);
                let tick = Duration::from_millis(10).min(window);
                let mut elapsed = Duration::ZERO;
                loop {
                    if stop2.load(Ordering::Relaxed) {
                        sink(agg.snapshot());
                        return;
                    }
                    std::thread::sleep(tick);
                    elapsed += tick;
                    if elapsed >= window {
                        elapsed = Duration::ZERO;
                        sink(agg.snapshot());
                    }
                }
            })
            .expect("spawn snapshot loop");
        SnapshotLoop {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the loop, flushing one final snapshot to the sink.
    pub fn stop(mut self) {
        self.join();
    }

    fn join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for SnapshotLoop {
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window_of(values: &[u64], name: &str) -> HistogramWindow {
        let mut buckets = vec![0u64; HIST_BUCKETS];
        let mut sum = 0;
        for &v in values {
            buckets[bucket_of(v)] += 1;
            sum += v;
        }
        HistogramWindow {
            name: name.to_string(),
            buckets,
            sum,
        }
    }

    #[test]
    fn windowed_percentiles_match_live_math() {
        let w = window_of(&(1..=100).collect::<Vec<u64>>(), "w");
        assert_eq!(w.count(), 100);
        assert_eq!(w.percentile(0.50), 50);
        assert_eq!(w.percentile(0.95), 95);
        assert_eq!(w.percentile(0.99), 99);
        let s = w.snapshot();
        assert_eq!((s.p50, s.p95, s.p99), (50, 95, 99));
    }

    #[test]
    fn delta_since_subtracts_bucketwise() {
        let earlier = window_of(&[5, 10], "w");
        let now = window_of(&[5, 10, 20, 20], "w");
        let d = now.delta_since(Some(&earlier));
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum, 40);
        assert_eq!(d.percentile(0.99), 20);
    }

    #[test]
    fn merged_shards_have_exact_quantiles() {
        let a = MetricsSnapshot {
            shard: "a".into(),
            window_ms: 1000,
            counters: vec![CounterDelta {
                name: "serve.served".into(),
                delta: 10,
                total: 100,
            }],
            histograms: vec![window_of(&[1, 2, 3], "lat")],
        };
        let b = MetricsSnapshot {
            shard: "b".into(),
            window_ms: 900,
            counters: vec![
                CounterDelta {
                    name: "serve.served".into(),
                    delta: 5,
                    total: 50,
                },
                CounterDelta {
                    name: crate::names::KV_POOL_HIGH_WATER.into(),
                    delta: 0,
                    total: 32,
                },
            ],
            histograms: vec![window_of(&[97, 98, 99], "lat")],
        };
        let m = merge(&[a, b]);
        assert_eq!(m.shard, "merge(2)");
        assert_eq!(m.window_ms, 1000);
        assert_eq!(m.delta("serve.served"), 15);
        assert_eq!(m.total("serve.served"), Some(150));
        assert_eq!(m.kv_pool_high_water(), Some(32));
        let lat = m.histogram("lat").unwrap();
        assert_eq!(lat.count(), 6);
        // Exact merged quantiles: the union {1,2,3,97,98,99}.
        assert_eq!(lat.percentile(0.5), 3);
        assert_eq!(lat.percentile(0.99), 99);
    }

    #[test]
    fn derived_views_read_the_right_counters() {
        let s = MetricsSnapshot {
            shard: "test".into(),
            window_ms: 1000,
            counters: vec![
                CounterDelta {
                    name: format!("{}avx512.f32", crate::names::GEMM_FLOPS_PREFIX),
                    delta: 2_000_000_000,
                    total: 2_000_000_000,
                },
                CounterDelta {
                    name: "serve.shed.queue_full".into(),
                    delta: 3,
                    total: 3,
                },
                CounterDelta {
                    name: "serve.shed.too_long".into(),
                    delta: 0,
                    total: 7,
                },
            ],
            histograms: vec![],
        };
        let rates = s.gemm_rates();
        assert_eq!(rates.len(), 1);
        assert_eq!(rates[0].0, "avx512.f32");
        assert!((rates[0].1 - 2.0).abs() < 1e-9, "2 GFLOP over 1 s = 2 GFLOP/s");
        assert_eq!(s.shed_breakdown(), vec![("serve.shed.queue_full".to_string(), 3)]);
    }

    #[test]
    fn aggregator_and_loop_produce_snapshots() {
        // A snapshot and the periodic loop must work with no traffic at
        // all: whatever the registries hold, a fresh aggregator emits a
        // labelled window and the loop flushes at least once on stop.
        let mut agg = Aggregator::new("t");
        let s = agg.snapshot();
        assert_eq!(s.shard, "t");
        assert!(s.window_ms >= 1);

        let seen = Arc::new(std::sync::Mutex::new(0usize));
        let seen2 = Arc::clone(&seen);
        let lp = SnapshotLoop::spawn("t", Duration::from_millis(20), move |_s| {
            *seen2.lock().unwrap() += 1;
        });
        std::thread::sleep(Duration::from_millis(60));
        lp.stop();
        assert!(*seen.lock().unwrap() >= 1, "loop must emit at least the final flush");
    }
}
