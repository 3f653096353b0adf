//! What a traced phase accumulates: the span tree, per-kernel totals from
//! the device's records, and `bt_obs` counter deltas.

use crate::span::{Span, SpanId, SpanStore};
use bt_device::{Device, KernelRecord};
use std::collections::BTreeMap;

/// Totals of one kernel name over the traced phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTotals {
    pub calls: u64,
    pub wall_ns: u64,
    pub flops: u64,
    /// Bytes computed from tensor sizes by the kernel's declaration.
    pub bytes: u64,
}

impl KernelTotals {
    pub fn gflops(&self) -> f64 {
        ratio(self.flops as f64, self.wall_ns as f64)
    }

    pub fn gbs(&self) -> f64 {
        ratio(self.bytes as f64, self.wall_ns as f64)
    }

    fn absorb(&mut self, other: &KernelTotals) {
        self.calls += other.calls;
        self.wall_ns += other.wall_ns;
        self.flops += other.flops;
        self.bytes += other.bytes;
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did not run reports zeros).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Span tree plus kernel totals of one traced phase.
#[derive(Debug)]
pub struct Tracer {
    pub spans: SpanStore,
    pub run: SpanId,
    kernels: BTreeMap<String, KernelTotals>,
    /// Summed wall time of op spans.
    pub op_wall_ns: u64,
    pub ops: u64,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        let mut spans = SpanStore::new();
        let run = spans.open(workload, None);
        Self {
            spans,
            run,
            kernels: BTreeMap::new(),
            op_wall_ns: 0,
            ops: 0,
        }
    }

    /// Opens an op span (`forward` / `exec` / `run_step`) under the run.
    pub fn open_op(&mut self, name: &str) -> SpanId {
        self.spans.open(name, Some(self.run))
    }

    /// Closes an op span and counts it towards the per-op denominators.
    pub fn close_op(&mut self, op: SpanId) {
        self.spans.close(op);
        self.op_wall_ns += self.spans.spans()[op].dur_ns();
        self.ops += 1;
    }

    /// Times `f` as a child span of `parent` and files the kernel records
    /// the device collected meanwhile under it.
    pub fn call<R>(&mut self, name: &str, parent: SpanId, device: &Device, f: impl FnOnce() -> R) -> R {
        let id = self.spans.open(name, Some(parent));
        let out = f();
        self.spans.close(id);
        self.take_kernels(id, device);
        out
    }

    /// Moves the device's records since the last call under `parent`.
    pub fn take_kernels(&mut self, parent: SpanId, device: &Device) {
        let records = device.trace();
        device.reset();
        self.file_kernels(parent, &records);
    }

    fn file_kernels(&mut self, parent: SpanId, records: &[KernelRecord]) {
        for r in records {
            let t = self.kernels.entry(r.name.clone()).or_default();
            t.calls += 1;
            t.wall_ns += r.wall.as_nanos() as u64;
            t.flops += r.cost.flops;
            t.bytes += r.cost.bytes();
        }
        self.spans.add_kernels(parent, records);
    }

    /// Records a request's life (due → done) beside the op spans.
    pub fn request(&mut self, id: usize, start_ns: u64, end_ns: u64) {
        self.spans.add(Span {
            name: "request".into(),
            parent: Some(self.run),
            start_ns,
            end_ns: end_ns.max(start_ns),
            request: Some(id),
            flops: 0,
            bytes: 0,
        });
    }

    pub fn finish(&mut self) {
        self.spans.close(self.run);
    }

    /// Totals over every kernel whose name satisfies `pick`.
    pub fn kernels_where(&self, pick: impl Fn(&str) -> bool) -> KernelTotals {
        let mut sum = KernelTotals::default();
        for (name, t) in &self.kernels {
            if pick(name) {
                sum.absorb(t);
            }
        }
        sum
    }

    /// Share of summed op wall time spent in kernels satisfying `pick`.
    pub fn share(&self, pick: impl Fn(&str) -> bool) -> f64 {
        ratio(self.kernels_where(pick).wall_ns as f64, self.op_wall_ns as f64)
    }

    /// Summed self time of spans named `name`, over their summed duration.
    pub fn self_frac(&self, name: &str) -> f64 {
        let self_ns = self.spans.self_times_ns();
        let (mut own, mut dur) = (0u64, 0u64);
        for (s, t) in self.spans.spans().iter().zip(self_ns) {
            if s.name == name {
                own += t;
                dur += s.dur_ns();
            }
        }
        ratio(own as f64, dur as f64)
    }

    /// Durations in ms of every span whose name starts with `prefix`.
    pub fn durations_ms(&self, prefix: &str) -> Vec<f64> {
        self.spans
            .spans()
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }
}

/// `bt_obs` counter values by name.
pub type Counters = BTreeMap<String, u64>;

pub fn read_counters() -> Counters {
    bt_obs::counter_values().into_iter().collect()
}

/// Growth of monotonic counters between two readings.
pub struct CounterDelta {
    before: Counters,
    after: Counters,
}

impl CounterDelta {
    pub fn new(before: Counters, after: Counters) -> Self {
        Self { before, after }
    }

    /// Growth of the counter called `name`.
    pub fn get(&self, name: &str) -> u64 {
        let read = |c: &Counters| c.get(name).copied().unwrap_or(0);
        read(&self.after).saturating_sub(read(&self.before))
    }

    /// Summed growth of every counter whose name satisfies `pick`.
    pub fn sum_where(&self, pick: impl Fn(&str) -> bool) -> u64 {
        self.after.keys().filter(|k| pick(k)).map(|k| self.get(k)).sum()
    }

    /// Jobs each pool worker executed (own deque, stolen, injector). The
    /// launching thread runs its share inline without a counter, so only
    /// worker lanes appear; at pool width 2 there is a single one.
    pub fn pool_worker_jobs(&self) -> Vec<u64> {
        let mut lanes: BTreeMap<&str, u64> = BTreeMap::new();
        for k in self.after.keys() {
            let Some((lane, what)) = k.strip_prefix("pool.").and_then(|r| r.split_once('.')) else {
                continue;
            };
            if lane.starts_with("worker") && matches!(what, "local_pops" | "steals" | "injector_pops") {
                *lanes.entry(lane).or_insert(0) += self.get(k);
            }
        }
        lanes.into_values().collect()
    }

    /// Final value of a high-water counter (these only grow; a delta would
    /// hide a mark reached before the phase).
    pub fn high_water(&self, name: &str) -> u64 {
        self.after.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_device::{CostModel, KernelSpec};

    #[test]
    fn calls_file_kernels_under_their_span_and_total_them() {
        let dev = Device::with_model(CostModel::unit());
        let mut tr = Tracer::new("t");
        let op = tr.open_op("forward");
        tr.call("layer0", op, &dev, || {
            dev.launch(KernelSpec::new("gemm0.qkv").flops(100).reads(10), || ());
            dev.launch(KernelSpec::new("layernorm0.fused").reads(30).writes(30), || ());
        });
        tr.call("layer1", op, &dev, || {
            dev.launch(KernelSpec::new("gemm0.qkv").flops(100).reads(10), || ());
        });
        tr.close_op(op);
        tr.finish();
        assert!(dev.trace().is_empty(), "records are moved out of the device");
        let qkv = tr.kernels_where(|n| n == "gemm0.qkv");
        assert_eq!((qkv.calls, qkv.flops, qkv.bytes), (2, 200, 20));
        assert_eq!(tr.kernels_where(|n| n.starts_with("layernorm")).bytes, 60);
        assert_eq!(tr.ops, 1);
        let names: Vec<&str> = tr.spans.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "t",
                "forward",
                "layer0",
                "gemm0.qkv",
                "layernorm0.fused",
                "layer1",
                "gemm0.qkv"
            ]
        );
        assert_eq!(tr.spans.spans()[3].parent, Some(2));
        assert!(tr.share(|_| true) <= 1.0);
        assert_eq!(tr.durations_ms("layer1").len(), 1);
    }

    #[test]
    fn counter_deltas_and_lanes() {
        let before: Counters = [("pool.ext.launches".to_string(), 5), ("mha.path.short".to_string(), 2)].into();
        let after: Counters = [
            ("pool.ext.launches".to_string(), 9),
            ("pool.worker0.launches".to_string(), 3),
            ("pool.worker0.steals".to_string(), 5),
            ("pool.worker0.injector_pops".to_string(), 2),
            ("pool.ext.injector_pops".to_string(), 9),
            ("mha.path.short".to_string(), 6),
            ("gemm.scratch.high_water_elems".to_string(), 77),
        ]
        .into();
        let d = CounterDelta::new(before, after);
        assert_eq!(d.get("mha.path.short"), 4);
        assert_eq!(d.get("missing"), 0);
        assert_eq!(d.pool_worker_jobs(), vec![7]);
        assert_eq!(d.sum_where(|k| k.ends_with(".launches")), 7);
        assert_eq!(d.high_water("gemm.scratch.high_water_elems"), 77);
    }
}
