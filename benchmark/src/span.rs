//! The traced run's span store: spans recorded from the benchmark's own
//! files around the calls into each layer, kept in memory and written as a
//! chrome trace when the run ends.
//!
//! The tree is run → op (`forward` / `exec` / `run_step`) → bench-timed
//! public calls (`from_mask_on`, `pack`, each `layer_forward_packed`,
//! `unpack`) → the [`bt_device::KernelRecord`]s the device returned for that
//! call. The device records a kernel's duration but not its start, so kernel
//! spans are laid end to end from their parent's start in launch order; the
//! time between launches collects at the end of the parent as its self time.

use crate::json::Value;
use bt_device::KernelRecord;
use std::time::Instant;

/// Index of a span in its [`SpanStore`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request id for request spans; requests join their batch by time
    /// containment, not by parent link.
    pub request: Option<usize>,
    /// Declared FLOPs (kernel spans only).
    pub flops: u64,
    /// Bytes computed from tensor sizes, not measured (kernel spans only).
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder with one clock (nanoseconds since `new`).
#[derive(Debug)]
pub struct SpanStore {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanStore {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the store was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds between the store's creation and `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`SpanStore::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.add(Span {
            name: name.to_string(),
            parent,
            start_ns: now,
            end_ns: now,
            request: None,
            flops: 0,
            bytes: 0,
        })
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a finished span.
    pub fn add(&mut self, span: Span) -> SpanId {
        debug_assert!(span.end_ns >= span.start_ns);
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Lays `records` end to end under `parent`, from the parent's start.
    pub fn add_kernels(&mut self, parent: SpanId, records: &[KernelRecord]) {
        let mut cursor = self.spans[parent].start_ns;
        for r in records {
            let wall = r.wall.as_nanos() as u64;
            self.add(Span {
                name: r.name.clone(),
                parent: Some(parent),
                start_ns: cursor,
                end_ns: cursor + wall,
                request: None,
                flops: r.cost.flops,
                bytes: r.cost.bytes(),
            });
            cursor += wall;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its child spans cover (overlapping children count once; a child
    /// reaching outside the parent is clipped).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// The whole store as a chrome-trace document (`chrome://tracing`,
    /// Perfetto): one complete event per span, depth as thread id so nested
    /// spans stack, parent and self time in `args`.
    pub fn chrome_trace(&self, meta: Value) -> Value {
        let self_ns = self.self_times_ns();
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                // Parents are recorded before or after children (ops close
                // late), so depth walks the chain instead of trusting order.
                let mut d = 0u32;
                let mut up = s.parent;
                while let Some(p) = up {
                    d += 1;
                    up = self.spans[p].parent;
                }
                let mut args = vec![
                    ("id".to_string(), Value::Num(i as f64)),
                    ("self_us".to_string(), Value::Num(self_ns[i] as f64 / 1e3)),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent".into(), Value::Num(p as f64)));
                }
                if let Some(r) = s.request {
                    args.push(("request".into(), Value::Num(r as f64)));
                }
                if s.flops > 0 || s.bytes > 0 {
                    args.push(("flops".into(), Value::Num(s.flops as f64)));
                    args.push(("bytes_computed".into(), Value::Num(s.bytes as f64)));
                }
                Value::obj([
                    ("name", Value::Str(s.name.clone())),
                    ("ph", Value::Str("X".into())),
                    ("pid", Value::Num(1.0)),
                    (
                        "tid",
                        Value::Num(if s.request.is_some() { 100.0 } else { f64::from(d) }),
                    ),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num(s.dur_ns() as f64 / 1e3)),
                    ("args", Value::Obj(args)),
                ])
            })
            .collect();
        Value::obj([
            ("displayTimeUnit", Value::Str("ms".into())),
            ("otherData", meta),
            ("traceEvents", Value::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns,
            request: None,
            flops: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut st = SpanStore::new();
        let op = st.add(span("forward", None, 100, 1100));
        let layer = st.add(span("layer0", Some(op), 200, 700));
        st.add(span("gemm", Some(layer), 200, 500));
        st.add(span("ln", Some(layer), 500, 600));
        // Overlapping siblings count once; a child past the parent is clipped.
        st.add(span("a", Some(op), 800, 1000));
        st.add(span("b", Some(op), 900, 1300));
        let t = st.self_times_ns();
        assert_eq!(t[op], 1000 - (500 + 300));
        assert_eq!(t[layer], 500 - 400);
        assert_eq!(t[2], 300);
        // Budget adds up: self times of the tree sum to the root's duration
        // when no child leaks outside its parent.
        let mut st = SpanStore::new();
        let root = st.add(span("op", None, 0, 1000));
        let mid = st.add(span("call", Some(root), 100, 900));
        st.add(span("k1", Some(mid), 100, 400));
        st.add(span("k2", Some(mid), 400, 850));
        assert_eq!(st.self_times_ns().iter().sum::<u64>(), 1000);
    }

    #[test]
    fn kernels_are_laid_end_to_end_from_the_parent_start() {
        use bt_device::{CostModel, Device, KernelSpec};
        let dev = Device::with_model(CostModel::unit());
        dev.launch(KernelSpec::new("k1").flops(5).reads(8), || ());
        dev.launch(KernelSpec::new("k2").flops(7).writes(4), || ());
        let mut st = SpanStore::new();
        let op = st.add(span("op", None, 1_000, 1_000_000_000));
        st.add_kernels(op, &dev.trace());
        let s = st.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[1].name.as_str(), s[1].start_ns, s[1].flops, s[1].bytes),
            ("k1", 1_000, 5, 8)
        );
        assert_eq!(s[2].start_ns, s[1].end_ns);
        assert_eq!((s[2].flops, s[2].bytes), (7, 4));
    }

    #[test]
    fn chrome_trace_carries_parent_and_self_time() {
        let mut st = SpanStore::new();
        let op = st.add(span("op", None, 0, 2_000));
        st.add(span("kernel", Some(op), 0, 500));
        let doc = st.chrome_trace(Value::obj([("workload", Value::Str("t".into()))]));
        let text = doc.encode();
        let back = crate::json::parse(&text).unwrap();
        let ev = back.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].get("args").unwrap().get("self_us").unwrap().as_f64(), Some(1.5));
        assert_eq!(ev[1].get("args").unwrap().get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(ev[1].get("tid").unwrap().as_f64(), Some(1.0));
    }
}
