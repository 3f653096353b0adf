//! Merged telemetry profiles and their export views.
//!
//! A [`Profile`] is what [`drain`](crate::drain) returns: every span event
//! from every thread in one time-ordered list, plus counter and histogram
//! snapshots. All fields are public so tests and tools can build synthetic
//! profiles. A profile renders three views:
//!
//! * [`Profile::render_tree`] — hierarchical span tree, human-readable.
//! * [`Profile::chrome_trace`] — `chrome://tracing` / Perfetto JSON.
//! * [`Profile::prometheus`] — flat Prometheus-style text exposition.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether a [`SpanEvent`] opens a span, closes one, or marks an instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span opened.
    Enter,
    /// Span closed.
    Exit,
    /// Instantaneous point event (request-lifecycle trace mark).
    Point,
}

/// One ring-buffer event, with the label resolved to its name.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Resolved span name (e.g. `gemm.grouped.cta`).
    pub name: String,
    /// Enter, exit, or point.
    pub kind: EventKind,
    /// Nanoseconds since the process-wide telemetry epoch — or, for trace
    /// marks stamped by a virtual-time serving loop, the loop's simulated
    /// clock in nanoseconds.
    pub t_ns: u64,
    /// Global monotonic sequence number (total order tie-breaker).
    pub seq: u64,
    /// Index into [`Profile::threads`].
    pub thread: usize,
    /// Raw request tag ([`crate::trace::TraceId`]); 0 = untagged.
    pub trace: u64,
}

/// Snapshot of one histogram at drain time.
#[derive(Clone, Debug, Default)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// 50th percentile (exact below 256, bucket upper bound above).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// A merged, time-ordered telemetry profile.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// All span events, sorted by `(t_ns, seq)`.
    pub events: Vec<SpanEvent>,
    /// `(name, value)` for every registered counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Snapshots of every registered histogram, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Ring-buffer events lost to overflow since the previous drain.
    pub dropped: u64,
    /// Per-ring thread names; `SpanEvent::thread` indexes this.
    pub threads: Vec<String>,
}

/// One node of the hierarchical span tree.
#[derive(Clone, Debug, Default)]
pub struct SpanNode {
    /// Span name at this tree position.
    pub name: String,
    /// Completed enter/exit pairs observed at this position.
    pub count: u64,
    /// Total wall nanoseconds across those pairs.
    pub total_ns: u64,
    /// Child spans, ordered by first appearance.
    pub children: Vec<SpanNode>,
}

impl Profile {
    /// Builds the merged span tree: per-thread enter/exit stacks are matched
    /// into `(path, duration)` pairs and accumulated by path, so the same
    /// span nested under the same parents aggregates across all threads.
    /// Unmatched exits (enter lost to ring overflow) are ignored; unmatched
    /// enters (span still open at drain) contribute nothing.
    pub fn span_tree(&self) -> SpanNode {
        // Per-thread stack of (name, enter time); key paths by joined names.
        let mut stacks: BTreeMap<usize, Vec<(String, u64)>> = BTreeMap::new();
        // path -> (count, total_ns, first-seen order)
        let mut agg: BTreeMap<Vec<String>, (u64, u64, usize)> = BTreeMap::new();
        let mut order = 0usize;
        for ev in &self.events {
            let stack = stacks.entry(ev.thread).or_default();
            match ev.kind {
                EventKind::Enter => stack.push((ev.name.clone(), ev.t_ns)),
                EventKind::Exit => {
                    if stack.last().map(|(n, _)| n == &ev.name).unwrap_or(false) {
                        let (_, t0) = stack.pop().expect("checked non-empty");
                        let mut path: Vec<String> = stack.iter().map(|(n, _)| n.clone()).collect();
                        path.push(ev.name.clone());
                        let e = agg.entry(path).or_insert_with(|| {
                            order += 1;
                            (0, 0, order)
                        });
                        e.0 += 1;
                        e.1 += ev.t_ns.saturating_sub(t0);
                    }
                    // Mismatched exit: its enter predates this drain window.
                }
                // Point events have no duration; they belong to the trace
                // view (`crate::trace`), not the span tree.
                EventKind::Point => {}
            }
        }
        let mut root = SpanNode {
            name: String::new(),
            ..Default::default()
        };
        let mut paths: Vec<_> = agg.iter().collect();
        paths.sort_by_key(|(p, &(_, _, ord))| (p.len(), ord));
        for (path, &(count, total_ns, _)) in paths {
            let mut node = &mut root;
            for seg in path {
                let pos = node.children.iter().position(|c| &c.name == seg);
                let idx = match pos {
                    Some(i) => i,
                    None => {
                        node.children.push(SpanNode {
                            name: seg.clone(),
                            ..Default::default()
                        });
                        node.children.len() - 1
                    }
                };
                node = &mut node.children[idx];
            }
            node.count += count;
            node.total_ns += total_ns;
        }
        root
    }

    /// Flat totals per span *name* (ignoring nesting): `name -> (count,
    /// total_ns)` over matched pairs. This is the join key against the
    /// `Device` modeled trace, which also buckets by kernel name.
    pub fn span_totals(&self) -> BTreeMap<String, (u64, u64)> {
        let mut stacks: BTreeMap<usize, Vec<(String, u64)>> = BTreeMap::new();
        let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for ev in &self.events {
            let stack = stacks.entry(ev.thread).or_default();
            match ev.kind {
                EventKind::Enter => stack.push((ev.name.clone(), ev.t_ns)),
                EventKind::Exit => {
                    if stack.last().map(|(n, _)| n == &ev.name).unwrap_or(false) {
                        let (_, t0) = stack.pop().expect("checked non-empty");
                        let e = totals.entry(ev.name.clone()).or_insert((0, 0));
                        e.0 += 1;
                        e.1 += ev.t_ns.saturating_sub(t0);
                    }
                }
                EventKind::Point => {}
            }
        }
        totals
    }

    /// Renders the hierarchical span tree plus counter and histogram dumps
    /// as indented text — the default `btx profile` view.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "span tree (count, total ms, avg us):");
        fn rec(out: &mut String, node: &SpanNode, depth: usize) {
            if !node.name.is_empty() {
                let avg_us = if node.count > 0 {
                    node.total_ns as f64 / node.count as f64 / 1e3
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "{:indent$}{:<width$} {:>8} {:>12.3} {:>12.1}",
                    "",
                    node.name,
                    node.count,
                    node.total_ns as f64 / 1e6,
                    avg_us,
                    indent = depth * 2,
                    width = 36usize.saturating_sub(depth * 2),
                );
            }
            for c in &node.children {
                rec(out, c, depth + if node.name.is_empty() { 0 } else { 1 });
            }
        }
        rec(&mut out, &self.span_tree(), 0);
        if self.events.is_empty() {
            let _ = writeln!(out, "  (no span events recorded)");
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "  !! {} events dropped (ring overflow)", self.dropped);
        }
        let _ = writeln!(out, "\ncounters:");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "  {name:<44} {v:>14}");
        }
        if self.counters.is_empty() {
            let _ = writeln!(out, "  (none)");
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "\nhistograms (count / sum / p50 / p95 / p99):");
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<32} {:>8} {:>12} {:>8} {:>8} {:>8}",
                    h.name, h.count, h.sum, h.p50, h.p95, h.p99
                );
            }
        }
        out
    }

    /// Exports `chrome://tracing` (Trace Event Format) JSON: one `B`/`E`
    /// pair per span event, microsecond timestamps, thread-name metadata.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        for (tid, name) in self.threads.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                json_escape(name)
            );
        }
        for ev in &self.events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let ph = match ev.kind {
                EventKind::Enter => "B",
                EventKind::Exit => "E",
                EventKind::Point => "i",
            };
            let args = if ev.trace != 0 {
                format!(",\"args\":{{\"trace\":{}}}", ev.trace)
            } else {
                String::new()
            };
            let scope = if ev.kind == EventKind::Point {
                ",\"s\":\"t\""
            } else {
                ""
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{:.3},\"pid\":1,\"tid\":{}{scope}{args}}}",
                json_escape(&ev.name),
                ev.t_ns as f64 / 1e3,
                ev.thread
            );
        }
        out.push_str("\n]\n");
        out
    }

    /// Exports a flat Prometheus-style text dump: counters, per-span
    /// totals, histogram quantiles, and the dropped-event count.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE bt_counter counter\n");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "bt_counter{{name=\"{}\"}} {v}", prom_escape(name));
        }
        out.push_str("# TYPE bt_span_nanos_total counter\n# TYPE bt_span_count counter\n");
        for (name, (count, ns)) in self.span_totals() {
            let e = prom_escape(&name);
            let _ = writeln!(out, "bt_span_nanos_total{{span=\"{e}\"}} {ns}");
            let _ = writeln!(out, "bt_span_count{{span=\"{e}\"}} {count}");
        }
        out.push_str("# TYPE bt_histogram summary\n");
        for h in &self.histograms {
            let e = prom_escape(&h.name);
            let _ = writeln!(out, "bt_histogram{{name=\"{e}\",quantile=\"0.5\"}} {}", h.p50);
            let _ = writeln!(out, "bt_histogram{{name=\"{e}\",quantile=\"0.95\"}} {}", h.p95);
            let _ = writeln!(out, "bt_histogram{{name=\"{e}\",quantile=\"0.99\"}} {}", h.p99);
            let _ = writeln!(out, "bt_histogram_sum{{name=\"{e}\"}} {}", h.sum);
            let _ = writeln!(out, "bt_histogram_count{{name=\"{e}\"}} {}", h.count);
        }
        let _ = writeln!(
            out,
            "# TYPE bt_events_dropped counter\nbt_events_dropped {}",
            self.dropped
        );
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, kind: EventKind, t_ns: u64, seq: u64, thread: usize) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            kind,
            t_ns,
            seq,
            thread,
            trace: 0,
        }
    }

    fn sample() -> Profile {
        Profile {
            events: vec![
                ev("outer", EventKind::Enter, 0, 0, 0),
                ev("inner", EventKind::Enter, 10, 1, 0),
                ev("inner", EventKind::Exit, 30, 2, 0),
                ev("inner", EventKind::Enter, 40, 3, 0),
                ev("inner", EventKind::Exit, 50, 4, 0),
                ev("outer", EventKind::Exit, 100, 5, 0),
                // Second thread: same span standalone.
                ev("inner", EventKind::Enter, 5, 6, 1),
                ev("inner", EventKind::Exit, 15, 7, 1),
            ],
            counters: vec![("pool.launches".into(), 42)],
            histograms: vec![HistogramSnapshot {
                name: "occupancy".into(),
                count: 3,
                sum: 10,
                p50: 3,
                p95: 4,
                p99: 4,
            }],
            dropped: 0,
            threads: vec!["main".into(), "bt-pool-0".into()],
        }
    }

    #[test]
    fn tree_nests_by_stack_and_merges_threads() {
        let p = sample();
        let tree = p.span_tree();
        // Root children: "outer" (thread 0) and "inner" (thread 1, top level).
        assert_eq!(tree.children.len(), 2);
        let outer = tree.children.iter().find(|c| c.name == "outer").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(outer.total_ns, 100);
        let nested = outer.children.iter().find(|c| c.name == "inner").unwrap();
        assert_eq!(nested.count, 2);
        assert_eq!(nested.total_ns, 30);
        let top_inner = tree.children.iter().find(|c| c.name == "inner").unwrap();
        assert_eq!(top_inner.count, 1);
        assert_eq!(top_inner.total_ns, 10);
    }

    #[test]
    fn span_totals_flatten_across_nesting() {
        let totals = sample().span_totals();
        assert_eq!(totals["outer"], (1, 100));
        assert_eq!(totals["inner"], (3, 40));
    }

    #[test]
    fn unmatched_exit_is_ignored() {
        let p = Profile {
            events: vec![
                ev("orphan", EventKind::Exit, 5, 0, 0),
                ev("a", EventKind::Enter, 10, 1, 0),
                ev("a", EventKind::Exit, 20, 2, 0),
            ],
            threads: vec!["main".into()],
            ..Default::default()
        };
        let totals = p.span_totals();
        assert!(!totals.contains_key("orphan"));
        assert_eq!(totals["a"], (1, 10));
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
        let json = sample().chrome_trace();
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 4);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 4);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("bt-pool-0"));
        // Every object opened is closed.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn prometheus_dump_has_all_families() {
        let text = sample().prometheus();
        assert!(text.contains("bt_counter{name=\"pool.launches\"} 42"));
        assert!(text.contains("bt_span_nanos_total{span=\"outer\"} 100"));
        assert!(text.contains("bt_span_count{span=\"inner\"} 3"));
        assert!(text.contains("bt_histogram{name=\"occupancy\",quantile=\"0.95\"} 4"));
        assert!(text.contains("bt_events_dropped 0"));
    }

    #[test]
    fn render_tree_mentions_everything() {
        let text = sample().render_tree();
        assert!(text.contains("outer"));
        assert!(text.contains("pool.launches"));
        assert!(text.contains("occupancy"));
    }

    #[test]
    fn point_events_skip_span_views_but_export_as_instants() {
        let mut p = sample();
        let mut mark = ev("req.enqueue", EventKind::Point, 7, 8, 0);
        mark.trace = 42;
        p.events.push(mark);
        let totals = p.span_totals();
        assert!(!totals.contains_key("req.enqueue"));
        assert_eq!(p.span_tree().children.len(), 2, "tree unchanged by points");
        let json = p.chrome_trace();
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"args\":{\"trace\":42}"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
