//! Trace aggregation: grouping kernel records into pipeline-stage buckets.
//!
//! The paper's Fig. 3 reports the single-layer BERT breakdown as percentages
//! per module (GEMM0..3, attention, layernorm0/1, others). [`TraceReport`]
//! reproduces exactly that view from a [`Device`](crate::Device) trace.

use crate::device::KernelRecord;
use std::collections::BTreeMap;
use std::time::Duration;

/// Aggregated statistics for one bucket of kernels.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BucketStats {
    /// Number of launches in the bucket.
    pub launches: u64,
    /// Total FLOPs.
    pub flops: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Total measured wall time.
    pub wall: Duration,
    /// Total modeled GPU time (seconds).
    pub modeled: f64,
}

/// A bucketed view over an execution trace.
#[derive(Debug, Clone)]
pub struct TraceReport {
    buckets: BTreeMap<String, BucketStats>,
    total: BucketStats,
}

impl TraceReport {
    /// Builds a report, assigning each record to the bucket returned by
    /// `bucket_of`. Returning `None` drops the record from the report.
    pub fn new(trace: &[KernelRecord], mut bucket_of: impl FnMut(&KernelRecord) -> Option<String>) -> Self {
        let mut buckets: BTreeMap<String, BucketStats> = BTreeMap::new();
        let mut total = BucketStats::default();
        for rec in trace {
            let Some(bucket) = bucket_of(rec) else {
                continue;
            };
            let stats = buckets.entry(bucket).or_default();
            for s in [stats, &mut total] {
                s.launches += 1;
                s.flops += rec.cost.flops;
                s.bytes += rec.cost.bytes();
                s.wall += rec.wall;
                s.modeled += rec.modeled;
            }
        }
        Self { buckets, total }
    }

    /// Builds a report bucketed by the kernel-name prefix before the first
    /// `'.'` (the workspace naming convention is `"stage.detail"`).
    pub fn by_prefix(trace: &[KernelRecord]) -> Self {
        Self::new(trace, |r| Some(r.name.split('.').next().unwrap_or(&r.name).to_string()))
    }

    /// The buckets, sorted by name.
    pub fn buckets(&self) -> impl Iterator<Item = (&str, &BucketStats)> {
        self.buckets.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Stats for one bucket, if present.
    pub fn bucket(&self, name: &str) -> Option<&BucketStats> {
        self.buckets.get(name)
    }

    /// Totals across all bucketed records.
    pub fn total(&self) -> &BucketStats {
        &self.total
    }

    /// Fraction of total modeled time spent in `bucket` (0.0 if absent or
    /// the trace is empty).
    pub fn modeled_fraction(&self, bucket: &str) -> f64 {
        if self.total.modeled == 0.0 {
            return 0.0;
        }
        self.buckets.get(bucket).map_or(0.0, |b| b.modeled / self.total.modeled)
    }

    /// Renders a fixed-width table of the report (modeled ms, wall ms, %,
    /// GFLOP, GB per bucket) — the output format used by the figure
    /// harnesses.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>9} {:>12} {:>10} {:>8} {:>10} {:>10}\n",
            "bucket", "launches", "modeled_ms", "wall_ms", "pct", "GFLOP", "GB"
        ));
        for (name, b) in &self.buckets {
            out.push_str(&format!(
                "{:<24} {:>9} {:>12.4} {:>10.3} {:>7.1}% {:>10.3} {:>10.4}\n",
                name,
                b.launches,
                b.modeled * 1e3,
                b.wall.as_secs_f64() * 1e3,
                self.modeled_fraction(name) * 100.0,
                b.flops as f64 / 1e9,
                b.bytes as f64 / 1e9,
            ));
        }
        let t = &self.total;
        out.push_str(&format!(
            "{:<24} {:>9} {:>12.4} {:>10.3} {:>7.1}% {:>10.3} {:>10.4}\n",
            "TOTAL",
            t.launches,
            t.modeled * 1e3,
            t.wall.as_secs_f64() * 1e3,
            100.0,
            t.flops as f64 / 1e9,
            t.bytes as f64 / 1e9,
        ));
        out
    }
}

/// RFC 4180-style field quoting: wrap in quotes (doubling inner quotes)
/// when the field contains a comma, quote, or line break.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Serializes a trace as CSV (`name,flops,bytes_read,bytes_written,wall_us,
/// modeled_us`) for offline analysis/plotting. Names containing commas,
/// quotes, or newlines are RFC 4180-quoted.
pub fn trace_to_csv(trace: &[KernelRecord]) -> String {
    let mut out = String::from("name,flops,bytes_read,bytes_written,wall_us,modeled_us\n");
    for r in trace {
        out.push_str(&format!(
            "{},{},{},{},{:.3},{:.3}\n",
            csv_field(&r.name),
            r.cost.flops,
            r.cost.bytes_read,
            r.cost.bytes_written,
            r.wall.as_secs_f64() * 1e6,
            r.modeled * 1e6,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, KernelSpec};
    use crate::device::Device;

    fn sample_device() -> Device {
        let dev = Device::with_model(CostModel::unit());
        dev.launch(KernelSpec::new("gemm0.qkv").flops(100).reads(10), || ());
        dev.launch(KernelSpec::new("attention.qk").flops(50).reads(5), || ());
        dev.launch(KernelSpec::new("attention.pv").flops(50).reads(5), || ());
        dev.launch(KernelSpec::new("layernorm0.fused").reads(40), || ());
        dev
    }

    #[test]
    fn prefix_bucketing() {
        let dev = sample_device();
        let report = TraceReport::by_prefix(&dev.trace());
        assert_eq!(report.bucket("attention").unwrap().launches, 2);
        assert_eq!(report.bucket("attention").unwrap().flops, 100);
        assert_eq!(report.bucket("gemm0").unwrap().flops, 100);
        assert_eq!(report.total().launches, 4);
    }

    #[test]
    fn fractions_sum_to_one() {
        let dev = sample_device();
        let report = TraceReport::by_prefix(&dev.trace());
        let sum: f64 = ["gemm0", "attention", "layernorm0"]
            .iter()
            .map(|b| report.modeled_fraction(b))
            .sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(report.modeled_fraction("missing"), 0.0);
    }

    #[test]
    fn custom_bucketing_can_drop_records() {
        let dev = sample_device();
        let report = TraceReport::new(&dev.trace(), |r| {
            r.name.starts_with("attention").then(|| "mha".to_string())
        });
        assert_eq!(report.total().launches, 2);
        assert_eq!(report.bucket("mha").unwrap().flops, 100);
    }

    #[test]
    fn empty_trace_renders() {
        let report = TraceReport::by_prefix(&[]);
        assert_eq!(report.total().launches, 0);
        assert!(report.render().contains("TOTAL"));
        assert_eq!(report.modeled_fraction("x"), 0.0);
    }

    #[test]
    fn render_contains_buckets() {
        let dev = sample_device();
        let text = TraceReport::by_prefix(&dev.trace()).render();
        assert!(text.contains("attention"));
        assert!(text.contains("gemm0"));
    }

    #[test]
    fn csv_export_round_numbers() {
        let dev = sample_device();
        let csv = trace_to_csv(&dev.trace());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5); // header + 4 kernels
        assert!(lines[0].starts_with("name,flops"));
        assert!(lines[1].starts_with("gemm0.qkv,100,10,0,"));
    }

    /// Minimal RFC 4180 parser for the round-trip tests: splits one CSV
    /// line into fields, honoring quoted fields with doubled quotes.
    fn parse_csv_line(line: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = line.chars().peekable();
        let mut quoted = false;
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        quoted = false;
                    }
                }
                '"' if cur.is_empty() => quoted = true,
                ',' if !quoted => fields.push(std::mem::take(&mut cur)),
                c => cur.push(c),
            }
        }
        fields.push(cur);
        fields
    }

    #[test]
    fn csv_round_trips_field_values() {
        let dev = sample_device();
        let trace = dev.trace();
        let csv = trace_to_csv(&trace);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), trace.len() + 1);
        for (rec, line) in trace.iter().zip(&lines[1..]) {
            let fields = parse_csv_line(line);
            assert_eq!(fields.len(), 6);
            assert_eq!(fields[0], rec.name);
            assert_eq!(fields[1].parse::<u64>().unwrap(), rec.cost.flops);
            assert_eq!(fields[2].parse::<u64>().unwrap(), rec.cost.bytes_read);
            assert_eq!(fields[3].parse::<u64>().unwrap(), rec.cost.bytes_written);
            let wall_us: f64 = fields[4].parse().unwrap();
            assert!((wall_us - rec.wall.as_secs_f64() * 1e6).abs() < 1e-3);
            let modeled_us: f64 = fields[5].parse().unwrap();
            assert!((modeled_us - rec.modeled * 1e6).abs() < 1e-3);
        }
    }

    #[test]
    fn csv_quotes_hostile_names() {
        let dev = Device::with_model(CostModel::unit());
        dev.launch(KernelSpec::new("comma,name").flops(1), || ());
        dev.launch(KernelSpec::new("quote\"name").flops(2), || ());
        dev.launch(KernelSpec::new("plain.name").flops(3), || ());
        let csv = trace_to_csv(&dev.trace());
        let lines: Vec<&str> = csv.lines().collect();
        // A comma inside a name must not create an extra column.
        let f0 = parse_csv_line(lines[1]);
        assert_eq!(f0.len(), 6);
        assert_eq!(f0[0], "comma,name");
        let f1 = parse_csv_line(lines[2]);
        assert_eq!(f1[0], "quote\"name");
        assert!(lines[2].starts_with("\"quote\"\"name\""));
        // Unquoted plain names stay unquoted.
        assert!(lines[3].starts_with("plain.name,"));
    }
}
