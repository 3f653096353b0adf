//! What one measured phase of any workload reports, and the clocks that
//! bracket it.

use crate::host;
use crate::stats;
use std::time::Instant;

/// One stretch of a measured phase — a forward, a burst, a decode round —
/// timed on a **steal-free clock**.
///
/// The reference host is a guest whose hypervisor takes 0–50 % of the CPU
/// time it wants, in episodes that outlast a run; raw wall times of
/// identical work then differ by half between runs. `/proc/stat` says how
/// much was taken: over the stretch, `granted = busy / (busy + steal)` is
/// the share of the CPU time the guest wanted that it actually got, and
/// `wall × granted` is the time the stretch took while the guest was
/// running — what the same work takes on a host that does not steal, and
/// the same thing Linux's own task accounting does under
/// `CONFIG_PARAVIRT_TIME_ACCOUNTING`. Where nothing is stolen it is the
/// wall time. Jiffies are 10 ms, so stretches are ≥ 0.25 s.
pub struct Segment {
    start: Instant,
    jiffies0: host::CpuJiffies,
}

impl Segment {
    pub fn start() -> Self {
        Self {
            jiffies0: host::CpuJiffies::read(),
            start: Instant::now(),
        }
    }

    /// `(wall seconds, granted)` since `start`.
    pub fn finish(&self) -> (f64, f64) {
        let wall_s = self.start.elapsed().as_secs_f64();
        let stolen = host::Steal::between(self.jiffies0, host::CpuJiffies::read()).of_wanted;
        (wall_s, 1.0 - stolen)
    }
}

/// Brackets a whole measured phase: a [`Segment`] plus process CPU time.
pub struct Meter {
    segment: Segment,
    cpu0: f64,
}

impl Meter {
    pub fn start() -> Self {
        Self {
            cpu0: host::process_cpu_s(),
            segment: Segment::start(),
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.segment.start.elapsed().as_secs_f64()
    }
}

/// The numbers every workload produces for one phase. An *op* is the unit
/// a caller waits for: one `forward` (enc_*), one request from its due time
/// to completion (serve_*), one pure-decode step with every slot live
/// (decode_paged).
#[derive(Debug, Default)]
pub struct Phase {
    pub wall_s: f64,
    /// Process CPU time, user + system, all threads.
    pub cpu_s: f64,
    pub steal: host::Steal,
    /// Tokens the model finished.
    pub tokens: u64,
    /// Tokens per steal-free second of each [`Segment`] of the phase: one
    /// forward (enc_*), one burst (serve_burst), one round (decode_paged).
    /// Empty for serve_open, whose throughput is its offered load.
    pub segment_tok_per_s: Vec<f64>,
    /// Latency of every successful op on the steal-free clock, ms.
    pub op_ms: Vec<f64>,
    /// The same latencies in plain wall time (history file only).
    pub op_wall_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Successful ops that finished inside the workload's latency limit.
    pub within_slo: u64,
    /// Broken invariants (ledgers, finite outputs); any makes the run incorrect.
    pub violations: Vec<String>,
    /// Per-layer inputs only this workload kind knows (zeros elsewhere).
    pub extras: Extras,
}

impl Phase {
    /// Closes the phase the meter opened.
    pub fn close(&mut self, meter: &Meter) {
        self.wall_s = meter.elapsed_s();
        self.cpu_s = host::process_cpu_s() - meter.cpu0;
        self.steal = host::Steal::between(meter.segment.jiffies0, host::CpuJiffies::read());
    }

    /// Tokens per second: the median over the phase's segments, each on
    /// the steal-free clock; where there are none (serve_open), tokens over
    /// the wall time of the phase — goodput at the fixed offered load.
    pub fn tok_per_s(&self) -> f64 {
        if self.segment_tok_per_s.is_empty() {
            self.tokens as f64 / self.wall_s
        } else {
            stats::median(&self.segment_tok_per_s)
        }
    }

    pub fn cpu_us_per_tok(&self) -> f64 {
        self.cpu_s * 1e6 / self.tokens.max(1) as f64
    }

    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// Share of ops that succeeded inside the latency limit; a failed op
    /// misses it. (For `decode_paged` only full-occupancy decode steps are
    /// ops, so the denominator is not `attempted`.)
    pub fn slo_frac(&self) -> f64 {
        self.within_slo as f64 / (self.op_ms.len() as u64 + self.failed).max(1) as f64
    }

    /// `(p50, tail)` of the op latencies; the tail is the workload's fixed
    /// percentile `tail_pct`.
    pub fn op_ms_p50_tail(&self, tail_pct: f64) -> (f64, f64) {
        if self.op_ms.is_empty() {
            return (0.0, 0.0);
        }
        let s = stats::sorted(&self.op_ms);
        (stats::percentile(&s, 0.5), stats::percentile(&s, tail_pct))
    }
}

/// Workload-specific inputs of the per-layer metrics.
#[derive(Debug, Default)]
pub struct Extras {
    /// Valid and padded tokens of the inputs offered to the encoder.
    pub valid_tokens: u64,
    pub padded_tokens: u64,
    /// `bt_core::flops` on the valid tokens of every executed batch.
    pub useful_flops: u64,

    // bt-frameworks, encoder server
    pub queue_wait_ms: Vec<f64>,
    pub batch_reqs: Vec<f64>,
    pub batch_tokens: Vec<f64>,
    /// Summed wall time inside the executor.
    pub exec_wall_s: f64,
    /// Summed wall time the server had work or was draining a burst.
    pub makespan_s: f64,
    pub assemble_s: f64,
    pub shed_queue_full: u64,
    pub shed_deadline: u64,
    pub shed_too_long: u64,
    /// How late the open-loop generator submitted each request, ms.
    pub gen_late_ms: Vec<f64>,

    // bt-frameworks decode loop, bt-varlen KV pool
    pub loop_wall_s: f64,
    pub step_wall_s: f64,
    pub steps: u64,
    pub active_sum: u64,
    pub prefill_step_ms: Vec<f64>,
    pub decode_step_ms: Vec<f64>,
    pub kv_high_water_blocks: u64,
    pub kv_reserved_over_used: f64,
    pub kv_oom: u64,
}
