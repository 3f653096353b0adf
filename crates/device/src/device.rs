//! The [`Device`] handle and its execution trace.

use crate::cost::{CostModel, KernelCost, KernelSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One completed kernel launch.
#[derive(Debug, Clone)]
pub struct KernelRecord {
    /// Kernel name as declared by the caller (bucketed by prefix in reports).
    pub name: String,
    /// Declared cost counters.
    pub cost: KernelCost,
    /// Measured CPU wall time of the kernel body.
    pub wall: Duration,
    /// Roofline-modeled GPU time in seconds (see [`CostModel`]).
    pub modeled: f64,
}

/// Per-launch framework tax applied uniformly to every kernel on a device —
/// how the competitor simulations express "this runtime dispatches slower /
/// generates less-tuned kernels" without touching the kernels themselves.
///
/// `bw_derate`/`flops_derate` multiply into each launch's own derates; since
/// the roofline takes `max(compute, memory)`, a bandwidth derate effectively
/// taxes memory-bound kernels and a FLOP derate taxes compute-bound ones.
#[derive(Debug, Clone, Copy)]
pub struct LaunchTax {
    /// Host-side dispatch overhead per kernel, seconds.
    pub dispatch: f64,
    /// Achieved-bandwidth multiplier (≤ 1) for this runtime's kernels.
    pub bw_derate: f64,
    /// Achieved-FLOP multiplier (≤ 1) for this runtime's GEMM backend.
    pub flops_derate: f64,
}

impl Default for LaunchTax {
    fn default() -> Self {
        Self {
            dispatch: 0.0,
            bw_derate: 1.0,
            flops_derate: 1.0,
        }
    }
}

/// A simulated accelerator: runs kernels, records an execution trace, and
/// models each launch with a roofline [`CostModel`].
///
/// `Device` is `Sync`; kernels may be launched concurrently, and kernel
/// bodies usually parallelize internally with rayon. The trace order is the
/// completion order under concurrent launches (launch order when, as in this
/// workspace's pipelines, kernels are issued sequentially).
pub struct Device {
    model: CostModel,
    tax: LaunchTax,
    trace: Mutex<Vec<KernelRecord>>,
    total_flops: AtomicU64,
    total_bytes: AtomicU64,
    launches: AtomicU64,
    tracing: bool,
}

impl Device {
    /// Creates a device with the default A100 roofline and tracing enabled.
    pub fn new() -> Self {
        Self::with_model(CostModel::a100())
    }

    /// Creates a device with a specific cost model.
    pub fn with_model(model: CostModel) -> Self {
        Self {
            model,
            tax: LaunchTax::default(),
            trace: Mutex::new(Vec::new()),
            total_flops: AtomicU64::new(0),
            total_bytes: AtomicU64::new(0),
            launches: AtomicU64::new(0),
            tracing: true,
        }
    }

    /// Creates a device applying a per-launch framework tax on top of the
    /// cost model (used by the framework strategy simulations).
    pub fn with_tax(model: CostModel, tax: LaunchTax) -> Self {
        assert!(tax.bw_derate > 0.0 && tax.bw_derate <= 1.0, "bw_derate in (0,1]");
        assert!(
            tax.flops_derate > 0.0 && tax.flops_derate <= 1.0,
            "flops_derate in (0,1]"
        );
        Self {
            tax,
            ..Self::with_model(model)
        }
    }

    /// Creates a device that keeps aggregate counters but no per-kernel
    /// trace, for benchmarks where trace pushes would pollute timings.
    pub fn untraced(model: CostModel) -> Self {
        Self {
            tracing: false,
            ..Self::with_model(model)
        }
    }

    /// The device's cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Runs a kernel body, recording its declared cost and measured time.
    ///
    /// This is the single entry point every kernel in the workspace goes
    /// through — the launch discipline that makes the trace a complete audit
    /// of arithmetic and memory traffic.
    pub fn launch<R>(&self, mut spec: KernelSpec, body: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = {
            // Mirror the kernel into the telemetry rings under its trace
            // name so `btx profile` can join measured spans against the
            // modeled `KernelRecord`s bucket by bucket.
            let _span = if self.tracing {
                bt_obs::span_dyn(&spec.name)
            } else {
                bt_obs::SpanGuard::none()
            };
            body()
        };
        let wall = start.elapsed();
        self.total_flops.fetch_add(spec.cost.flops, Ordering::Relaxed);
        self.total_bytes.fetch_add(spec.cost.bytes(), Ordering::Relaxed);
        self.launches.fetch_add(1, Ordering::Relaxed);
        // Fold in the device-wide framework tax.
        spec.bw_derate *= self.tax.bw_derate;
        spec.flops_derate *= self.tax.flops_derate;
        spec.host_overhead += self.tax.dispatch;
        let modeled = self.model.kernel_time(&spec);
        if self.tracing {
            self.records().push(KernelRecord {
                name: spec.name,
                cost: spec.cost,
                wall,
                modeled,
            });
        }
        out
    }

    /// Total FLOPs declared across all launches.
    pub fn total_flops(&self) -> u64 {
        self.total_flops.load(Ordering::Relaxed)
    }

    /// Total bytes (read + written) declared across all launches.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes.load(Ordering::Relaxed)
    }

    /// Number of kernel launches.
    pub fn launches(&self) -> u64 {
        self.launches.load(Ordering::Relaxed)
    }

    /// The trace, locked. A panic while it was held (a failing test's
    /// launch) leaves whole records behind, so a poisoned lock is taken over.
    fn records(&self) -> MutexGuard<'_, Vec<KernelRecord>> {
        self.trace.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the execution trace.
    pub fn trace(&self) -> Vec<KernelRecord> {
        self.records().clone()
    }

    /// Sum of modeled kernel times over the whole trace, in seconds.
    pub fn modeled_total(&self) -> f64 {
        self.records().iter().map(|r| r.modeled).sum()
    }

    /// Clears the trace and counters.
    pub fn reset(&self) {
        self.records().clear();
        self.total_flops.store(0, Ordering::Relaxed);
        self.total_bytes.store(0, Ordering::Relaxed);
        self.launches.store(0, Ordering::Relaxed);
    }
}

impl Default for Device {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_runs_body_and_records() {
        let dev = Device::with_model(CostModel::unit());
        let out = dev.launch(KernelSpec::new("k1").flops(7).reads(3).writes(2), || 41 + 1);
        assert_eq!(out, 42);
        assert_eq!(dev.total_flops(), 7);
        assert_eq!(dev.total_bytes(), 5);
        assert_eq!(dev.launches(), 1);
        let trace = dev.trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].name, "k1");
        // Unit model: memory-bound side = 5 bytes / 1 B/s.
        assert_eq!(trace[0].modeled, 7.0f64.max(5.0));
    }

    #[test]
    fn untraced_keeps_counters_only() {
        let dev = Device::untraced(CostModel::unit());
        dev.launch(KernelSpec::new("k").flops(1), || ());
        assert_eq!(dev.launches(), 1);
        assert!(dev.trace().is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let dev = Device::with_model(CostModel::unit());
        dev.launch(KernelSpec::new("k").flops(1), || ());
        dev.reset();
        assert_eq!(dev.launches(), 0);
        assert!(dev.trace().is_empty());
    }

    #[test]
    fn concurrent_launches_are_safe() {
        let dev = Device::with_model(CostModel::unit());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        dev.launch(KernelSpec::new("k").flops(1).reads(1), || ());
                    }
                });
            }
        });
        assert_eq!(dev.launches(), 800);
        assert_eq!(dev.total_flops(), 800);
        assert_eq!(dev.trace().len(), 800);
    }

    #[test]
    fn launch_tax_applies_to_every_kernel() {
        let dev = Device::with_tax(
            CostModel::unit(),
            LaunchTax {
                dispatch: 2.0,
                bw_derate: 0.5,
                flops_derate: 1.0,
            },
        );
        dev.launch(KernelSpec::new("k").reads(10), || ());
        // 10 bytes at 0.5 bandwidth = 20 s, plus 2 s dispatch.
        assert_eq!(dev.modeled_total(), 22.0);
    }

    #[test]
    #[should_panic(expected = "bw_derate")]
    fn invalid_tax_rejected() {
        Device::with_tax(
            CostModel::unit(),
            LaunchTax {
                dispatch: 0.0,
                bw_derate: 0.0,
                flops_derate: 1.0,
            },
        );
    }

    #[test]
    fn modeled_total_sums_trace() {
        let dev = Device::with_model(CostModel::unit());
        dev.launch(KernelSpec::new("a").reads(10), || ());
        dev.launch(KernelSpec::new("b").reads(20), || ());
        assert_eq!(dev.modeled_total(), 30.0);
    }
}
