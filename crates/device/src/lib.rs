//! # bt-device — kernel-launch substrate, trace, and roofline cost model
//!
//! The ByteTransformer paper's optimizations are *structural*: fuse two
//! kernels into one (halve the global-memory round trips), pack the token
//! grid (shrink every kernel's iteration space), pick a smarter grouped-GEMM
//! scheduler (fewer scheduler visits). To evaluate those structures without
//! an A100, this crate provides:
//!
//! * [`Device`] — a "GPU" handle. Every kernel in the workspace executes
//!   through [`Device::launch`], which runs the (rayon-parallel) kernel body,
//!   measures wall time, and appends a [`KernelRecord`] to the execution
//!   trace.
//! * [`KernelSpec`] — the per-launch cost declaration: FLOPs performed,
//!   bytes read, bytes written, plus optional derates for less-tuned kernels.
//!   Kernels declare *exact* counts (asserted against closed-form totals in
//!   the test suite), so the trace doubles as an arithmetic/traffic audit.
//! * [`CostModel`] — an A100 roofline: per-kernel modeled time
//!   `max(flops / peak_flops, bytes / mem_bw) + launch_overhead`. Summing
//!   modeled times over the trace reproduces the *shape* of the paper's GPU
//!   measurements (who wins, by what factor, where crossovers fall); absolute
//!   values are not claimed.
//! * [`TraceReport`] — grouping/aggregation of the trace by pipeline stage,
//!   used directly by the Fig. 3 breakdown and every figure harness.
//!
//! The device is thread-safe; kernels may be launched from any thread and the
//! kernel bodies themselves typically fan out over rayon.

#![warn(missing_docs)]

mod cost;
mod device;
mod report;

pub use cost::{CostModel, KernelCost, KernelSpec};
pub use device::{Device, KernelRecord, LaunchTax};
pub use report::{trace_to_csv, BucketStats, TraceReport};
