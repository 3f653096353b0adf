//! # bt-frameworks — competitor execution-strategy simulations
//!
//! The paper's end-to-end evaluation (Fig. 14) compares ByteTransformer
//! against PyTorch JIT, TensorFlow XLA, Tencent TurboTransformer, and
//! NVIDIA FasterTransformer. Those binaries are not available here, so each
//! framework is re-implemented as an **execution strategy over the same
//! substrate**: its documented pipeline (what it pads, what it fuses, which
//! MHA it runs, how it batches) is a [`bt_core::encoder::LayerPlan`] over
//! `bt-core`'s one encoder layer, so it drives the very same kernels, GEMMs
//! and cost model the rest of the workspace uses. Performance differences are
//! therefore *structural* — padded vs packed iteration spaces, fused vs
//! unfused passes, per-group launch multiplication — with only a handful of
//! per-runtime calibration constants ([`calibration`]) layered on top.
//!
//! All five frameworks produce numerically identical outputs on valid
//! tokens (asserted in tests); they differ only in declared cost and launch
//! structure, which is exactly the comparison the paper makes.
//!
//! * [`SimFramework`] — the five frameworks behind one interface: a plan
//!   each, a launch tax each, and TurboTransformer's regrouping.
//! * [`grouping`] — TurboTransformer's sort-and-group re-batching.
//! * [`admission`] — shared batch-cutting policies (FIFO, sorted groups,
//!   token budget) and shed reasons.
//! * [`serving`] — open-loop workload generators and latency statistics.
//! * [`server`] — `bt-serve`: the continuous-batching server with bounded
//!   ingress, deadlines and load shedding. One engine runs the loop; two
//!   fronts feed it — a seeded trace on a virtual clock ([`run_open_loop`])
//!   and bounded channels on the wall clock (the threaded [`Server`]).
//! * [`decode`] — token-step batching over the paged KV cache
//!   ([`run_decode_loop`]): a separate loop by decision, its plan/resolve
//!   steps are stateful per session and share no logic with the batch loop.
//! * [`shard`] — multi-shard scale-out: a deterministic router spreading an
//!   open-loop trace across N engine instances (round-robin, join-shortest-
//!   queue, power-of-two-choices) with per-shard KV budgets, a hot-shard
//!   work-shedding gate, and mergeable per-shard telemetry snapshots.
//! * [`calibration`] — per-runtime constants, the paper's Table I, and
//!   serving-capacity calibration from the roofline model / recorded GEMM
//!   benchmarks.
//! * [`feature_matrix`] — the paper's Table I.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod calibration;
pub mod decode;
mod framework;
pub mod grouping;
pub mod server;
pub mod serving;
pub mod shard;

pub use admission::{CutPolicy, ShedReason};
pub use calibration::feature_matrix;
pub use decode::{
    run_decode_loop, DecodeConfig, DecodeEngine, DecodeReport, DecodeRequest, DecodeSummary, ModeledDecodeEngine,
    PagedDecodeEngine,
};
pub use framework::{FrameworkKind, SimFramework};
pub use server::{run_open_loop, ServeConfig, ServeReport, ServeSummary, Server};
pub use shard::{run_sharded_open_loop, shard_seed, RoutePolicy, ShardConfig, ShardRouter, ShardedReport};
