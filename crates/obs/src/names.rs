//! The canonical telemetry name table.
//!
//! Every counter, histogram, and trace-mark name used by the serving stack
//! is declared here once, so `serve.*` / `serve.decode.*` instruments stop
//! accumulating ad-hoc spellings across modules and a single test can
//! assert the namespace is collision-free. Layers register instruments
//! against these constants; [`crate::assert_unique_registrations`] then
//! guarantees no two `static`s share a name at runtime.
//!
//! Naming scheme:
//!
//! | prefix | layer | examples |
//! |---|---|---|
//! | `serve.` | encoder continuous-batching engine (`run_open_loop`, `Server`) | `serve.offered`, `serve.chunk.rounds` |
//! | `serve.shard.` | multi-shard router (`run_sharded_open_loop`) | `serve.shard.routed` |
//! | `serve.decode.` | paged decode loop (`run_decode_loop`) | `serve.decode.steps` |
//! | `kvcache.` | paged KV cache + block pool | `kvcache.pool.high_water_blocks` |
//! | `gemm.` | GEMM drivers (per-ISA/per-precision rates, grouped-driver timers and scratch) | `gemm.flops.avx512.f32`, `gemm.grouped.pack_ns` |
//! | `mha.` | fused-MHA dispatcher and grouped engine (`bt-core`) | `mha.path.short` |
//! | `core.` | `bt-core` layer stacks | `core.paged.rows` |
//! | `req.` | request-lifecycle trace marks (tagged point events) | `req.admit`, `req.shed.queue_full` |
//!
//! High-water counters (`record_max` semantics) contain `high_water` in the
//! name; the snapshot merger relies on that to merge them by max instead of
//! sum.

// --- serve.* — encoder open-loop batcher ----------------------------------

/// Requests offered to the admission gate.
pub const SERVE_OFFERED: &str = "serve.offered";
/// Requests served to completion.
pub const SERVE_SERVED: &str = "serve.served";
/// Requests shed: bounded queue was full at arrival.
pub const SERVE_SHED_QUEUE_FULL: &str = "serve.shed.queue_full";
/// Requests shed: deadline expired while queued.
pub const SERVE_SHED_DEADLINE: &str = "serve.shed.deadline_expired";
/// Requests shed: longer than the configured max length.
pub const SERVE_SHED_TOO_LONG: &str = "serve.shed.too_long";
/// Requests shed: KV-cache allocation failed.
pub const SERVE_SHED_CACHE_OOM: &str = "serve.shed.cache_oom";
/// Requests shed: cancelled between chunk rounds after admission.
pub const SERVE_SHED_CANCELLED: &str = "serve.shed.cancelled_mid_request";
/// Requests shed: the shard router refused to route onto a hot shard.
pub const SERVE_SHED_HOT_SHARD: &str = "serve.shed.hot_shard";
/// Batches cut from the queue.
pub const SERVE_BATCHES: &str = "serve.batches";
/// Chunk rounds executed (a whole-batch cut counts one round).
pub const SERVE_CHUNK_ROUNDS: &str = "serve.chunk.rounds";
/// Requests cancelled between rounds (same events as
/// [`SERVE_SHED_CANCELLED`], kept for the chunk-level view).
pub const SERVE_CHUNK_CANCELLED: &str = "serve.chunk.cancelled";
/// Histogram: valid tokens per chunk round.
pub const SERVE_CHUNK_TOKENS: &str = "serve.chunk.tokens";
/// Histogram: queue depth sampled at each batch cut.
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue.depth";
/// Histogram: requests per cut batch.
pub const SERVE_BATCH_OCCUPANCY: &str = "serve.batch.occupancy";
/// Histogram: valid tokens per cut batch.
pub const SERVE_BATCH_TOKENS: &str = "serve.batch.tokens";
/// Histogram: per-request queue wait in microseconds.
pub const SERVE_QUEUE_WAIT_US: &str = "serve.queue_wait_us";
/// Histogram: per-request end-to-end served latency in microseconds.
pub const SERVE_LATENCY_US: &str = "serve.latency_us";

// --- serve.shard.* — multi-shard router ------------------------------------

/// Requests the shard router dispatched onto a shard.
pub const SERVE_SHARD_ROUTED: &str = "serve.shard.routed";
/// Requests the router shed instead of routing onto a hot shard (same
/// events as [`SERVE_SHED_HOT_SHARD`], kept for the shard-level view).
pub const SERVE_SHARD_SHED_HOT: &str = "serve.shard.shed.hot_shard";
/// Histogram: outstanding valid tokens on the chosen shard, sampled at
/// every routing decision.
pub const SERVE_SHARD_OUTSTANDING: &str = "serve.shard.outstanding_tokens";

// --- serve.decode.* — paged decode loop -----------------------------------

/// Generation requests offered to the decode loop.
pub const DECODE_OFFERED: &str = "serve.decode.offered";
/// Generation requests served to completion.
pub const DECODE_SERVED: &str = "serve.decode.served";
/// Generation requests shed (all reasons).
pub const DECODE_SHED: &str = "serve.decode.shed";
/// Generation requests shed on KV-pool exhaustion.
pub const DECODE_SHED_CACHE_OOM: &str = "serve.decode.shed.cache_oom";
/// Generation requests cancelled mid-flight on deadline.
pub const DECODE_SHED_CANCELLED: &str = "serve.decode.shed.cancelled_mid_request";
/// Prefill chunks ingested.
pub const DECODE_PREFILL_CHUNKS: &str = "serve.decode.prefill.chunks";
/// Token steps executed.
pub const DECODE_STEPS: &str = "serve.decode.steps";
/// Decode tokens generated.
pub const DECODE_TOKENS_DECODE: &str = "serve.decode.tokens.decode";
/// Prompt tokens ingested.
pub const DECODE_TOKENS_PREFILL: &str = "serve.decode.tokens.prefill";
/// Histogram: active decode sessions per step.
pub const DECODE_ACTIVE_SESSIONS: &str = "serve.decode.active_sessions";

// --- kvcache.* — paged KV cache and block pool ----------------------------

/// Decode sessions opened against the paged cache.
pub const KV_SESSIONS_OPENED: &str = "kvcache.sessions.opened";
/// Decode sessions freed.
pub const KV_SESSIONS_FREED: &str = "kvcache.sessions.freed";
/// Allocation refusals at the cache layer.
pub const KV_OOM: &str = "kvcache.oom";
/// K/V token rows appended.
pub const KV_TOKENS_APPENDED: &str = "kvcache.tokens.appended";
/// Histogram: blocks in use sampled per decode step.
pub const KV_BLOCKS_IN_USE: &str = "kvcache.blocks.in_use";
/// High-water mark of blocks ever in use (block-pool layer; merges by max).
pub const KV_POOL_HIGH_WATER: &str = "kvcache.pool.high_water_blocks";
/// Block-pool allocation refusals.
pub const KV_POOL_OOM_EVENTS: &str = "kvcache.pool.oom_events";

// --- gemm.* — per-ISA / per-precision dispatch rates ----------------------

/// Prefix for per-dispatch-path call counters: `gemm.calls.<isa>.<prec>`.
pub const GEMM_CALLS_PREFIX: &str = "gemm.calls.";
/// Prefix for per-dispatch-path FLOP counters: `gemm.flops.<isa>.<prec>`.
/// The windowed snapshot divides the delta by the window to report GFLOP/s
/// per dispatch path.
pub const GEMM_FLOPS_PREFIX: &str = "gemm.flops.";
/// Prefix for launches of the packed-`B` driver:
/// `gemm.blocked.launches.<isa>` (f32) or `…<isa>.<prec>` (low precision).
pub const GEMM_BLOCKED_LAUNCHES_PREFIX: &str = "gemm.blocked.launches.";
/// Prefix for launches of the in-place-`B` skinny driver:
/// `gemm.skinny.launches.<isa>` (f32 only). With the prefix above, a
/// snapshot shows which driver each `sgemm` launch took.
pub const GEMM_SKINNY_LAUNCHES_PREFIX: &str = "gemm.skinny.launches.";
/// Prefix for tiles computed by the grouped driver:
/// `gemm.grouped.tiles.<isa>` (f32 at every precision).
pub const GEMM_GROUPED_TILES_PREFIX: &str = "gemm.grouped.tiles.";
/// Prefix for packed low-precision panel bytes: `gemm.lowp.pack_bytes.<prec>`
/// — the byte traffic the precision axis exists to shrink.
pub const GEMM_LOWP_PACK_BYTES_PREFIX: &str = "gemm.lowp.pack_bytes.";

// --- gemm.grouped.* / gemm.scratch.* — grouped-GEMM driver ----------------

/// Accumulated nanoseconds the grouped driver spent packing micropanels.
pub const GEMM_GROUPED_PACK_NS: &str = "gemm.grouped.pack_ns";
/// Accumulated nanoseconds in the grouped driver's microkernel mainloop.
pub const GEMM_GROUPED_COMPUTE_NS: &str = "gemm.grouped.compute_ns";
/// Tile-scheduler visits across grouped launches.
pub const GEMM_GROUPED_SCHEDULER_VISITS: &str = "gemm.grouped.scheduler_visits";
/// Length of the longest pooled kernel scratch buffer
/// (`bt_gemm::scratch`), in f32 elements (merges by max).
pub const GEMM_SCRATCH_HIGH_WATER: &str = "gemm.scratch.high_water_elems";
/// Reallocations of any pooled kernel scratch buffer (`bt_gemm::scratch`).
pub const GEMM_SCRATCH_GROWS: &str = "gemm.scratch.grows";
/// Dense launches that laid out their `B` operand themselves: an f32 pack
/// of a raw slice into panels, or a low-precision quantisation of panels.
/// A weight packed at load costs an f32 launch none, so a forward at f32
/// reads 0 here.
pub const GEMM_B_PACKS: &str = "gemm.b_packs";

// --- mha.* / core.* — bt-core attention dispatch and decode rows ----------

/// Encoder fused-MHA calls, each of which takes the tiled Algorithm III.1
/// kernel.
pub const MHA_PATH_SHORT: &str = "mha.path.short";
/// Fused-MHA calls that took the grouped-GEMM kernel. No forward does any
/// more, so it reads 0; the name stays because benchmark reports read it.
pub const MHA_PATH_LONG: &str = "mha.path.long";
/// Warp-prefetch scheduler visits issued by the grouped-MHA engine.
pub const MHA_GROUPED_SCHEDULER_VISITS: &str = "mha.grouped.scheduler_visits";
/// Attention units handed to the grouped-MHA driver: `(sequence, head)` units
/// of `fused_grouped_attention` and of the rows form's oracle.
pub const MHA_GROUPED_PROBLEMS: &str = "mha.grouped.problems";
/// Rows pushed through the batched paged-decode pipeline.
pub const CORE_PAGED_ROWS: &str = "core.paged.rows";

// --- req.* — request-lifecycle trace marks --------------------------------
//
// These are tagged point events, not counters: each carries a `TraceId` and
// a timestamp, and `crate::trace::reconstruct` groups them into
// per-request timelines. The phase boundaries are defined so the three
// phase durations telescope exactly to end-to-end latency:
// queue-wait = first work mark − enqueue; compute = last work mark − first
// work mark; egress = terminal − last work mark.

/// Request entered the system (arrival at the admission gate).
pub const REQ_ENQUEUE: &str = "req.enqueue";
/// Request admitted into the bounded queue.
pub const REQ_ADMIT: &str = "req.admit";
/// Request's chunk round began executing (first one ends queue-wait).
pub const REQ_ROUND: &str = "req.round";
/// Request's forward work finished (egress to `req.done` follows).
pub const REQ_EXEC_DONE: &str = "req.exec.done";
/// Request left the decode queue into prefilling (ends queue-wait).
pub const REQ_PREFILL_START: &str = "req.prefill.start";
/// One prompt chunk ingested into the paged cache.
pub const REQ_PREFILL_CHUNK: &str = "req.prefill.chunk";
/// One decode token generated.
pub const REQ_DECODE_STEP: &str = "req.decode.step";
/// Terminal mark: request served to completion.
pub const REQ_DONE: &str = "req.done";
/// Prefix shared by all terminal shed marks; the suffix is the
/// `ShedReason` label.
pub const REQ_SHED_PREFIX: &str = "req.shed.";
/// Terminal mark: shed, queue full.
pub const REQ_SHED_QUEUE_FULL: &str = "req.shed.queue_full";
/// Terminal mark: shed, deadline expired in queue.
pub const REQ_SHED_DEADLINE: &str = "req.shed.deadline_expired";
/// Terminal mark: shed, over the max length.
pub const REQ_SHED_TOO_LONG: &str = "req.shed.too_long";
/// Terminal mark: shed, KV-cache exhaustion.
pub const REQ_SHED_CACHE_OOM: &str = "req.shed.cache_oom";
/// Terminal mark: shed, cancelled after admission.
pub const REQ_SHED_CANCELLED: &str = "req.shed.cancelled_mid_request";
/// Terminal mark: shed, router refused a hot shard.
pub const REQ_SHED_HOT_SHARD: &str = "req.shed.hot_shard";

/// Every fixed name in the table (prefixes excluded), for the uniqueness
/// test and documentation tooling.
pub const ALL: &[&str] = &[
    SERVE_OFFERED,
    SERVE_SERVED,
    SERVE_SHED_QUEUE_FULL,
    SERVE_SHED_DEADLINE,
    SERVE_SHED_TOO_LONG,
    SERVE_SHED_CACHE_OOM,
    SERVE_SHED_CANCELLED,
    SERVE_SHED_HOT_SHARD,
    SERVE_BATCHES,
    SERVE_CHUNK_ROUNDS,
    SERVE_CHUNK_CANCELLED,
    SERVE_CHUNK_TOKENS,
    SERVE_QUEUE_DEPTH,
    SERVE_BATCH_OCCUPANCY,
    SERVE_BATCH_TOKENS,
    SERVE_QUEUE_WAIT_US,
    SERVE_LATENCY_US,
    SERVE_SHARD_ROUTED,
    SERVE_SHARD_SHED_HOT,
    SERVE_SHARD_OUTSTANDING,
    DECODE_OFFERED,
    DECODE_SERVED,
    DECODE_SHED,
    DECODE_SHED_CACHE_OOM,
    DECODE_SHED_CANCELLED,
    DECODE_PREFILL_CHUNKS,
    DECODE_STEPS,
    DECODE_TOKENS_DECODE,
    DECODE_TOKENS_PREFILL,
    DECODE_ACTIVE_SESSIONS,
    KV_SESSIONS_OPENED,
    KV_SESSIONS_FREED,
    KV_OOM,
    KV_TOKENS_APPENDED,
    KV_BLOCKS_IN_USE,
    KV_POOL_HIGH_WATER,
    KV_POOL_OOM_EVENTS,
    GEMM_GROUPED_PACK_NS,
    GEMM_GROUPED_COMPUTE_NS,
    GEMM_GROUPED_SCHEDULER_VISITS,
    GEMM_SCRATCH_HIGH_WATER,
    GEMM_SCRATCH_GROWS,
    GEMM_B_PACKS,
    MHA_PATH_SHORT,
    MHA_PATH_LONG,
    MHA_GROUPED_SCHEDULER_VISITS,
    MHA_GROUPED_PROBLEMS,
    CORE_PAGED_ROWS,
    REQ_ENQUEUE,
    REQ_ADMIT,
    REQ_ROUND,
    REQ_EXEC_DONE,
    REQ_PREFILL_START,
    REQ_PREFILL_CHUNK,
    REQ_DECODE_STEP,
    REQ_DONE,
    REQ_SHED_QUEUE_FULL,
    REQ_SHED_DEADLINE,
    REQ_SHED_TOO_LONG,
    REQ_SHED_CACHE_OOM,
    REQ_SHED_CANCELLED,
    REQ_SHED_HOT_SHARD,
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn table_has_no_duplicate_names() {
        let mut seen = HashSet::new();
        for name in ALL {
            assert!(seen.insert(name), "duplicate name in obs::names::ALL: {name}");
        }
    }

    #[test]
    fn core_names_keep_the_strings_the_benchmark_reads() {
        // benchmark/src/metrics.rs looks these up by literal name.
        assert_eq!(GEMM_GROUPED_PACK_NS, "gemm.grouped.pack_ns");
        assert_eq!(GEMM_GROUPED_COMPUTE_NS, "gemm.grouped.compute_ns");
        assert_eq!(GEMM_GROUPED_SCHEDULER_VISITS, "gemm.grouped.scheduler_visits");
        assert_eq!(GEMM_SCRATCH_HIGH_WATER, "gemm.scratch.high_water_elems");
        assert_eq!(GEMM_SCRATCH_GROWS, "gemm.scratch.grows");
        assert_eq!(MHA_PATH_SHORT, "mha.path.short");
        assert_eq!(MHA_PATH_LONG, "mha.path.long");
        assert_eq!(MHA_GROUPED_SCHEDULER_VISITS, "mha.grouped.scheduler_visits");
        assert_eq!(MHA_GROUPED_PROBLEMS, "mha.grouped.problems");
        assert_eq!(CORE_PAGED_ROWS, "core.paged.rows");
        // Snapshot readers filter on these prefix spellings.
        assert_eq!(GEMM_GROUPED_TILES_PREFIX, "gemm.grouped.tiles.");
        assert_eq!(GEMM_LOWP_PACK_BYTES_PREFIX, "gemm.lowp.pack_bytes.");
    }

    #[test]
    fn shed_marks_follow_the_prefix() {
        for name in [
            REQ_SHED_QUEUE_FULL,
            REQ_SHED_DEADLINE,
            REQ_SHED_TOO_LONG,
            REQ_SHED_CACHE_OOM,
            REQ_SHED_CANCELLED,
            REQ_SHED_HOT_SHARD,
        ] {
            assert!(name.starts_with(REQ_SHED_PREFIX));
        }
    }

    #[test]
    fn gemm_prefixes_are_distinct_families_under_one_layer() {
        // Dynamic names are `<prefix><isa>[.<prec>]`: no prefix may be a
        // prefix of another (a snapshot filter on one family would sweep up
        // the other), none may collide with a fixed name, and all sit in the
        // `gemm.` layer.
        let prefixes = [
            GEMM_CALLS_PREFIX,
            GEMM_FLOPS_PREFIX,
            GEMM_BLOCKED_LAUNCHES_PREFIX,
            GEMM_SKINNY_LAUNCHES_PREFIX,
            GEMM_GROUPED_TILES_PREFIX,
            GEMM_LOWP_PACK_BYTES_PREFIX,
        ];
        for (i, a) in prefixes.iter().enumerate() {
            assert!(a.starts_with("gemm.") && a.ends_with('.'), "{a}");
            assert!(!ALL.iter().any(|n| n.starts_with(a)), "{a} shadows a fixed name");
            for b in &prefixes[i + 1..] {
                assert!(!a.starts_with(b) && !b.starts_with(a), "{a} / {b} overlap");
            }
        }
    }

    #[test]
    fn high_water_names_merge_by_max() {
        assert!(KV_POOL_HIGH_WATER.contains("high_water"));
        assert!(GEMM_SCRATCH_HIGH_WATER.contains("high_water"));
    }
}
