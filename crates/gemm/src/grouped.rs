//! Grouped GEMM — CUTLASS-style scheduler over sub-problems of arbitrary
//! shape, with the paper's warp-prefetch optimization and fusion hooks.
//!
//! Batched GEMM demands identical shapes; **grouped GEMM** lifts that
//! restriction with a built-in scheduler that hands out fixed-size `C` tiles
//! across *all* sub-problems in a round-robin walk (paper Fig. 5). This is
//! the machinery that lets fused MHA run one attention unit per
//! `(batch, head)` pair at its *true* sequence length — no padding at all.
//!
//! Three paper mechanisms live here:
//!
//! * **Problem visitor** ([`Scheduler::PerTile`]): each virtual CTA advances
//!   its linear tile index by the grid size and asks the scheduler to decode
//!   it into `(problem, tile_row, tile_col)` — one scheduler visit per tile,
//!   like stock CUTLASS.
//! * **Warp prefetch** ([`Scheduler::WarpPrefetch`], Fig. 7): one scheduler
//!   interaction decodes the next 32 assignments at once (all lanes of a
//!   warp computing metadata cooperatively), giving 32× fewer visits. The
//!   paper measured ~10% end-to-end on grouped GEMM; we count visits exactly
//!   and also pay the real decode cost per visit, so both the metric and the
//!   wall-clock reflect the optimization.
//! * **Fusion hooks**: [`TileEpilogue`] runs on the accumulator tile before
//!   it is stored (softmax partial reduction, Fig. 8; the dense drivers call
//!   the same contract on the regions of `C` their tasks finish), and
//!   [`ALoadTransform`] runs on `A` fragments as they are loaded into the
//!   "register tile" (Algorithm III.2's mainloop fusion, used to fold
//!   `exp(x - max) / sum` into the `P·V` GEMM).
//!
//! Both entry points ([`grouped_sgemm`], [`grouped_sgemm_strided`]) share
//! one CTA-walk driver parameterized by a store policy, so the contiguous
//! and strided paths cannot drift. Tiles compute on the f32
//! register-blocked microkernel of [`crate::micro`], and stores go through
//! lock-free [`DisjointWriter`]s — tiles partition the output, so CTAs
//! never serialize on a mutex.
//!
//! **f32 at every precision.** The engine's callers are attention's two
//! GEMMs, and attention is f32 whatever `BYTE_GEMM_PREC` selects: the paper
//! keeps softmax and its statistics in full precision (§III.C,
//! Algorithm III.2), and the short kernel (Algorithm III.1) and the paged
//! rows form are f32 too. So the engine never reads the precision axis, and
//! all three attention forms store the same bits at f32, f16 and int8 —
//! paged prefill is bitwise the teacher-forced forward at every precision.
//! Low precision trades accuracy on the dense GEMMs only
//! ([`crate::sgemm`]'s packed driver).
//!
//! **Pack once.** An `A` row-panel is read by every tile column of its
//! problem and a `B` column-panel by every tile row, so the rule is a
//! function of shape alone: a problem with more than one tile column has
//! its whole `A` packed once, a problem with more than one tile row its
//! whole `B`, in one parallel pass before the CTA walk (the `ALoadTransform`
//! runs once per element, in that pass). Tiles read those panels and pack
//! only their single-use operands (`P` in `P·V`, the keys of a unit with
//! one tile row) into their task scratch. Panel contents are the per-tile
//! packers' bits, so the output does not depend on which side packed them.
//! `Q·Kᵀ` at `L = 1024` used to pack `Q` and `K` 16 times each.
//!
//! **Zero allocations once shapes have been seen.** Both kinds of panel
//! live in grow-only [`crate::scratch`] pools: the pre-packed ones in a
//! launch buffer, the per-tile ones (and the accumulator tile) in the
//! `Scratch` a CTA checks out for its walk. The pools outlive launches and
//! threads, so a CTA finds its buffers already warm: none grows per tile,
//! and none at all in a launch of shapes the process has already seen
//! (`gemm.scratch.grows` stays flat).

use crate::blocked::record_dispatch;
use crate::dispatch;
use crate::micro::{interleave_rows, pack_b_panel, MicroKernel, MR_MAX, NR_MAX};
use crate::scratch::{grow, Scratch, LAUNCH, TASK};
use crate::store::DisjointWriter;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// One sub-problem of a grouped GEMM: `C = alpha * A·op(B)`, row-major.
#[derive(Debug, Clone, Copy)]
pub struct GroupedProblem<'a> {
    /// Rows of the output.
    pub m: usize,
    /// Columns of the output.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Consume `B` transposed (`B` stored `n×k`) — the `Q·Kᵀ` layout.
    pub transb: bool,
    /// Scale on the product.
    pub alpha: f32,
    /// Left operand, `m×k` row-major.
    pub a: &'a [f32],
    /// Right operand, `k×n` (or `n×k` when `transb`) row-major.
    pub b: &'a [f32],
}

/// Tile-assignment strategy of the grouped-GEMM problem visitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Stock CUTLASS behaviour: one scheduler visit decodes one tile.
    PerTile,
    /// The paper's optimization: one visit decodes the next 32 tiles.
    WarpPrefetch,
}

/// Number of assignments decoded per warp-prefetch scheduler visit (the 32
/// lanes of a warp).
pub const PREFETCH_WIDTH: usize = 32;

/// Geometry and grid configuration for a grouped launch.
#[derive(Debug, Clone, Copy)]
pub struct GroupedConfig {
    /// Tile rows (the paper's `M_C`; CUTLASS default 128, ours 64 to suit
    /// CPU cache tiles — the scheduler walk is identical either way).
    pub tile_m: usize,
    /// Tile columns (`N_C`).
    pub tile_n: usize,
    /// Number of virtual CTAs walking the tile space (A100 has 108 SMs).
    pub num_ctas: usize,
    /// Tile-assignment strategy.
    pub scheduler: Scheduler,
}

impl Default for GroupedConfig {
    fn default() -> Self {
        Self {
            tile_m: 64,
            tile_n: 64,
            num_ctas: 108,
            scheduler: Scheduler::WarpPrefetch,
        }
    }
}

/// Post-run statistics for the scheduler ablation (paper §III.E.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupedStats {
    /// Total `C` tiles computed across all sub-problems.
    pub tiles: u64,
    /// Scheduler interactions performed (tiles / 32, rounded up per CTA,
    /// under warp prefetch).
    pub scheduler_visits: u64,
}

/// The one output-epilogue contract of every GEMM driver: an element-wise
/// transform of a finished output segment, run in place before the segment
/// leaves the driver.
///
/// The grouped engine calls it once per `C` tile. The dense drivers
/// ([`crate::sgemm_epilogue`], [`crate::sgemm_pinned`]) call it with
/// `problem_idx = 0` on each region of `C` a task has just finished: the
/// packed driver (every precision) on the task's whole row panel
/// (`rows × n`), the skinny driver on each row of the task's column block
/// (`rows = 1`). Either way the values handed over are final and
/// alpha-scaled, so a GEMM with an epilogue stores exactly the bits of the
/// GEMM followed by the same element-wise pass.
pub trait TileEpilogue: Sync {
    /// `tile` is a dense `rows×cols` row-major buffer holding the final
    /// values of `C[row0.., col0..]` for problem `problem_idx`.
    fn apply(&self, problem_idx: usize, row0: usize, col0: usize, rows: usize, cols: usize, tile: &mut [f32]);
}

/// No-op epilogue.
pub struct NoEpilogue;

impl TileEpilogue for NoEpilogue {
    fn apply(&self, _: usize, _: usize, _: usize, _: usize, _: usize, _: &mut [f32]) {}
}

/// Mainloop fusion hook: transforms a freshly loaded `A` fragment
/// (Algorithm III.2's `elementwise_transform` on `warp_loaded_frag_A`).
pub trait ALoadTransform: Sync {
    /// `a_chunk` holds `A[global_row, k0 .. k0 + a_chunk.len()]` of problem
    /// `problem_idx`, already copied into the register tile: a row arrives
    /// as consecutive L1-sized chunks of it.
    fn transform(&self, problem_idx: usize, global_row: usize, k0: usize, a_chunk: &mut [f32]);
}

/// No-op load transform.
pub struct NoTransform;

impl ALoadTransform for NoTransform {
    fn transform(&self, _: usize, _: usize, _: usize, _: &mut [f32]) {}
}

/// Decoded tile assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TileAssignment {
    problem: usize,
    tile_row: usize,
    tile_col: usize,
}

/// The problem visitor: decodes linear tile indices into per-problem tile
/// coordinates, mirroring `cutlass::gemm::kernel::GroupedProblemVisitor`.
struct ProblemVisitor {
    /// Exclusive prefix sum of per-problem tile counts.
    prefix: Vec<u64>,
    grid_cols: Vec<usize>,
    total: u64,
}

impl ProblemVisitor {
    fn new(problems: &[GroupedProblem<'_>], tile_m: usize, tile_n: usize) -> Self {
        let mut prefix = Vec::with_capacity(problems.len() + 1);
        let mut grid_cols = Vec::with_capacity(problems.len());
        let mut total = 0u64;
        prefix.push(0);
        for p in problems {
            let rows = p.m.div_ceil(tile_m);
            let cols = p.n.div_ceil(tile_n);
            grid_cols.push(cols);
            total += (rows * cols) as u64;
            prefix.push(total);
        }
        Self {
            prefix,
            grid_cols,
            total,
        }
    }

    /// Decodes one linear tile index. `cursor` caches the problem the CTA
    /// last visited so the scan is incremental, as in CUTLASS (tile indices
    /// per CTA are monotonically increasing).
    fn decode(&self, linear: u64, cursor: &mut usize) -> TileAssignment {
        debug_assert!(linear < self.total);
        while self.prefix[*cursor + 1] <= linear {
            *cursor += 1;
        }
        let problem = *cursor;
        let local = (linear - self.prefix[problem]) as usize;
        let cols = self.grid_cols[problem];
        TileAssignment {
            problem,
            tile_row: local / cols,
            tile_col: local % cols,
        }
    }
}

/// Store policy of the generic grouped driver: where a finished output tile
/// lands. Implementations write through [`DisjointWriter`]s — never a lock.
trait TileStore: Sync {
    /// Stores the dense `rows×cols` tile of problem `problem_idx` whose
    /// top-left element is `C[row0, col0]`.
    fn store(&self, problem_idx: usize, row0: usize, col0: usize, rows: usize, cols: usize, tile: &[f32]);
}

/// Per-problem contiguous `m×n` outputs ([`grouped_sgemm`]).
struct ContiguousStore<'a> {
    writers: Vec<DisjointWriter<'a>>,
    /// Leading dimension (= `n`) of each problem's output.
    ns: Vec<usize>,
}

impl TileStore for ContiguousStore<'_> {
    fn store(&self, problem_idx: usize, row0: usize, col0: usize, rows: usize, cols: usize, tile: &[f32]) {
        let n = self.ns[problem_idx];
        let w = &self.writers[problem_idx];
        for i in 0..rows {
            w.write((row0 + i) * n + col0, &tile[i * cols..(i + 1) * cols]);
        }
    }
}

/// One shared buffer with per-problem strided placements
/// ([`grouped_sgemm_strided`]).
struct StridedStore<'a> {
    writer: DisjointWriter<'a>,
    placements: &'a [StridedOutput],
}

impl TileStore for StridedStore<'_> {
    fn store(&self, problem_idx: usize, row0: usize, col0: usize, rows: usize, cols: usize, tile: &[f32]) {
        let pl = &self.placements[problem_idx];
        for i in 0..rows {
            self.writer
                .write(pl.offset + (row0 + i) * pl.ld + col0, &tile[i * cols..(i + 1) * cols]);
        }
    }
}

/// The shared CTA walk: virtual CTAs pull tile batches from the scheduler
/// (one assignment per visit under [`Scheduler::PerTile`],
/// [`PREFETCH_WIDTH`] under [`Scheduler::WarpPrefetch`]), compute each tile
/// on the launch's kernel out of a pooled per-CTA `Scratch`, and store through
/// the policy. Both public entry points funnel here, so the two paths cannot
/// drift. The kernel is the active ISA tier's f32 one at every precision
/// (see the module doc).
fn run_grouped(
    problems: &[GroupedProblem<'_>],
    config: GroupedConfig,
    epilogue: &dyn TileEpilogue,
    a_transform: &dyn ALoadTransform,
    store: &dyn TileStore,
) -> GroupedStats {
    // One kernel per launch, shared by every CTA: tile geometry must stay
    // consistent even if the process-wide selection changes mid-flight.
    let kern = dispatch::active().micro;
    let visitor = ProblemVisitor::new(problems, config.tile_m, config.tile_n);
    let total = visitor.total;
    if total == 0 {
        return GroupedStats {
            tiles: 0,
            scheduler_visits: 0,
        };
    }
    let visits = AtomicU64::new(0);
    if bt_obs::enabled() {
        let flops = problems.iter().map(|p| 2 * (p.m * p.n * p.k) as u64).sum();
        record_dispatch(kern, flops, bt_obs::names::GEMM_GROUPED_TILES_PREFIX, total);
    }
    let batch_width = match config.scheduler {
        Scheduler::PerTile => 1,
        Scheduler::WarpPrefetch => PREFETCH_WIDTH,
    };

    // The panels more than one tile reads live in a launch buffer; one
    // parallel pass packs them before any CTA runs.
    LAUNCH.with(|buf| {
        let (starts, [a_len, b_len]) = plan_prepack(kern, problems, &config);
        let (a, b) = grow(buf, a_len + b_len).split_at_mut(a_len);
        prepack(kern, problems, &config, a_transform, &starts, [&mut *a, &mut *b]);
        let pre = Prepacked { a, b, starts: &starts };

        (0..config.num_ctas).into_par_iter().for_each(|cta| {
            // The CTA's "shared memory" is a pooled `Scratch`, usually warm
            // already: the pool outlives launches.
            TASK.with(|scratch| {
                let _span = bt_obs::span!("gemm.grouped.cta");
                let mut cursor = 0usize;
                let mut local_visits = 0u64;
                let mut batch = [TileAssignment {
                    problem: 0,
                    tile_row: 0,
                    tile_col: 0,
                }; PREFETCH_WIDTH];
                let step = config.num_ctas as u64;
                let mut linear = cta as u64;
                while linear < total {
                    local_visits += 1;
                    let mut count = 0;
                    while count < batch_width && linear < total {
                        batch[count] = visitor.decode(linear, &mut cursor);
                        count += 1;
                        linear += step;
                    }
                    for asg in &batch[..count] {
                        compute_tile(
                            problems,
                            &config,
                            kern,
                            *asg,
                            &pre,
                            epilogue,
                            a_transform,
                            store,
                            scratch,
                        );
                    }
                }
                visits.fetch_add(local_visits, Ordering::Relaxed);
            });
        });
    });

    let stats = GroupedStats {
        tiles: total,
        scheduler_visits: visits.load(Ordering::Relaxed),
    };
    SCHED_VISITS.add(stats.scheduler_visits);
    stats
}

/// Accumulated nanoseconds spent packing micropanels, summed over threads:
/// the pre-pack pass ([`prepack`], per job) and the single-use panels of
/// [`compute_tile`] (per-tile spans would flood the rings; a timed counter
/// gives the same pack-vs-compute split at a fraction of the cost).
static PACK_NS: bt_obs::Counter = bt_obs::Counter::new(bt_obs::names::GEMM_GROUPED_PACK_NS);
/// Accumulated nanoseconds in the microkernel mainloop of [`compute_tile`].
static COMPUTE_NS: bt_obs::Counter = bt_obs::Counter::new(bt_obs::names::GEMM_GROUPED_COMPUTE_NS);
/// Total tile-scheduler visits across grouped launches (warp-prefetch
/// batching makes this `≈ tiles / PREFETCH_WIDTH`).
static SCHED_VISITS: bt_obs::Counter = bt_obs::Counter::new(bt_obs::names::GEMM_GROUPED_SCHEDULER_VISITS);

/// Runs a grouped GEMM: every sub-problem `C_i = alpha_i * A_i·op(B_i)`,
/// tiles distributed across `config.num_ctas` virtual CTAs by the selected
/// scheduler. Returns scheduler statistics for the ablation harness.
///
/// `outputs[i]` receives problem `i`'s `m×n` result (fully overwritten).
///
/// # Panics
/// Panics if `outputs` mismatches `problems` in count or any buffer is too
/// short for its declared shape.
pub fn grouped_sgemm(
    problems: &[GroupedProblem<'_>],
    outputs: Vec<&mut [f32]>,
    config: GroupedConfig,
    epilogue: &dyn TileEpilogue,
    a_transform: &dyn ALoadTransform,
) -> GroupedStats {
    assert_eq!(problems.len(), outputs.len(), "one output buffer per problem");
    for (i, (p, c)) in problems.iter().zip(&outputs).enumerate() {
        assert!(p.a.len() >= p.m * p.k, "problem {i}: A too short");
        assert!(p.b.len() >= p.k * p.n, "problem {i}: B too short");
        assert!(c.len() >= p.m * p.n, "problem {i}: C too short");
    }
    let store = ContiguousStore {
        ns: problems.iter().map(|p| p.n).collect(),
        writers: outputs.into_iter().map(DisjointWriter::new).collect(),
    };
    run_grouped(problems, config, epilogue, a_transform, &store)
}

/// Output placement of one grouped sub-problem inside a shared buffer:
/// problem rows map to `out[offset + row*ld + col]`.
///
/// This is how the second fused-MHA GEMM writes each `(batch, head)`
/// context block *directly into the packed `[valid, hidden]` activation*
/// (offset = seq start × hidden + head × head_size, ld = hidden): no
/// merge/transpose pass ever runs, exactly as the CUDA epilogue stores
/// strided.
#[derive(Debug, Clone, Copy)]
pub struct StridedOutput {
    /// Element offset of the problem's `(0, 0)` output.
    pub offset: usize,
    /// Leading dimension (elements between consecutive output rows).
    pub ld: usize,
}

/// [`grouped_sgemm`] variant writing all sub-problem outputs into one shared
/// buffer at per-problem strided placements. Placements must be disjoint —
/// CTAs store lock-free, and debug builds assert no element is written
/// twice.
///
/// # Panics
/// Panics if placements mismatch `problems` in count or overflow `out`.
pub fn grouped_sgemm_strided(
    problems: &[GroupedProblem<'_>],
    out: &mut [f32],
    placements: &[StridedOutput],
    config: GroupedConfig,
    epilogue: &dyn TileEpilogue,
    a_transform: &dyn ALoadTransform,
) -> GroupedStats {
    assert_eq!(problems.len(), placements.len(), "one placement per problem");
    for (i, (p, pl)) in problems.iter().zip(placements).enumerate() {
        assert!(p.a.len() >= p.m * p.k, "problem {i}: A too short");
        assert!(p.b.len() >= p.k * p.n, "problem {i}: B too short");
        assert!(pl.ld >= p.n, "problem {i}: ld {} < n {}", pl.ld, p.n);
        if p.m > 0 {
            assert!(
                pl.offset + (p.m - 1) * pl.ld + p.n <= out.len(),
                "problem {i}: placement overflows output buffer"
            );
        }
    }
    let store = StridedStore {
        writer: DisjointWriter::new(out),
        placements,
    };
    run_grouped(problems, config, epilogue, a_transform, &store)
}

fn tile_bounds(p: &GroupedProblem<'_>, config: &GroupedConfig, asg: TileAssignment) -> (usize, usize, usize, usize) {
    let row0 = asg.tile_row * config.tile_m;
    let col0 = asg.tile_col * config.tile_n;
    (row0, col0, config.tile_m.min(p.m - row0), config.tile_n.min(p.n - col0))
}

/// Micropanels covering `extent` rows (or columns) cut into `tile`-sized
/// tiles, each tile into `r`-wide panels.
fn panels_in(extent: usize, tile: usize, r: usize) -> usize {
    extent / tile * tile.div_ceil(r) + (extent % tile).div_ceil(r)
}

/// The pack-once rule, from shape alone: an `A` row-panel is re-read by
/// every tile column of its problem and a `B` column-panel by every tile
/// row, so a problem with more than one tile column has its whole `A`
/// packed once before the CTA walk, and one with more than one tile row its
/// whole `B`; single-use operands stay per tile. Returns each problem's
/// `[A, B]` element offset in the launch buffer (`None`: packed per tile),
/// laid out problem by problem and tile by tile, and the `[A, B]` totals.
fn plan_prepack(
    kern: &MicroKernel,
    problems: &[GroupedProblem<'_>],
    config: &GroupedConfig,
) -> (Vec<[Option<usize>; 2]>, [usize; 2]) {
    let mut next = [0usize; 2];
    let starts = problems
        .iter()
        .map(|p| {
            let (tiles_m, tiles_n) = (p.m.div_ceil(config.tile_m), p.n.div_ceil(config.tile_n));
            let mut claim = |side: usize, reused: bool, elems: usize| {
                reused.then(|| {
                    let at = next[side];
                    next[side] += elems;
                    at
                })
            };
            [
                claim(0, tiles_n > 1, panels_in(p.m, config.tile_m, kern.mr) * p.k * kern.mr),
                claim(1, tiles_m > 1, panels_in(p.n, config.tile_n, kern.nr) * p.k * kern.nr),
            ]
        })
        .collect();
    (starts, next)
}

/// One unit of the pre-pack pass: one tile row of a problem's `A`, or one
/// tile column of its `B`, with its destination in the launch buffer.
enum PackJob<'s> {
    A {
        problem: usize,
        row0: usize,
        rows: usize,
        dst: &'s mut [f32],
    },
    B {
        problem: usize,
        col0: usize,
        cols: usize,
        dst: &'s mut [f32],
    },
}

/// Splits the first `n` elements off a mutable slice cursor.
fn take_front<'s, T>(rest: &mut &'s mut [T], n: usize) -> &'s mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(n);
    *rest = tail;
    head
}

/// The pre-pack pass: every panel `plan_prepack` placed in the launch buffer,
/// packed in parallel, one job per tile row of `A` / tile column of `B`,
/// through the same packers a tile uses (so the contents are the per-tile
/// panels' bits). Timed into `PACK_NS`.
fn prepack(
    kern: &MicroKernel,
    problems: &[GroupedProblem<'_>],
    config: &GroupedConfig,
    a_transform: &dyn ALoadTransform,
    starts: &[[Option<usize>; 2]],
    [mut a, mut b]: [&mut [f32]; 2],
) {
    let (mr, nr) = (kern.mr, kern.nr);
    let mut jobs = Vec::new();
    for (problem, (p, [pre_a, pre_b])) in problems.iter().zip(starts).enumerate() {
        if pre_a.is_some() {
            for row0 in (0..p.m).step_by(config.tile_m) {
                let rows = config.tile_m.min(p.m - row0);
                let dst = take_front(&mut a, rows.div_ceil(mr) * p.k * mr);
                jobs.push(PackJob::A {
                    problem,
                    row0,
                    rows,
                    dst,
                });
            }
        }
        if pre_b.is_some() {
            for col0 in (0..p.n).step_by(config.tile_n) {
                let cols = config.tile_n.min(p.n - col0);
                let dst = take_front(&mut b, cols.div_ceil(nr) * p.k * nr);
                jobs.push(PackJob::B {
                    problem,
                    col0,
                    cols,
                    dst,
                });
            }
        }
    }
    if jobs.is_empty() {
        return;
    }
    jobs.into_par_iter().for_each(|job| match job {
        PackJob::A {
            problem,
            row0,
            rows,
            dst,
        } => TASK.with(|scratch| {
            let p = &problems[problem];
            let staging = scratch.panels(kern, p.k, 0, 0, 0, mr * p.k.min(A_STAGE_K)).row;
            bt_obs::timed(&PACK_NS, || {
                pack_a_rows(kern, p, problem, a_transform, row0, rows, dst, staging)
            });
        }),
        PackJob::B {
            problem,
            col0,
            cols,
            dst,
        } => bt_obs::timed(&PACK_NS, || pack_b_cols(kern, &problems[problem], col0, cols, dst)),
    });
}

/// The operand panels a launch packed once (see [`plan_prepack`]), read by
/// every tile of their problem.
struct Prepacked<'s> {
    a: &'s [f32],
    b: &'s [f32],
    starts: &'s [[Option<usize>; 2]],
}

/// Staging depth of an `A` panel: `mr` rows of it (8 KiB at `mr = 16`) and
/// the panel stretch it fills stay in L1 together. A panel's `k`-chunk
/// `[k0, k0 + kc)` is itself a `kc`-deep panel, so rows stage this deep at
/// a time (the load hook's `k0` contract).
const A_STAGE_K: usize = 128;

/// Packs rows `row0 .. row0 + rows` of problem `pi`'s `A` into
/// `⌈rows / mr⌉` panels. Each panel's rows are staged in `staging` (`mr`
/// rows of up to [`A_STAGE_K`]) and run through the mainloop fusion hook
/// (Algorithm III.2) before they are interleaved; pad lanes are zeroed, so
/// reused buffers need no clearing.
#[allow(clippy::too_many_arguments)]
fn pack_a_rows(
    kern: &MicroKernel,
    p: &GroupedProblem<'_>,
    pi: usize,
    a_transform: &dyn ALoadTransform,
    row0: usize,
    rows: usize,
    dst: &mut [f32],
    staging: &mut [f32],
) {
    let (k, mr) = (p.k, kern.mr);
    let chunk = k.clamp(1, A_STAGE_K);
    for ib in 0..rows.div_ceil(mr) {
        let r = mr.min(rows - ib * mr);
        let first = row0 + ib * mr;
        let panel = &mut dst[ib * k * mr..(ib + 1) * k * mr];
        for k0 in (0..k).step_by(chunk) {
            let kc = chunk.min(k - k0);
            let staged = &mut staging[..r * kc];
            for (i, row) in staged.chunks_exact_mut(kc).enumerate() {
                let g_row = first + i;
                row.copy_from_slice(&p.a[g_row * k + k0..g_row * k + k0 + kc]);
                a_transform.transform(pi, g_row, k0, row);
            }
            interleave_rows(&mut panel[k0 * mr..(k0 + kc) * mr], staged, r, kc, mr);
        }
    }
}

/// Packs columns `col0 .. col0 + cols` of a problem's `B` into
/// `⌈cols / nr⌉` panels.
fn pack_b_cols(kern: &MicroKernel, p: &GroupedProblem<'_>, col0: usize, cols: usize, dst: &mut [f32]) {
    let (nr, bpl) = (kern.nr, p.k * kern.nr);
    for jb in 0..cols.div_ceil(nr) {
        let c0 = col0 + jb * nr;
        let dst = &mut dst[jb * bpl..(jb + 1) * bpl];
        pack_b_panel(dst, p.b, p.transb, c0, nr.min(cols - jb * nr), p.n, p.k, nr);
    }
}

/// Computes one `C` tile: takes its `A` / `B` micropanels from the launch's
/// pre-packed panels, or packs the single-use ones into the CTA's scratch
/// at the launch kernel's `mr×nr` geometry; accumulates every `mr×nr`
/// block in registers across the full `K` extent, then applies alpha, the
/// tile epilogue, and the store policy.
#[allow(clippy::too_many_arguments)]
fn compute_tile(
    problems: &[GroupedProblem<'_>],
    config: &GroupedConfig,
    kern: &MicroKernel,
    asg: TileAssignment,
    pre: &Prepacked<'_>,
    epilogue: &dyn TileEpilogue,
    a_transform: &dyn ALoadTransform,
    store: &dyn TileStore,
    scratch: &mut Scratch,
) {
    let p = &problems[asg.problem];
    let (row0, col0, rows, cols) = tile_bounds(p, config, asg);
    let k = p.k;
    let (mr, nr) = (kern.mr, kern.nr);
    let (apl, bpl) = (k * mr, k * nr);
    let m_panels = rows.div_ceil(mr);
    let n_panels = cols.div_ceil(nr);
    let [pre_a, pre_b] = pre.starts[asg.problem];
    let s = scratch.panels(
        kern,
        k,
        if pre_a.is_some() { 0 } else { m_panels },
        if pre_b.is_some() { 0 } else { n_panels },
        rows * cols,
        if pre_a.is_some() { 0 } else { mr * k.min(A_STAGE_K) },
    );

    let a: &[f32] = match pre_a {
        Some(at) => {
            let e0 = at + asg.tile_row * config.tile_m.div_ceil(mr) * apl;
            &pre.a[e0..e0 + m_panels * apl]
        }
        None => {
            bt_obs::timed(&PACK_NS, || {
                pack_a_rows(kern, p, asg.problem, a_transform, row0, rows, s.a, s.row)
            });
            &*s.a
        }
    };
    let b: &[f32] = match pre_b {
        Some(at) => {
            let e0 = at + asg.tile_col * config.tile_n.div_ceil(nr) * bpl;
            &pre.b[e0..e0 + n_panels * bpl]
        }
        None => {
            bt_obs::timed(&PACK_NS, || pack_b_cols(kern, p, col0, cols, s.b));
            &*s.b
        }
    };

    bt_obs::timed(&COMPUTE_NS, || {
        for jb in 0..n_panels {
            let b_panel = &b[jb * bpl..(jb + 1) * bpl];
            let cseg = nr.min(cols - jb * nr);
            for ib in 0..m_panels {
                let r = mr.min(rows - ib * mr);
                let mut acc = [0.0f32; MR_MAX * NR_MAX];
                kern.run(k, &a[ib * apl..(ib + 1) * apl], b_panel, &mut acc);
                for i in 0..r {
                    let trow = ib * mr + i;
                    s.tile[trow * cols + jb * nr..trow * cols + jb * nr + cseg]
                        .copy_from_slice(&acc[i * nr..i * nr + cseg]);
                }
            }
        }
    });

    if p.alpha != 1.0 {
        for v in s.tile.iter_mut() {
            *v *= p.alpha;
        }
    }
    epilogue.apply(asg.problem, row0, col0, rows, cols, s.tile);
    store.store(asg.problem, row0, col0, rows, cols, s.tile);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::gemm_ref;
    use bt_tensor::compare::assert_close;
    use bt_tensor::rng::Xoshiro256StarStar;

    fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
    }

    fn run_and_check(shapes: &[(usize, usize, usize)], transb: bool, scheduler: Scheduler) -> GroupedStats {
        run_and_check_ctas(shapes, transb, scheduler, 108)
    }

    fn run_and_check_ctas(
        shapes: &[(usize, usize, usize)],
        transb: bool,
        scheduler: Scheduler,
        num_ctas: usize,
    ) -> GroupedStats {
        let a_bufs: Vec<Vec<f32>> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(m, _, k))| rand_vec(m * k, i as u64 * 2 + 1))
            .collect();
        let b_bufs: Vec<Vec<f32>> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(_, n, k))| rand_vec(k * n, i as u64 * 2 + 2))
            .collect();
        let problems: Vec<GroupedProblem<'_>> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(m, n, k))| GroupedProblem {
                m,
                n,
                k,
                transb,
                alpha: 1.0,
                a: &a_bufs[i],
                b: &b_bufs[i],
            })
            .collect();
        let mut c_bufs: Vec<Vec<f32>> = shapes.iter().map(|&(m, n, _)| vec![0.0; m * n]).collect();
        let config = GroupedConfig {
            scheduler,
            num_ctas,
            ..Default::default()
        };
        let stats = grouped_sgemm(
            &problems,
            c_bufs.iter_mut().map(|c| c.as_mut_slice()).collect(),
            config,
            &NoEpilogue,
            &NoTransform,
        );
        for (i, &(m, n, k)) in shapes.iter().enumerate() {
            let mut expect = vec![0.0f32; m * n];
            gemm_ref(transb, m, n, k, 1.0, &a_bufs[i], &b_bufs[i], &mut expect);
            assert_close(&c_bufs[i], &expect, 1e-3);
        }
        stats
    }

    #[test]
    fn variable_shapes_match_reference() {
        run_and_check(
            &[(17, 23, 31), (64, 64, 64), (1, 100, 7), (130, 5, 70)],
            false,
            Scheduler::PerTile,
        );
    }

    #[test]
    fn warp_prefetch_same_results_fewer_visits() {
        // 8 CTAs over ~82 tiles so each CTA owns several tiles — the regime
        // where prefetching one batch of 32 assignments pays off.
        let num_ctas = 8;
        let shapes: Vec<(usize, usize, usize)> = (0..12).map(|i| (40 + i * 17, 50 + i * 13, 64)).collect();
        let per_tile = run_and_check_ctas(&shapes, false, Scheduler::PerTile, num_ctas);
        let prefetch = run_and_check_ctas(&shapes, false, Scheduler::WarpPrefetch, num_ctas);
        assert_eq!(per_tile.tiles, prefetch.tiles);
        assert_eq!(per_tile.scheduler_visits, per_tile.tiles);
        assert!(
            prefetch.scheduler_visits < per_tile.scheduler_visits,
            "prefetch {} !< per-tile {}",
            prefetch.scheduler_visits,
            per_tile.scheduler_visits
        );
        // Each CTA rounds its batch count up at most once, so with the
        // actual CTA count: visits ≤ ceil(tiles/32) + num_ctas.
        assert!(
            prefetch.scheduler_visits <= per_tile.tiles.div_ceil(PREFETCH_WIDTH as u64) + num_ctas as u64,
            "prefetch visits {} exceed ceil({}/{}) + {}",
            prefetch.scheduler_visits,
            per_tile.tiles,
            PREFETCH_WIDTH,
            num_ctas
        );
    }

    #[test]
    fn transb_variable_shapes() {
        run_and_check(
            &[(33, 65, 64), (128, 96, 64), (5, 5, 64)],
            true,
            Scheduler::WarpPrefetch,
        );
    }

    #[test]
    fn empty_problem_list() {
        let stats = grouped_sgemm(&[], vec![], GroupedConfig::default(), &NoEpilogue, &NoTransform);
        assert_eq!(stats.tiles, 0);
    }

    #[test]
    fn alpha_scaling() {
        let a = vec![1.0f32; 4];
        let b = vec![1.0f32; 4];
        let problems = vec![GroupedProblem {
            m: 2,
            n: 2,
            k: 2,
            transb: false,
            alpha: 0.5,
            a: &a,
            b: &b,
        }];
        let mut c = vec![0.0f32; 4];
        grouped_sgemm(
            &problems,
            vec![c.as_mut_slice()],
            GroupedConfig::default(),
            &NoEpilogue,
            &NoTransform,
        );
        assert_eq!(c, vec![1.0; 4]); // 2 * 0.5
    }

    #[test]
    fn a_load_transform_applied() {
        // transform: negate A -> C should be negated product.
        struct Negate;
        impl ALoadTransform for Negate {
            fn transform(&self, _: usize, _: usize, _: usize, chunk: &mut [f32]) {
                for v in chunk {
                    *v = -*v;
                }
            }
        }
        let a = rand_vec(6 * 8, 1);
        let b = rand_vec(8 * 5, 2);
        let problems = vec![GroupedProblem {
            m: 6,
            n: 5,
            k: 8,
            transb: false,
            alpha: 1.0,
            a: &a,
            b: &b,
        }];
        let mut c = vec![0.0f32; 30];
        grouped_sgemm(
            &problems,
            vec![c.as_mut_slice()],
            GroupedConfig::default(),
            &NoEpilogue,
            &Negate,
        );
        let mut expect = vec![0.0f32; 30];
        gemm_ref(false, 6, 5, 8, -1.0, &a, &b, &mut expect);
        assert_close(&c, &expect, 1e-4);
    }

    #[test]
    fn epilogue_sees_correct_tile_coordinates() {
        // Epilogue that writes row0+col0 into every element; with one tile
        // per problem the output becomes constant per problem.
        struct StampCoords;
        impl TileEpilogue for StampCoords {
            fn apply(&self, _p: usize, row0: usize, col0: usize, _r: usize, _c: usize, tile: &mut [f32]) {
                for v in tile {
                    *v = (row0 + col0) as f32;
                }
            }
        }
        let a = vec![0.0f32; 100 * 8];
        let b = vec![0.0f32; 8 * 100];
        let problems = vec![GroupedProblem {
            m: 100,
            n: 100,
            k: 8,
            transb: false,
            alpha: 1.0,
            a: &a,
            b: &b,
        }];
        let mut c = vec![-1.0f32; 100 * 100];
        grouped_sgemm(
            &problems,
            vec![c.as_mut_slice()],
            GroupedConfig {
                tile_m: 64,
                tile_n: 64,
                ..Default::default()
            },
            &StampCoords,
            &NoTransform,
        );
        // Element (0,0) is in tile (0,0); element (99,99) in tile (64,64).
        assert_eq!(c[0], 0.0);
        assert_eq!(c[99 * 100 + 99], 128.0);
        assert_eq!(c[99 * 100], 64.0); // tile (64, 0)
    }

    #[test]
    fn strided_output_matches_contiguous() {
        // Two problems writing into one shared [rows, 8] buffer side by side
        // (cols 0..3 and 3..8), like two heads of a packed context tensor.
        let a0 = rand_vec(70 * 16, 1);
        let b0 = rand_vec(16 * 3, 2);
        let a1 = rand_vec(70 * 16, 3);
        let b1 = rand_vec(16 * 5, 4);
        let problems = vec![
            GroupedProblem {
                m: 70,
                n: 3,
                k: 16,
                transb: false,
                alpha: 1.0,
                a: &a0,
                b: &b0,
            },
            GroupedProblem {
                m: 70,
                n: 5,
                k: 16,
                transb: false,
                alpha: 2.0,
                a: &a1,
                b: &b1,
            },
        ];
        let placements = vec![StridedOutput { offset: 0, ld: 8 }, StridedOutput { offset: 3, ld: 8 }];
        let mut out = vec![0.0f32; 70 * 8];
        grouped_sgemm_strided(
            &problems,
            &mut out,
            &placements,
            GroupedConfig::default(),
            &NoEpilogue,
            &NoTransform,
        );
        let mut e0 = vec![0.0f32; 70 * 3];
        let mut e1 = vec![0.0f32; 70 * 5];
        gemm_ref(false, 70, 3, 16, 1.0, &a0, &b0, &mut e0);
        gemm_ref(false, 70, 5, 16, 2.0, &a1, &b1, &mut e1);
        for r in 0..70 {
            assert_close(&out[r * 8..r * 8 + 3], &e0[r * 3..(r + 1) * 3], 1e-4);
            assert_close(&out[r * 8 + 3..r * 8 + 8], &e1[r * 5..(r + 1) * 5], 1e-4);
        }
    }

    #[test]
    fn strided_stress_adjacent_tiles_many_ctas() {
        // ThreadSanitizer-style hammer on the lock-free store: many CTAs
        // (far more than cores) store adjacent 65×65 problems side by side
        // in one shared row — every tile boundary is a potential overlap.
        // Repeated runs shake out scheduling interleavings; the debug-build
        // claim map additionally asserts element disjointness exactly.
        let n_problems = 6;
        let (m, n, k) = (65usize, 65usize, 33usize);
        let a_bufs: Vec<Vec<f32>> = (0..n_problems).map(|i| rand_vec(m * k, i as u64 + 1)).collect();
        let b_bufs: Vec<Vec<f32>> = (0..n_problems).map(|i| rand_vec(k * n, i as u64 + 100)).collect();
        let problems: Vec<GroupedProblem<'_>> = (0..n_problems)
            .map(|i| GroupedProblem {
                m,
                n,
                k,
                transb: false,
                alpha: 1.0,
                a: &a_bufs[i],
                b: &b_bufs[i],
            })
            .collect();
        let ld = n * n_problems;
        let placements: Vec<StridedOutput> = (0..n_problems).map(|i| StridedOutput { offset: i * n, ld }).collect();
        let mut expect_blocks: Vec<Vec<f32>> = Vec::new();
        for i in 0..n_problems {
            let mut e = vec![0.0f32; m * n];
            gemm_ref(false, m, n, k, 1.0, &a_bufs[i], &b_bufs[i], &mut e);
            expect_blocks.push(e);
        }
        for round in 0..5 {
            let mut out = vec![f32::NAN; m * ld];
            let stats = grouped_sgemm_strided(
                &problems,
                &mut out,
                &placements,
                GroupedConfig {
                    num_ctas: 64,
                    scheduler: if round % 2 == 0 {
                        Scheduler::WarpPrefetch
                    } else {
                        Scheduler::PerTile
                    },
                    ..Default::default()
                },
                &NoEpilogue,
                &NoTransform,
            );
            assert_eq!(stats.tiles, (n_problems * 4) as u64); // 2×2 tiles each
            for i in 0..n_problems {
                for r in 0..m {
                    assert_close(
                        &out[r * ld + i * n..r * ld + (i + 1) * n],
                        &expect_blocks[i][r * n..(r + 1) * n],
                        1e-4,
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "placement overflows")]
    fn strided_overflow_checked() {
        let a = vec![0.0f32; 4];
        let b = vec![0.0f32; 4];
        let problems = vec![GroupedProblem {
            m: 2,
            n: 2,
            k: 2,
            transb: false,
            alpha: 1.0,
            a: &a,
            b: &b,
        }];
        let mut out = vec![0.0f32; 3];
        grouped_sgemm_strided(
            &problems,
            &mut out,
            &[StridedOutput { offset: 0, ld: 2 }],
            GroupedConfig::default(),
            &NoEpilogue,
            &NoTransform,
        );
    }

    #[test]
    fn scheduler_visit_count_exact_per_tile() {
        // 3 problems of 64x64 with tile 64 -> 3 tiles, 3 visits.
        let a = vec![0.0f32; 64 * 4];
        let b = vec![0.0f32; 4 * 64];
        let problems: Vec<GroupedProblem<'_>> = (0..3)
            .map(|_| GroupedProblem {
                m: 64,
                n: 64,
                k: 4,
                transb: false,
                alpha: 1.0,
                a: &a,
                b: &b,
            })
            .collect();
        let mut cs: Vec<Vec<f32>> = (0..3).map(|_| vec![0.0; 64 * 64]).collect();
        let stats = grouped_sgemm(
            &problems,
            cs.iter_mut().map(|c| c.as_mut_slice()).collect(),
            GroupedConfig {
                scheduler: Scheduler::PerTile,
                ..Default::default()
            },
            &NoEpilogue,
            &NoTransform,
        );
        assert_eq!(stats.tiles, 3);
        assert_eq!(stats.scheduler_visits, 3);
    }
}
