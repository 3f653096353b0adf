//! Admission control and batch-cutting policies of the continuous-batching
//! server ([`crate::server`]) and the multi-shard router ([`crate::shard`]).
//!
//! The central idea is **token-weighted admission**: a request's cost is its
//! valid-token count, not its slot in a fixed-size batch. Under a
//! [`CutPolicy::TokenBudget`] one 512-token request and sixty-four 8-token
//! requests carry the same admission weight, so batch *work* is constant
//! even when batch *occupancy* swings by an order of magnitude — exactly
//! the property a packed (zero-padding) runtime needs, because its cost is
//! proportional to valid tokens rather than to `batch × max_seq_len`.
//!
//! The policies here are pure data-structure code (no clocks, no threads):
//! the one serving engine calls [`CutPolicy::cut_next_batch`] whichever
//! front (virtual-time trace or threaded channel) feeds it, so a policy
//! tested here behaves identically under both.

use crate::grouping::descending_order;
use bt_varlen::{BatchMask, VarlenError};
use std::collections::VecDeque;

/// Why a request was rejected instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The bounded ingress queue was full when the request arrived
    /// (backpressure: the caller should retry later or divert).
    QueueFull,
    /// The request's deadline expired before its batch started; it was
    /// cancelled while queued rather than served uselessly late.
    DeadlineExpired,
    /// The request exceeds the longest sequence the runtime accepts.
    TooLong,
    /// The paged KV-cache pool could not hold the request's tokens — the
    /// decode path's memory-pressure signal (`KvOom` surfaced by
    /// `bt-varlen`'s block pool), distinct from compute overload so
    /// operators can tell "pool too small" from "host too slow".
    CacheOom,
    /// A per-chunk deadline check cancelled the request *between chunks*,
    /// after some of its work had already run — the chunked-prefill /
    /// streaming-batch signal, distinct from [`ShedReason::DeadlineExpired`]
    /// (which cancels a request still waiting in the queue, before any work
    /// started). Partial work is accounted in the outcome's ingested-token
    /// counts.
    CancelledMidRequest,
    /// The shard router refused to place the request because the selected
    /// shard's outstanding valid tokens already exceed the configured
    /// hot-shard threshold (`crate::shard::ShardConfig::hot_shard_tokens`).
    /// This is a *routing-time* decision — the request never reached any
    /// shard's ingress queue — distinct from [`ShedReason::QueueFull`],
    /// which is a per-shard gate on queue *occupancy* rather than queued
    /// *work*.
    HotShard,
}

impl ShedReason {
    /// Stable lowercase label (used in reports and the `BENCH_serve.json`
    /// artifact).
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::DeadlineExpired => "deadline_expired",
            ShedReason::TooLong => "too_long",
            ShedReason::CacheOom => "cache_oom",
            ShedReason::CancelledMidRequest => "cancelled_mid_request",
            ShedReason::HotShard => "hot_shard",
        }
    }

    /// The interned terminal trace mark for this reason
    /// (`req.shed.<label>`, from [`bt_obs::names`]), for tagging a shed
    /// request's timeline via [`bt_obs::trace_mark_at`].
    pub fn trace_label(&self) -> &'static bt_obs::LabelId {
        static QUEUE_FULL: bt_obs::LabelId = bt_obs::LabelId::new(bt_obs::names::REQ_SHED_QUEUE_FULL);
        static DEADLINE: bt_obs::LabelId = bt_obs::LabelId::new(bt_obs::names::REQ_SHED_DEADLINE);
        static TOO_LONG: bt_obs::LabelId = bt_obs::LabelId::new(bt_obs::names::REQ_SHED_TOO_LONG);
        static CACHE_OOM: bt_obs::LabelId = bt_obs::LabelId::new(bt_obs::names::REQ_SHED_CACHE_OOM);
        static CANCELLED: bt_obs::LabelId = bt_obs::LabelId::new(bt_obs::names::REQ_SHED_CANCELLED);
        static HOT_SHARD: bt_obs::LabelId = bt_obs::LabelId::new(bt_obs::names::REQ_SHED_HOT_SHARD);
        match self {
            ShedReason::QueueFull => &QUEUE_FULL,
            ShedReason::DeadlineExpired => &DEADLINE,
            ShedReason::TooLong => &TOO_LONG,
            ShedReason::CacheOom => &CACHE_OOM,
            ShedReason::CancelledMidRequest => &CANCELLED,
            ShedReason::HotShard => &HOT_SHARD,
        }
    }
}

/// Admission weight of a request: its valid-token count, clamped to at
/// least one (zero-length requests still occupy a batch slot and a launch).
pub fn admission_weight(len: usize) -> usize {
    len.max(1)
}

/// A queued request, as seen by the batch cutter: identity, token count,
/// arrival time and absolute deadline (both in the driver's clock domain —
/// simulated seconds for the virtual-time engine, wall seconds for the
/// threaded server).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pending {
    /// Caller-assigned identifier.
    pub id: usize,
    /// Valid-token count.
    pub len: usize,
    /// When the request arrived.
    pub arrival: f64,
    /// Absolute time after which the request must be shed, not served.
    pub deadline: f64,
}

/// How the server cuts the next batch from its queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CutPolicy {
    /// Arrival order, at most `max_batch` requests per batch — the paper's
    /// baseline serving discipline. A packed runtime is insensitive to the
    /// length variance inside such batches; a padded runtime pays for it.
    Fifo {
        /// Maximum requests per batch.
        max_batch: usize,
    },
    /// Take the `max_batch` *longest* queued requests — the
    /// TurboTransformers-style grouping family applied continuously
    /// (clusters similar lengths, at the cost of reordering).
    SortedGroups {
        /// Maximum requests per batch.
        max_batch: usize,
    },
    /// Arrival order, but cut the batch when its summed
    /// [`admission_weight`] would exceed `budget_tokens` — constant *work*
    /// per batch regardless of length mix. A batch always contains at least
    /// one request, so a single request longer than the budget runs alone
    /// rather than starving.
    TokenBudget {
        /// Valid-token budget per batch.
        budget_tokens: usize,
    },
}

impl CutPolicy {
    /// Stable lowercase label (reports and `BENCH_serve.json`).
    pub fn label(&self) -> &'static str {
        match self {
            CutPolicy::Fifo { .. } => "fifo",
            CutPolicy::SortedGroups { .. } => "sorted_groups",
            CutPolicy::TokenBudget { .. } => "token_budget",
        }
    }

    /// Removes and returns the next batch from the front of `queue`.
    ///
    /// Returns an empty batch only when the queue is empty. All three
    /// policies preserve the queue order of the requests they leave behind.
    ///
    /// # Panics
    /// Panics if the policy's capacity parameter is zero.
    pub fn cut_next_batch(&self, queue: &mut VecDeque<Pending>) -> Vec<Pending> {
        match *self {
            CutPolicy::Fifo { max_batch } => {
                assert!(max_batch > 0, "max_batch must be positive");
                let take = max_batch.min(queue.len());
                queue.drain(..take).collect()
            }
            CutPolicy::SortedGroups { max_batch } => {
                assert!(max_batch > 0, "max_batch must be positive");
                if queue.is_empty() {
                    return Vec::new();
                }
                let lens: Vec<usize> = queue.iter().map(|p| p.len).collect();
                let mut chosen: Vec<usize> = descending_order(&lens).into_iter().take(max_batch).collect();
                chosen.sort_unstable();
                // Remove back-to-front so earlier indices stay valid.
                let mut batch: Vec<Pending> = chosen
                    .iter()
                    .rev()
                    .map(|&i| queue.remove(i).expect("index within queue"))
                    .collect();
                // Longest-first inside the batch, matching descending_order.
                batch.sort_by_key(|p| std::cmp::Reverse(p.len));
                batch
            }
            CutPolicy::TokenBudget { budget_tokens } => {
                assert!(budget_tokens > 0, "budget_tokens must be positive");
                let mut batch = Vec::new();
                let mut weight = 0usize;
                while let Some(front) = queue.front() {
                    let w = admission_weight(front.len);
                    if !batch.is_empty() && weight + w > budget_tokens {
                        break;
                    }
                    weight += w;
                    batch.push(queue.pop_front().expect("front exists"));
                }
                batch
            }
        }
    }
}

/// The padded width of a cut batch: its longest length, clamped to at
/// least one like every length of its masks.
pub fn cut_width(cut: &[Pending]) -> usize {
    cut.iter().map(|p| admission_weight(p.len)).max().unwrap_or(1)
}

/// Builds the [`BatchMask`] for `batch` — a cut batch, or one execution
/// round of one — at padded length `width`, its cut's [`cut_width`]:
/// lengths clamped to at least one. The encoder's MHA takes one kernel at
/// every width; the causal dispatcher picks its kernel by the padded width,
/// so padding every round to its cut's width keeps a causal round on the
/// kernel the whole cut takes, and a round computes the bits the whole cut
/// would whichever attention runs.
///
/// # Errors
/// Propagates [`VarlenError`] from mask construction: a length past
/// `width`, which a round of the cut `width` was taken from cannot have.
pub fn batch_mask(batch: &[Pending], width: usize) -> Result<BatchMask, VarlenError> {
    BatchMask::from_lens(batch.iter().map(|p| admission_weight(p.len)).collect(), width)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue_of(lens: &[usize]) -> VecDeque<Pending> {
        lens.iter()
            .enumerate()
            .map(|(id, &len)| Pending {
                id,
                len,
                arrival: id as f64,
                deadline: f64::INFINITY,
            })
            .collect()
    }

    #[test]
    fn fifo_takes_front_in_order() {
        let mut q = queue_of(&[9, 1, 7, 3]);
        let batch = CutPolicy::Fifo { max_batch: 3 }.cut_next_batch(&mut q);
        assert_eq!(batch.iter().map(|p| p.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].id, 3);
    }

    #[test]
    fn sorted_groups_takes_longest_and_preserves_rest() {
        let mut q = queue_of(&[5, 100, 7, 90]);
        let batch = CutPolicy::SortedGroups { max_batch: 2 }.cut_next_batch(&mut q);
        assert_eq!(batch.iter().map(|p| p.len).collect::<Vec<_>>(), vec![100, 90]);
        // Remaining requests keep arrival order.
        assert_eq!(q.iter().map(|p| p.id).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn token_budget_cuts_by_weight_not_count() {
        let mut q = queue_of(&[8; 64]);
        let batch = CutPolicy::TokenBudget { budget_tokens: 512 }.cut_next_batch(&mut q);
        assert_eq!(batch.len(), 64, "64 × 8 tokens fit a 512-token budget");
        let mut q = queue_of(&[512, 8]);
        let batch = CutPolicy::TokenBudget { budget_tokens: 512 }.cut_next_batch(&mut q);
        assert_eq!(batch.len(), 1, "one 512-token request fills the same budget");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn token_budget_oversized_request_runs_alone() {
        let mut q = queue_of(&[4000, 5]);
        let batch = CutPolicy::TokenBudget { budget_tokens: 512 }.cut_next_batch(&mut q);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].len, 4000);
    }

    #[test]
    fn zero_length_requests_weigh_one() {
        assert_eq!(admission_weight(0), 1);
        let mut q = queue_of(&[0, 0, 0]);
        let batch = CutPolicy::TokenBudget { budget_tokens: 2 }.cut_next_batch(&mut q);
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn empty_queue_yields_empty_batch() {
        let mut q = VecDeque::new();
        for policy in [
            CutPolicy::Fifo { max_batch: 4 },
            CutPolicy::SortedGroups { max_batch: 4 },
            CutPolicy::TokenBudget { budget_tokens: 64 },
        ] {
            assert!(policy.cut_next_batch(&mut q).is_empty());
        }
    }

    /// Drains a whole queue with repeated cuts, as the server loop does.
    fn drain(policy: CutPolicy, mut q: VecDeque<Pending>) -> Vec<Vec<Pending>> {
        let mut cuts = Vec::new();
        while !q.is_empty() {
            cuts.push(policy.cut_next_batch(&mut q));
        }
        cuts
    }

    #[test]
    fn every_queued_request_lands_in_exactly_one_cut() {
        for policy in [
            CutPolicy::Fifo { max_batch: 3 },
            CutPolicy::SortedGroups { max_batch: 3 },
            CutPolicy::TokenBudget { budget_tokens: 8 },
        ] {
            let mut ids: Vec<usize> = drain(policy, queue_of(&[3, 9, 1, 4, 4, 8, 2]))
                .iter()
                .flat_map(|cut| cut.iter().map(|p| p.id))
                .collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..7).collect::<Vec<_>>(), "{}", policy.label());
        }
    }

    #[test]
    fn sorted_groups_waste_less_padding_than_fifo() {
        use bt_varlen::workload::LengthDistribution;
        // One PaperUniform window: FIFO cuts mix long and short requests
        // (each mask pads to its longest member); sorting clusters them.
        let lens = LengthDistribution::PaperUniform { alpha: 0.6 }.sample(64, 256, 7);
        let padded = |policy| -> usize {
            drain(policy, queue_of(&lens))
                .iter()
                .map(|cut| batch_mask(cut, cut_width(cut)).expect("mask").padded_words())
                .sum()
        };
        assert!(padded(CutPolicy::SortedGroups { max_batch: 8 }) < padded(CutPolicy::Fifo { max_batch: 8 }));
    }

    #[test]
    fn masks_clamp_lengths_and_pad_to_their_own_maximum() {
        let cuts = drain(CutPolicy::SortedGroups { max_batch: 2 }, queue_of(&[100, 0, 90, 7]));
        let masks: Vec<BatchMask> = cuts
            .iter()
            .map(|cut| batch_mask(cut, cut_width(cut)).expect("mask"))
            .collect();
        assert_eq!(masks[0].seq_lens(), &[100, 90]);
        assert_eq!(masks[1].seq_lens(), &[7, 1]);
        assert_eq!(masks[1].max_seq_len(), 7);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(CutPolicy::Fifo { max_batch: 1 }.label(), "fifo");
        assert_eq!(CutPolicy::TokenBudget { budget_tokens: 1 }.label(), "token_budget");
        assert_eq!(ShedReason::QueueFull.label(), "queue_full");
        assert_eq!(ShedReason::DeadlineExpired.label(), "deadline_expired");
        assert_eq!(ShedReason::TooLong.label(), "too_long");
        assert_eq!(ShedReason::CacheOom.label(), "cache_oom");
        assert_eq!(ShedReason::CancelledMidRequest.label(), "cancelled_mid_request");
        assert_eq!(ShedReason::HotShard.label(), "hot_shard");
    }
}
