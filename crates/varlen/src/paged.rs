//! Block-paged KV-cache allocation — the variable-length memory manager
//! for autoregressive decoding.
//!
//! An incremental decoding session appends one key/value row per generated
//! token, and a server runs *many* sessions whose lengths differ wildly and
//! change every step — the same variable-length problem the paper solves
//! for encoder batches, transposed into the time dimension. Reserving
//! `max_seq_len` per session up front would reintroduce padding skew as
//! memory waste; TurboTransformers' variable-length memory manager and the
//! vLLM-style paged layouts in PAPERS.md solve it by **paging**:
//!
//! * the cache is a fixed pool of `pool_blocks` blocks, each holding
//!   `block_tokens` token slots ([`PagedLayout`]);
//! * a session owns a **block table** — an ordered list of block indices —
//!   and grows by whole blocks with amortized-growth append
//!   ([`BlockPool::append`]);
//! * freed sessions return every block to a **free list**, so fragmentation
//!   is impossible by construction (any free block fits any session);
//! * exhaustion is an **explicit, typed signal** ([`KvOom`]) rather than an
//!   allocation failure: the serving layer turns it into a shed decision
//!   (`ShedReason::CacheOom` in `bt-serve`), which is the overload story of
//!   the rest of the stack applied to memory instead of compute.
//!
//! This module is pure bookkeeping — block indices and token counts, no
//! floats — so the allocator's invariants (no block aliasing across
//! sessions, exact free-list accounting, free returns everything) are
//! property-tested in isolation (`tests/paged_properties.rs`). The actual
//! K/V storage indexed by these tables lives in `bt-core`'s paged KV cache.
//!
//! Pool pressure is surfaced to `bt-obs`: `kvcache.pool.high_water_blocks`
//! (a `record_max` high-water counter the windowed snapshot merges by max)
//! and `kvcache.pool.oom_events`, so operators can see "pool too small"
//! without waiting for a [`BlockPool::high_water_blocks`] ledger read.

use std::fmt;

/// High-water mark of blocks simultaneously in use, across every pool in
/// the process (merges by max across shards).
static POOL_HIGH_WATER: bt_obs::Counter = bt_obs::Counter::new(bt_obs::names::KV_POOL_HIGH_WATER);
/// Appends refused with [`KvOom`] across every pool in the process.
static POOL_OOM_EVENTS: bt_obs::Counter = bt_obs::Counter::new(bt_obs::names::KV_POOL_OOM_EVENTS);

/// Tokens per block of [`PagedLayout::default`] (and of `btx decode --block`).
pub const DEFAULT_BLOCK_TOKENS: usize = 16;
/// Pool capacity in blocks of [`PagedLayout::default`] (and of `btx decode
/// --blocks`).
pub const DEFAULT_POOL_BLOCKS: usize = 512;

/// Geometry of a paged KV cache: tokens per block × blocks in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedLayout {
    /// Token slots per block.
    pub block_tokens: usize,
    /// Total blocks in the pool.
    pub pool_blocks: usize,
}

impl PagedLayout {
    /// Builds a layout.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(block_tokens: usize, pool_blocks: usize) -> Self {
        assert!(block_tokens > 0, "block_tokens must be positive");
        assert!(pool_blocks > 0, "pool_blocks must be positive");
        Self {
            block_tokens,
            pool_blocks,
        }
    }

    /// Blocks needed to hold `tokens` token slots.
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_tokens)
    }

    /// Total token slots the pool can hold.
    pub fn capacity_tokens(&self) -> usize {
        self.block_tokens * self.pool_blocks
    }
}

impl Default for PagedLayout {
    fn default() -> Self {
        Self::new(DEFAULT_BLOCK_TOKENS, DEFAULT_POOL_BLOCKS)
    }
}

/// Handle to one session's block table inside a [`BlockPool`].
///
/// Indices are recycled after [`BlockPool::free`]; holding a stale id is a
/// logic error the pool detects (panics) rather than silently honoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(usize);

impl SessionId {
    /// The session's slot index (stable while the session is live; reused
    /// after free).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// The pool is out of blocks: the explicit OOM→shed signal.
///
/// Carries the shortfall so the serving layer can report *how* overloaded
/// the cache was, not just that it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvOom {
    /// Blocks the failed operation needed.
    pub needed_blocks: usize,
    /// Blocks that were actually free.
    pub free_blocks: usize,
}

impl fmt::Display for KvOom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KV-cache pool exhausted: needed {} block(s), {} free",
            self.needed_blocks, self.free_blocks
        )
    }
}

impl std::error::Error for KvOom {}

/// Physical location of one token's K/V row: which block, which slot in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Pool block index.
    pub block: usize,
    /// Token slot within the block (`0..block_tokens`).
    pub slot: usize,
}

#[derive(Debug)]
struct SessionTable {
    blocks: Vec<u32>,
    /// Tokens currently stored (≤ `blocks.len() × block_tokens`).
    len: usize,
    live: bool,
}

/// A fixed-size block pool with a free list and per-session block tables.
///
/// All operations are O(blocks moved); [`BlockPool::append`] is
/// **all-or-nothing** — on [`KvOom`] the session is left exactly as it was,
/// so a shed decision never has to unwind a partial allocation.
#[derive(Debug)]
pub struct BlockPool {
    layout: PagedLayout,
    /// LIFO free list of block indices.
    free: Vec<u32>,
    tables: Vec<SessionTable>,
    /// Recycled session slots.
    retired: Vec<usize>,
    high_water_blocks: usize,
    oom_events: u64,
}

impl BlockPool {
    /// An empty pool with every block on the free list.
    pub fn new(layout: PagedLayout) -> Self {
        Self {
            layout,
            // LIFO with block 0 on top: freshly created pools hand out low
            // indices first, which keeps tests readable.
            free: (0..layout.pool_blocks as u32).rev().collect(),
            tables: Vec::new(),
            retired: Vec::new(),
            high_water_blocks: 0,
            oom_events: 0,
        }
    }

    /// The pool's geometry.
    pub fn layout(&self) -> PagedLayout {
        self.layout
    }

    /// Blocks currently on the free list.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Blocks currently owned by live sessions.
    pub fn blocks_in_use(&self) -> usize {
        self.layout.pool_blocks - self.free.len()
    }

    /// Most blocks ever simultaneously in use.
    pub fn high_water_blocks(&self) -> usize {
        self.high_water_blocks
    }

    /// Times an operation failed with [`KvOom`].
    pub fn oom_events(&self) -> u64 {
        self.oom_events
    }

    /// Live sessions.
    pub fn live_sessions(&self) -> usize {
        self.tables.iter().filter(|t| t.live).count()
    }

    /// Opens a session with an empty block table (never fails: blocks are
    /// only taken on append).
    pub fn create(&mut self) -> SessionId {
        let table = SessionTable {
            blocks: Vec::new(),
            len: 0,
            live: true,
        };
        match self.retired.pop() {
            Some(idx) => {
                self.tables[idx] = table;
                SessionId(idx)
            }
            None => {
                self.tables.push(table);
                SessionId(self.tables.len() - 1)
            }
        }
    }

    fn table(&self, sid: SessionId) -> &SessionTable {
        let t = self.tables.get(sid.0).expect("session id out of range");
        assert!(t.live, "session {} was already freed", sid.0);
        t
    }

    /// Tokens stored in the session.
    pub fn len(&self, sid: SessionId) -> usize {
        self.table(sid).len
    }

    /// True when the session holds no tokens.
    pub fn is_empty(&self, sid: SessionId) -> bool {
        self.len(sid) == 0
    }

    /// The session's block table, in append order.
    pub fn block_table(&self, sid: SessionId) -> &[u32] {
        &self.table(sid).blocks
    }

    /// Extends the session by `tokens` token slots, taking new blocks from
    /// the free list as needed (amortized: most appends touch no block).
    ///
    /// # Errors
    /// Returns [`KvOom`] — with the session **unchanged** — when the free
    /// list cannot cover the growth.
    ///
    /// # Panics
    /// Panics on a freed/out-of-range session id.
    pub fn append(&mut self, sid: SessionId, tokens: usize) -> Result<(), KvOom> {
        let t = {
            let t = self.tables.get(sid.0).expect("session id out of range");
            assert!(t.live, "session {} was already freed", sid.0);
            t
        };
        let need_total = self.layout.blocks_for(t.len + tokens);
        let grow = need_total.saturating_sub(t.blocks.len());
        if grow > self.free.len() {
            self.oom_events += 1;
            POOL_OOM_EVENTS.incr();
            return Err(KvOom {
                needed_blocks: grow,
                free_blocks: self.free.len(),
            });
        }
        let t = &mut self.tables[sid.0];
        for _ in 0..grow {
            t.blocks.push(self.free.pop().expect("checked above"));
        }
        t.len += tokens;
        self.high_water_blocks = self.high_water_blocks.max(self.layout.pool_blocks - self.free.len());
        POOL_HIGH_WATER.record_max(self.high_water_blocks as u64);
        Ok(())
    }

    /// Physical location of the session's token `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= len(sid)` or the session is not live.
    pub fn slot(&self, sid: SessionId, idx: usize) -> Slot {
        let t = self.table(sid);
        assert!(idx < t.len, "token {idx} out of range (len {})", t.len);
        Slot {
            block: t.blocks[idx / self.layout.block_tokens] as usize,
            slot: idx % self.layout.block_tokens,
        }
    }

    /// Frees the session, returning **all** its blocks to the free list;
    /// reports how many came back.
    ///
    /// # Panics
    /// Panics on double free or an out-of-range id.
    pub fn free(&mut self, sid: SessionId) -> usize {
        let t = self.tables.get_mut(sid.0).expect("session id out of range");
        assert!(t.live, "session {} freed twice", sid.0);
        t.live = false;
        let returned = t.blocks.len();
        self.free.append(&mut t.blocks);
        t.len = 0;
        self.retired.push(sid.0);
        returned
    }

    /// Structural invariant check, used by the property suite after every
    /// operation: every block is *either* on the free list *or* in exactly
    /// one live session's table, and counts reconcile exactly.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.layout.pool_blocks;
        let mut owner = vec![usize::MAX; n]; // usize::MAX = unseen
        for (i, &b) in self.free.iter().enumerate() {
            let b = b as usize;
            if b >= n {
                return Err(format!("free list entry {b} out of range ({n} blocks)"));
            }
            if owner[b] != usize::MAX {
                return Err(format!("block {b} appears twice in the free list"));
            }
            owner[b] = n + i; // any value ≥ n marks "free"
        }
        let mut used = 0usize;
        for (s, t) in self.tables.iter().enumerate() {
            if !t.live {
                if !t.blocks.is_empty() {
                    return Err(format!("freed session {s} still holds {} blocks", t.blocks.len()));
                }
                continue;
            }
            if t.len > t.blocks.len() * self.layout.block_tokens {
                return Err(format!(
                    "session {s} claims {} tokens in {} blocks of {}",
                    t.len,
                    t.blocks.len(),
                    self.layout.block_tokens
                ));
            }
            for &b in &t.blocks {
                let b = b as usize;
                if b >= n {
                    return Err(format!("session {s} holds out-of-range block {b}"));
                }
                if owner[b] != usize::MAX {
                    return Err(format!("block {b} aliased: session {s} and owner {}", owner[b]));
                }
                owner[b] = s;
                used += 1;
            }
        }
        if used + self.free.len() != n {
            return Err(format!(
                "accounting drift: {} in use + {} free != {n} total",
                used,
                self.free.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_grows_by_whole_blocks() {
        let mut pool = BlockPool::new(PagedLayout::new(4, 8));
        let s = pool.create();
        pool.append(s, 1).unwrap();
        assert_eq!(pool.block_table(s).len(), 1);
        pool.append(s, 3).unwrap(); // fills block 0
        assert_eq!(pool.block_table(s).len(), 1);
        pool.append(s, 1).unwrap(); // spills into block 1
        assert_eq!(pool.block_table(s).len(), 2);
        assert_eq!(pool.len(s), 5);
        assert_eq!(pool.blocks_in_use(), 2);
    }

    #[test]
    fn slots_walk_the_block_table_in_order() {
        let mut pool = BlockPool::new(PagedLayout::new(3, 4));
        let s = pool.create();
        pool.append(s, 7).unwrap();
        let table = pool.block_table(s).to_vec();
        for i in 0..7 {
            let slot = pool.slot(s, i);
            assert_eq!(slot.block, table[i / 3] as usize);
            assert_eq!(slot.slot, i % 3);
        }
    }

    #[test]
    fn oom_is_all_or_nothing() {
        let mut pool = BlockPool::new(PagedLayout::new(2, 2));
        let s = pool.create();
        pool.append(s, 3).unwrap(); // 2 blocks
        let err = pool.append(s, 2).unwrap_err(); // needs 1 more, 0 free
        assert_eq!(err.needed_blocks, 1);
        assert_eq!(err.free_blocks, 0);
        assert_eq!(pool.len(s), 3, "failed append must not change the session");
        assert_eq!(pool.oom_events(), 1);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn free_returns_every_block() {
        let mut pool = BlockPool::new(PagedLayout::new(4, 16));
        let a = pool.create();
        let b = pool.create();
        pool.append(a, 9).unwrap();
        pool.append(b, 4).unwrap();
        assert_eq!(pool.high_water_blocks(), 4);
        assert_eq!(pool.free(a), 3);
        assert_eq!(pool.free(b), 1);
        assert_eq!(pool.free_blocks(), 16);
        assert_eq!(pool.live_sessions(), 0);
        assert_eq!(pool.high_water_blocks(), 4, "high water survives frees");
        pool.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "freed twice")]
    fn double_free_panics() {
        let mut pool = BlockPool::new(PagedLayout::default());
        let s = pool.create();
        pool.free(s);
        pool.free(s);
    }

    #[test]
    fn session_slots_are_recycled() {
        let mut pool = BlockPool::new(PagedLayout::new(2, 4));
        let a = pool.create();
        pool.append(a, 2).unwrap();
        pool.free(a);
        let b = pool.create();
        assert_eq!(b.index(), a.index(), "retired slot is reused");
        assert!(pool.is_empty(b), "recycled session starts empty");
    }

    #[test]
    fn layout_math() {
        let l = PagedLayout::new(16, 8);
        assert_eq!(l.blocks_for(0), 0);
        assert_eq!(l.blocks_for(1), 1);
        assert_eq!(l.blocks_for(16), 1);
        assert_eq!(l.blocks_for(17), 2);
        assert_eq!(l.capacity_tokens(), 128);
    }
}
