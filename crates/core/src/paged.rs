//! Batched autoregressive decoding over a block-paged KV cache — the
//! decoder's one stack.
//!
//! [`crate::incremental::DecoderSession`] decodes one sequence at a time
//! against a contiguous, privately owned cache. A serving system runs
//! *hundreds* of such sessions concurrently, and their per-step work — a
//! pile of `1×n` GEMVs and one attention per `(session, head)` at that
//! session's current length — is the variable-shape problem of paper
//! Fig. 5, with the time axis as the variable length. This module supplies
//! the two pieces that turn the single-sequence path into a batched one:
//!
//! * [`PagedKvCache`] — K/V storage indexed through `bt-varlen`'s
//!   [`BlockPool`]: a fixed pool of `block_tokens`-sized blocks, per-session
//!   block tables, and an explicit [`KvOom`] signal when the pool is
//!   exhausted. Sessions grow by whole blocks, so memory held is within one
//!   block of tokens stored — no per-session `max_seq_len` reservation, the
//!   same anti-padding argument as the zero-padding algorithm applied to
//!   the time axis.
//! * [`PagedDecoder`] — many concurrent sessions over one shared cache,
//!   with **one entry**: [`PagedDecoder::forward`] takes any mix of
//!   sessions, each with `n ≥ 1` new token rows — a whole prompt, a prompt
//!   chunk resuming at the cached length, or one decode token — and runs
//!   every admitted row through each layer together. A session the pool
//!   cannot grow gets its [`KvOom`] back as a value and is left untouched.
//!
//! The decoder layer is written once, here (`PagedDecoder::forward_rows`):
//! six row-wise GEMMs, bias + GELU in the FFN up-projection's epilogue, a
//! fused add-bias + residual + LayerNorm closing each sub-layer (§III.C),
//! and two attentions. Every decoder forward runs it: the teacher-forced
//! [`TransformerDecoder::forward`] is one paged prefill of every target over
//! a cache sized to its batch. No attention arithmetic lives here: both
//! attentions hand one unit per `(session, head)`, at that session's true
//! length, to `crate::attention`'s one paged form, Algorithm III.2 as row
//! dots over K/V read in place (`attention::session_rows`), at every
//! precision and for any mix of prefill chunks and decode rows.
//! Self-attention splits the rows' QKV with Q pre-scaled and attends under
//! the bottom-right causal key range in one `paged.attn.rows` launch, which
//! stores the rows' K/V in their block-table slots and reads every key
//! through the table; cross-attention attends over the per-session memory
//! planes projected at [`PagedDecoder::open_session`] in one
//! `paged.cross.rows` launch. No K/V is ever gathered into planes.
//!
//! Equivalence guarantee (tested here and cross-ISA in
//! `tests/differential_decode.rs`), at every precision, because attention
//! is f32 at every precision: a prefill is **bitwise** ≡ the same tokens
//! stepped one at a time and **bitwise invariant** to the block size —
//! paging is memory layout, never math. A session's rows are **bitwise**
//! the same whatever other sessions share its forward: each row's GEMM
//! chains and attention row are its own, so a teacher-forced target does
//! not depend on its batch-mates. The scalar
//! [`crate::incremental::DecoderSession`] tracks it within documented float
//! tolerance.

use crate::attention::{session_rows, KeyRange, SessionKv};
use crate::decoder::TransformerDecoder;
use crate::encoder::launch_gemm;
use bt_device::Device;
use bt_gemm::PackedB;
use bt_kernels::activation::bias_gelu_epilogue;
use bt_kernels::layernorm::add_bias_residual_layernorm_fused;
use bt_kernels::layout::{add_bias_split_heads_packed, add_bias_split_kv_packed, add_bias_split_qkv_packed};
use bt_tensor::Tensor;
use bt_varlen::paged::{BlockPool, KvOom, PagedLayout, SessionId};

/// Sessions ever opened on a [`PagedDecoder`].
static SESSIONS_OPENED: bt_obs::Counter = bt_obs::Counter::new(bt_obs::names::KV_SESSIONS_OPENED);
/// Sessions freed (blocks returned to the pool).
static SESSIONS_FREED: bt_obs::Counter = bt_obs::Counter::new(bt_obs::names::KV_SESSIONS_FREED);
/// Appends refused with [`KvOom`] — each one is a shed candidate upstream.
static KV_OOM: bt_obs::Counter = bt_obs::Counter::new(bt_obs::names::KV_OOM);
/// Token slots appended across all sessions (prefill + decode).
static KV_TOKENS: bt_obs::Counter = bt_obs::Counter::new(bt_obs::names::KV_TOKENS_APPENDED);
/// Rows pushed through the batched decode pipeline.
static DECODE_ROWS: bt_obs::Counter = bt_obs::Counter::new(bt_obs::names::CORE_PAGED_ROWS);

/// Per-layer K/V storage addressed through a [`BlockPool`].
///
/// One block table per session covers **all** layers: every layer stores its
/// K and V rows for token `i` of a session at the same `(block, slot)` the
/// pool assigned, in that layer's private storage plane. Capacity is
/// therefore checked once per appended token, not once per layer.
pub struct PagedKvCache {
    pool: BlockPool,
    heads: usize,
    head: usize,
    /// Per-layer key storage, `[pool_blocks × block_tokens × hidden]`.
    k: Vec<Vec<f32>>,
    /// Per-layer value storage, same geometry.
    v: Vec<Vec<f32>>,
}

impl PagedKvCache {
    /// Allocates storage for `layers` decoder layers of `heads × head`
    /// columns over the given pool geometry.
    pub fn new(layout: PagedLayout, layers: usize, heads: usize, head: usize) -> Self {
        let elems = layout.pool_blocks * layout.block_tokens * heads * head;
        Self {
            pool: BlockPool::new(layout),
            heads,
            head,
            k: (0..layers).map(|_| vec![0.0; elems]).collect(),
            v: (0..layers).map(|_| vec![0.0; elems]).collect(),
        }
    }

    /// The underlying block pool (read-only: occupancy, high water, layout).
    pub fn pool(&self) -> &BlockPool {
        &self.pool
    }

    /// Opens a session with an empty block table.
    pub fn create(&mut self) -> SessionId {
        SESSIONS_OPENED.incr();
        self.pool.create()
    }

    /// Reserves cache capacity for `tokens` more tokens of the session —
    /// all-or-nothing; on [`KvOom`] the session is unchanged.
    ///
    /// # Errors
    /// Propagates [`KvOom`] from the pool when the free list cannot cover
    /// the growth.
    pub fn append(&mut self, sid: SessionId, tokens: usize) -> Result<(), KvOom> {
        match self.pool.append(sid, tokens) {
            Ok(()) => {
                KV_TOKENS.add(tokens as u64);
                Ok(())
            }
            Err(e) => {
                KV_OOM.incr();
                Err(e)
            }
        }
    }

    /// Frees the session, returning its block count to the free list.
    pub fn free(&mut self, sid: SessionId) -> usize {
        SESSIONS_FREED.incr();
        self.pool.free(sid)
    }

    /// Tokens stored for the session.
    pub fn len(&self, sid: SessionId) -> usize {
        self.pool.len(sid)
    }

    /// True when the session holds no tokens.
    pub fn is_empty(&self, sid: SessionId) -> bool {
        self.pool.is_empty(sid)
    }

    /// Start of the session's token `pos` in a layer's storage.
    fn base(&self, sid: SessionId, pos: usize) -> usize {
        let slot = self.pool.slot(sid, pos);
        (slot.block * self.pool.layout().block_tokens + slot.slot) * self.heads * self.head
    }

    /// Appends the start of each of the session's token rows in a layer's
    /// storage to `out`, in token order: its block table resolved once, for
    /// every layer (all layers share the table).
    pub(crate) fn extend_rows(&self, sid: SessionId, out: &mut Vec<usize>) {
        let (tokens, row) = (self.pool.layout().block_tokens, self.heads * self.head);
        let blocks = self.pool.block_table(sid).iter().map(|&b| b as usize);
        out.extend(
            blocks
                .flat_map(|b| (b * tokens..(b + 1) * tokens).map(move |slot| slot * row))
                .take(self.pool.len(sid)),
        );
    }

    /// One session's K/V for one layer, read in place: `rows` are the
    /// starts of its token rows ([`PagedKvCache::extend_rows`]).
    pub(crate) fn blocks<'a>(&'a self, layer: usize, rows: &'a [usize]) -> SessionKv<'a> {
        SessionKv::Blocks {
            k: &self.k[layer],
            v: &self.v[layer],
            rows,
        }
    }

    /// Stores row `row` of `[heads, rows, head]` K and V planes — the packed
    /// head split's layout — as the session's token `pos`.
    ///
    /// # Panics
    /// Panics if `pos` has no reserved slot (append first) or the planes are
    /// not `heads × rows × head` long.
    pub fn write(&mut self, layer: usize, sid: SessionId, pos: usize, k: &[f32], v: &[f32], row: usize) {
        let (heads, head) = (self.heads, self.head);
        assert_eq!(k.len(), v.len(), "k/v plane size mismatch");
        assert_eq!(k.len() % (heads * head), 0, "planes must be [heads, rows, head]");
        let plane = k.len() / heads;
        let base = self.base(sid, pos);
        for h in 0..heads {
            let (src, dst) = (h * plane + row * head, base + h * head);
            self.k[layer][dst..dst + head].copy_from_slice(&k[src..src + head]);
            self.v[layer][dst..dst + head].copy_from_slice(&v[src..src + head]);
        }
    }
}

/// One layer's `[heads, len, head]` K and V planes.
type Planes = (Vec<f32>, Vec<f32>);

/// Many concurrent decoding sessions over one shared [`PagedKvCache`],
/// advanced by [`PagedDecoder::forward`]: every session's rows share each
/// layer's GEMMs and one rows launch per attention.
pub struct PagedDecoder<'a> {
    decoder: &'a TransformerDecoder,
    cache: PagedKvCache,
    /// Each live session's per-layer cross-attention memory K/V planes
    /// (`[heads, mem_len, head]`), projected once at session open exactly
    /// like [`crate::incremental::DecoderSession`]; indexed by
    /// [`SessionId::index`] (slots are recycled with the pool's).
    cross_kv: Vec<Option<Vec<Planes>>>,
}

impl<'a> PagedDecoder<'a> {
    /// Builds a paged decoder over `decoder` with a cache of the given
    /// geometry.
    pub fn new(decoder: &'a TransformerDecoder, layout: PagedLayout) -> Self {
        let layers = decoder.weights.layers.len();
        let config = decoder.config;
        Self {
            decoder,
            cache: PagedKvCache::new(layout, layers, config.heads, config.head_size),
            cross_kv: Vec::new(),
        }
    }

    /// The shared KV cache (occupancy, high water, OOM counts).
    pub fn cache(&self) -> &PagedKvCache {
        &self.cache
    }

    /// The decoder whose weights every session runs.
    pub fn decoder(&self) -> &TransformerDecoder {
        self.decoder
    }

    /// Opens a session over one encoder memory sequence
    /// (`[mem_len, hidden]`, packed), projecting cross-attention K/V once.
    /// Never takes cache blocks — [`PagedDecoder::forward`] claims those.
    /// An empty memory (`mem_len = 0`) gives the session's cross-attention
    /// units zero keys: its context rows are zero.
    ///
    /// # Panics
    /// Panics if `memory` is not `[mem_len, hidden]`.
    pub fn open_session(&mut self, device: &Device, memory: &Tensor) -> SessionId {
        let dims = memory.dims();
        assert_eq!(dims.len(), 2, "memory must be [mem_len, hidden]");
        assert_eq!(dims[1], self.decoder.config.hidden(), "memory hidden mismatch");
        self.open_session_rows(device, memory.as_slice())
    }

    /// [`PagedDecoder::open_session`] over memory rows given as a flat
    /// `[mem_len × hidden]` slice, read in place.
    pub(crate) fn open_session_rows(&mut self, device: &Device, memory: &[f32]) -> SessionId {
        let hidden = self.decoder.config.hidden();
        let mem_len = memory.len() / hidden;
        debug_assert_eq!(memory.len(), mem_len * hidden, "memory rows must be whole");
        let heads = self.decoder.config.heads;

        let cross_kv = self
            .decoder
            .weights
            .layers
            .iter()
            .map(|w| {
                let kv = launch_gemm(device, "paged.cross_kv", memory, mem_len, &w.cross_kv_weight, None);
                let kv = Tensor::from_vec(kv, [mem_len, 2 * hidden]).expect("shape consistent");
                let (k, v) = add_bias_split_kv_packed(device, "paged.cross_kv", &kv, &w.cross_kv_bias, heads);
                (k.into_vec(), v.into_vec())
            })
            .collect();

        let sid = self.cache.create();
        if self.cross_kv.len() <= sid.index() {
            self.cross_kv.resize_with(sid.index() + 1, || None);
        }
        self.cross_kv[sid.index()] = Some(cross_kv);
        sid
    }

    /// Tokens cached for the session.
    pub fn session_len(&self, sid: SessionId) -> usize {
        self.cache.len(sid)
    }

    /// Frees the session's blocks and cross-attention state; returns how
    /// many blocks came back to the pool.
    pub fn free_session(&mut self, sid: SessionId) -> usize {
        self.cross_kv[sid.index()] = None;
        self.cache.free(sid)
    }

    /// Runs every input's new token rows through the decoder in one
    /// pipeline. Each input is an open session and its `n ≥ 1` rows
    /// (`[n, hidden]`, flattened): its newest tokens, attending causally to
    /// everything the session has cached. Capacity is claimed in call
    /// order, all-or-nothing per session; the sessions the pool admits run
    /// together, and each gets its rows' output hidden states back in its
    /// input's place. A session refused with [`KvOom`] is left exactly as
    /// it was — the caller decides whether to shed
    /// ([`PagedDecoder::free_session`]) or retry.
    ///
    /// # Panics
    /// Panics on a duplicate or unopened session id, or rows that are not
    /// `[n ≥ 1, hidden]`.
    pub fn forward(&mut self, device: &Device, inputs: &[(SessionId, &[f32])]) -> Vec<Result<Vec<f32>, KvOom>> {
        let hidden = self.decoder.config.hidden();
        for (i, &(sid, rows)) in inputs.iter().enumerate() {
            assert!(
                self.cross_kv.get(sid.index()).is_some_and(Option::is_some),
                "session {} is not open",
                sid.index()
            );
            assert!(
                !inputs[..i].iter().any(|&(s, _)| s == sid),
                "session {} appears twice in one forward",
                sid.index()
            );
            assert!(
                !rows.is_empty() && rows.len() % hidden == 0,
                "session {}'s rows must be [n >= 1, hidden]",
                sid.index()
            );
        }

        let (mut claims, mut sessions, mut h) = (Vec::with_capacity(inputs.len()), Vec::new(), Vec::new());
        for &(sid, rows) in inputs {
            let n = rows.len() / hidden;
            let claim = self.cache.append(sid, n);
            if claim.is_ok() {
                sessions.push((sid, n));
                h.extend_from_slice(rows);
            }
            claims.push(claim.map(|()| n));
        }
        if !sessions.is_empty() {
            self.forward_rows(device, &sessions, &mut h);
        }
        let mut out = h.into_iter();
        claims
            .into_iter()
            .map(|c| c.map(|n| out.by_ref().take(n * hidden).collect()))
            .collect()
    }

    /// [`PagedDecoder::forward`] of one session's rows (`tokens`,
    /// `[len ≥ 1, hidden]`), returned one row per token.
    ///
    /// # Errors
    /// Returns [`KvOom`] when the pool cannot hold `len` more tokens; the
    /// session is unchanged.
    ///
    /// # Panics
    /// As [`PagedDecoder::forward`], or if `tokens` is not two-dimensional.
    pub fn prefill(&mut self, device: &Device, sid: SessionId, tokens: &Tensor) -> Result<Vec<Vec<f32>>, KvOom> {
        let hidden = self.decoder.config.hidden();
        assert!(
            matches!(tokens.dims(), &[_, h] if h == hidden),
            "prompt must be [len, hidden]"
        );
        let out = self
            .forward(device, &[(sid, tokens.as_slice())])
            .pop()
            .expect("one output per input")?;
        Ok(out.chunks(hidden).map(<[f32]>::to_vec).collect())
    }

    /// Runs token rows (flattened in `h`, `[rows, hidden]`) through every
    /// layer. `sessions` pairs each session with its count of rows —
    /// consecutive in `h`, in order — which are its newest, already appended
    /// tokens. Prompts, prompt chunks and decode tokens, in any mix, flow
    /// through here in one pass, so the paths cannot diverge numerically.
    ///
    /// This is the decoder layer: six row-wise GEMMs over all rows, bias and
    /// GELU in the FFN up-projection's epilogue, a fused add-bias, residual
    /// and LayerNorm closing each sub-layer (§III.C), and one rows launch
    /// per attention — `paged.attn.rows` stores the rows' self K/V in their
    /// block-table slots and reads every key through the tables, and
    /// `paged.cross.rows` reads the per-session memory planes.
    fn forward_rows(&mut self, device: &Device, sessions: &[(SessionId, usize)], h: &mut Vec<f32>) {
        let decoder = self.decoder;
        let config = decoder.config;
        let (hidden, heads, scale) = (config.hidden(), config.heads, config.attention_scale());
        let r = h.len() / hidden;
        DECODE_ROWS.add(r as u64);

        // Each row's cache slot; every session's query rows and key count
        // over its cache and over its memory; and every session's token rows
        // in a layer's block storage, consecutively.
        let slots: Vec<(SessionId, usize)> = sessions
            .iter()
            .flat_map(|&(sid, n)| {
                let len = self.cache.len(sid);
                (len - n..len).map(move |pos| (sid, pos))
            })
            .collect();
        let (cache, cross_kv) = (&mut self.cache, &self.cross_kv);
        let cross_planes = |sid: SessionId| &cross_kv[sid.index()].as_ref().expect("session open")[..];
        let self_units: Vec<(usize, usize)> = sessions.iter().map(|&(sid, n)| (n, cache.len(sid))).collect();
        let cross_units: Vec<(usize, usize)> = sessions
            .iter()
            .map(|&(sid, n)| (n, cross_planes(sid)[0].0.len() / hidden))
            .collect();
        let mut token_rows = Vec::new();
        for &(sid, _) in sessions {
            cache.extend_rows(sid, &mut token_rows);
        }
        let tensor = |data: Vec<f32>, cols: usize| Tensor::from_vec(data, [r, cols]).expect("shape consistent");
        let gemm = |name: &str, a: &[f32], weight: &PackedB| launch_gemm(device, name, a, r, weight, None);
        let add_layernorm =
            |name: &str, out: &mut [f32], residual: &[f32], bias: &[f32], gamma: &[f32], beta: &[f32]| {
                add_bias_residual_layernorm_fused(
                    device, name, out, residual, bias, gamma, beta, config.eps, r, hidden,
                );
            };

        for (layer, w) in decoder.weights.layers.iter().enumerate() {
            // Each attention's operands live in its own block, so they are
            // freed before the next GEMM allocates: the peak live set of a
            // layer holds one attention's Q / K / V at a time.
            let sa = {
                let qkv = gemm("paged.self_qkv", h, &w.self_qkv_weight);
                let (q, k, v) =
                    add_bias_split_qkv_packed(device, &tensor(qkv, 3 * hidden), &w.self_qkv_bias, heads, scale);
                let cache = &mut *cache;
                session_rows(device, "paged.attn.rows", &q, &self_units, KeyRange::Causal, r, || {
                    for (row, &(sid, pos)) in slots.iter().enumerate() {
                        cache.write(layer, sid, pos, k.as_slice(), v.as_slice(), row);
                    }
                    let cache: &PagedKvCache = cache;
                    let mut rest = &token_rows[..];
                    self_units
                        .iter()
                        .map(|&(_, n)| {
                            let rows;
                            (rows, rest) = rest.split_at(n);
                            cache.blocks(layer, rows)
                        })
                        .collect()
                })
            };
            let mut attn = gemm("paged.self_proj", sa.as_slice(), &w.self_out_weight);
            add_layernorm(
                "paged.layernorm0",
                &mut attn,
                h,
                &w.self_out_bias,
                &w.ln0_gamma,
                &w.ln0_beta,
            );

            let ca = {
                let cq = gemm("paged.cross_q", &attn, &w.cross_q_weight);
                let cq = add_bias_split_heads_packed(
                    device,
                    "paged.cross_q",
                    &tensor(cq, hidden),
                    &w.cross_q_bias,
                    heads,
                    scale,
                );
                session_rows(device, "paged.cross.rows", &cq, &cross_units, KeyRange::Full, 0, || {
                    sessions
                        .iter()
                        .map(|&(sid, _)| {
                            let (k, v) = &cross_planes(sid)[layer];
                            let plane = k.len() / heads;
                            SessionKv::Planes { k, v, plane }
                        })
                        .collect()
                })
            };
            let mut cattn = gemm("paged.cross_proj", ca.as_slice(), &w.cross_out_weight);
            add_layernorm(
                "paged.layernorm1",
                &mut cattn,
                &attn,
                &w.cross_out_bias,
                &w.ln1_gamma,
                &w.ln1_beta,
            );

            let ffn = launch_gemm(
                device,
                "paged.ffn_up",
                &cattn,
                r,
                &w.ffn_up_weight,
                Some(&bias_gelu_epilogue(&w.ffn_up_bias)),
            );
            let mut out = gemm("paged.ffn_down", &ffn, &w.ffn_down_weight);
            add_layernorm(
                "paged.layernorm2",
                &mut out,
                &cattn,
                &w.ffn_down_bias,
                &w.ln2_gamma,
                &w.ln2_beta,
            );
            *h = out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BertConfig;
    use crate::incremental::DecoderSession;
    use bt_device::CostModel;

    fn device() -> Device {
        Device::with_model(CostModel::unit())
    }

    /// Documented tolerance of the paged path vs the contiguous cache: the
    /// GEMM microkernels and the tiled softmax contract in a different order
    /// than the scalar attention loops (same bound as teacher-forcing vs
    /// incremental).
    const TOL: f32 = 5e-3;

    #[test]
    fn batched_decode_matches_contiguous_sessions() {
        let config = BertConfig::tiny();
        let decoder = TransformerDecoder::new_random(config, 2, 7);
        let hidden = config.hidden();
        let dev = device();
        let mem_lens = [4usize, 3, 5];
        let memories: Vec<Tensor> = mem_lens
            .iter()
            .enumerate()
            .map(|(i, &l)| Tensor::randn([l, hidden], 20 + i as u64))
            .collect();

        let mut paged = PagedDecoder::new(&decoder, PagedLayout::new(4, 32));
        let ids: Vec<SessionId> = memories.iter().map(|m| paged.open_session(&dev, m)).collect();
        let mut reference: Vec<DecoderSession<'_>> = memories
            .iter()
            .map(|m| DecoderSession::new(&decoder, &dev, m))
            .collect();

        let steps = 6;
        let inputs: Vec<Tensor> = (0..memories.len())
            .map(|i| Tensor::randn([steps, hidden], 40 + i as u64))
            .collect();
        for t in 0..steps {
            let mut flat = Vec::with_capacity(ids.len() * hidden);
            for inp in &inputs {
                flat.extend_from_slice(&inp.as_slice()[t * hidden..(t + 1) * hidden]);
            }
            let rows: Vec<(SessionId, &[f32])> = ids.iter().copied().zip(flat.chunks(hidden)).collect();
            let out = paged.forward(&dev, &rows);
            for (s, session) in reference.iter_mut().enumerate() {
                let want = session.step(&dev, &inputs[s].as_slice()[t * hidden..(t + 1) * hidden]);
                let got = out[s].as_ref().expect("pool sized to fit");
                for (d, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        (g - w).abs() < TOL,
                        "step {t}, session {s}, dim {d}: paged {g} vs contiguous {w}"
                    );
                }
            }
        }
        for &sid in &ids {
            assert_eq!(paged.session_len(sid), steps);
        }
    }

    #[test]
    fn prefill_matches_step_by_step() {
        let config = BertConfig::tiny();
        let decoder = TransformerDecoder::new_random(config, 2, 9);
        let hidden = config.hidden();
        let dev = device();
        let memory = Tensor::randn([4, hidden], 5);
        let prompt_len = 5;
        let prompt = Tensor::randn([prompt_len, hidden], 6);

        let mut a = PagedDecoder::new(&decoder, PagedLayout::new(2, 16));
        let sa = a.open_session(&dev, &memory);
        let prefilled = a.prefill(&dev, sa, &prompt).unwrap();

        let mut b = PagedDecoder::new(&decoder, PagedLayout::new(2, 16));
        let sb = b.open_session(&dev, &memory);
        for (i, row) in prompt.as_slice().chunks(hidden).enumerate() {
            let out = b.forward(&dev, &[(sb, row)]);
            assert_eq!(&prefilled[i], out[0].as_ref().unwrap(), "token {i}");
        }
    }

    #[test]
    fn block_size_is_memory_layout_not_math() {
        let config = BertConfig::tiny();
        let decoder = TransformerDecoder::new_random(config, 2, 11);
        let hidden = config.hidden();
        let dev = device();
        let memory = Tensor::randn([3, hidden], 8);
        let prompt = Tensor::randn([7, hidden], 9);

        let mut outs: Vec<Vec<Vec<f32>>> = Vec::new();
        for block_tokens in [1usize, 3, 16] {
            let mut d = PagedDecoder::new(&decoder, PagedLayout::new(block_tokens, 64));
            let sid = d.open_session(&dev, &memory);
            outs.push(d.prefill(&dev, sid, &prompt).unwrap());
        }
        for alt in &outs[1..] {
            assert_eq!(&outs[0], alt, "outputs must be bitwise invariant to block size");
        }
    }

    #[test]
    fn cache_oom_is_explicit_and_partial_steps_survive() {
        let config = BertConfig::tiny();
        let decoder = TransformerDecoder::new_random(config, 1, 13);
        let hidden = config.hidden();
        let dev = device();
        // 3 blocks × 2 tokens: room for 6 tokens total.
        let mut paged = PagedDecoder::new(&decoder, PagedLayout::new(2, 3));
        let memory = Tensor::randn([2, hidden], 3);
        let a = paged.open_session(&dev, &memory);
        let b = paged.open_session(&dev, &memory);

        // Oversized prefill fails all-or-nothing.
        let big = Tensor::randn([7, hidden], 4);
        let err = paged.prefill(&dev, a, &big).unwrap_err();
        assert_eq!(err.needed_blocks, 4);
        assert_eq!(paged.session_len(a), 0, "failed prefill leaves nothing behind");

        paged.prefill(&dev, a, &Tensor::randn([3, hidden], 5)).unwrap(); // 2 blocks
        paged.prefill(&dev, b, &Tensor::randn([2, hidden], 6)).unwrap(); // 1 block

        // a has a slot left in its tail block; b needs a new block and pool
        // is empty → b sheds, a still decodes.
        let mut flat = vec![0.0f32; 2 * hidden];
        flat[0] = 0.5;
        let out = paged.forward(&dev, &[(a, &flat[..hidden]), (b, &flat[hidden..])]);
        assert!(out[0].is_ok(), "session with tail-block room proceeds");
        assert!(out[1].is_err(), "session without capacity is refused");
        assert_eq!(paged.session_len(b), 2, "a refused session is unchanged");

        // Freeing b returns its block; b's slot is gone but a keeps going.
        assert_eq!(paged.free_session(b), 1);
        assert_eq!(paged.cache().pool().free_blocks(), 1);
        assert!(paged.forward(&dev, &[(a, &flat[..hidden])])[0].is_ok());
        assert_eq!(paged.session_len(a), 5);
        assert!(paged.cache().pool().oom_events() >= 2);
    }

    #[test]
    fn token_rows_walk_block_tables() {
        let mut cache = PagedKvCache::new(PagedLayout::new(2, 8), 1, 2, 2);
        let s = cache.create();
        cache.append(s, 5).unwrap();
        for pos in 0..5 {
            let row: Vec<f32> = (0..4).map(|d| (pos * 10 + d) as f32).collect();
            let neg: Vec<f32> = row.iter().map(|v| -v).collect();
            // One row is a `[heads, 1, head]` plane.
            cache.write(0, s, pos, &row, &neg, 0);
        }
        let mut rows = Vec::new();
        cache.extend_rows(s, &mut rows);
        assert_eq!(rows.len(), 5);
        let SessionKv::Blocks { k, v, rows } = cache.blocks(0, &rows) else {
            panic!("a session's K/V lie in the blocks");
        };
        // heads=2, head=2: token `pos`, head `h` at `rows[pos] + h * 2`.
        for (pos, &at) in rows.iter().enumerate() {
            for hd in 0..4 {
                let want = (pos * 10 + hd) as f32;
                assert_eq!(k[at + hd], want);
                assert_eq!(v[at + hd], -want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_session_in_step_panics() {
        let config = BertConfig::tiny();
        let decoder = TransformerDecoder::new_random(config, 1, 15);
        let dev = device();
        let mut paged = PagedDecoder::new(&decoder, PagedLayout::default());
        let memory = Tensor::randn([2, config.hidden()], 1);
        let s = paged.open_session(&dev, &memory);
        let row = vec![0.0f32; config.hidden()];
        paged.forward(&dev, &[(s, &row), (s, &row)]);
    }
}
