//! Chunking is a schedule: the serving loops split work into pieces, and
//! this suite proves the pieces compute **bitwise** what the whole does —
//! not "close", identical.
//!
//! The zero-padding design computes every packed row independently of which
//! other rows share its launch. Two serving paths rely on that:
//!
//! * `run_decode_loop`'s chunked prefill hands a prompt to the paged
//!   decoder a chunk at a time, each chunk one input of its step's
//!   [`PagedDecoder::forward`] resuming at the session's cached length.
//!   Proven here through the one-session wrapper [`PagedDecoder::prefill`]:
//!   prefill in pieces of 1 / 3 / 64 rows ≡ one whole prefill, at every
//!   precision, on a 7-row prompt (inside one 64-key softmax tile) and on a
//!   160-row prompt (three key tiles: at 3 the chunk edges fall inside
//!   tiles, at 64 they line up with them).
//! * `Server`'s chunk rounds (`plan_rounds`) run a cut batch as sub-batches
//!   of whole requests through [`BertModel::forward`]. Proven here:
//!   sub-batches of 1 / 3 / 64 sequences ≡ one batch, although the padded
//!   geometry of each sub-batch differs from the whole batch's. One MHA
//!   kernel (Algorithm III.1, tiled) serves every length; short sequences
//!   and sequences past `FUSED_SHORT_MAX_SEQ` are each covered. Proven
//!   through `run_open_loop` too, on a cut of 390 / 5 / 120 tokens: every
//!   round is bitwise the whole cut, whether the executor pads it to the
//!   cut's width as the server hands it over or re-pads it to the round's
//!   own longest request. The same holds from token ids: the packed
//!   embedding and the packed encoder layers on sub-batches ≡ one batch.
//!
//! Every equivalence runs on **every** `BYTE_GEMM_ISA` tier the host
//! supports; tiers it lacks are skipped with a logged reason, never
//! silently. Within a tier the comparison is bitwise unconditionally.
//! Across tiers the whole-input outputs are compared bitwise when the tiers
//! share a contraction mode ([`MicroKernel::fused_fma`]) and within the
//! documented `5e-3` otherwise — the same discipline as
//! `tests/differential_decode.rs`. Three proptests add random splits on the
//! active tier: two `prefill` calls at a random split ≡ one, and a batch
//! forwarded — from hidden states or from token ids — as two sub-batches at
//! a random split ≡ one batch.
//!
//! [`MicroKernel::fused_fma`]: bt_gemm::micro::MicroKernel::fused_fma
//! [`PagedDecoder::prefill`]: bt_core::paged::PagedDecoder::prefill

use bt_core::attention::FUSED_SHORT_MAX_SEQ;
use bt_core::embeddings::{embed_packed, EmbeddingWeights};
use bt_core::paged::PagedDecoder;
use bt_frameworks::admission::CutPolicy;
use bt_frameworks::server::{run_open_loop, ServeConfig};
use bt_frameworks::serving::TimedRequest;
use bt_gemm::isa::{self, Isa};
use bt_gemm::{active_precision, set_active_precision, Precision};
use bt_varlen::paged::PagedLayout;
use bytetransformer::prelude::*;
use bytetransformer::tensor::rng::Xoshiro256StarStar;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes the tier-flipping harness: the active tier is process-wide.
static ISA_LOCK: Mutex<()> = Mutex::new(());

/// Cross-tier tolerance when contraction orders differ (same bound the
/// decode differential suite documents). Within a tier chunking is always
/// bitwise; this only bounds scalar-vs-SIMD drift of the payload.
const TOL: f32 = 5e-3;

/// Single row, ragged small, and one 64-key softmax tile (larger than the
/// short inputs, so there it degenerates to the whole path).
const CHUNK_SIZES: [usize; 3] = [1, 3, 64];

/// One layout for every prefill here: 4-token blocks, room for 256 tokens.
const LAYOUT: PagedLayout = PagedLayout {
    block_tokens: 4,
    pool_blocks: 64,
};

fn device() -> Device {
    Device::with_model(CostModel::unit())
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Runs `case` once per available tier, scalar first as the reference, and
/// logs (never silently drops) unavailable tiers. Pins f32 precision so a
/// `BYTE_GEMM_PREC` selection doesn't reroute through the low-precision
/// kernels. `case` asserts pieces == whole bitwise internally and returns
/// the whole-input outputs as the cross-tier payload.
fn on_every_tier(label: &str, case: impl Fn() -> Vec<f32>) {
    let _g = ISA_LOCK.lock().unwrap();
    let prev = bt_gemm::active_isa();
    let prev_prec = active_precision();
    set_active_precision(Precision::F32);
    let available = bt_gemm::available_isas();
    for tier in Isa::ALL {
        if !available.contains(&tier) {
            eprintln!("differential_streaming: {label}: skipping {tier} — not supported on this host");
        }
    }
    bt_gemm::set_active_isa(Isa::Scalar).unwrap();
    let reference = case();
    let scalar_fused = isa::kernel_for(Isa::Scalar).unwrap().fused_fma;
    for &tier in available.iter().filter(|&&t| t != Isa::Scalar) {
        bt_gemm::set_active_isa(tier).unwrap();
        let got = case();
        assert_eq!(reference.len(), got.len(), "{label} [{tier}]: payload lengths differ");
        let same = isa::kernel_for(tier).unwrap().fused_fma == scalar_fused;
        for (i, (r, g)) in reference.iter().zip(&got).enumerate() {
            if same {
                assert!(
                    r.to_bits() == g.to_bits(),
                    "{label} [{tier}][{i}]: scalar {r:?} != {tier} {g:?} (bitwise)"
                );
            } else {
                assert!(
                    (r - g).abs() < TOL,
                    "{label} [{tier}][{i}]: scalar {r} vs {tier} {g} exceeds tolerance"
                );
            }
        }
    }
    bt_gemm::set_active_isa(prev).unwrap();
    set_active_precision(prev_prec);
}

/// Start of every piece when `total` items are cut every `chunk` items.
fn every(chunk: usize, total: usize) -> Vec<usize> {
    (chunk..total).step_by(chunk).collect()
}

/// Prefills `prompt` into a fresh session, one [`PagedDecoder::prefill`]
/// call per piece between consecutive `cuts` (no cuts: one whole call), and
/// returns every prompt row's output, flattened in order.
fn prefill_pieces(
    dev: &Device,
    decoder: &TransformerDecoder,
    memory: &Tensor,
    prompt: &Tensor,
    cuts: &[usize],
) -> Vec<f32> {
    let (total, hidden) = (prompt.dims()[0], prompt.dims()[1]);
    let mut paged = PagedDecoder::new(decoder, LAYOUT);
    let sid = paged.open_session(dev, memory);
    let mut out = Vec::with_capacity(total * hidden);
    let mut start = 0;
    for end in cuts.iter().copied().chain([total]) {
        let rows = Tensor::from_vec(
            prompt.as_slice()[start * hidden..end * hidden].to_vec(),
            [end - start, hidden],
        )
        .unwrap();
        out.extend(paged.prefill(dev, sid, &rows).unwrap().concat());
        start = end;
    }
    assert_eq!(paged.session_len(sid), total);
    out
}

/// Forwards `seqs` (packed `[len, hidden]` rows each) as zero-padded
/// sub-batches split at `cuts` (no cuts: one batch) and returns every valid
/// output row, flattened in sequence order.
fn forward_sub_batches(dev: &Device, model: &BertModel, seqs: &[Tensor], cuts: &[usize]) -> Vec<f32> {
    let hidden = model.config.hidden();
    let mut out = Vec::new();
    let mut start = 0;
    for end in cuts.iter().copied().chain([seqs.len()]) {
        let sub = &seqs[start..end];
        let lens: Vec<usize> = sub.iter().map(|s| s.dims()[0]).collect();
        let max = lens.iter().copied().max().unwrap();
        let mut padded = vec![0.0f32; sub.len() * max * hidden];
        for (b, s) in sub.iter().enumerate() {
            padded[b * max * hidden..][..s.numel()].copy_from_slice(s.as_slice());
        }
        let input = Tensor::from_vec(padded, [sub.len(), max, hidden]).unwrap();
        let mask = BatchMask::from_lens(lens.clone(), max).unwrap();
        let y = model.forward(dev, &input, &mask, OptLevel::FusedMha).unwrap();
        for (b, &len) in lens.iter().enumerate() {
            out.extend_from_slice(&y.as_slice()[b * max * hidden..][..len * hidden]);
        }
        start = end;
    }
    out
}

/// Token ids and segment ids of one request.
type Tokens = (Vec<u32>, Vec<u32>);

/// Random token and segment ids for sequences of `lens`.
fn random_tokens(lens: &[usize], vocab: usize, seed: u64) -> Vec<Tokens> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    lens.iter()
        .map(|&len| {
            let ids = (0..len).map(|_| rng.below(vocab as u64) as u32).collect();
            let segments = (0..len).map(|_| rng.below(2) as u32).collect();
            (ids, segments)
        })
        .collect()
}

/// Embeds `seqs` straight into the packed layout and runs the packed
/// encoder layers, as zero-padded sub-batches split at `cuts` (no cuts: one
/// batch); returns every packed output row, flattened in sequence order.
fn embed_forward_sub_batches(
    dev: &Device,
    model: &BertModel,
    weights: &EmbeddingWeights,
    seqs: &[Tokens],
    cuts: &[usize],
) -> Vec<f32> {
    let mut out = Vec::new();
    let mut start = 0;
    for end in cuts.iter().copied().chain([seqs.len()]) {
        let sub = &seqs[start..end];
        let lens: Vec<usize> = sub.iter().map(|(ids, _)| ids.len()).collect();
        let max = lens.iter().copied().max().unwrap();
        let (mut ids, mut segments) = (vec![0u32; sub.len() * max], vec![0u32; sub.len() * max]);
        for (b, (i, s)) in sub.iter().enumerate() {
            ids[b * max..][..i.len()].copy_from_slice(i);
            segments[b * max..][..s.len()].copy_from_slice(s);
        }
        let idx = PackingIndex::from_mask(&BatchMask::from_lens(lens, max).unwrap());
        let mut x = embed_packed(dev, &ids, &segments, &idx, weights).unwrap();
        for w in &model.weights.layers {
            x = model.layer_forward_packed(dev, &x, w, &idx, OptLevel::FusedMha);
        }
        out.extend_from_slice(x.as_slice());
        start = end;
    }
    out
}

/// Prefill in pieces of 1 / 3 / 64 rows vs one whole prefill, per tier and
/// at every precision; the f32 whole prefill is the cross-tier payload (a
/// low-precision GEMM's bits legitimately differ from tier to tier).
fn prefill_case(len: usize, seed: u64) {
    let config = BertConfig::tiny();
    let decoder = TransformerDecoder::new_random(config, 2, 17);
    let hidden = config.hidden();
    let memory = Tensor::randn([3, hidden], 5);
    let prompt = Tensor::randn([len, hidden], seed);
    on_every_tier(&format!("prefill_{len}"), || {
        let dev = device();
        let mut payload = Vec::new();
        for prec in Precision::ALL {
            set_active_precision(prec);
            let whole = prefill_pieces(&dev, &decoder, &memory, &prompt, &[]);
            for chunk in CHUNK_SIZES {
                let pieces = prefill_pieces(&dev, &decoder, &memory, &prompt, &every(chunk, len));
                assert_eq!(
                    bits(&pieces),
                    bits(&whole),
                    "{len}-row prompt in pieces of {chunk} diverged from whole prefill on {} at {prec}",
                    bt_gemm::active_isa()
                );
            }
            if prec == Precision::F32 {
                payload = whole;
            }
        }
        set_active_precision(Precision::F32);
        payload
    });
}

/// A 7-row prompt: every piece sits inside one 64-key tile.
#[test]
fn prefill_in_pieces_matches_whole_bitwise_on_every_tier() {
    prefill_case(7, 9);
}

/// A 160-row prompt spanning three key tiles: pieces of 3 put chunk edges
/// inside tiles, pieces of 64 line them up with tile edges.
#[test]
fn prefill_across_key_tiles_matches_whole_bitwise_on_every_tier() {
    prefill_case(160, 10);
}

/// Sub-batches of whole sequences vs one batch, per tier: seven short
/// sequences in sub-batches of 1 / 3 / 64, and the long-sequence case, two
/// sequences past [`FUSED_SHORT_MAX_SEQ`] one per sub-batch (with two
/// sequences the only real split). The MHA kernel is the same at every
/// length, and a sub-batch's narrower padded width changes no valid row.
#[test]
fn sub_batches_match_one_batch_bitwise_on_every_tier() {
    let config = BertConfig::tiny();
    let model = BertModel::new_random(config, 2, 42);
    let hidden = config.hidden();
    let long = FUSED_SHORT_MAX_SEQ;
    for (label, lens, chunks) in [
        ("short", vec![37usize, 5, 120, 1, 64, 9, 200], &CHUNK_SIZES[..]),
        ("long", vec![long + 6, long + 70], &[1][..]),
    ] {
        let seqs: Vec<Tensor> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| Tensor::randn([l, hidden], 13 + i as u64))
            .collect();
        on_every_tier(&format!("sub_batches_{label}"), || {
            let dev = device();
            let whole = forward_sub_batches(&dev, &model, &seqs, &[]);
            for &chunk in chunks {
                let pieces = forward_sub_batches(&dev, &model, &seqs, &every(chunk, seqs.len()));
                assert_eq!(
                    bits(&pieces),
                    bits(&whole),
                    "{label} batch in sub-batches of {chunk} diverged from one batch on {}",
                    bt_gemm::active_isa()
                );
            }
            whole
        });
    }
}

/// The server's chunk rounds compute the whole cut's bits: one cut of 390 /
/// 5 / 120 tokens (the long-sequence case, one request past
/// [`FUSED_SHORT_MAX_SEQ`]) served whole, in rounds of 5 + 120 and 390
/// tokens, and one request per round, through `run_open_loop`, every
/// request's rows drawn from its length. The executor forwards each round
/// under the mask it is handed (padded to the cut's width) and, as
/// `admission::batch_mask` states, under that mask re-padded to the round's
/// own longest request: each request's output bits are the whole cut's in
/// every schedule and at both widths.
#[test]
fn chunk_rounds_match_the_whole_cut_bitwise_on_every_tier() {
    let config = BertConfig::tiny();
    let model = BertModel::new_random(config, 2, 42);
    let hidden = config.hidden();
    let lens = [FUSED_SHORT_MAX_SEQ + 6, 5, 120];
    let requests: Vec<TimedRequest> = lens
        .iter()
        .enumerate()
        .map(|(id, &len)| TimedRequest { id, len, arrival: 0.0 })
        .collect();
    on_every_tier("chunk_rounds", || {
        let dev = device();
        // Every request's output rows, by length, under one chunk budget;
        // each round padded to the cut's width, or re-padded to its own
        // longest request.
        let serve = |chunk_tokens: usize, repad: bool| -> Vec<Vec<f32>> {
            let serve_config = ServeConfig {
                policy: CutPolicy::Fifo { max_batch: lens.len() },
                queue_capacity: lens.len(),
                deadline: f64::INFINITY,
                max_len: FUSED_SHORT_MAX_SEQ + 6,
                chunk_tokens,
            };
            let mut outputs = vec![Vec::new(); lens.len()];
            let report = run_open_loop(&requests, &serve_config, |handed| {
                let own = *handed.seq_lens().iter().max().unwrap();
                let repadded = BatchMask::from_lens(handed.seq_lens().to_vec(), own).unwrap();
                let mask = if repad { &repadded } else { handed };
                let max = mask.max_seq_len();
                let mut padded = vec![0.0f32; mask.batch() * max * hidden];
                for (b, &len) in mask.seq_lens().iter().enumerate() {
                    let rows = Tensor::randn([len, hidden], len as u64);
                    padded[b * max * hidden..][..len * hidden].copy_from_slice(rows.as_slice());
                }
                let input = Tensor::from_vec(padded, [mask.batch(), max, hidden]).unwrap();
                let y = model.forward(&dev, &input, mask, OptLevel::FusedMha).unwrap();
                for (b, &len) in mask.seq_lens().iter().enumerate() {
                    let id = lens.iter().position(|&l| l == len).unwrap();
                    outputs[id] = y.as_slice()[b * max * hidden..][..len * hidden].to_vec();
                }
                1e-3
            });
            assert!(report.outcomes.iter().all(|o| o.served()), "every request is served");
            outputs
        };
        let whole = serve(0, false);
        for (chunk_tokens, repad) in [(1, false), (128, false), (1, true), (128, true)] {
            let rounds = serve(chunk_tokens, repad);
            for (id, (r, w)) in rounds.iter().zip(&whole).enumerate() {
                assert_eq!(
                    bits(r),
                    bits(w),
                    "{}-token request in rounds of {chunk_tokens} tokens (re-padded: {repad}) diverged from the whole cut on {}",
                    lens[id],
                    bt_gemm::active_isa()
                );
            }
        }
        whole.concat()
    });
}

/// Token ids through the packed embedding and the packed encoder layers,
/// as sub-batches of 1 / 3 / 64 whole sequences vs one batch, per tier:
/// positions restart per sequence, so no row depends on its batch-mates.
#[test]
fn embedded_sub_batches_match_one_batch_bitwise_on_every_tier() {
    let config = BertConfig::tiny();
    let model = BertModel::new_random(config, 2, 42);
    let (vocab, max_position) = (30, 256);
    let weights = EmbeddingWeights::new_random(&config, vocab, max_position, 5);
    let seqs = random_tokens(&[37, 5, 120, 1, 64, 9, 200], vocab, 6);
    on_every_tier("embedded_sub_batches", || {
        let dev = device();
        let whole = embed_forward_sub_batches(&dev, &model, &weights, &seqs, &[]);
        for chunk in CHUNK_SIZES {
            let pieces = embed_forward_sub_batches(&dev, &model, &weights, &seqs, &every(chunk, seqs.len()));
            assert_eq!(
                bits(&pieces),
                bits(&whole),
                "embedded batch in sub-batches of {chunk} diverged from one batch on {}",
                bt_gemm::active_isa()
            );
        }
        whole
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two `prefill` calls at a random split ≡ one call, for prompts that
    /// may span several key tiles.
    #[test]
    fn prop_prefill_split_anywhere_is_bitwise(
        len in 2usize..160,
        split_pick in 0usize..1000,
        seed in 0u64..1000,
    ) {
        let _g = ISA_LOCK.lock().unwrap();
        let split = 1 + split_pick % (len - 1);
        let config = BertConfig::tiny();
        let decoder = TransformerDecoder::new_random(config, 1, 23);
        let dev = device();
        let memory = Tensor::randn([2, config.hidden()], seed);
        let prompt = Tensor::randn([len, config.hidden()], seed + 1);
        let whole = prefill_pieces(&dev, &decoder, &memory, &prompt, &[]);
        let split_run = prefill_pieces(&dev, &decoder, &memory, &prompt, &[split]);
        prop_assert_eq!(bits(&split_run), bits(&whole), "split at {} of {}", split, len);
    }

    /// A batch forwarded as two sub-batches at a random split ≡ one batch.
    #[test]
    fn prop_sub_batch_split_anywhere_is_bitwise(
        lens in proptest::collection::vec(1usize..130, 2..6),
        split_pick in 0usize..1000,
        seed in 0u64..1000,
    ) {
        let _g = ISA_LOCK.lock().unwrap();
        let split = 1 + split_pick % (lens.len() - 1);
        let config = BertConfig::tiny();
        let model = BertModel::new_random(config, 1, 42);
        let dev = device();
        let seqs: Vec<Tensor> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| Tensor::randn([l, config.hidden()], seed + i as u64))
            .collect();
        let whole = forward_sub_batches(&dev, &model, &seqs, &[]);
        let split_run = forward_sub_batches(&dev, &model, &seqs, &[split]);
        prop_assert_eq!(bits(&split_run), bits(&whole), "lens {:?} split at {}", lens, split);
    }

    /// Token ids embedded and encoded as two sub-batches at a random split
    /// ≡ one batch.
    #[test]
    fn prop_embedded_sub_batch_split_anywhere_is_bitwise(
        lens in proptest::collection::vec(1usize..130, 2..6),
        split_pick in 0usize..1000,
        seed in 0u64..1000,
    ) {
        let _g = ISA_LOCK.lock().unwrap();
        let split = 1 + split_pick % (lens.len() - 1);
        let config = BertConfig::tiny();
        let model = BertModel::new_random(config, 1, 42);
        let weights = EmbeddingWeights::new_random(&config, 30, 130, 5);
        let dev = device();
        let seqs = random_tokens(&lens, 30, seed);
        let whole = embed_forward_sub_batches(&dev, &model, &weights, &seqs, &[]);
        let split_run = embed_forward_sub_batches(&dev, &model, &weights, &seqs, &[split]);
        prop_assert_eq!(bits(&split_run), bits(&whole), "lens {:?} split at {}", lens, split);
    }
}
