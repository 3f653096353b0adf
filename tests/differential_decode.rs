//! Cross-ISA differential harness for the paged decode path.
//!
//! The block-paged KV cache and batched decode step (`bt_core::paged`) must
//! agree with the two independently implemented references on **every**
//! `BYTE_GEMM_ISA` tier:
//!
//! 1. **Teacher-forcing forward** — [`TransformerDecoder::forward`] over the
//!    whole target at once, proved against the padded baseline.
//! 2. **Contiguous incremental cache** — [`DecoderSession`], one private
//!    contiguous cache per sequence.
//! 3. **Paged batched decode** — [`PagedDecoder::step_batch`], many
//!    sessions through one grouped-GEMM pipeline over block-table-indexed
//!    storage.
//!
//! All three run the same weights, so any disagreement beyond the
//! documented contraction-order tolerance (`5e-3`, same bound the
//! incremental-vs-teacher-forcing test documents) is a bug in the cache
//! indirection or the attention unit construction. On top of the per-tier
//! three-way check, each
//! tier's paged output is compared against the scalar tier's: **bitwise**
//! when the tiers share a contraction mode ([`MicroKernel::fused_fma`] —
//! paging adds no ISA-dependent code outside the GEMMs), tolerance
//! otherwise. Block-size invariance and prefill ≡ steps are asserted
//! bitwise *per tier* unconditionally, at every precision: paging and
//! chunking are memory layout and schedule, never math.
//!
//! The row count of a launch also picks the f32 GEMM **driver**
//! (`bt_gemm::SKINNY_MAX_M`: in-place-`B` skinny driver at or below it,
//! packed driver above). The last three tests walk every decode call site
//! across that boundary — `forward_rows` at `r` = 1, 8, crossover,
//! crossover + 1 (prefill and batched step), the contiguous session's
//! `M = 1` GEMVs, and the teacher-forcing decoder's linears — and assert the
//! relations above keep holding, bitwise wherever the two sides run the same
//! arithmetic.
//!
//! The teacher-forcing forward's two attentions run the rows form the paged
//! stack runs, one unit per sequence over the packed planes, so at every
//! length a paged prefill is **bitwise** the forward, and a teacher-forced
//! target's rows are bitwise the same whatever sequences share its batch.
//!
//! Tiers the host lacks are skipped with a logged reason (stderr), never
//! silently: the log always accounts for all tiers.
//!
//! [`MicroKernel::fused_fma`]: bt_gemm::micro::MicroKernel::fused_fma
//! [`DecoderSession`]: bt_core::incremental::DecoderSession
//! [`PagedDecoder::step_batch`]: bt_core::paged::PagedDecoder::step_batch

use bt_core::attention::FUSED_SHORT_MAX_SEQ;
use bt_core::incremental::DecoderSession;
use bt_core::paged::{PagedDecoder, PagedKvCache};
use bt_gemm::isa::{self, Isa};
use bt_gemm::{active_precision, set_active_precision, Precision};
use bt_tensor::Tensor;
use bt_varlen::paged::{PagedLayout, SessionId};
use bt_varlen::BatchMask;
use bytetransformer::prelude::*;
use std::sync::Mutex;

/// Serializes the tier-flipping harness: the active tier is process-wide.
static ISA_LOCK: Mutex<()> = Mutex::new(());

/// Documented tolerance of the paged/incremental paths vs teacher forcing:
/// the grouped microkernel and the attention loops contract in different
/// orders (same bound `bt_core::incremental` documents).
const TOL: f32 = 5e-3;

fn device() -> Device {
    Device::with_model(CostModel::unit())
}

/// Runs `case` once per available tier, scalar first as the reference, and
/// logs (never silently drops) unavailable tiers. Pins f32 precision so a
/// `BYTE_GEMM_PREC` selection doesn't reroute through the low-precision
/// kernels. Cross-tier outputs are compared bitwise when the tiers share a
/// contraction mode, within [`TOL`] otherwise.
fn decode_differential(label: &str, case: impl Fn() -> Vec<f32>) {
    let _g = ISA_LOCK.lock().unwrap();
    let prev = isa::active_isa();
    let prev_prec = active_precision();
    set_active_precision(Precision::F32);
    let available = isa::available_isas();
    for tier in Isa::ALL {
        if !available.contains(&tier) {
            eprintln!("differential_decode: {label}: skipping {tier} — not supported on this host");
        }
    }
    isa::set_active_isa(Isa::Scalar).unwrap();
    let reference = case();
    let scalar_fused = isa::kernel_for(Isa::Scalar).unwrap().fused_fma;
    for &tier in available.iter().filter(|&&t| t != Isa::Scalar) {
        isa::set_active_isa(tier).unwrap();
        let got = case();
        assert_eq!(reference.len(), got.len(), "{label} [{tier}]: output lengths differ");
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
                    "{label} [{tier}][{i}]: scalar {r} vs {tier} {g} exceeds decode tolerance"
                );
            }
        }
    }
    isa::set_active_isa(prev).unwrap();
    set_active_precision(prev_prec);
}

/// Runs `case` at every precision tier, f32 last, and returns the f32
/// run's output as the cross-tier payload; each precision's own bitwise
/// assertions run inside `case`. (Only f32 is compared across ISA tiers: a
/// low-precision GEMM's bits legitimately differ from tier to tier.)
fn at_every_precision(case: impl Fn() -> Vec<f32>) -> Vec<f32> {
    for prec in Precision::ALL.into_iter().filter(|&p| p != Precision::F32) {
        set_active_precision(prec);
        case();
    }
    set_active_precision(Precision::F32);
    case()
}

/// Per-tier three-way check: batched paged decode vs contiguous
/// [`DecoderSession`] vs teacher-forcing [`TransformerDecoder::forward`],
/// per token, on every available tier. The paged outputs are also the
/// harness's cross-tier payload, so tier-to-tier drift is bounded too.
#[test]
fn paged_tracks_contiguous_and_teacher_forcing_on_every_tier() {
    let config = BertConfig::tiny();
    let decoder = TransformerDecoder::new_random(config, 2, 7);
    let hidden = config.hidden();
    let steps = 4;
    let mem_lens = [4usize, 3];
    let memories: Vec<Tensor> = mem_lens
        .iter()
        .enumerate()
        .map(|(i, &l)| Tensor::randn([l, hidden], 20 + i as u64))
        .collect();
    let inputs: Vec<Tensor> = (0..memories.len())
        .map(|i| Tensor::randn([steps, hidden], 40 + i as u64))
        .collect();

    decode_differential("three_way_decode", || {
        let dev = device();

        // Reference 1: teacher-forcing forward per sequence (batch of one).
        let full: Vec<Tensor> = memories
            .iter()
            .zip(&inputs)
            .zip(&mem_lens)
            .map(|((mem, inp), &ml)| {
                let tgt_mask = BatchMask::from_lens(vec![steps], steps).unwrap();
                let mem_mask = BatchMask::from_lens(vec![ml], ml).unwrap();
                let tgt = inp.clone().reshape([1, steps, hidden]).unwrap();
                let memory = mem.clone().reshape([1, ml, hidden]).unwrap();
                decoder.forward(&dev, &tgt, &tgt_mask, &memory, &mem_mask).unwrap()
            })
            .collect();

        // Reference 2: contiguous incremental sessions.
        let mut contiguous: Vec<DecoderSession<'_>> = memories
            .iter()
            .map(|m| DecoderSession::new(&decoder, &dev, m))
            .collect();

        // Subject: batched paged decode, all sessions in one step.
        let mut paged = PagedDecoder::new(&decoder, PagedLayout::new(3, 32));
        let ids: Vec<SessionId> = memories.iter().map(|m| paged.open_session(&dev, m)).collect();

        let mut payload = Vec::new();
        for t in 0..steps {
            let mut flat = Vec::with_capacity(ids.len() * hidden);
            for inp in &inputs {
                flat.extend_from_slice(&inp.as_slice()[t * hidden..(t + 1) * hidden]);
            }
            let out = paged.step_batch(&dev, &ids, &flat);
            assert!(out.oom.is_empty(), "pool sized to fit");
            for (s, session) in contiguous.iter_mut().enumerate() {
                let want = session.step(&dev, &inputs[s].as_slice()[t * hidden..(t + 1) * hidden]);
                let got = out.outputs[s].as_ref().expect("no shed");
                for d in 0..hidden {
                    let teacher = full[s].at(&[0, t, d]).unwrap();
                    assert!(
                        (got[d] - want[d]).abs() < TOL,
                        "step {t}, seq {s}, dim {d}: paged {} vs contiguous {}",
                        got[d],
                        want[d]
                    );
                    assert!(
                        (got[d] - teacher).abs() < TOL,
                        "step {t}, seq {s}, dim {d}: paged {} vs teacher-forcing {teacher}",
                        got[d]
                    );
                }
                payload.extend_from_slice(got);
            }
        }
        payload
    });
}

/// Prefill and token-by-token stepping are the same pipeline at different
/// row counts; they must agree bitwise on every tier and at every precision
/// (the only difference is batch composition inside identical launches:
/// each row's GEMM chains and attention row are the same whatever else
/// shares them, and attention is f32 at every precision).
#[test]
fn prefill_equals_stepping_on_every_tier() {
    let config = BertConfig::tiny();
    let decoder = TransformerDecoder::new_random(config, 2, 9);
    let hidden = config.hidden();
    let memory = Tensor::randn([4, hidden], 5);
    let prompt_len = 5;
    let prompt = Tensor::randn([prompt_len, hidden], 6);

    decode_differential("prefill_vs_steps", || {
        at_every_precision(|| {
            let dev = device();
            let mut a = PagedDecoder::new(&decoder, PagedLayout::new(2, 16));
            let sa = a.open_session(&dev, &memory);
            let prefilled = a.prefill(&dev, sa, &prompt).unwrap();

            let mut b = PagedDecoder::new(&decoder, PagedLayout::new(2, 16));
            let sb = b.open_session(&dev, &memory);
            for (i, row) in prompt.as_slice().chunks(hidden).enumerate() {
                let out = b.step_batch(&dev, &[sb], row);
                assert_bitwise(
                    &format!("token {i} at {}", active_precision()),
                    &prefilled[i],
                    out.outputs[0].as_ref().unwrap(),
                );
            }
            prefilled.into_iter().flatten().collect()
        })
    });
}

/// Block size is memory layout, never math: outputs must be **bitwise**
/// identical across block geometries on every single tier and at every
/// precision — no tolerance, because within one tier the arithmetic
/// sequence is literally the same.
#[test]
fn block_size_invariance_holds_on_every_tier() {
    let config = BertConfig::tiny();
    let decoder = TransformerDecoder::new_random(config, 2, 11);
    let hidden = config.hidden();
    let memory = Tensor::randn([3, hidden], 8);
    let prompt = Tensor::randn([7, hidden], 9);

    decode_differential("block_size_invariance", || {
        at_every_precision(|| {
            let dev = device();
            let mut outs: Vec<Vec<f32>> = Vec::new();
            for block_tokens in [1usize, 3, 16] {
                let mut d = PagedDecoder::new(&decoder, PagedLayout::new(block_tokens, 64));
                let sid = d.open_session(&dev, &memory);
                let rows = d.prefill(&dev, sid, &prompt).unwrap();
                outs.push(rows.into_iter().flatten().collect());
            }
            for (i, alt) in outs[1..].iter().enumerate() {
                let bits_match = outs[0].iter().zip(alt).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(
                    bits_match,
                    "block geometry {i} changed the math on {} at {}",
                    isa::active_isa(),
                    active_precision()
                );
            }
            outs.swap_remove(0)
        })
    });
}

/// OOM→shed behavior is structural, not numeric, but it must be structural
/// on every tier: a refused append sheds exactly the starved session and
/// leaves survivors' outputs untouched relative to a roomy pool.
#[test]
fn oom_shedding_is_tier_invariant() {
    let config = BertConfig::tiny();
    let decoder = TransformerDecoder::new_random(config, 1, 13);
    let hidden = config.hidden();
    let memory = Tensor::randn([2, hidden], 3);
    let prompt_a = Tensor::randn([3, hidden], 5);
    let prompt_b = Tensor::randn([2, hidden], 6);
    let step_input = Tensor::randn([2, hidden], 7);

    decode_differential("oom_shed", || {
        let dev = device();
        // 3 blocks × 2 tokens: a takes 2 blocks (one slot spare), b takes 1.
        let mut tight = PagedDecoder::new(&decoder, PagedLayout::new(2, 3));
        let a = tight.open_session(&dev, &memory);
        let b = tight.open_session(&dev, &memory);
        tight.prefill(&dev, a, &prompt_a).unwrap();
        tight.prefill(&dev, b, &prompt_b).unwrap();
        let out = tight.step_batch(&dev, &[a, b], step_input.as_slice());
        assert!(out.outputs[0].is_some(), "session with tail-block room proceeds");
        assert!(
            out.outputs[1].is_none(),
            "starved session sheds on {}",
            isa::active_isa()
        );
        assert_eq!(out.oom.len(), 1);

        // Same step with a roomy pool: the survivor's token is bitwise the
        // same — shedding a neighbor must not perturb the batch's math.
        let mut roomy = PagedDecoder::new(&decoder, PagedLayout::new(2, 16));
        let ra = roomy.open_session(&dev, &memory);
        let rb = roomy.open_session(&dev, &memory);
        roomy.prefill(&dev, ra, &prompt_a).unwrap();
        roomy.prefill(&dev, rb, &prompt_b).unwrap();
        let full = roomy.step_batch(&dev, &[ra, rb], step_input.as_slice());
        let starved_out = out.outputs[0].as_ref().unwrap();
        let roomy_out = full.outputs[0].as_ref().unwrap();
        // Grouped launches see different problem sets (1 vs 2 sessions), so
        // scheduling differs but each problem's chain is identical.
        for (d, (s, r)) in starved_out.iter().zip(roomy_out).enumerate() {
            assert!(
                s.to_bits() == r.to_bits(),
                "dim {d}: shed neighbor perturbed survivor ({s} vs {r})"
            );
        }
        starved_out.clone()
    });
}

/// Rows on either side of the GEMM driver boundary, plus the two row counts
/// a decode step actually sees.
fn boundary_rows() -> [usize; 4] {
    [1, 8, bt_gemm::SKINNY_MAX_M, bt_gemm::SKINNY_MAX_M + 1]
}

fn assert_bitwise(label: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{label}: lengths differ");
    for (d, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{label}, dim {d} on {}: {g:?} vs {w:?}",
            isa::active_isa()
        );
    }
}

/// `forward_rows` at `r` rows of one session (a prefill of `r` tokens) is
/// **bitwise** the same tokens stepped one at a time (`r = 1`, the skinny
/// driver's GEMV), for `r` on both sides of the driver boundary: each row's
/// GEMM chains and each row's grouped attention problems are the same
/// whatever else shares the launch.
#[test]
fn prefill_rows_across_the_gemm_driver_boundary_equal_single_steps() {
    let config = BertConfig::tiny();
    let decoder = TransformerDecoder::new_random(config, 2, 17);
    let hidden = config.hidden();
    let memory = Tensor::randn([3, hidden], 4);
    let longest = *boundary_rows().iter().max().unwrap();
    let prompt = Tensor::randn([longest, hidden], 5);

    decode_differential("prefill_driver_boundary", || {
        let dev = device();
        let mut stepper = PagedDecoder::new(&decoder, PagedLayout::new(4, longest));
        let sid = stepper.open_session(&dev, &memory);
        let stepped: Vec<Vec<f32>> = prompt
            .as_slice()
            .chunks(hidden)
            .map(|row| {
                let out = stepper.step_batch(&dev, &[sid], row);
                out.outputs[0].clone().expect("pool sized to fit")
            })
            .collect();
        for r in boundary_rows() {
            let mut d = PagedDecoder::new(&decoder, PagedLayout::new(4, longest));
            let s = d.open_session(&dev, &memory);
            let head = Tensor::from_vec(prompt.as_slice()[..r * hidden].to_vec(), [r, hidden]).unwrap();
            let rows = d.prefill(&dev, s, &head).unwrap();
            assert_eq!(rows.len(), r);
            for (i, row) in rows.iter().enumerate() {
                assert_bitwise(&format!("prefill of {r} rows, token {i}"), row, &stepped[i]);
            }
        }
        stepped.into_iter().flatten().collect()
    });
}

/// `forward_rows` at `r` rows of `r` sessions (one batched decode step):
/// every session's token is **bitwise** what the session produces stepping
/// alone, for `r` on both sides of the driver boundary; and the contiguous
/// [`DecoderSession`] (all `M = 1` GEMVs) tracks it within [`TOL`] there as
/// it does at two sessions.
#[test]
fn batched_steps_across_the_gemm_driver_boundary_equal_solo_steps() {
    let config = BertConfig::tiny();
    let decoder = TransformerDecoder::new_random(config, 2, 19);
    let hidden = config.hidden();
    let sessions = *boundary_rows().iter().max().unwrap();
    let steps = 3;
    let memories: Vec<Tensor> = (0..sessions)
        .map(|i| Tensor::randn([2 + i % 3, hidden], 100 + i as u64))
        .collect();
    let inputs: Vec<Tensor> = (0..sessions)
        .map(|i| Tensor::randn([steps, hidden], 300 + i as u64))
        .collect();
    let token = |s: usize, t: usize| &inputs[s].as_slice()[t * hidden..(t + 1) * hidden];

    decode_differential("batch_driver_boundary", || {
        let dev = device();
        // Every session alone: r = 1 launches, paged and contiguous.
        let solo: Vec<Vec<Vec<f32>>> = (0..sessions)
            .map(|s| {
                let mut d = PagedDecoder::new(&decoder, PagedLayout::new(2, 8));
                let sid = d.open_session(&dev, &memories[s]);
                let mut contiguous = DecoderSession::new(&decoder, &dev, &memories[s]);
                (0..steps)
                    .map(|t| {
                        let got = d.step_batch(&dev, &[sid], token(s, t)).outputs[0]
                            .clone()
                            .expect("fits");
                        let want = contiguous.step(&dev, token(s, t));
                        for (dim, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert!(
                                (g - w).abs() < TOL,
                                "session {s}, step {t}, dim {dim}: paged {g} vs contiguous {w}"
                            );
                        }
                        got
                    })
                    .collect()
            })
            .collect();
        for r in boundary_rows() {
            let mut d = PagedDecoder::new(&decoder, PagedLayout::new(2, 4 * sessions));
            let ids: Vec<SessionId> = memories[..r].iter().map(|m| d.open_session(&dev, m)).collect();
            for t in 0..steps {
                let flat: Vec<f32> = (0..r).flat_map(|s| token(s, t).iter().copied()).collect();
                let out = d.step_batch(&dev, &ids, &flat);
                assert!(out.oom.is_empty(), "pool sized to fit");
                for (s, (got, alone)) in out.outputs.iter().zip(&solo).enumerate() {
                    let got = got.as_ref().expect("no shed");
                    assert_bitwise(&format!("{r} sessions, session {s}, step {t}"), got, &alone[t]);
                }
            }
        }
        solo.into_iter().flatten().flatten().collect()
    });
}

/// Teacher forcing ([`TransformerDecoder::forward`], whose linears see one
/// row per target token): a target of crossover + 1 tokens runs its GEMMs on
/// the packed driver, its causal prefixes of 1, 8 and crossover tokens on
/// the skinny one — the shared rows must agree **bitwise**, and so must the
/// paged prefill and the long forward.
#[test]
fn teacher_forcing_prefixes_across_the_gemm_driver_boundary_agree() {
    let config = BertConfig::tiny();
    let decoder = TransformerDecoder::new_random(config, 2, 23);
    let hidden = config.hidden();
    let mem_len = 3;
    let memory = Tensor::randn([mem_len, hidden], 6);
    let longest = *boundary_rows().iter().max().unwrap();
    let target = Tensor::randn([longest, hidden], 7);

    decode_differential("teacher_forcing_driver_boundary", || {
        let dev = device();
        let forward = |t: usize| {
            let tgt_mask = BatchMask::from_lens(vec![t], t).unwrap();
            let mem_mask = BatchMask::from_lens(vec![mem_len], mem_len).unwrap();
            let tgt = Tensor::from_vec(target.as_slice()[..t * hidden].to_vec(), [1, t, hidden]).unwrap();
            let mem = memory.clone().reshape([1, mem_len, hidden]).unwrap();
            let out = decoder.forward(&dev, &tgt, &tgt_mask, &mem, &mem_mask).unwrap();
            out.as_slice()[..t * hidden].to_vec()
        };
        let full = forward(longest);
        for t in boundary_rows() {
            assert_bitwise(
                &format!("teacher-forced prefix of {t}"),
                &forward(t),
                &full[..t * hidden],
            );
        }

        let mut d = PagedDecoder::new(&decoder, PagedLayout::new(4, longest));
        let s = d.open_session(&dev, &memory);
        let rows = d.prefill(&dev, s, &target).unwrap();
        for (i, row) in rows.iter().enumerate() {
            assert_bitwise(
                &format!("paged vs teacher-forced token {i}"),
                row,
                &full[i * hidden..(i + 1) * hidden],
            );
        }
        full
    });
}

/// Both stacks run one attention form, the rows form over one unit per head,
/// and the same split. A paged prefill of `n` tokens over a 9-row memory is
/// then **bitwise** [`TransformerDecoder::forward`] on every tier and at every
/// precision (attention is f32 at every precision), for `n` from one token to
/// past [`FUSED_SHORT_MAX_SEQ`], the paper's short-kernel boundary, and across
/// the skinny/packed GEMM driver boundary.
#[test]
fn paged_prefill_equals_teacher_forcing_at_every_length_on_every_tier() {
    let config = BertConfig::tiny();
    let decoder = TransformerDecoder::new_random(config, 2, 29);
    let hidden = config.hidden();
    let mem_len = 9;
    let memory = Tensor::randn([mem_len, hidden], 8);

    decode_differential("paged_vs_teacher_forcing", || {
        at_every_precision(|| {
            let dev = device();
            let mut payload = Vec::new();
            for n in [
                1,
                7,
                200,
                FUSED_SHORT_MAX_SEQ,
                FUSED_SHORT_MAX_SEQ + 16,
                FUSED_SHORT_MAX_SEQ + 136,
            ] {
                let prompt = Tensor::randn([n, hidden], n as u64);
                let mut paged = PagedDecoder::new(&decoder, PagedLayout::new(16, n.div_ceil(16)));
                let sid = paged.open_session(&dev, &memory);
                let rows: Vec<f32> = paged
                    .prefill(&dev, sid, &prompt)
                    .unwrap()
                    .into_iter()
                    .flatten()
                    .collect();
                let forward = decoder
                    .forward(
                        &dev,
                        &prompt.reshape([1, n, hidden]).unwrap(),
                        &BatchMask::from_lens(vec![n], n).unwrap(),
                        &memory.clone().reshape([1, mem_len, hidden]).unwrap(),
                        &BatchMask::from_lens(vec![mem_len], mem_len).unwrap(),
                    )
                    .unwrap();
                assert_bitwise(
                    &format!("paged prefill of {n} at {}", active_precision()),
                    &rows,
                    forward.as_slice(),
                );
                payload.extend(rows);
            }
            payload
        })
    });
}

/// A teacher-forced target's rows do not depend on its batch-mates: a
/// 200-token target's output is **bitwise** the same alone (padded width
/// 200) and beside a 500-token target (padded width 500), on every tier.
/// Every launch of the forward treats a row (GEMMs, LayerNorms) or a
/// sequence (attention) on its own, whatever the padded width.
#[test]
fn teacher_forced_rows_do_not_depend_on_batch_mates_on_every_tier() {
    let config = BertConfig::tiny();
    let decoder = TransformerDecoder::new_random(config, 2, 37);
    let hidden = config.hidden();
    let (len, mate) = (200, 500);
    let target = Tensor::randn([len, hidden], 9);
    let mate_target = Tensor::randn([mate, hidden], 10);
    let (memory, mate_memory) = (Tensor::randn([9, hidden], 11), Tensor::randn([13, hidden], 12));

    decode_differential("teacher_forcing_batch_mates", || {
        let dev = device();
        let alone = decoder
            .forward(
                &dev,
                &target.clone().reshape([1, len, hidden]).unwrap(),
                &BatchMask::from_lens(vec![len], len).unwrap(),
                &memory.clone().reshape([1, 9, hidden]).unwrap(),
                &BatchMask::from_lens(vec![9], 9).unwrap(),
            )
            .unwrap();
        // Padded `[2, 500, hidden]` target and `[2, 13, hidden]` memory.
        let pad = |rows: &Tensor, width: usize| {
            let mut data = rows.as_slice().to_vec();
            data.resize(width * hidden, 0.0);
            data
        };
        let tgt = [pad(&target, mate), pad(&mate_target, mate)].concat();
        let mem = [pad(&memory, 13), pad(&mate_memory, 13)].concat();
        let paired = decoder
            .forward(
                &dev,
                &Tensor::from_vec(tgt, [2, mate, hidden]).unwrap(),
                &BatchMask::from_lens(vec![len, mate], mate).unwrap(),
                &Tensor::from_vec(mem, [2, 13, hidden]).unwrap(),
                &BatchMask::from_lens(vec![9, 13], 13).unwrap(),
            )
            .unwrap();
        assert_bitwise(
            "200-token target beside a 500-token one vs alone",
            &paired.as_slice()[..len * hidden],
            alone.as_slice(),
        );
        alone.into_vec()
    });
}

/// Every paged attention unit takes the rows form
/// (`bt_core::attention::paged_forms`): Algorithm III.2 as row dots over K/V
/// read in place through the block table, with no gather, no pack and no
/// 64-row tile. Its contract is that it *is* the grouped engine on the same
/// units: per tier, its context is **bitwise** the engine's over the same
/// keys and values packed into planes, for units of 1, 2, 17, 64, 65 and
/// `kv_len` query rows (fewer where a session holds fewer keys, so most
/// launches mix prefill-sized and step-sized units), under bottom-right
/// causal and full keys alike, at key counts on both sides of the 16-lane
/// chain block and the 64-key softmax tile, with head widths on both sides
/// of the 64-column `P·V` block, through block tables fragmented at 1, 3 and
/// 16 tokens per block.
#[test]
fn paged_units_read_in_place_equal_the_grouped_engine_on_every_tier() {
    const KV_LENS: [usize; 9] = [1, 15, 16, 17, 63, 64, 65, 130, 400];
    const Q_LENS: [usize; 6] = [1, 2, 17, 64, 65, usize::MAX];
    let tokens: usize = KV_LENS.iter().sum();
    let mut rng = bytetransformer::tensor::rng::Xoshiro256StarStar::seed_from_u64(31);
    let cases: Vec<_> = [(1usize, 2usize, 64usize), (3, 3, 72), (16, 4, 8)]
        .into_iter()
        .map(|(block_tokens, heads, head)| {
            let layout = PagedLayout::new(block_tokens, tokens.div_ceil(block_tokens) + KV_LENS.len() + 5);
            let mut cache = PagedKvCache::new(layout, 1, heads, head);
            // Sessions grow a block at a time in turns, and a session freed
            // after the first turn hands its blocks back in reverse: every
            // block table interleaves with the others and runs out of order.
            let sids: Vec<SessionId> = KV_LENS.iter().map(|_| cache.create()).collect();
            let scrap = cache.create();
            cache.append(scrap, 5 * block_tokens).unwrap();
            for turn in 0.. {
                let mut grew = false;
                for (&sid, &len) in sids.iter().zip(&KV_LENS) {
                    let n = block_tokens.min(len - cache.len(sid));
                    if n > 0 {
                        cache.append(sid, n).unwrap();
                        grew = true;
                    }
                }
                if turn == 0 {
                    cache.free(scrap);
                }
                if !grew {
                    break;
                }
            }
            // K, V and one query row per key position, packed `[heads,
            // Σ kv_len, head]` session after session; the cache holds the
            // same K/V rows at the sessions' block-table slots.
            let mut draw = |n: usize| -> Tensor {
                let data = (0..heads * n * head).map(|_| rng.uniform(-1.0, 1.0)).collect();
                Tensor::from_vec(data, [heads, n, head]).unwrap()
            };
            let (k, v, q) = (draw(tokens), draw(tokens), draw(tokens));
            let mut kv_off = 0;
            for (&sid, &len) in sids.iter().zip(&KV_LENS) {
                for pos in 0..len {
                    cache.write(0, sid, pos, k.as_slice(), v.as_slice(), kv_off + pos);
                }
                kv_off += len;
            }
            (block_tokens, cache, sids, q, k, v)
        })
        .collect();

    decode_differential("paged_rows_vs_engine", || {
        let mut payload = Vec::new();
        for (block_tokens, cache, sids, q, k, v) in &cases {
            let (heads, head) = (q.dims()[0], q.dims()[2]);
            for q_len in Q_LENS {
                // Each session's queries are the last `q_len` of its key
                // positions, as a prefill chunk's rows are.
                let units: Vec<(SessionId, usize)> = sids
                    .iter()
                    .zip(&KV_LENS)
                    .map(|(&sid, &len)| (sid, q_len.min(len)))
                    .collect();
                let mut q_rows = Vec::new();
                for h in 0..heads {
                    let mut end = 0;
                    for (&(_, n), &len) in units.iter().zip(&KV_LENS) {
                        end += len;
                        q_rows
                            .extend_from_slice(&q.as_slice()[(h * tokens + end - n) * head..(h * tokens + end) * head]);
                    }
                }
                let rows = q_rows.len() / (heads * head);
                let q_units = Tensor::from_vec(q_rows, [heads, rows, head]).unwrap();
                for causal in [true, false] {
                    let (in_place, engine) = bt_core::attention::paged_forms(cache, 0, &q_units, k, v, &units, causal);
                    assert_bitwise(
                        &format!("rows form vs engine, {block_tokens}-token blocks, q_len {q_len}, causal {causal}"),
                        in_place.as_slice(),
                        engine.as_slice(),
                    );
                    payload.extend_from_slice(in_place.as_slice());
                }
            }
        }
        payload
    });
}
