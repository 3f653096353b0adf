//! Integration tests of the decoder extension through the facade: seq2seq
//! forward, incremental sessions, embeddings front-end, and their
//! interactions.
#![allow(clippy::needless_range_loop)] // oracle-style index loops

use bytetransformer::core::embeddings::{embed_packed, embed_padded, EmbeddingWeights};
use bytetransformer::core::incremental::DecoderSession;
use bytetransformer::prelude::*;
use bytetransformer::varlen::workload::masked_randn;

#[test]
fn seq2seq_respects_source_lengths() {
    // Extending the *padding* of the source (same valid tokens, bigger
    // max_seq) must not change the decoder output.
    let config = BertConfig::tiny();
    let model = Seq2SeqTransformer::new_random(config, 1, 1, 3);
    let tgt_mask = BatchMask::from_lens(vec![4], 4).unwrap();
    let tgt = masked_randn(&tgt_mask, config.hidden(), 1);

    let src_small = BatchMask::from_lens(vec![5], 5).unwrap();
    let src_a = masked_randn(&src_small, config.hidden(), 2);
    let src_big = BatchMask::from_lens(vec![5], 9).unwrap();
    let mut src_b = Tensor::zeros([1, 9, config.hidden()]);
    for s in 0..5 {
        for h in 0..config.hidden() {
            src_b.set(&[0, s, h], src_a.at(&[0, s, h]).unwrap()).unwrap();
        }
    }
    let dev = Device::new();
    let out_a = model.forward(&dev, &src_a, &src_small, &tgt, &tgt_mask).unwrap();
    let out_b = model.forward(&dev, &src_b, &src_big, &tgt, &tgt_mask).unwrap();
    for s in 0..4 {
        for h in 0..config.hidden() {
            let a = out_a.at(&[0, s, h]).unwrap();
            let b = out_b.at(&[0, s, h]).unwrap();
            assert!((a - b).abs() < 1e-4, "padding leaked into output at ({s},{h})");
        }
    }
}

#[test]
fn incremental_session_matches_batch_decoder_through_facade() {
    let config = BertConfig::tiny();
    let model = Seq2SeqTransformer::new_random(config, 2, 2, 9);
    let hidden = config.hidden();
    let dev = Device::new();

    // Encode a source and extract the packed memory for one sequence.
    let src_mask = BatchMask::from_lens(vec![6], 6).unwrap();
    let src = masked_randn(&src_mask, hidden, 4);
    let memory = model
        .encoder
        .forward(&dev, &src, &src_mask, OptLevel::FusedMha)
        .unwrap();
    let mem_packed = memory.reshape([6, hidden]).unwrap();

    // Full teacher-forcing decode of a 5-token target.
    let tgt_mask = BatchMask::from_lens(vec![5], 5).unwrap();
    let tgt = masked_randn(&tgt_mask, hidden, 5);
    let full = model
        .decoder
        .forward(
            &dev,
            &tgt,
            &tgt_mask,
            &mem_packed.clone().reshape([1, 6, hidden]).unwrap(),
            &src_mask,
        )
        .unwrap();

    // Incremental session, one token at a time.
    let mut session = DecoderSession::new(&model.decoder, &dev, &mem_packed);
    for s in 0..5 {
        let x: Vec<f32> = (0..hidden).map(|h| tgt.at(&[0, s, h]).unwrap()).collect();
        let step = session.step(&dev, &x);
        for h in 0..hidden {
            let e = full.at(&[0, s, h]).unwrap();
            assert!((step[h] - e).abs() < 5e-3, "step {s} dim {h}: {} vs {e}", step[h]);
        }
    }
}

#[test]
fn embeddings_feed_the_packed_encoder_directly() {
    // ids -> packed embedding -> packed encoder layers == ids -> padded
    // embedding -> padded-input forward, on valid tokens.
    let config = BertConfig::tiny();
    let model = BertModel::new_random(config, 1, 11);
    let vocab = 30;
    let mask = BatchMask::from_lens(vec![4, 7, 2], 8).unwrap();
    let ew = EmbeddingWeights::new_random(&config, vocab, 8, 5);
    let n = mask.padded_words();
    let mut rng = bytetransformer::tensor::rng::Xoshiro256StarStar::seed_from_u64(6);
    let ids: Vec<u32> = (0..n).map(|_| rng.below(vocab as u64) as u32).collect();
    let segments: Vec<u32> = (0..n).map(|_| rng.below(2) as u32).collect();
    let dev = Device::new();

    // Path A: padded embedding into the padded-forward entry point.
    let emb_pad = embed_padded(&dev, &ids, &segments, &mask, &ew).unwrap();
    let out_a = model.forward(&dev, &emb_pad, &mask, OptLevel::FusedMha).unwrap();

    // Path B: packed embedding directly into packed layers, unpacked at end.
    let idx = PackingIndex::from_mask(&mask);
    let emb_packed = embed_packed(&dev, &ids, &segments, &idx, &ew).unwrap();
    let mut x = emb_packed;
    for w in &model.weights.layers {
        x = model.layer_forward_packed(&dev, &x, w, &idx, OptLevel::FusedMha);
    }
    let out_b = idx.unpack(&dev, &x).unwrap();

    for (b, &len) in mask.seq_lens().iter().enumerate() {
        for s in 0..len {
            for h in 0..config.hidden() {
                let a = out_a.at(&[b, s, h]).unwrap();
                let bb = out_b.at(&[b, s, h]).unwrap();
                assert!((a - bb).abs() < 5e-3, "({b},{s},{h}): {a} vs {bb}");
            }
        }
    }
}

#[test]
fn causal_mha_available_from_prelude() {
    // Smoke the prelude exports for the decoder kernels.
    let config = BertConfig::tiny();
    let mask = BatchMask::from_lens(vec![5], 8).unwrap();
    let idx = PackingIndex::from_mask(&mask);
    let q = Tensor::randn([config.heads, 5, config.head_size], 1);
    let k = Tensor::randn([config.heads, 5, config.head_size], 2);
    let v = Tensor::randn([config.heads, 5, config.head_size], 3);
    let dev = Device::new();
    let out = causal_fused_attention(&dev, &q, &k, &v, &idx);
    assert_eq!(out.dims(), &[5, config.hidden()]);
    assert!(out.as_slice().iter().all(|x| x.is_finite()));
}
