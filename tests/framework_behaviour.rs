//! Framework-simulation behaviour: structural properties the paper asserts
//! about each competitor, verified from the launch traces.

use bytetransformer::core::paged::PagedDecoder;
use bytetransformer::frameworks::calibration::FT_FUSED_MHA_MAX_SEQ;
use bytetransformer::prelude::*;
use bytetransformer::varlen::paged::PagedLayout;
use bytetransformer::varlen::workload::masked_randn;
use std::sync::{Mutex, MutexGuard};

/// Serializes this suite's tests: one of them flips the process-wide GEMM
/// precision, which the others' launch costs and pins are priced at.
fn precision_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A test that panics holding it may leave the precision flipped: fail
    // the rest loudly rather than let a pin skip itself.
    LOCK.lock().expect("a test panicked while holding the precision lock")
}

fn setup(lens: &[usize], max_seq: usize, layers: usize) -> (BertModel, Tensor, BatchMask) {
    let config = BertConfig::tiny();
    let model = BertModel::new_random(config, layers, 42);
    let mask = BatchMask::from_lens(lens.to_vec(), max_seq).unwrap();
    let input = masked_randn(&mask, config.hidden(), 7);
    (model, input, mask)
}

#[test]
fn pytorch_runs_the_unfused_padded_chain() {
    let _serial = precision_lock();
    let (model, input, mask) = setup(&[6, 3], 8, 1);
    let fw = SimFramework::new(FrameworkKind::PyTorchJit, model);
    let dev = fw.device(CostModel::a100());
    fw.forward(&dev, &input, &mask).unwrap();
    let names: Vec<String> = dev.trace().iter().map(|r| r.name.clone()).collect();
    assert!(names.iter().any(|n| n.contains("naive.scale")), "separate scale kernel");
    assert!(names.iter().any(|n| n.contains("naive.mask")), "separate mask kernel");
    assert!(names.iter().any(|n| n.contains("layernorm0.norm")), "unfused layernorm");
    assert!(!names.iter().any(|n| n.starts_with("varlen")), "no packing");
}

#[test]
fn faster_transformer_switches_mha_at_512() {
    let _serial = precision_lock();
    let (model, input, mask) = setup(&[100, 60], 100, 1);
    let fw = SimFramework::new(FrameworkKind::FasterTransformer, model.clone());
    let dev = fw.device(CostModel::a100());
    fw.forward(&dev, &input, &mask).unwrap();
    assert!(
        dev.trace().iter().any(|r| r.name.contains("flash")),
        "fused MHA below 512"
    );

    let (model2, input2, mask2) = setup(&[600, 200], 600, 1);
    let fw = SimFramework::new(FrameworkKind::FasterTransformer, model2);
    let dev = fw.device(CostModel::a100());
    fw.forward(&dev, &input2, &mask2).unwrap();
    assert!(
        !dev.trace().iter().any(|r| r.name.contains("flash")),
        "no fused MHA above {FT_FUSED_MHA_MAX_SEQ}"
    );
    assert!(
        dev.trace().iter().any(|r| r.name.contains("batched.scores")),
        "unfused fallback"
    );
    let _ = (model, input, mask);
}

#[test]
fn turbo_regroups_and_pads_within_groups() {
    let _serial = precision_lock();
    let (model, input, mask) = setup(&[12, 12, 3, 3], 12, 1);
    let fw = SimFramework::new(FrameworkKind::TurboTransformer, model);
    let dev = fw.device(CostModel::a100());
    fw.forward(&dev, &input, &mask).unwrap();
    let regroups = dev.trace().iter().filter(|r| r.name == "turbo.regroup").count();
    assert_eq!(regroups, 2, "two length clusters -> two groups");
    // Group of 3-token sequences runs attention at padded length 3, not 12:
    // its scores GEMM flops are tiny compared to the long group's.
    let scores: Vec<u64> = dev
        .trace()
        .iter()
        .filter(|r| r.name.contains("batched.scores"))
        .map(|r| r.cost.flops)
        .collect();
    assert_eq!(scores.len(), 2);
    let (small, large) = (scores.iter().min().unwrap(), scores.iter().max().unwrap());
    assert!(small * 8 < *large, "short group should run at its own length");
}

#[test]
fn bytetransformer_never_materializes_padded_attention() {
    let _serial = precision_lock();
    let (model, input, mask) = setup(&[6, 3], 8, 2);
    let fw = SimFramework::new(FrameworkKind::ByteTransformer, model);
    let dev = fw.device(CostModel::a100());
    fw.forward(&dev, &input, &mask).unwrap();
    let names: Vec<String> = dev.trace().iter().map(|r| r.name.clone()).collect();
    assert!(names
        .iter()
        .any(|n| n.contains("fused_short") || n.contains("grouped.qk")));
    assert!(!names.iter().any(|n| n.contains("batched.scores")));
    assert!(!names.iter().any(|n| n.contains("softmax")), "softmax fully fused away");
}

#[test]
fn fig14_shape_framework_ordering_at_scale() {
    let _serial = precision_lock();
    // A larger α=0.6 batch on the A100 model: ByteTransformer < Faster-
    // Transformer < {PyTorch, TensorFlow}; Turbo degrades with batch — the
    // qualitative shape of Fig. 14.
    let config = BertConfig {
        heads: 4,
        head_size: 16,
        ffn_scale: 4,
        layers: 1,
        eps: 1e-6,
    };
    let model = BertModel::new_random(config, 2, 3);
    let mask = bytetransformer::varlen::workload::paper_workload(16, 128, 9);
    let input = masked_randn(&mask, config.hidden(), 11);
    let time = |kind: FrameworkKind| -> f64 {
        let fw = SimFramework::new(kind, model.clone());
        let dev = fw.device(CostModel::a100());
        fw.forward(&dev, &input, &mask).unwrap();
        dev.modeled_total()
    };
    let bt = time(FrameworkKind::ByteTransformer);
    let ft = time(FrameworkKind::FasterTransformer);
    let pt = time(FrameworkKind::PyTorchJit);
    let tf = time(FrameworkKind::TensorFlowXla);
    let turbo = time(FrameworkKind::TurboTransformer);
    assert!(bt < ft, "BT {bt} !< FT {ft}");
    assert!(ft < pt, "FT {ft} !< PyTorch {pt}");
    assert!(ft < tf, "FT {ft} !< TF {tf}");
    assert!(bt < turbo, "BT {bt} !< Turbo {turbo}");
}

/// FNV-1a over the `(name, flops, bytes_read, bytes_written)` sequence of a
/// device trace: same kernels, same order, same declared cost.
fn launch_hash(dev: &Device) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in dev.trace() {
        eat(r.name.as_bytes());
        eat(&[0]);
        eat(&r.cost.flops.to_le_bytes());
        eat(&r.cost.bytes_read.to_le_bytes());
        eat(&r.cost.bytes_written.to_le_bytes());
    }
    h
}

#[test]
fn launch_sequences_are_pinned() {
    let _serial = precision_lock();
    // Every Fig. 13 level and Table I framework is a `LayerPlan` over one
    // layer body; these hashes were captured from the per-level and
    // per-framework layer bodies that body replaced (commit 23f3ef6), so a
    // plan that launches a different kernel, in a different order or at a
    // different declared cost than the paper baseline it stands for fails
    // here. The figure benches print modeled totals derived from exactly
    // these records. GEMM specs are priced at the active precision, so the
    // pin holds at the default tier only.
    //
    // Two pins were re-captured (from 0xee673f7dcfd02b7a at e57c329) when
    // the encoder began to take the tiled Algorithm III.1 kernel at every
    // length: `long/ByteTransformer` and `long/fused MHA`. Per layer, the
    // three launches `attention.grouped.{qk,full_reduce,pv}` (6327000 +
    // 17820 + 5994000 flops, 65280 + 47520 + 1372800 bytes read, 1379520 +
    // 8160 + 32640 written) became one `attention.fused_short` (11988000
    // flops, 743040 read, 32640 written). Every other record is unchanged.
    if bytetransformer::gemm::active_precision() != bytetransformer::gemm::Precision::F32 {
        return;
    }
    // One mask on each side of FUSED_SHORT_MAX_SEQ (384), both within
    // TurboTransformer's 512 limit, plus one past FT_FUSED_MHA_MAX_SEQ.
    let masks: [(&str, &[usize], usize, bool); 3] = [
        ("short", &[6, 3, 8], 8, false),
        ("long", &[390, 120], 400, false),
        ("xlong", &[600, 200], 600, true),
    ];
    let mut got: Vec<(String, u64)> = Vec::new();
    for (label, lens, max_seq, ft_only) in masks {
        let (model, input, mask) = setup(lens, max_seq, 2);
        for kind in FrameworkKind::all() {
            if ft_only && kind != FrameworkKind::FasterTransformer {
                continue;
            }
            let fw = SimFramework::new(kind, model.clone());
            let dev = fw.device(CostModel::a100());
            fw.forward(&dev, &input, &mask).unwrap();
            got.push((format!("{label}/{}", kind.name()), launch_hash(&dev)));
        }
        if ft_only {
            continue;
        }
        for opt in OptLevel::all() {
            let dev = Device::with_model(CostModel::a100());
            model.forward(&dev, &input, &mask, opt).unwrap();
            got.push((format!("{label}/{}", opt.label()), launch_hash(&dev)));
        }
    }
    let pinned: [(&str, u64); 21] = [
        ("short/PyTorch JIT", 0xc166a91f26b8682b),
        ("short/TensorFlow XLA", 0xc166a91f26b8682b),
        ("short/TurboTransformer", 0xf45494d777c66358),
        ("short/FasterTransformer", 0x66e5a13604120b7c),
        ("short/ByteTransformer", 0x4a844a9a8bb586fc),
        ("short/baseline", 0x60210b24ee4ce1b1),
        ("short/layernorm fusion", 0x96f0794279af5dd5),
        ("short/add bias & GELU fusion", 0x9546c2495ab431d1),
        ("short/rm padding", 0x34781ede97fd481e),
        ("short/fused MHA", 0x4a844a9a8bb586fc),
        ("long/PyTorch JIT", 0x5e6f3362f1808741),
        ("long/TensorFlow XLA", 0x5e6f3362f1808741),
        ("long/TurboTransformer", 0x81f33950af24bf05),
        ("long/FasterTransformer", 0x3ee9f192e29b552e),
        ("long/ByteTransformer", 0x07c3dc66c737bf92),
        ("long/baseline", 0xfdfe18d119a962e5),
        ("long/layernorm fusion", 0xd41f226cde050069),
        ("long/add bias & GELU fusion", 0x9b3949f6517a8a21),
        ("long/rm padding", 0x94c538d83703af2a),
        ("long/fused MHA", 0x07c3dc66c737bf92),
        ("xlong/FasterTransformer", 0x89ada6c06af2b7b3),
    ];
    let want: Vec<(String, u64)> = pinned.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    if got != want {
        for (k, v) in &got {
            eprintln!("        (\"{k}\", {v:#018x}),");
        }
        panic!("launch sequence moved (computed table printed above)");
    }
}

#[test]
fn decoder_launch_sequences_are_pinned() {
    let _serial = precision_lock();
    // The decoder's causal self-attention and cross-attention reach the two
    // fused-MHA kernels through a key range and a unit list; these hashes
    // were captured at commit 8b8176e, when the causal short kernel, the
    // causal grouped wrapper and the cross unit list were separate code, so
    // a launch that changes name, order or declared cost fails here.
    //
    // The paged constant was re-captured once (from 0x5e4e44070f76d801 at
    // 358a01c) when `PagedDecoder::forward_rows` became the decoder's one
    // layer body, because its element-wise tails turned from unpriced host
    // loops into launches. Per layer: + `paged.append` after `paged.self_qkv`,
    // + `paged.cross_q.add` after `paged.cross_q`, + `paged.layernorm{0,1,2}
    // .fused` after the three projections they close, and `paged.ffn_up`
    // gains the epilogue's `rows·n·9` flops; per `open_session` and layer:
    // + `paged.cross_kv.add_bias_split_kv` after `paged.cross_kv`. Every
    // other record keeps its name, place and cost (diff in EXPERIMENTS.md).
    //
    // Re-captured once more (from 0x76e6239a43e578d9 at e7bf7e7) when paged
    // attention became a unit list for the one grouped engine. Per layer:
    // `paged.append` → `layout.add_bias_split_qkv_packed` (the gather launch
    // now also writes the rows to their slots), `paged.{attn,cross}.softmax`
    // → `.full_reduce`, `paged.cross_q.add` →
    // `paged.cross_q.add_bias_split_heads`, and `paged.{attn,cross}.{qk,pv}`
    // carry the engine's cost formulas. The count per layer stays 18.
    //
    // Re-captured once more (from 0xbce0d01ebd97b731 at a005cb9) when decode
    // rows began to attend in place. Per layer of the `step_batch`, the seven
    // launches `paged.gather` + `paged.{attn,cross}.{qk,full_reduce,pv}`
    // became `paged.attn.rows` (which also stores the rows' K/V) +
    // `paged.cross.rows`: 18 launches per layer → 13. Each rows launch
    // declares the flops of the three it replaces (826 and 604 here) and
    // reads only the K/V rows, Q and the stored rows (1792 / 1152 bytes
    // against the gather's 1664 plus the engine's 1688 / 1280). The prefill
    // launches were unchanged.
    //
    // Re-captured once more (from 0x98d2ba295419971d at 8daca18) when
    // prefills moved onto the rows form too. Per layer of each prefill, the
    // seven launches `paged.gather` + `paged.{attn,cross}.{qk,full_reduce,pv}`
    // became `paged.attn.rows` + `paged.cross.rows`: 18 launches per layer
    // → 13, as in the step. `paged.cross.rows` declares exactly the flops of
    // the three it replaces (2256 / 684 for the 6- / 3-row prefill);
    // `paged.attn.rows` declares only the keys each causal row sees (1590 /
    // 462, against the engine's 2700 / 684 over every logit, masked ones
    // included). Each reads the session's K/V once, Q and the stored rows
    // (1920 / 960 and 1024 / 576 bytes, against the gather's 1536 / 768 plus
    // the engine's 1632 / 744 and 1456 / 744). The step launches are
    // unchanged.
    //
    // The two teacher-forced constants were re-captured (from
    // 0xa974d956bd332d9c / 0x928a691bf2702eb0 at b3e90e4) when the
    // teacher-forced stack's attentions moved onto the rows form the paged
    // stack runs. Per layer of `decoder/short`, `attention.causal_short`
    // (4536 flops, 2176 bytes read) became `attention.causal_rows` (4764 /
    // 3264: the engine's per-row arithmetic over the keys each row sees, and
    // both K and V planes once where the short launch declared one plane per
    // Q tile), and the three
    // `cross_attention.grouped.{qk,full_reduce,pv}` (2774 + 102 + 2628
    // flops) became one `cross_attention.rows` declaring their sum, 5504.
    // Per layer of `decoder/long`, the three
    // `attention.causal_grouped.{qk,full_reduce,pv}` (6327000 + 17820 +
    // 5994000 flops over every logit, masked ones included) became one
    // `attention.causal_rows` (6188742), and the cross launches the sum of
    // theirs (1356600 + 5220 + 1285200 = 2647020). Every other record keeps
    // its name, place and cost; the paged constant is unchanged.
    if bytetransformer::gemm::active_precision() != bytetransformer::gemm::Precision::F32 {
        return;
    }
    let config = BertConfig::tiny();
    let hidden = config.hidden();
    let decoder = TransformerDecoder::new_random(config, 2, 5);
    let mut got: Vec<(&str, u64)> = Vec::new();
    // One target on each side of FUSED_SHORT_MAX_SEQ, each over a
    // variable-length memory.
    let mask = |lens: &[usize]| BatchMask::from_lens(lens.to_vec(), *lens.iter().max().unwrap()).unwrap();
    let cases: [(&str, &[usize], &[usize]); 2] = [
        ("decoder/short", &[6, 3, 8], &[5, 9, 2]),
        ("decoder/long", &[390, 120], &[30, 200]),
    ];
    for (label, tgt_lens, mem_lens) in cases {
        let (tgt_mask, mem_mask) = (mask(tgt_lens), mask(mem_lens));
        let dev = Device::with_model(CostModel::a100());
        decoder
            .forward(
                &dev,
                &masked_randn(&tgt_mask, hidden, 1),
                &tgt_mask,
                &masked_randn(&mem_mask, hidden, 2),
                &mem_mask,
            )
            .unwrap();
        got.push((label, launch_hash(&dev)));
    }
    {
        let dev = Device::with_model(CostModel::a100());
        paged_prefills_and_step(&dev, &decoder);
        got.push(("paged/prefill+step_batch", launch_hash(&dev)));
    }
    let pinned: [(&str, u64); 3] = [
        ("decoder/short", 0xcff008d9dfb996dc),
        ("decoder/long", 0xb3e119824c876544),
        ("paged/prefill+step_batch", 0x7f5c678279685325),
    ];
    if got != pinned {
        for (k, v) in &got {
            eprintln!("        (\"{k}\", {v:#018x}),");
        }
        panic!("decoder launch sequence moved (computed table printed above)");
    }
}

/// Two sessions prefilled and stepped once together on `dev`; asserts that
/// every forward's attention took the rows form, two `*.rows` launches per
/// layer, and that nothing in the trace gathered K/V or ran a grouped GEMM.
fn paged_prefills_and_step(dev: &Device, decoder: &TransformerDecoder) {
    let hidden = decoder.config.hidden();
    let mut paged = PagedDecoder::new(decoder, PagedLayout::new(4, 32));
    let a = paged.open_session(dev, &Tensor::randn([5, hidden], 3));
    let b = paged.open_session(dev, &Tensor::randn([3, hidden], 4));
    paged.prefill(dev, a, &Tensor::randn([6, hidden], 5)).unwrap();
    paged.prefill(dev, b, &Tensor::randn([3, hidden], 6)).unwrap();
    let step = paged.step_batch(dev, &[a, b], Tensor::randn([2, hidden], 7).as_slice());
    assert!(step.oom.is_empty());
    let names: Vec<String> = dev.trace().iter().map(|r| r.name.clone()).collect();
    assert!(
        !names
            .iter()
            .any(|n| n == "paged.gather" || n.ends_with(".qk") || n.ends_with(".full_reduce") || n.ends_with(".pv")),
        "a paged forward gathered K/V or launched a grouped GEMM: {names:?}"
    );
    assert_eq!(
        names.iter().filter(|n| n.ends_with(".rows")).count(),
        2 * decoder.weights.layers.len() * 3,
        "two rows launches per layer of each of the three forwards"
    );
}

#[test]
fn paged_forwards_launch_no_grouped_gemm_at_every_precision() {
    // Paged attention has one form at every precision: prefills and steps
    // alike read K/V in place through the block tables.
    let _serial = precision_lock();
    let prev = bytetransformer::gemm::active_precision();
    let decoder = TransformerDecoder::new_random(BertConfig::tiny(), 2, 5);
    for prec in bytetransformer::gemm::Precision::ALL {
        bytetransformer::gemm::set_active_precision(prec);
        paged_prefills_and_step(&Device::with_model(CostModel::a100()), &decoder);
    }
    bytetransformer::gemm::set_active_precision(prev);
}

#[test]
fn both_decoder_stacks_run_one_layer_body() {
    let _serial = precision_lock();
    // A paged prefill of one `n`-token prompt and a teacher-forced forward of
    // one `n`-token target over the same memory run the same layer function,
    // so the kernels it launches itself — six GEMMs, three LayerNorms per
    // layer — carry the same declared cost under either stack's names. Both
    // stacks' attentions run the same rows form over the same units, so the
    // outputs agree bitwise (`differential_decode` checks it at every length,
    // tier and precision).
    if bytetransformer::gemm::active_precision() != bytetransformer::gemm::Precision::F32 {
        return;
    }
    /// The launch's name with its stack prefix stripped, for the launches
    /// of the shared body.
    fn shared(name: &str) -> Option<&str> {
        let rest = name.strip_prefix("paged.").or_else(|| name.strip_prefix("dec_"))?;
        let rest = match rest.strip_prefix("gemm") {
            Some(numbered) => numbered.split_once('.')?.1,
            None => rest,
        };
        let body = [
            "self_qkv",
            "self_proj",
            "cross_q",
            "cross_proj",
            "ffn_up",
            "ffn_down",
            "layernorm0.fused",
            "layernorm1.fused",
            "layernorm2.fused",
        ];
        body.contains(&rest).then_some(rest)
    }
    let shared_launches = |dev: &Device| -> Vec<(String, u64, u64, u64)> {
        dev.trace()
            .iter()
            .filter_map(|r| {
                Some((
                    shared(&r.name)?.to_string(),
                    r.cost.flops,
                    r.cost.bytes_read,
                    r.cost.bytes_written,
                ))
            })
            .collect()
    };

    let config = BertConfig::tiny();
    let hidden = config.hidden();
    let layers = 2;
    let decoder = TransformerDecoder::new_random(config, layers, 5);
    let mem_len = 9;
    let memory = Tensor::randn([mem_len, hidden], 3);
    // One prompt on each side of the skinny/packed GEMM driver boundary.
    for n in [7, bytetransformer::gemm::SKINNY_MAX_M + 44] {
        let prompt = Tensor::randn([n, hidden], 4);

        let paged_dev = Device::with_model(CostModel::a100());
        let mut paged = PagedDecoder::new(&decoder, PagedLayout::new(4, n.div_ceil(4)));
        let sid = paged.open_session(&paged_dev, &memory);
        let paged_out = paged.prefill(&paged_dev, sid, &prompt).unwrap();

        let dec_dev = Device::with_model(CostModel::a100());
        let (tgt_mask, mem_mask) = (
            BatchMask::from_lens(vec![n], n).unwrap(),
            BatchMask::from_lens(vec![mem_len], mem_len).unwrap(),
        );
        let dec_out = decoder
            .forward(
                &dec_dev,
                &prompt.clone().reshape([1, n, hidden]).unwrap(),
                &tgt_mask,
                &memory.clone().reshape([1, mem_len, hidden]).unwrap(),
                &mem_mask,
            )
            .unwrap();

        let (got, want) = (shared_launches(&paged_dev), shared_launches(&dec_dev));
        assert_eq!(want.len(), layers * 9, "n = {n}: shared launches per layer");
        assert_eq!(
            got, want,
            "n = {n}: the shared body's launches differ between the stacks"
        );
        for (row, (p, d)) in paged_out.iter().zip(dec_out.as_slice().chunks(hidden)).enumerate() {
            for (col, (&p, &d)) in p.iter().zip(d).enumerate() {
                assert!(
                    p.to_bits() == d.to_bits(),
                    "n = {n}, ({row}, {col}): paged {p:?} vs teacher-forced {d:?} (bitwise)"
                );
            }
        }
    }
}
