//! Variable-length edge cases through the whole pipeline, plus typed error
//! paths and property-based cross-level equivalence on random shapes.

use bytetransformer::prelude::*;
use bytetransformer::varlen::workload::masked_randn;
use proptest::prelude::*;

fn model() -> BertModel {
    BertModel::new_random(BertConfig::tiny(), 1, 42)
}

fn valid_diff(a: &Tensor, b: &Tensor, mask: &BatchMask) -> f32 {
    let hidden = a.dims()[2];
    let mut worst = 0.0f32;
    for (bi, &len) in mask.seq_lens().iter().enumerate() {
        for s in 0..len {
            for h in 0..hidden {
                worst = worst.max((a.at(&[bi, s, h]).unwrap() - b.at(&[bi, s, h]).unwrap()).abs());
            }
        }
    }
    worst
}

#[test]
fn single_token_sequences() {
    let m = model();
    let mask = BatchMask::from_lens(vec![1, 1, 1], 8).unwrap();
    let input = masked_randn(&mask, m.config.hidden(), 1);
    let dev = Device::new();
    let a = m.forward(&dev, &input, &mask, OptLevel::Baseline).unwrap();
    let b = m.forward(&dev, &input, &mask, OptLevel::FusedMha).unwrap();
    assert!(valid_diff(&a, &b, &mask) < 5e-3);
}

#[test]
fn batch_with_empty_sequences() {
    let m = model();
    let mask = BatchMask::from_lens(vec![0, 6, 0, 3], 8).unwrap();
    let input = masked_randn(&mask, m.config.hidden(), 2);
    let dev = Device::new();
    let a = m.forward(&dev, &input, &mask, OptLevel::ZeroPadding).unwrap();
    let b = m.forward(&dev, &input, &mask, OptLevel::FusedMha).unwrap();
    assert!(valid_diff(&a, &b, &mask) < 5e-3);
    // Empty sequences produce all-zero output rows on the packed paths.
    for s in 0..8 {
        for h in 0..m.config.hidden() {
            assert_eq!(b.at(&[0, s, h]).unwrap(), 0.0);
        }
    }
}

#[test]
fn fully_packed_batch_has_alpha_one() {
    let m = model();
    let mask = BatchMask::from_lens(vec![8; 3], 8).unwrap();
    assert_eq!(mask.alpha(), 1.0);
    let input = masked_randn(&mask, m.config.hidden(), 3);
    let dev_zp = Device::new();
    m.forward(&dev_zp, &input, &mask, OptLevel::ZeroPadding).unwrap();
    let dev_base = Device::new();
    m.forward(&dev_base, &input, &mask, OptLevel::GeluFusion).unwrap();
    // α = 1: packing saves no GEMM flops (only the MHA difference remains
    // at higher levels); the gemm0 kernels must count identically.
    let gemm0 = |dev: &Device| -> u64 {
        dev.trace()
            .iter()
            .filter(|r| r.name.starts_with("gemm0"))
            .map(|r| r.cost.flops)
            .sum()
    };
    assert_eq!(gemm0(&dev_zp), gemm0(&dev_base));
}

#[test]
fn extreme_length_skew() {
    // One max-length sequence among tiny ones — the worst case for padding.
    let m = model();
    let mask = BatchMask::from_lens(vec![64, 1, 2, 1], 64).unwrap();
    let input = masked_randn(&mask, m.config.hidden(), 4);
    let dev = Device::new();
    let a = m.forward(&dev, &input, &mask, OptLevel::Baseline).unwrap();
    let b = m.forward(&dev, &input, &mask, OptLevel::FusedMha).unwrap();
    assert!(valid_diff(&a, &b, &mask) < 5e-3);
    // Padding waste: baseline pays 4×64 slots for 68 tokens.
    assert!(mask.alpha() < 0.3);
}

#[test]
fn mask_matrix_entry_point() {
    // Users may provide the raw 0/1 mask matrix, as in the paper's Fig. 4.
    let mat = vec![
        1, 1, 1, 1, 1, // 5 tokens
        1, 1, 0, 0, 0, // 2 tokens
        1, 1, 1, 1, 0, // 4 tokens
    ];
    let mask = BatchMask::from_mask_matrix(&mat, 3, 5).unwrap();
    assert_eq!(mask.seq_lens(), &[5, 2, 4]);
    let idx = PackingIndex::from_mask(&mask);
    assert_eq!(idx.valid_words(), 11);
    assert_eq!(idx.seq_offsets(), &[0, 5, 7, 11]);
}

#[test]
fn forward_is_deterministic_one_vs_n_workers() {
    // Seeded end-to-end determinism: the same input through the full
    // pipeline must be bitwise-identical across three pooled (N-worker)
    // runs and three single-thread runs (every parallel entry point forced
    // inline via `rayon::sequential`). Parallel decomposition may change
    // who computes each row, never what is computed.
    if std::env::var("BYTE_POOL_THREADS").is_err() {
        std::env::set_var("BYTE_POOL_THREADS", "4");
    }
    let m = model();
    let mask = BatchMask::from_lens(vec![7, 1, 0, 5], 8).unwrap();
    let input = masked_randn(&mask, m.config.hidden(), 99);
    for level in [OptLevel::Baseline, OptLevel::FusedMha] {
        let run = || {
            let dev = Device::new();
            m.forward(&dev, &input, &mask, level).unwrap().as_slice().to_vec()
        };
        let reference = rayon::sequential(run);
        for round in 0..3 {
            let pooled = run();
            let sequential = rayon::sequential(run);
            assert_eq!(reference.len(), pooled.len());
            for (i, (r, p)) in reference.iter().zip(&pooled).enumerate() {
                assert!(
                    r.to_bits() == p.to_bits(),
                    "{level:?} round {round}: pooled[{i}] {p:?} != sequential reference {r:?}"
                );
            }
            for (i, (r, s)) in reference.iter().zip(&sequential).enumerate() {
                assert!(
                    r.to_bits() == s.to_bits(),
                    "{level:?} round {round}: sequential[{i}] {s:?} drifted from {r:?}"
                );
            }
        }
    }
}

#[test]
fn error_paths_are_typed_not_panics() {
    let m = model();
    let mask = BatchMask::from_lens(vec![4], 8).unwrap();
    let dev = Device::new();
    // Wrong rank.
    assert!(m
        .forward(&dev, &Tensor::zeros([8, m.config.hidden()]), &mask, OptLevel::Baseline)
        .is_err());
    // Wrong batch.
    assert!(m
        .forward(
            &dev,
            &Tensor::zeros([2, 8, m.config.hidden()]),
            &mask,
            OptLevel::Baseline
        )
        .is_err());
    // Wrong hidden.
    assert!(m
        .forward(&dev, &Tensor::zeros([1, 8, 7]), &mask, OptLevel::FusedMha)
        .is_err());
    // Bad mask construction.
    assert!(BatchMask::from_lens(vec![9], 8).is_err());
    assert!(BatchMask::from_mask_matrix(&[1, 0, 1, 1], 1, 4).is_err());
}

/// Pinned from `tests/varlen_pipeline.proptest-regressions` (shrinker
/// minimum `lens = [0], seed = 0`): a batch holding nothing but one empty
/// sequence. Promoted to a named deterministic test so the case runs on
/// every `cargo test` without the proptest shrinker in the loop — the
/// regressions file stays as the generator-side pin.
#[test]
fn regression_batch_of_one_empty_sequence() {
    let m = model();
    // Exactly the prop body's shape derivation: max(lens) clamped to >= 1.
    let mask = BatchMask::from_lens(vec![0], 1).unwrap();
    let input = masked_randn(&mask, m.config.hidden(), 0);
    let dev = Device::new();
    let base = m.forward(&dev, &input, &mask, OptLevel::Baseline).unwrap();
    let fused = m.forward(&dev, &input, &mask, OptLevel::FusedMha).unwrap();
    assert!(valid_diff(&base, &fused, &mask) < 5e-3);
    // An all-padding batch must come out all zeros on the packed path:
    // there are no valid rows to scatter back.
    for h in 0..m.config.hidden() {
        assert_eq!(fused.at(&[0, 0, h]).unwrap(), 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_levels_agree_on_random_masks(
        lens in proptest::collection::vec(0usize..20, 1..5),
        seed in 0u64..1000
    ) {
        let m = model();
        let max = lens.iter().copied().max().unwrap_or(0).max(1);
        let mask = BatchMask::from_lens(lens, max).unwrap();
        let input = masked_randn(&mask, m.config.hidden(), seed);
        let dev = Device::new();
        let base = m.forward(&dev, &input, &mask, OptLevel::Baseline).unwrap();
        let fused = m.forward(&dev, &input, &mask, OptLevel::FusedMha).unwrap();
        prop_assert!(valid_diff(&base, &fused, &mask) < 5e-3);
    }
}
