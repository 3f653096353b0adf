//! Differential harness for every parallel path in the workspace.
//!
//! Each case runs the same kernel twice — once inside
//! [`rayon::sequential`] (every parallel entry point forced inline, in
//! item order: the single-thread reference) and once on the pooled
//! N-thread path — and insists the outputs are **bitwise identical**
//! (`f32::to_bits`, not an epsilon). That is the strongest statement the
//! pool can make: parallel decomposition must never change what is
//! computed, only who computes it. Any cross-item reduction, scratch
//! aliasing, or store race shows up as a flipped mantissa bit here long
//! before it would trip an `assert_close`.
//!
//! Covered paths: add-bias + residual + LayerNorm (fused and unfused),
//! add-bias + GELU (fused and unfused), row softmax, varlen pack/unpack,
//! blocked SGEMM, and grouped SGEMM (both schedulers) — i.e. every kernel
//! family that fans out over the pool. Shapes are randomized by proptest
//! and pinned at the edges: empty batches, single-token sequences, and
//! single-element tiles.

use bt_gemm::grouped::{grouped_sgemm, GroupedConfig, GroupedProblem, NoEpilogue, NoTransform, Scheduler};
use bt_gemm::{sgemm, GemmSpec};
use bt_kernels::activation::{add_bias_gelu_fused, add_bias_gelu_unfused};
use bt_kernels::layernorm::{add_bias_residual_layernorm_fused, add_bias_residual_layernorm_unfused};
use bt_kernels::softmax::softmax_rows;
use bt_tensor::rng::Xoshiro256StarStar;
use bytetransformer::prelude::*;
use proptest::prelude::*;

/// Widens the pool for this test binary (unless the harness pinned a width
/// via the environment) before anything touches the lazy global — the CI
/// host may have a single CPU, which would otherwise make "pooled" and
/// "sequential" the same path.
fn ensure_pool() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        if std::env::var("BYTE_POOL_THREADS").is_err() {
            std::env::set_var("BYTE_POOL_THREADS", "4");
        }
    });
}

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..n).map(|_| rng.uniform(-2.0, 2.0)).collect()
}

fn assert_bitwise(label: &str, reference: &[f32], pooled: &[f32]) {
    assert_eq!(reference.len(), pooled.len(), "{label}: output lengths differ");
    for (i, (r, p)) in reference.iter().zip(pooled).enumerate() {
        assert!(
            r.to_bits() == p.to_bits(),
            "{label}[{i}]: sequential {r:?} != pooled {p:?} (bitwise)"
        );
    }
}

/// The harness: one inline reference run, two pooled runs (pooled output
/// must match the reference *and* be stable run-to-run).
fn differential(label: &str, kernel: impl Fn() -> Vec<f32>) {
    ensure_pool();
    let reference = rayon::sequential(&kernel);
    let pooled = kernel();
    assert_bitwise(label, &reference, &pooled);
    let pooled_again = kernel();
    assert_bitwise(label, &pooled, &pooled_again);
}

// --- per-kernel cases -------------------------------------------------------

fn layernorm_case(rows: usize, hidden: usize, seed: u64) {
    let input = rand_vec(rows * hidden, seed);
    let residual = rand_vec(rows * hidden, seed ^ 1);
    let bias = rand_vec(hidden, seed ^ 2);
    let gamma = rand_vec(hidden, seed ^ 3);
    let beta = rand_vec(hidden, seed ^ 4);
    differential(&format!("layernorm_fused {rows}x{hidden}"), || {
        let mut out = input.clone();
        let dev = Device::new();
        add_bias_residual_layernorm_fused(
            &dev, "ln", &mut out, &residual, &bias, &gamma, &beta, 1e-5, rows, hidden,
        );
        out
    });
    differential(&format!("layernorm_unfused {rows}x{hidden}"), || {
        let mut out = input.clone();
        let dev = Device::new();
        add_bias_residual_layernorm_unfused(
            &dev, "ln", &mut out, &residual, &bias, &gamma, &beta, 1e-5, rows, hidden,
        );
        out
    });
}

fn gelu_case(rows: usize, cols: usize, seed: u64) {
    let input = rand_vec(rows * cols, seed);
    let bias = rand_vec(cols, seed ^ 5);
    differential(&format!("gelu_fused {rows}x{cols}"), || {
        let mut data = input.clone();
        let dev = Device::new();
        add_bias_gelu_fused(&dev, "gelu", &mut data, rows, cols, &bias);
        data
    });
    differential(&format!("gelu_unfused {rows}x{cols}"), || {
        let mut data = input.clone();
        let dev = Device::new();
        add_bias_gelu_unfused(&dev, "gelu", &mut data, rows, cols, &bias);
        data
    });
}

fn softmax_case(rows: usize, cols: usize, seed: u64) {
    let input = rand_vec(rows * cols, seed);
    differential(&format!("softmax {rows}x{cols}"), || {
        let mut data = input.clone();
        let dev = Device::new();
        softmax_rows(&dev, &mut data, rows, cols);
        data
    });
}

fn pack_unpack_case(lens: &[usize], max_seq_len: usize, hidden: usize, seed: u64) {
    let mask = BatchMask::from_lens(lens.to_vec(), max_seq_len).unwrap();
    let idx = PackingIndex::from_mask(&mask);
    let padded = Tensor::randn([mask.batch(), max_seq_len, hidden], seed);
    let label = format!("pack/unpack lens={lens:?} hidden={hidden}");
    differential(&format!("{label} (pack)"), || {
        let dev = Device::new();
        idx.pack(&dev, &padded).unwrap().as_slice().to_vec()
    });
    differential(&format!("{label} (roundtrip)"), || {
        let dev = Device::new();
        let packed = idx.pack(&dev, &padded).unwrap();
        idx.unpack(&dev, &packed).unwrap().as_slice().to_vec()
    });
}

fn blocked_gemm_case(m: usize, n: usize, k: usize, seed: u64) {
    let a = rand_vec(m * k, seed);
    let b = rand_vec(k * n, seed ^ 6);
    let c0 = rand_vec(m * n, seed ^ 7);
    differential(&format!("sgemm {m}x{n}x{k}"), || {
        let mut c = c0.clone();
        sgemm(GemmSpec::nn().alpha(1.25), m, n, k, &a, &b, &mut c);
        c
    });
}

fn grouped_gemm_case(shapes: &[(usize, usize, usize)], seed: u64, scheduler: Scheduler) {
    let a_bufs: Vec<Vec<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, _, k))| rand_vec(m * k, seed ^ (i as u64 * 2 + 10)))
        .collect();
    let b_bufs: Vec<Vec<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(_, n, k))| rand_vec(k * n, seed ^ (i as u64 * 2 + 11)))
        .collect();
    differential(&format!("grouped_sgemm {shapes:?} {scheduler:?}"), || {
        let problems: Vec<GroupedProblem<'_>> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(m, n, k))| GroupedProblem {
                m,
                n,
                k,
                transb: false,
                alpha: 1.0,
                a: &a_bufs[i],
                b: &b_bufs[i],
            })
            .collect();
        let mut c_bufs: Vec<Vec<f32>> = shapes.iter().map(|&(m, n, _)| vec![0.0; m * n]).collect();
        grouped_sgemm(
            &problems,
            c_bufs.iter_mut().map(|c| c.as_mut_slice()).collect(),
            GroupedConfig {
                num_ctas: 16,
                scheduler,
                ..Default::default()
            },
            &NoEpilogue,
            &NoTransform,
        );
        c_bufs.concat()
    });
}

// --- pinned edge cases ------------------------------------------------------

#[test]
fn empty_batches_bitwise() {
    // rows = 0 / batch = 0: the launch must degenerate to a no-op on both
    // paths without touching the (empty) buffers.
    layernorm_case(0, 8, 1);
    gelu_case(0, 16, 2);
    softmax_case(0, 4, 3);
    blocked_gemm_case(0, 5, 3, 4);
    pack_unpack_case(&[], 4, 8, 5);
    grouped_gemm_case(&[], 6, Scheduler::WarpPrefetch);
}

#[test]
fn all_empty_sequences_bitwise() {
    // A non-empty batch whose every sequence has zero valid tokens.
    pack_unpack_case(&[0, 0, 0], 8, 16, 7);
}

#[test]
fn single_token_sequences_bitwise() {
    pack_unpack_case(&[1, 1, 1], 8, 16, 8);
    pack_unpack_case(&[1, 0, 5, 1], 8, 12, 9);
    layernorm_case(1, 32, 10);
    gelu_case(1, 32, 11);
    softmax_case(1, 1, 12);
    blocked_gemm_case(1, 1, 1, 13);
    grouped_gemm_case(&[(1, 1, 1), (1, 7, 3)], 14, Scheduler::PerTile);
}

// --- randomized shapes ------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn prop_memory_bound_kernels_bitwise(
        rows in 0usize..33,
        cols in 1usize..65,
        seed in 0u64..1_000_000
    ) {
        layernorm_case(rows, cols, seed);
        gelu_case(rows, cols, seed.wrapping_add(1));
        softmax_case(rows, cols, seed.wrapping_add(2));
    }

    #[test]
    fn prop_pack_unpack_bitwise(
        lens in proptest::collection::vec(0usize..13, 1..6),
        hidden in 1usize..17,
        seed in 0u64..1_000_000
    ) {
        let max = lens.iter().copied().max().unwrap_or(0).max(1);
        pack_unpack_case(&lens, max, hidden, seed);
    }

    #[test]
    fn prop_blocked_gemm_bitwise(
        m in 0usize..48,
        n in 1usize..48,
        k in 0usize..40,
        seed in 0u64..1_000_000
    ) {
        blocked_gemm_case(m, n, k, seed);
    }

    #[test]
    fn prop_grouped_gemm_bitwise(
        shapes in proptest::collection::vec((1usize..48, 1usize..48, 1usize..24), 0..5),
        seed in 0u64..1_000_000
    ) {
        grouped_gemm_case(&shapes, seed, Scheduler::WarpPrefetch);
        grouped_gemm_case(&shapes, seed, Scheduler::PerTile);
    }
}
