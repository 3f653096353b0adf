//! Strided batched GEMM — the cuBLAS `gemmStridedBatched` substitute.
//!
//! Batched GEMM requires every sub-problem to share one shape, which is
//! exactly why the paper's zero-padding algorithm cannot help the attention
//! GEMMs on this path (§III.D: "Since batched GEMM in MHA requires identical
//! problem shapes among different batches, we unpack the tensor before
//! entering the attention module"). The grouped GEMM in [`crate::grouped`]
//! is the paper's answer to that restriction.

use crate::blocked::{sgemm, GemmSpec};
use rayon::prelude::*;

/// Arguments for a strided batched GEMM over `batch` sub-problems of
/// identical shape `m×n×k`: problem `i` reads `a[i*stride_a..]`,
/// `b[i*stride_b..]` and writes `c[i*stride_c..]`.
#[derive(Debug, Clone, Copy)]
pub struct BatchedArgs {
    /// Number of sub-problems.
    pub batch: usize,
    /// Rows of each output.
    pub m: usize,
    /// Columns of each output.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Element stride between consecutive `A` operands.
    pub stride_a: usize,
    /// Element stride between consecutive `B` operands.
    pub stride_b: usize,
    /// Element stride between consecutive `C` operands.
    pub stride_c: usize,
}

impl BatchedArgs {
    /// Dense packing: strides equal to each operand's size.
    pub fn dense(batch: usize, m: usize, n: usize, k: usize) -> Self {
        Self {
            batch,
            m,
            n,
            k,
            stride_a: m * k,
            stride_b: k * n,
            stride_c: m * n,
        }
    }
}

/// Strided batched GEMM: `C_i = alpha * A_i·op(B_i)` for
/// every sub-problem, parallel over the batch.
///
/// # Panics
/// Panics if any operand slice is too short for the declared batch layout.
pub fn batched_sgemm(spec: GemmSpec, args: BatchedArgs, a: &[f32], b: &[f32], c: &mut [f32]) {
    let BatchedArgs {
        batch,
        m,
        n,
        k,
        stride_a,
        stride_b,
        stride_c,
    } = args;
    if batch == 0 {
        return;
    }
    assert!(stride_c >= m * n, "stride_c {stride_c} < m*n {}", m * n);
    assert!(
        a.len() >= (batch - 1) * stride_a + m * k,
        "A too short for batch layout"
    );
    assert!(
        b.len() >= (batch - 1) * stride_b + k * n,
        "B too short for batch layout"
    );
    assert!(
        c.len() >= (batch - 1) * stride_c + m * n,
        "C too short for batch layout"
    );

    // Parallelize over the batch; each sub-GEMM runs single-panel (they are
    // small in MHA) but `sgemm` may further split large panels — the pool's
    // shared cursor balances either way.
    c[..(batch - 1) * stride_c + m * n]
        .par_chunks_mut(stride_c)
        .enumerate()
        .for_each(|(i, c_i)| {
            let a_i = &a[i * stride_a..i * stride_a + m * k];
            let b_i = &b[i * stride_b..i * stride_b + k * n];
            sgemm_serial(spec, m, n, k, a_i, b_i, &mut c_i[..m * n]);
        });
}

/// Single-threaded GEMM used inside the batch loop (the batch dimension is
/// already the parallel axis). Falls back to the parallel path for a batch
/// of one, where panel parallelism is the only parallelism available.
fn sgemm_serial(spec: GemmSpec, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    // `sgemm` uses rayon internally; a launch nested under the outer
    // par_chunks_mut queues its tokens on the same pool (a waiting worker
    // runs queued jobs), so there is no oversubscription and delegating is
    // both simplest and fastest.
    sgemm(spec, m, n, k, a, b, c);
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

    #[test]
    fn matches_per_problem_reference() {
        let args = BatchedArgs::dense(5, 13, 17, 19);
        let a = rand_vec(args.batch * args.stride_a, 1);
        let b = rand_vec(args.batch * args.stride_b, 2);
        let mut c = vec![0.0f32; args.batch * args.stride_c];
        batched_sgemm(GemmSpec::nn(), args, &a, &b, &mut c);
        for i in 0..args.batch {
            let mut expect = vec![0.0f32; args.m * args.n];
            gemm_ref(
                false,
                args.m,
                args.n,
                args.k,
                1.0,
                &a[i * args.stride_a..],
                &b[i * args.stride_b..],
                &mut expect,
            );
            assert_close(
                &c[i * args.stride_c..i * args.stride_c + args.m * args.n],
                &expect,
                1e-3,
            );
        }
    }

    #[test]
    fn transb_batched() {
        let args = BatchedArgs::dense(3, 8, 8, 16);
        let a = rand_vec(args.batch * args.stride_a, 3);
        let b = rand_vec(args.batch * args.stride_b, 4);
        let mut c = vec![0.0f32; args.batch * args.stride_c];
        batched_sgemm(GemmSpec::nt().alpha(0.125), args, &a, &b, &mut c);
        for i in 0..args.batch {
            let mut expect = vec![0.0f32; args.m * args.n];
            gemm_ref(
                true,
                args.m,
                args.n,
                args.k,
                0.125,
                &a[i * args.stride_a..],
                &b[i * args.stride_b..],
                &mut expect,
            );
            assert_close(
                &c[i * args.stride_c..i * args.stride_c + args.m * args.n],
                &expect,
                1e-3,
            );
        }
    }

    #[test]
    fn zero_batch_is_noop() {
        let mut c: Vec<f32> = vec![];
        batched_sgemm(GemmSpec::nn(), BatchedArgs::dense(0, 4, 4, 4), &[], &[], &mut c);
    }

    #[test]
    fn padded_strides_leave_gaps_untouched() {
        // stride_c larger than m*n: the gap must keep its sentinel values.
        let mut args = BatchedArgs::dense(2, 2, 2, 2);
        args.stride_c = 6;
        let a = rand_vec(2 * args.stride_a, 5);
        let b = rand_vec(2 * args.stride_b, 6);
        let mut c = vec![99.0f32; 2 * args.stride_c];
        batched_sgemm(GemmSpec::nn(), args, &a, &b, &mut c);
        assert_eq!(c[4], 99.0);
        assert_eq!(c[5], 99.0);
    }

    #[test]
    #[should_panic(expected = "C too short")]
    fn short_c_panics() {
        let args = BatchedArgs::dense(2, 2, 2, 2);
        let a = vec![0.0; 8];
        let b = vec![0.0; 8];
        let mut c = vec![0.0; 7];
        batched_sgemm(GemmSpec::nn(), args, &a, &b, &mut c);
    }
}
