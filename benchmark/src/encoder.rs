//! `enc_short` and `enc_long`: one caller in a closed loop running
//! `BertModel::forward` over a cycle of distinct variable-length batches.

use crate::gen;
use crate::phase::{Meter, Phase, Segment};
use crate::span::SpanId;
use crate::tracer::Tracer;
use bt_core::config::BertConfig;
use bt_core::encoder::{BertModel, OptLevel};
use bt_core::flops::{layer_flops, FlopVariant};
use bt_device::{CostModel, Device};
use bt_frameworks::server::masked_randn;
use bt_tensor::rng::Xoshiro256StarStar;
use bt_tensor::Tensor;
use bt_varlen::{BatchMask, PackingIndex, VarlenError};
use std::hint::black_box;

/// Encoder depth of every workload (BERT-base width, 2 layers: enough for
/// the per-layer budget to repeat, short enough for tens of ops per run).
pub const LAYERS: usize = 2;

/// The optimisation level under test: the full ByteTransformer.
pub const OPT: OptLevel = OptLevel::FusedMha;

/// Cross-level tolerance on valid rows, as in `tests/cross_level_equivalence.rs`.
pub const CROSS_LEVEL_TOL: f32 = 5e-3;

/// Attention heads of BERT-base; `--smoke` runs a third as many.
pub const HEADS: usize = 12;
/// Heads of the `--smoke` model: the same kernels and paths at a ninth of
/// the GEMM work.
pub const SMOKE_HEADS: usize = 4;

/// BERT-base shape (heads × 64, FFN 4×, f32) with `heads` heads.
pub fn config(heads: usize) -> BertConfig {
    BertConfig {
        heads,
        ..BertConfig::bert_base()
    }
}

/// A device for the timed (counters only) or traced (per-kernel records) run.
pub fn device(traced: bool) -> Device {
    if traced {
        Device::new()
    } else {
        Device::untraced(CostModel::a100())
    }
}

/// Shape of one encoder workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub heads: usize,
    pub batch: usize,
    pub max_seq: usize,
    /// Distinct batches the loop cycles through.
    pub distinct: usize,
    /// Latency limit of one forward, ms.
    pub slo_ms: f64,
}

/// Every sequence ≤ `FUSED_SHORT_MAX_SEQ` (384): MHA takes the short kernel.
pub const SHORT: Shape = Shape {
    heads: HEADS,
    batch: 4,
    max_seq: 256,
    distinct: 8,
    slo_ms: 1000.0,
};

/// `max_seq` above 384: MHA takes the grouped-GEMM path.
pub const LONG: Shape = Shape {
    heads: HEADS,
    batch: 2,
    max_seq: 1024,
    distinct: 8,
    slo_ms: 3000.0,
};

impl Shape {
    /// The 1/10-size variant `--smoke` runs (same kernels, same MHA path).
    pub fn smoke(self) -> Shape {
        Shape {
            heads: SMOKE_HEADS,
            max_seq: if self.max_seq > 384 { 448 } else { 96 },
            distinct: 2,
            ..self
        }
    }
}

pub struct Setup {
    pub shape: Shape,
    pub model: BertModel,
    pub batches: Vec<(BatchMask, Tensor)>,
}

/// Builds the model and the batch cycle from `seed` and runs one warm-up
/// forward over the first sequence of the first batch: it starts the pool
/// and reads every weight once without costing a whole measured op.
pub fn setup(shape: Shape, seed: u64) -> Setup {
    let config = config(shape.heads);
    let model = BertModel::new_random(config, LAYERS, gen::subseed(seed, 1));
    let mut rng = Xoshiro256StarStar::seed_from_u64(gen::subseed(seed, 2));
    let batches: Vec<(BatchMask, Tensor)> =
        gen::antithetic_batches(shape.distinct, shape.batch, shape.max_seq, &mut rng)
            .into_iter()
            .enumerate()
            .map(|(i, lens)| {
                let mask = BatchMask::from_lens(lens, shape.max_seq).expect("generated lengths are bounded");
                let input = masked_randn(&mask, config.hidden(), gen::subseed(seed, 100 + i as u64));
                (mask, input)
            })
            .collect();
    let (mask, input) = &batches[0];
    let warm_mask = BatchMask::from_lens(vec![mask.seq_lens()[0]], shape.max_seq).expect("one sequence of the batch");
    let warm_rows = Tensor::from_vec(
        input.as_slice()[..shape.max_seq * config.hidden()].to_vec(),
        [1, shape.max_seq, config.hidden()],
    )
    .expect("first sequence of the batch");
    black_box(model.forward(&device(false), &warm_rows, &warm_mask, OPT)).expect("warm-up forward");
    Setup { shape, model, batches }
}

/// Output check shared by every encoder-backed workload: `FusedMha` equals
/// `OptLevel::Baseline` on valid rows within [`CROSS_LEVEL_TOL`], padded
/// rows are exactly zero, everything is finite. Returns the output digest.
pub fn check_forward(model: &BertModel, input: &Tensor, mask: &BatchMask) -> Result<u64, String> {
    let dev = device(false);
    let fused = model.forward(&dev, input, mask, OPT).map_err(|e| e.to_string())?;
    let base = model
        .forward(&dev, input, mask, OptLevel::Baseline)
        .map_err(|e| e.to_string())?;
    let hidden = model.config.hidden();
    let max_seq = mask.max_seq_len();
    let (f, b) = (fused.as_slice(), base.as_slice());
    let mut worst = 0.0f32;
    for (bi, &len) in mask.seq_lens().iter().enumerate() {
        let row0 = bi * max_seq * hidden;
        let valid = row0..row0 + len * hidden;
        for (x, y) in f[valid.clone()].iter().zip(&b[valid]) {
            if !x.is_finite() {
                return Err("non-finite value in a valid output row".into());
            }
            worst = worst.max((x - y).abs());
        }
        if f[row0 + len * hidden..row0 + max_seq * hidden]
            .iter()
            .any(|&v| v != 0.0)
        {
            return Err(format!("padded rows of sequence {bi} are not exactly zero"));
        }
    }
    if worst > CROSS_LEVEL_TOL {
        return Err(format!(
            "FusedMha differs from Baseline by {worst} > {CROSS_LEVEL_TOL} on valid rows"
        ));
    }
    Ok(gen::digest(f))
}

pub fn check(s: &Setup) -> Result<u64, String> {
    let (mask, input) = &s.batches[0];
    check_forward(&s.model, input, mask)
}

/// One forward. Timed runs call `BertModel::forward`; traced runs make the
/// same public calls `forward` makes at `FusedMha` — `from_mask_on`, `pack`,
/// each `layer_forward_packed`, `unpack` — each under its own span.
pub fn forward_op(
    model: &BertModel,
    device: &Device,
    input: &Tensor,
    mask: &BatchMask,
    trace: Option<(&mut Tracer, SpanId)>,
) -> Result<Tensor, VarlenError> {
    let Some((tr, op)) = trace else {
        return model.forward(device, input, mask, OPT);
    };
    let idx = tr.call("from_mask_on", op, device, || PackingIndex::from_mask_on(device, mask));
    let mut x = tr.call("pack", op, device, || idx.pack(device, input))?;
    for (l, w) in model.weights.layers.iter().enumerate() {
        x = tr.call(&format!("layer_forward_packed.{l}"), op, device, || {
            model.layer_forward_packed(device, &x, w, &idx, OPT)
        });
    }
    tr.call("unpack", op, device, || idx.unpack(device, &x))
}

/// Table II FLOPs of `mask`'s valid tokens through the whole stack.
pub fn useful_flops(mask: &BatchMask, hidden: usize) -> u64 {
    LAYERS as u64 * layer_flops(mask, hidden, FlopVariant::ZeroPaddingFusedMha).total()
}

/// Runs forwards over the batch cycle for `seconds`.
pub fn measure(s: &Setup, seconds: f64, mut tracer: Option<&mut Tracer>) -> Phase {
    let dev = device(tracer.is_some());
    let hidden = s.model.config.hidden();
    let mut p = Phase::default();
    let meter = Meter::start();
    let mut i = 0usize;
    while meter.elapsed_s() < seconds {
        let (mask, input) = &s.batches[i % s.batches.len()];
        i += 1;
        p.attempted += 1;
        let op = tracer.as_deref_mut().map(|tr| tr.open_op("forward"));
        let segment = Segment::start();
        let out = forward_op(&s.model, &dev, input, mask, tracer.as_deref_mut().zip(op));
        let (wall_s, granted) = segment.finish();
        let ms = wall_s * 1e3 * granted;
        if let (Some(tr), Some(op)) = (tracer.as_deref_mut(), op) {
            tr.close_op(op);
        }
        match out {
            Ok(t) if black_box(&t).as_slice().iter().all(|v| v.is_finite()) => {
                p.op_ms.push(ms);
                p.op_wall_ms.push(wall_s * 1e3);
                p.within_slo += u64::from(ms <= s.shape.slo_ms);
                p.tokens += mask.valid_words() as u64;
                p.segment_tok_per_s.push(mask.valid_words() as f64 * 1e3 / ms);
            }
            _ => p.failed += 1,
        }
        p.extras.valid_tokens += mask.valid_words() as u64;
        p.extras.padded_tokens += mask.padded_words() as u64;
        p.extras.useful_flops += useful_flops(mask, hidden);
    }
    p.close(&meter);
    p
}
