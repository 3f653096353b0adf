//! End-to-end quantized encoder scenario: the full BERT forward (fused-MHA
//! path, variable-length mask) runs under every `BYTE_GEMM_PREC` tier and
//! stays within an empirical envelope of the f32 forward, while the
//! telemetry layer shows the low-precision kernels actually ran (packed
//! bytes + per-precision launch/tile counters) — the paper's §III.C
//! low-precision hot path exercised at the model level, not just per-GEMM.

use bt_core::config::BertConfig;
use bt_core::encoder::{BertModel, OptLevel};
use bt_device::Device;
use bt_gemm::{active_precision, set_active_precision, Precision};
use bt_varlen::workload::masked_randn;
use bt_varlen::BatchMask;

#[test]
fn quantized_forward_tracks_f32_and_lights_lowp_counters() {
    // The active precision is process-wide; this is the only test in the
    // binary that flips it, and it restores on exit.
    let prev = active_precision();
    let config = BertConfig::tiny();
    let model = BertModel::new_random(config, 2, 11);
    // Variable lengths incl. a 1-token sequence — the serving shape mix.
    let mask = BatchMask::from_lens(vec![13, 1, 9, 16], 16).unwrap();
    let input = masked_randn(&mask, config.hidden(), 5);

    set_active_precision(Precision::F32);
    let dev = Device::new();
    let reference = model.forward(&dev, &input, &mask, OptLevel::FusedMha).unwrap();

    // Empirical envelopes (~4× observed drift on this scenario): layernorm
    // renormalizes between GEMMs, so per-dot documented bounds don't
    // compose — the differential suite asserts those at the GEMM level.
    for (prec, envelope) in [(Precision::F16, 0.02f32), (Precision::Int8, 0.2)] {
        set_active_precision(prec);
        bt_obs::set_enabled(true);
        let _ = bt_obs::drain();
        let dev = Device::new();
        let got = model.forward(&dev, &input, &mask, OptLevel::FusedMha).unwrap();
        let mut worst = 0.0f32;
        for (b, &len) in mask.seq_lens().iter().enumerate() {
            for s in 0..len {
                for h in 0..config.hidden() {
                    let r = reference.at(&[b, s, h]).unwrap();
                    let g = got.at(&[b, s, h]).unwrap();
                    worst = worst.max((r - g).abs());
                }
            }
        }
        eprintln!("quantized_encoder: {prec}: max drift vs f32 = {worst}");
        assert!(
            worst <= envelope,
            "{prec}: encoder drift {worst} exceeds the {envelope} envelope"
        );
        assert!(
            worst > 0.0,
            "{prec}: bitwise-identical output means the lowp path did not run"
        );

        let profile = bt_obs::drain();
        let of = |name: &str| {
            profile
                .counters
                .iter()
                .filter(|(n, _)| n == name || (n.starts_with("gemm.") && n.ends_with(&format!(".{prec}"))))
                .map(|(_, v)| *v)
                .sum::<u64>()
        };
        assert!(
            of(&format!("{}{prec}", bt_obs::names::GEMM_LOWP_PACK_BYTES_PREFIX)) > 0,
            "{prec}: no packed low-precision bytes counted"
        );
        let launches: u64 = profile
            .counters
            .iter()
            .filter(|(n, _)| {
                (n.starts_with(bt_obs::names::GEMM_BLOCKED_LAUNCHES_PREFIX)
                    || n.starts_with(bt_obs::names::GEMM_GROUPED_TILES_PREFIX))
                    && n.ends_with(&format!(".{prec}"))
            })
            .map(|(_, v)| *v)
            .sum();
        assert!(launches > 0, "{prec}: no per-precision launch/tile counters lit");
    }
    set_active_precision(prev);
}
