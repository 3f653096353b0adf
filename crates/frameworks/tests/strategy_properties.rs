//! Property test: every framework strategy computes the same function on
//! random variable-length batches — they may differ only in cost.

use bt_core::config::BertConfig;
use bt_core::encoder::{BertModel, OptLevel};
use bt_device::{CostModel, Device};
use bt_frameworks::{FrameworkKind, SimFramework};
use bt_varlen::workload::masked_randn;
use bt_varlen::BatchMask;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn prop_frameworks_agree_on_random_masks(
        lens in proptest::collection::vec(1usize..14, 1..5),
        seed in 0u64..1000,
    ) {
        let config = BertConfig::tiny();
        let model = BertModel::new_random(config, 1, 42);
        let max = lens.iter().copied().max().unwrap();
        let mask = BatchMask::from_lens(lens, max).unwrap();
        let input = masked_randn(&mask, config.hidden(), seed);
        let dev = Device::with_model(CostModel::unit());
        let reference = model.forward(&dev, &input, &mask, OptLevel::Baseline).unwrap();
        for kind in FrameworkKind::all() {
            let fw = SimFramework::new(kind, model.clone());
            let out = fw.forward(&dev, &input, &mask).unwrap();
            for (b, &len) in mask.seq_lens().iter().enumerate() {
                for s in 0..len {
                    for h in 0..config.hidden() {
                        let a = reference.at(&[b, s, h]).unwrap();
                        let c = out.at(&[b, s, h]).unwrap();
                        prop_assert!((a - c).abs() < 5e-3, "{}: ({b},{s},{h})", kind.name());
                    }
                }
            }
        }
    }
}
