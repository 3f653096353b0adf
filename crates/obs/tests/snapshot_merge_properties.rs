//! Property suite for the shard-merge layer of `bt-obs` snapshots.
//!
//! The multi-shard router folds per-shard [`MetricsSnapshot`]s into a fleet
//! view, so the merge must behave like a commutative monoid over shard
//! state (any fold order, any grouping) and must not degrade histogram
//! resolution beyond the documented bucket geometry:
//!
//! * **associativity** — `merge(merge(a, b), c) ≡ merge(a, merge(b, c))`
//!   up to the synthesized `shard` label;
//! * **commutativity** — any permutation of the inputs merges to the same
//!   snapshot, again up to the label;
//! * **percentile resolution** — a merged percentile equals
//!   `bucket_upper(bucket_of(v))` for the true rank-`q` value `v` of the
//!   pooled population: exact for `v < HIST_LINEAR`, and within one power
//!   of two (`v ≤ reported < 2·v`) above.
//!
//! Snapshots are randomized with an explicit splitmix64 stream — no
//! ambient entropy, so failures replay.

use bt_obs::snapshot::{
    bucket_of, bucket_upper, merge, CounterDelta, HistogramWindow, MetricsSnapshot, HIST_BUCKETS, HIST_LINEAR,
};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A randomized shard snapshot. Counter names overlap across shards (that
/// is the interesting case for summing); one name is a high-water mark to
/// exercise the max-merge path. Returns the raw histogram observations so
/// the percentile property can compare against ground truth.
fn random_snapshot(rng: &mut u64, shard: usize) -> (MetricsSnapshot, Vec<u64>) {
    let names = ["serve.offered", "serve.served", "kv.pool.blocks.high_water"];
    let counters = names
        .iter()
        .map(|n| {
            let delta = splitmix64(rng) % 10_000;
            CounterDelta {
                name: n.to_string(),
                delta,
                total: delta + splitmix64(rng) % 10_000,
            }
        })
        .collect();
    let mut hist = HistogramWindow {
        name: "serve.latency_us".to_string(),
        buckets: vec![0; HIST_BUCKETS],
        sum: 0,
    };
    let mut values = Vec::new();
    let n = 1 + (splitmix64(rng) % 200) as usize;
    for _ in 0..n {
        // Mix small (exact-bucket) and large (log-bucket) values.
        let v = if splitmix64(rng).is_multiple_of(2) {
            splitmix64(rng) % HIST_LINEAR as u64
        } else {
            splitmix64(rng) % 50_000_000
        };
        hist.buckets[bucket_of(v)] += 1;
        hist.sum += v;
        values.push(v);
    }
    (
        MetricsSnapshot {
            shard: format!("shard{shard}"),
            window_ms: 100 + splitmix64(rng) % 5_000,
            counters,
            histograms: vec![hist],
        },
        values,
    )
}

/// Equality up to the synthesized `shard` label (merge names its output by
/// input arity, which legitimately differs across groupings).
fn eq_modulo_label(a: &MetricsSnapshot, b: &MetricsSnapshot) -> bool {
    a.window_ms == b.window_ms && a.counters == b.counters && a.histograms == b.histograms
}

#[test]
fn merge_is_associative_modulo_shard_label() {
    let mut rng = 0xA11C_E5EEDu64;
    for _ in 0..50 {
        let (a, _) = random_snapshot(&mut rng, 0);
        let (b, _) = random_snapshot(&mut rng, 1);
        let (c, _) = random_snapshot(&mut rng, 2);
        let left = merge(&[merge(&[a.clone(), b.clone()]), c.clone()]);
        let right = merge(&[a.clone(), merge(&[b.clone(), c.clone()])]);
        let flat = merge(&[a, b, c]);
        assert!(eq_modulo_label(&left, &right), "grouping changed the merge");
        assert!(eq_modulo_label(&left, &flat), "nesting differs from a flat fold");
    }
}

#[test]
fn merge_is_commutative_modulo_shard_label() {
    let mut rng = 0x0B0B_51ED_u64;
    for _ in 0..50 {
        let (a, _) = random_snapshot(&mut rng, 0);
        let (b, _) = random_snapshot(&mut rng, 1);
        let (c, _) = random_snapshot(&mut rng, 2);
        let fwd = merge(&[a.clone(), b.clone(), c.clone()]);
        for perm in [
            vec![a.clone(), c.clone(), b.clone()],
            vec![b.clone(), a.clone(), c.clone()],
            vec![b.clone(), c.clone(), a.clone()],
            vec![c.clone(), a.clone(), b.clone()],
            vec![c.clone(), b.clone(), a.clone()],
        ] {
            assert!(eq_modulo_label(&fwd, &merge(&perm)), "input order changed the merge");
        }
    }
}

#[test]
fn merged_percentiles_stay_within_bucket_resolution_of_ground_truth() {
    let mut rng = 0xDEC1_0A7Eu64;
    for round in 0..30 {
        let shards = 2 + (splitmix64(&mut rng) % 7) as usize;
        let mut snaps = Vec::new();
        let mut pooled: Vec<u64> = Vec::new();
        for i in 0..shards {
            let (s, values) = random_snapshot(&mut rng, i);
            snaps.push(s);
            pooled.extend(values);
        }
        pooled.sort_unstable();
        let fleet = merge(&snaps);
        let hist = fleet.histogram("serve.latency_us").expect("merged histogram");
        assert_eq!(hist.count() as usize, pooled.len(), "merge loses no observations");
        for q in [0.10, 0.50, 0.90, 0.95, 0.99, 1.0] {
            // Same rank convention as HistogramWindow::percentile.
            let rank = ((q * pooled.len() as f64).ceil().max(1.0)) as usize;
            let truth = pooled[rank - 1];
            let reported = hist.percentile(q);
            assert_eq!(
                reported,
                bucket_upper(bucket_of(truth)),
                "round {round} q={q}: reported {reported} is not the bucket bound of {truth}"
            );
            if truth < HIST_LINEAR as u64 {
                assert_eq!(reported, truth, "linear-range percentiles are exact");
            } else {
                assert!(
                    truth <= reported && reported < truth.saturating_mul(2),
                    "round {round} q={q}: {reported} outside [v, 2v) of {truth}"
                );
            }
        }
    }
}

#[test]
fn high_water_counters_merge_by_max_while_flows_sum() {
    let mut rng = 0xFACADEu64;
    let (a, _) = random_snapshot(&mut rng, 0);
    let (b, _) = random_snapshot(&mut rng, 1);
    let fleet = merge(&[a.clone(), b.clone()]);
    let pick = |s: &MetricsSnapshot, n: &str| s.delta(n);
    assert_eq!(
        fleet.delta("serve.offered"),
        pick(&a, "serve.offered") + pick(&b, "serve.offered")
    );
    assert_eq!(
        fleet.delta("kv.pool.blocks.high_water"),
        pick(&a, "kv.pool.blocks.high_water").max(pick(&b, "kv.pool.blocks.high_water"))
    );
}
