//! Open-loop workload substrate: arrival-trace generators and latency
//! statistics.
//!
//! The paper's motivation is a *serving* system (TikTok/Douyin traffic):
//! requests with wildly different lengths arrive continuously and must be
//! batched for GPU efficiency. This module produces those arrival traces
//! ([`poisson_arrivals`], [`bursty_arrivals`]) and summarises the latencies
//! a run observed ([`latency_stats`]); the continuous-batching server that
//! consumes them (bounded ingress queue, deadlines, token-budget batches,
//! load shedding) lives in [`crate::server`], its batch-cutting policies
//! in [`crate::admission`].

/// A request with an arrival time: one entry of an open-loop trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedRequest {
    /// Caller-assigned identifier.
    pub id: usize,
    /// Token count.
    pub len: usize,
    /// Arrival time in seconds.
    pub arrival: f64,
}

/// Samples `n` requests with exponential inter-arrival times (a Poisson
/// process at `rate` requests/second) and lengths from `dist`.
pub fn poisson_arrivals(
    n: usize,
    rate: f64,
    dist: bt_varlen::workload::LengthDistribution,
    max_len: usize,
    seed: u64,
) -> Vec<TimedRequest> {
    assert!(rate > 0.0, "rate must be positive");
    let mut rng = bt_tensor::rng::Xoshiro256StarStar::seed_from_u64(seed);
    let lens = dist.sample(n, max_len, seed.wrapping_add(1));
    let mut t = 0.0f64;
    lens.into_iter()
        .enumerate()
        .map(|(id, len)| {
            t += -(1.0 - rng.next_f64()).ln() / rate; // Exp(rate)
            TimedRequest { id, len, arrival: t }
        })
        .collect()
}

/// Samples `n` requests from a two-phase bursty (Markov-modulated Poisson)
/// process: the arrival rate alternates between `base_rate` and
/// `burst_rate` requests/second, switching phase every `period` seconds,
/// with lengths from `dist`. This is the adversarial open-loop shape for an
/// admission policy — sustained bursts at a multiple of capacity with quiet
/// valleys in between — while staying fully deterministic under `seed`.
///
/// # Panics
/// Panics unless both rates and the period are positive.
pub fn bursty_arrivals(
    n: usize,
    base_rate: f64,
    burst_rate: f64,
    period: f64,
    dist: bt_varlen::workload::LengthDistribution,
    max_len: usize,
    seed: u64,
) -> Vec<TimedRequest> {
    assert!(base_rate > 0.0 && burst_rate > 0.0, "rates must be positive");
    assert!(period > 0.0, "period must be positive");
    let mut rng = bt_tensor::rng::Xoshiro256StarStar::seed_from_u64(seed);
    let lens = dist.sample(n, max_len, seed.wrapping_add(1));
    let mut t = 0.0f64;
    lens.into_iter()
        .enumerate()
        .map(|(id, len)| {
            // Phase of the current instant decides the local rate; the
            // exponential gap is sampled at that rate. (A gap can straddle a
            // phase boundary — fine for a load generator: the realized rate
            // still alternates between the two targets.)
            let in_burst = ((t / period) as u64) % 2 == 1;
            let rate = if in_burst { burst_rate } else { base_rate };
            t += -(1.0 - rng.next_f64()).ln() / rate;
            TimedRequest { id, len, arrival: t }
        })
        .collect()
}

/// Latency percentiles over a set of per-request latencies (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Mean latency.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Worst case.
    pub max: f64,
}

/// Computes latency statistics. Returns zeros for an empty input.
pub fn latency_stats(latencies: &[f64]) -> LatencyStats {
    if latencies.is_empty() {
        return LatencyStats {
            mean: 0.0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
            max: 0.0,
        };
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let pct = |p: f64| -> f64 {
        let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[idx]
    };
    LatencyStats {
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        p50: pct(0.50),
        p95: pct(0.95),
        p99: pct(0.99),
        max: *sorted.last().expect("non-empty"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_arrivals_are_monotone_at_roughly_the_rate() {
        let reqs = poisson_arrivals(2_000, 100.0, bt_varlen::workload::LengthDistribution::Fixed, 64, 7);
        assert!(reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let span = reqs.last().unwrap().arrival;
        let rate = reqs.len() as f64 / span;
        assert!((rate - 100.0).abs() < 10.0, "observed rate {rate}");
        assert!(reqs.iter().all(|r| r.len == 64));
    }

    #[test]
    fn bursty_arrivals_alternate_between_the_two_rates() {
        let period = 0.5;
        let reqs = bursty_arrivals(
            4_000,
            20.0,
            400.0,
            period,
            bt_varlen::workload::LengthDistribution::Fixed,
            16,
            3,
        );
        assert!(reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // Count arrivals per phase; burst phases must be far denser.
        let (mut quiet, mut burst) = (0usize, 0usize);
        for r in &reqs {
            if ((r.arrival / period) as u64) % 2 == 1 {
                burst += 1;
            } else {
                quiet += 1;
            }
        }
        assert!(
            burst > quiet * 4,
            "burst phases must dominate: burst {burst} vs quiet {quiet}"
        );
    }

    #[test]
    fn stats_percentiles() {
        let lat: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = latency_stats(&lat);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!((s.p50 - 50.0).abs() <= 1.0);
        assert!((s.p95 - 95.0).abs() <= 1.0);
        assert!((s.p99 - 99.0).abs() <= 1.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = latency_stats(&[]);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.mean, 0.0);
    }
}
