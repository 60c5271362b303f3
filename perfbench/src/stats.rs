//! Order statistics over per-op samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// A run's figure from repeated samples of one quantity, each a median or
/// rate over the ops of one round: the best of them, the least for times
/// and the greatest for rates.
///
/// The host's speed changes by up to 1.7x from second to second, in
/// levels whose mix differs from run to run, and noise of this kind only
/// ever adds time. Of the estimators tried on the same runs (the minimum,
/// the 10th and 25th percentiles, the median), the best round varied
/// least between runs; a slower program is slower in its best round too.
pub fn best(samples: &[f64], higher_is_better: bool) -> Option<f64> {
    quantile(samples, if higher_is_better { 1.0 } else { 0.0 })
}

/// The `q`-quantile over op kinds of each kind's best latency,
/// where `per_kind` holds each kind's latencies across the run's rounds;
/// `None` when a kind has no samples.
pub fn kinds_quantile(per_kind: &[Vec<f64>], q: f64) -> Option<f64> {
    let fast: Option<Vec<f64>> = per_kind
        .iter()
        .map(|samples| best(samples, false))
        .collect();
    quantile(&fast?, q)
}

/// Ops per second of a round assembled from each op kind's best time:
/// `ops` over the sum of the kinds' best times, where `per_kind_ms` holds
/// each kind's times in ms across the run's rounds. A whole round (a suite
/// pass, a daemon session) lasts seconds and is rarely all at the host's
/// best speed, while each kind's op is, in some round. `None` when a kind
/// has no samples.
pub fn assembled_rate(ops: usize, per_kind_ms: &[Vec<f64>]) -> Option<f64> {
    let fast: Option<Vec<f64>> = per_kind_ms.iter().map(|ms| best(ms, false)).collect();
    Some(ops as f64 / (fast?.iter().sum::<f64>() / 1e3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), Some(10.0));
    }

    #[test]
    fn the_best_round_ignores_slow_ones() {
        let rounds = [1.2, 1.0, 1.1, 1.6, 1.6, 1.3];
        assert_eq!(best(&rounds, false), Some(1.0));
        let rates: Vec<f64> = rounds.iter().map(|t| 1.0 / t).collect();
        assert_eq!(best(&rates, true), Some(1.0));
    }

    #[test]
    fn kind_quantiles_are_over_best_latencies() {
        let per_kind = vec![vec![1.5, 1.0, 1.2], vec![3.0, 4.5, 3.1]];
        assert_eq!(kinds_quantile(&per_kind, 0.5), Some(2.0));
        assert_eq!(kinds_quantile(&[vec![1.0], vec![]], 0.5), None);
    }

    #[test]
    fn assembled_rates_sum_best_times() {
        // Best times 100 ms and 150 ms: 5 ops in 0.25 s.
        let per_kind = vec![vec![120.0, 100.0], vec![150.0, 400.0]];
        assert_eq!(assembled_rate(5, &per_kind), Some(20.0));
        assert_eq!(assembled_rate(5, &[vec![1.0], vec![]]), None);
    }
}
