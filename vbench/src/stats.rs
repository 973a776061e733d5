//! Order statistics shared by the run harness and `vbench compare`.
//!
//! Latency percentiles use the nearest-rank method, the same one the S1
//! service experiment reports. Run-to-run summaries (median and
//! quartiles of one metric over many runs) interpolate exactly like
//! Python's `statistics.median` and `statistics.quantiles(values, n=4)`,
//! so a spread computed here matches one computed from the same numbers
//! by any other tool that follows that convention.

/// The 1-based nearest rank of the `q`-quantile among `n` samples (0
/// when there are none); `q` is clamped to `[0, 1]`.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as usize).min(n)
}

/// The nearest-rank `q`-quantile of `sorted` (ascending); `None` when
/// empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let r = rank(sorted.len(), q);
    (r > 0).then(|| sorted[r - 1])
}

/// How many of `n` samples lie beyond their nearest-rank `q`-quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The median of `values` (any order): the middle value, or the mean of
/// the two middle values for an even count. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles of `values` by the exclusive method of
/// `statistics.quantiles(values, n=4)`; `None` with fewer than two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let cut = |i: i64| {
        // 1-based position i*(n+1)/4, clamped to an inner pair and
        // interpolated (or extrapolated, for tiny n) from it.
        let m = n as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread of a metric. `None` with fewer than two values or a zero
/// median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// `values` sorted ascending (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.50), Some(5.0));
        assert_eq!(quantile(&sorted, 0.99), Some(10.0));
        assert_eq!(quantile(&sorted, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_percentiles_keep_ten_samples_beyond() {
        // A percentile is reportable when at least ten samples lie beyond
        // it: p99 needs 1000 samples, p95 200, p90 100.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(200, 0.95), 10);
        assert_eq!(beyond(199, 0.95), 9);
        assert_eq!(beyond(100, 0.90), 10);
        assert_eq!(beyond(12, 0.5), 6);
        assert_eq!(beyond(0, 0.99), 0);
        // The nearest-rank sample itself is never counted as beyond.
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = quantile(&sorted, 0.99).expect("non-empty");
        assert_eq!(sorted.iter().filter(|&&x| x > p99).count(), beyond(1000, 0.99));
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&ten).expect("ten values");
        assert!((s - 5.5 / 5.5).abs() < 1e-12, "{s}");
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
