//! Order statistics for the report: percentiles with their sample counts,
//! and the quartile spread the regression bounds are set against.

/// The `p`-th percentile (0–100) of `samples`, linearly interpolated between
/// closest ranks. Returns 0 for an empty slice (a layer that did not run).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest tail percentile that `n` samples support: the largest of
/// p99/p95/p90/p80/p75 with at least ten samples beyond it. `None` below 40
/// samples — report the median alone then.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 80, 75]
        .into_iter()
        .find(|p| n * (100 - *p as usize) >= 10 * 100)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the rule the regression bounds in
/// `BENCHMARK.json` are judged by. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut s = values.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread: the distance between the quartiles as a share of the
/// median. 0 with fewer than two runs or a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => ((q3 - q1) / med).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(75));
        assert_eq!(highest_supported_percentile(50), Some(80));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(199), Some(90));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(360), Some(95));
        assert_eq!(highest_supported_percentile(1000), Some(99));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}
