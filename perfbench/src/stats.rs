//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank definition: `percentile(q)` is the
//! smallest sample with at least `q` of the samples at or below it. A tail
//! percentile is only reported when at least [`TAIL_SAMPLES`] samples lie
//! beyond it; fewer would make the figure the luck of a handful of
//! requests.

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank index of the `q` percentile in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `q` percentile (`0 < q <= 1`) of `sorted`, which must be ascending
/// and non-empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q)]
}

/// Samples of `n` that lie strictly beyond the `q` percentile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The median of latency `samples` (sorted in place), or an error naming
/// `what` when there are none.
pub fn p50(samples: &mut [f64], what: &str) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("{what}: no samples"));
    }
    samples.sort_by(f64::total_cmp);
    Ok(percentile(samples, 0.50))
}

/// The median and the 99th percentile of `samples` (sorted in place), or
/// an error naming `what` when the sample leaves fewer than
/// [`TAIL_SAMPLES`] beyond the 99th percentile.
pub fn p50_p99(samples: &mut [f64], what: &str) -> Result<(f64, f64), String> {
    let n = samples.len();
    if beyond(n, 0.99) < TAIL_SAMPLES {
        return Err(format!(
            "{what}: {n} samples leave {} beyond p99, fewer than {TAIL_SAMPLES}",
            beyond(n, 0.99)
        ));
    }
    samples.sort_by(f64::total_cmp);
    Ok((percentile(samples, 0.50), percentile(samples, 0.99)))
}

/// The median of `values` (sorted in place); the mean of the middle pair
/// for an even count.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.001), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let odd = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&odd, 0.5), 3.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 1000 samples: p99 is the 990th, leaving exactly ten beyond it.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(1001, 0.99), 10);
        assert_eq!(beyond(0, 0.99), 0);
        let mut short: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(p50_p99(&mut short, "reads").is_err());
        let mut enough: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        assert_eq!(p50_p99(&mut enough, "reads"), Ok((499.0, 989.0)));
        assert_eq!(p50(&mut [3.0, 1.0, 2.0], "reads"), Ok(2.0));
        assert!(p50(&mut [], "reads").is_err());
    }

    #[test]
    fn medians() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [5.0]), 5.0);
    }
}
