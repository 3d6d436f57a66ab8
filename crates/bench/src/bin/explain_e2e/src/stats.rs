//! Order statistics for the ledger: medians, quartiles with the same
//! interpolation as Python's `statistics.quantiles(values, n=4)`, and the
//! tail rule every timing in this benchmark follows — report the highest
//! of p99, p90 and p75 that still has at least ten samples beyond it.

/// Samples a tail percentile must leave above it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `NaN` for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The arithmetic mean; `NaN` for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartile, interpolated exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method,
/// which extrapolates below three samples), so a spread computed here
/// matches one computed from the ledger in Python. One sample gives that
/// sample twice; none gives `NaN`s.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Distance between the quartiles as a share of the median — the
/// run-to-run spread the regression bounds are checked against.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail of a timing distribution: the highest of p99, p90 and p75
/// that leaves at least [`TAIL_MIN_BEYOND`] samples above it, returned
/// with the percentile used. With fewer than 40 samples no such
/// percentile exists and the maximum (reported as p100) stands in.
pub fn tail(values: &[f64]) -> (f64, u32) {
    let n = values.len();
    for p in [99u32, 90, 75] {
        let beyond = n - (f64::from(p) / 100.0 * n as f64).ceil() as usize;
        if beyond >= TAIL_MIN_BEYOND {
            return (percentile(values, f64::from(p)), p);
        }
    }
    (values.iter().copied().fold(f64::NAN, f64::max), 100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: with
        // two samples Python extrapolates, and so must this.
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0; 6]), 0.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (990.0, 99));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (30.0, 75));
        // 39 samples: p75 leaves only 9 above it.
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&v), (39.0, 100));
        assert_eq!(tail(&[]).1, 100);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 75.0), 15.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
    }
}
