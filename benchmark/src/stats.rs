//! Order statistics used by every report: medians, quartiles and the
//! tail-percentile rule.

/// Percentiles the tail rule may report, highest first, in per-mille so
/// ranks are exact integer arithmetic.
const TAIL_LADDER: [usize; 6] = [999, 990, 980, 950, 900, 750];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median; `NaN` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, interpolated exactly as
/// Python's `statistics.quantiles(values, n=4)` does (its default
/// "exclusive" method), so a spread computed here matches one computed
/// from the printed values. Needs at least two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    if data.len() < 2 {
        return None;
    }
    let m = data.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, data.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median (`0.05` = 5 %).
#[must_use]
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// A nearest-rank percentile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (`99.0` = p99).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it by rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples ranked beyond it, falling back to the
/// median when the sample is too small for any of them. `None` for an
/// empty sample.
#[must_use]
pub fn tail(values: &[f64]) -> Option<Tail> {
    let data = sorted(values);
    let n = data.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest k with k/n >= per_mille/1000 (1-based).
    let rank = |per_mille: usize| (per_mille * n).div_ceil(1000).clamp(1, n);
    let per_mille = TAIL_LADDER
        .into_iter()
        .find(|&p| n - rank(p) >= TAIL_MIN_BEYOND)
        .unwrap_or(500);
    let k = rank(per_mille);
    Some(Tail {
        percentile: per_mille as f64 / 10.0,
        value: data[k - 1],
        beyond: n - k,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 2.5, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), Some((4.5, 6.0, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&ten).expect("ten values");
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let sample = |n: u32| -> Vec<f64> { (1..=n).map(f64::from).collect() };
        // 1500 samples: p99 is rank 1485, 15 beyond; p99.9 leaves 1.
        let t = tail(&sample(1500)).expect("non-empty");
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 1485.0, 15));
        // 500 samples: p99 leaves 5 beyond, p98 leaves exactly 10.
        let t = tail(&sample(500)).expect("non-empty");
        assert_eq!((t.percentile, t.value, t.beyond), (98.0, 490.0, 10));
        // 10 000 samples reach p99.9.
        assert_eq!(tail(&sample(10_000)).expect("non-empty").percentile, 99.9);
        // Too few for any ladder step: the median stands in.
        let t = tail(&sample(12)).expect("non-empty");
        assert_eq!((t.percentile, t.value), (50.0, 6.0));
        assert!(tail(&[]).is_none());
        for t in [tail(&sample(40)), tail(&sample(1000))]
            .into_iter()
            .flatten()
        {
            assert!(t.beyond >= TAIL_MIN_BEYOND, "{t:?}");
        }
    }
}
