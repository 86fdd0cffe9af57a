//! Order statistics the benchmark reports: median, quartiles and the
//! tail percentile with at least ten samples beyond it.

/// Samples that must lie strictly beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
/// `None` for an empty set.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method). `None` for fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// The tail of a timing distribution: the highest sample with at least
/// [`TAIL_BEYOND`] samples above it, and where it sits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Share of the samples at or below `value`, in percent.
    pub percentile: f64,
    /// Sample count.
    pub n: usize,
    /// Samples strictly beyond `value` in rank order.
    pub beyond: usize,
}

/// The highest percentile with at least ten samples beyond it. A set of
/// ten samples or fewer has no such percentile; its maximum is returned
/// with `beyond = 0`, so the shortfall is visible where it is printed.
/// `None` for an empty set.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let idx = n.checked_sub(TAIL_BEYOND + 1).unwrap_or(n - 1);
    Some(Tail {
        value: v[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        n,
        beyond: n - 1 - idx,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        // Shuffled 1..=n, so sorting is exercised.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&seq(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&seq(5)), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_exactly_ten_samples_beyond() {
        let t = tail(&seq(100)).unwrap();
        assert_eq!((t.value, t.beyond, t.n), (90.0, 10, 100));
        assert_eq!(t.percentile, 90.0);

        let t = tail(&seq(11)).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));

        let t = tail(&seq(25)).unwrap();
        assert_eq!((t.value, t.beyond), (15.0, 10));
        assert_eq!(t.percentile, 60.0);
    }

    #[test]
    fn short_sets_report_their_maximum_with_nothing_beyond() {
        let t = tail(&seq(10)).unwrap();
        assert_eq!((t.value, t.beyond, t.percentile), (10.0, 0, 100.0));
        let t = tail(&[2.5]).unwrap();
        assert_eq!((t.value, t.beyond, t.n), (2.5, 0, 1));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tied_samples_count_by_rank() {
        let v = vec![1.0; 12];
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }
}
