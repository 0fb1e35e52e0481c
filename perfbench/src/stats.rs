//! Order statistics and naming rules shared by every workload.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` % of
/// the samples at or below it.
///
/// # Panics
///
/// Panics if `values` is empty or `p` is outside `(0, 100]`.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail of a latency sample: the highest nearest-rank percentile
/// that still has at least [`Tail::MIN_BEYOND`] samples above its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile, `100 · rank / n`.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

impl Tail {
    /// Samples that must lie beyond the reported rank.
    pub const MIN_BEYOND: usize = 10;
}

/// [`Tail`] of `values`. With `n` samples the rank is `n − 10`; below
/// eleven samples no such rank exists and the smallest sample (rank 1)
/// is reported, so the percentile printed beside it shows how little
/// it says.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = n.saturating_sub(Tail::MIN_BEYOND).max(1);
    Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    }
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics if `values` is empty or holds a value that is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    assert!(
        values.iter().all(|&v| v > 0.0 && v.is_finite()),
        "geometric mean needs finite positive values: {values:?}"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 5.0), 1.0);
        assert_eq!(nearest_rank(&v, 50.0), 10.0);
        assert_eq!(nearest_rank(&v, 51.0), 11.0);
        assert_eq!(nearest_rank(&v, 99.0), 20.0);
        assert_eq!(nearest_rank(&v, 100.0), 20.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_its_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        let beyond = v.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, Tail::MIN_BEYOND);

        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.percentile), (990.0, 99.0));
    }

    #[test]
    fn tail_of_few_samples_falls_back_to_the_first_rank() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!(t.value, 1.0);
        assert!((t.percentile - 100.0 / 3.0).abs() < 1e-12);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v).value, 1.0);
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v).value, 2.0);
    }

    #[test]
    fn geomean_weights_values_multiplicatively() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        // Scaling one value by k scales the mean of n values by k^(1/n).
        let base = geomean(&[1.0, 2.0, 3.0, 4.0]);
        let scaled = geomean(&[16.0, 2.0, 3.0, 4.0]);
        assert!((scaled / base - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in [
            "setup_s",
            "atpg.podem_p99_ms",
            "a",
            "9x",
            "core.edge-density",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "p%", "é", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
