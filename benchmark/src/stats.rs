//! Median and quartiles, computed the way the benchmark's acceptance rule
//! computes them (Python's `statistics.quantiles(values, n=4)`, the
//! "exclusive" method), so `compare` and an outside checker agree.

/// Five-number summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Distance between the quartiles as a share of the median (0 when
    /// the median is 0 or fewer than two values exist).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Summary of `values`. With one value, the quartiles equal it.
///
/// # Panics
/// Panics on an empty slice.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "summary of an empty sample");
    let quartile = |i: usize| -> f64 {
        if n < 2 {
            return v[0];
        }
        // Exclusive method: position i*(n+1)/4, interpolated, clamped to
        // the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        min: v[0],
        q1: quartile(1),
        median: median(&v),
        q3: quartile(3),
        max: v[n - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        assert!((summarize(&v).spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_value_has_no_spread() {
        let s = summarize(&[7.0]);
        assert_eq!((s.q1, s.q3), (7.0, 7.0));
        assert_eq!(s.spread(), 0.0);
    }
}
