//! Order statistics of repeated measurements.

/// Median, first and third quartile, and sample count of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarize a non-empty sample set. Quartiles use the "exclusive"
    /// method of Python's `statistics.quantiles(values, n=4)`, the rule the
    /// run-to-run spread of the benchmark is judged by.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample set");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            median: median_sorted(&v),
            q1: quartile_sorted(&v, 1),
            q3: quartile_sorted(&v, 3),
            n: v.len(),
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of a non-empty sample set.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartile `i` (1 or 3) of sorted data by the exclusive method: position
/// `i·(n+1)/4`, interpolated, clamped to the data at the ends.
fn quartile_sorted(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let m = n + 1;
    let j = i * m / 4;
    let delta = (i * m - j * 4) as f64;
    if j == 0 {
        return v[0];
    }
    if j >= n {
        return v[n - 1];
    }
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; the
        // benchmark clamps to the observed range instead of extrapolating.
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 1.5, 2.0));
        assert_eq!(Summary::of(&[4.0]).spread(), 0.0);
    }
}
