//! Summary statistics shared by experiments.

/// Mean of a sample (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (0 for fewer than two points).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation of the sorted
/// sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    assert!(!xs.is_empty(), "quantile of empty sample");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in sample"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Half-width of a normal-approximation 95% confidence interval for the
/// mean.
pub fn ci95_half_width(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    1.96 * std_dev(xs) / (xs.len() as f64).sqrt()
}

/// A χ² statistic with its degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquare {
    /// The statistic.
    pub statistic: f64,
    /// Degrees of freedom of its reference distribution.
    pub dof: usize,
}

impl ChiSquare {
    /// Whether the statistic lies beyond the upper quantile of `χ²(dof)` at
    /// standard-normal deviate `z` (Wilson–Hilferty approximation; `z = 3.09`
    /// is the 99.9 % point). Never true with no degree of freedom.
    pub fn exceeds(&self, z: f64) -> bool {
        if self.dof == 0 {
            return false;
        }
        let k = self.dof as f64;
        let spread = 2.0 / (9.0 * k);
        self.statistic > k * (1.0 - spread + z * spread.sqrt()).powi(3)
    }
}

/// Two-sample χ² test of homogeneity: `a[c]` and `b[c]` count category `c`
/// in two independent samples, which under the null hypothesis share one
/// distribution. Categories with fewer than `min_pooled` observations in
/// the two samples together are pooled into one, keeping the χ²
/// approximation sound for sparse tails.
pub fn chi_square_two_sample(a: &[u64], b: &[u64], min_pooled: u64) -> ChiSquare {
    assert_eq!(a.len(), b.len(), "one count per category in each sample");
    let (total_a, total_b) = (a.iter().sum::<u64>() as f64, b.iter().sum::<u64>() as f64);
    assert!(total_a > 0.0 && total_b > 0.0, "both samples need observations");
    let (scale_a, scale_b) = ((total_b / total_a).sqrt(), (total_a / total_b).sqrt());
    let term = |x: u64, y: u64| (scale_a * x as f64 - scale_b * y as f64).powi(2) / (x + y) as f64;

    let (mut statistic, mut categories) = (0.0, 0usize);
    let (mut rest_a, mut rest_b) = (0u64, 0u64);
    for (&x, &y) in a.iter().zip(b) {
        if x + y < min_pooled {
            rest_a += x;
            rest_b += y;
        } else {
            statistic += term(x, y);
            categories += 1;
        }
    }
    if rest_a + rest_b > 0 {
        statistic += term(rest_a, rest_b);
        categories += 1;
    }
    ChiSquare { statistic, dof: categories.saturating_sub(1) }
}

/// A running min/mean/max accumulator for streaming measurements.
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Minimum observation (∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(ci95_half_width(&[1.0]), 0.0);
    }

    #[test]
    fn quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert!((quantile(&xs, 0.25) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.3) - 3.0).abs() < 1e-12);
    }

    /// Homogeneous samples stay under the 99.9 % point; a shifted one does
    /// not; sparse categories are pooled, not divided by.
    #[test]
    fn chi_square_separates_equal_from_different() {
        let a = [250, 240, 260, 250, 0, 1];
        let same = chi_square_two_sample(&a, &[245, 255, 250, 250, 2, 0], 10);
        assert_eq!(same.dof, 4, "four dense categories plus the pooled rest");
        assert!(!same.exceeds(3.09), "{same:?}");
        let shifted = chi_square_two_sample(&a, &[350, 150, 250, 250, 0, 0], 10);
        assert!(shifted.exceeds(3.09), "{shifted:?}");
        // 1 dof: statistic of a 2x2 table, checked by hand.
        let table = chi_square_two_sample(&[30, 70], &[50, 50], 0);
        assert_eq!(table.dof, 1);
        assert!((table.statistic - 25.0 / 3.0).abs() < 1e-9, "{table:?}");
    }

    #[test]
    fn accumulator_tracks_extremes() {
        let mut acc = Accumulator::new();
        for x in [3.0, 1.0, 2.0] {
            acc.push(x);
        }
        assert_eq!(acc.count(), 3);
        assert_eq!(acc.min(), 1.0);
        assert_eq!(acc.max(), 3.0);
        assert!((acc.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_rejects_empty() {
        quantile(&[], 0.5);
    }
}
