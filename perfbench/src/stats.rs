//! Order statistics with the benchmark's tail rule.

/// Sorts `values` ascending (NaN-free input).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The value at quantile `q` of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail percentile a sample of `n` supports: 0.99 when at least ten
/// samples lie beyond it, otherwise the highest quantile that still leaves
/// ten samples beyond it (never below the median).
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    // Samples strictly beyond quantile q number n - ceil(q n).
    let beyond_p99 = n - (0.99 * n as f64).ceil() as usize;
    if beyond_p99 >= 10 {
        return 0.99;
    }
    let q = (n.saturating_sub(10)) as f64 / n as f64;
    q.max(0.5)
}

/// The tail value under [`tail_quantile`], with the quantile used.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let q = tail_quantile(sorted.len());
    (quantile(sorted, q), q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(n: usize, q: f64) -> usize {
        n - (q * n as f64).ceil() as usize
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail_quantile(5000), 0.99);
        // 999 samples leave only 9 beyond p99: fall back to the highest
        // quantile that keeps ten beyond.
        let q = tail_quantile(999);
        assert!(q < 0.99);
        assert_eq!(beyond(999, q), 10);
        let q = tail_quantile(200);
        assert!((q - 0.95).abs() < 1e-12);
        assert_eq!(beyond(200, q), 10);
        // Tiny samples never report below the median.
        assert_eq!(tail_quantile(12), 0.5);
    }

    #[test]
    fn tail_reads_the_eleventh_largest_when_short() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let (v, q) = tail(&values);
        assert_eq!(v, 190.0);
        assert!((q - 0.95).abs() < 1e-12);
        let values: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&values), (1980.0, 0.99));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
