//! Order statistics for timing samples.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0.0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// 1-based nearest rank of percentile `p` (`0 < p <= 1`) among `n`
/// samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` of `samples`, reported only when at least
/// `min_beyond` samples lie above it: a tail percentile resting on fewer
/// samples moves with single outliers, so it is not reported at all.
#[must_use]
pub fn supported_percentile(samples: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = nearest_rank(n, p);
    if n - rank < min_beyond {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly ten samples beyond it.
        assert_eq!(supported_percentile(&hundred, 0.9, 10), Some(90.0));
        // With 99 samples the p90 rank is 90 and only nine lie beyond.
        assert_eq!(supported_percentile(&hundred[..99], 0.9, 10), None);
        assert_eq!(supported_percentile(&[], 0.5, 0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled: Vec<f64> = (1..=20).map(f64::from).rev().collect();
        shuffled.swap(3, 17);
        assert_eq!(supported_percentile(&shuffled, 0.5, 10), Some(10.0));
        assert_eq!(supported_percentile(&shuffled, 0.5, 11), None);
    }
}
