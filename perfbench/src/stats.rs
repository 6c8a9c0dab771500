//! Order statistics over timing samples.

/// Nearest-rank percentile: the smallest sample with at least `p` % of
/// the samples at or below it (`p` in `(0, 100]`). `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank median (the 50th percentile); `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Theil–Sen slope of `y` against `x`: the median of the slopes between
/// every two points with distinct `x`, which a few outlying points
/// cannot swing. `None` when no two `x` differ.
pub fn theil_sen_slope(x: &[f64], y: &[f64]) -> Option<f64> {
    let mut slopes = Vec::new();
    for i in 0..x.len().min(y.len()) {
        for j in i + 1..x.len().min(y.len()) {
            if x[j] != x[i] {
                slopes.push((y[j] - y[i]) / (x[j] - x[i]));
            }
        }
    }
    percentile(&slopes, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 91.0), Some(10.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.1), Some(1.0));
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let xs = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 60.0), Some(5.0));
        assert_eq!(percentile(&xs, 61.0), Some(7.0));
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn theil_sen_recovers_a_line_through_an_outlier() {
        let x = [0.0, 0.1, 0.2, 0.3, 0.4];
        let mut y: Vec<f64> = x.iter().map(|v| 2.0 + 3.0 * v).collect();
        y[2] = 50.0;
        let slope = theil_sen_slope(&x, &y).unwrap();
        assert!((slope - 3.0).abs() < 1e-9, "slope {slope}");
        assert_eq!(theil_sen_slope(&[0.0, 0.0], &[1.0, 2.0]), None);
        assert_eq!(theil_sen_slope(&[], &[]), None);
    }

    #[test]
    fn empty_samples_have_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
