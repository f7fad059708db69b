//! Order statistics over host timings.

/// Nearest-rank percentile (`p` in `0..=100`) of `values`; 0 for an
/// empty population. The rank is `ceil(p/100 · n)`, clamped to `1..=n`,
/// so the result is always one of the samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median as the nearest-rank 50th percentile.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_tiny_inputs() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[7.0], 100.0), 7.0);
        // Two samples: p50 is the lower, anything above it the upper.
        assert_eq!(percentile(&[2.0, 1.0], 50.0), 1.0);
        assert_eq!(percentile(&[2.0, 1.0], 51.0), 2.0);
        // Five samples: ranks ceil(0.5·5)=3 and ceil(0.9·5)=5.
        let five = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(median(&five), 30.0);
        assert_eq!(percentile(&five, 90.0), 50.0);
        assert_eq!(percentile(&five, 20.0), 10.0);
        assert_eq!(percentile(&five, 21.0), 20.0);
        // Ten samples: p90 is the 9th smallest, not the maximum.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 90.0), 9.0);
        assert_eq!(median(&ten), 5.0);
    }

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
