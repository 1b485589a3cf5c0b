//! Order statistics over samples.

/// The median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The nearest-rank 90th percentile.
pub fn p90(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "percentile of no samples");
    let rank = (s.len() * 9).div_ceil(10);
    s[rank - 1]
}

/// Sample count, min, median and max.
pub fn summary(xs: &[f64]) -> (usize, f64, f64, f64) {
    let s = sorted(xs);
    (s.len(), s[0], median(&s), s[s.len() - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(p90(&xs), 18.0);
        assert_eq!(p90(&[5.0]), 5.0);
        assert_eq!(summary(&[2.0, 9.0, 4.0]), (3, 2.0, 4.0, 9.0));
    }
}
