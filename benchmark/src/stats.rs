//! Order statistics for latency samples.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (in `(50, 100)`), refused (`None`) unless at
/// least [`MIN_BEYOND`] samples lie beyond it — p90 needs 100 samples.
pub fn tail_percentile(samples: &[f64], p: u32) -> Option<f64> {
    assert!(p > 50 && p < 100, "tail percentile out of range: {p}");
    let n = samples.len();
    let rank = (n * p as usize).div_ceil(100); // 1-based
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_is_refused_under_100_samples() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 90), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // rank 90 of 100: ten samples (91..=100) lie beyond it
        assert_eq!(tail_percentile(&v, 90), Some(90.0));
        // p95 of 100 samples leaves only five beyond: refused
        assert_eq!(tail_percentile(&v, 95), None);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 95), Some(190.0));
    }

    #[test]
    fn percentile_selection_ignores_input_order() {
        let mut v: Vec<f64> = (1..=120).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail_percentile(&v, 90), Some(108.0));
    }
}
