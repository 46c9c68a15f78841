//! Small numeric summaries used throughout the experiment harness.

/// Exact percentile of a slice using linear interpolation between ranks.
///
/// Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if `pct` is outside `[0, 100]` or any value is NaN.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    assert!(
        (0.0..=100.0).contains(&pct),
        "percentile out of range: {pct}"
    );
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return Some(sorted[lo]);
    }
    let frac = rank - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Geometric mean of strictly positive values; `None` when empty or any
/// value is non-positive.
pub fn geo_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SmallRng};

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(40.0));
        assert_eq!(percentile(&v, 50.0), Some(25.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn geo_mean_basics() {
        assert_eq!(geo_mean(&[2.0, 8.0]), Some(4.0));
        assert_eq!(geo_mean(&[]), None);
        assert_eq!(geo_mean(&[1.0, 0.0]), None);
    }

    /// Property: any percentile of a sample lies within its min/max.
    #[test]
    fn prop_percentile_within_range() {
        let mut rng = SmallRng::seed_from_u64(0x9c_c7);
        for _case in 0..256 {
            let n = rng.gen_range(1usize..50);
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e3f64..1e3)).collect();
            let p = rng.gen_range(0.0f64..100.0);
            let v = percentile(&xs, p).unwrap();
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }
}
