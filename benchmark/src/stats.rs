//! Sample summaries: median and quartiles with the sample count stated, as
//! `statistics.quantiles(values, n=4)` computes them.

/// Median, quartiles and count of one metric's samples. `n == 0` marks a
/// metric the workload does not measure (printed as `n/a`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The reported value: the median of the samples (or the exact value
    /// of a counted / simulated metric).
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples behind `value`.
    pub n: usize,
}

impl Stat {
    /// A single value derived from `n` samples, no spread.
    pub fn point(value: f64, n: usize) -> Self {
        Stat {
            value,
            q1: value,
            q3: value,
            n,
        }
    }

    /// An exact (counted or simulated) value.
    pub fn exact(value: f64) -> Self {
        Stat::point(value, 1)
    }

    /// A metric this workload does not measure.
    pub fn not_measured(placeholder: f64) -> Self {
        Stat::point(placeholder, 0)
    }

    /// Median and quartiles of `samples`; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Some(Stat {
            value: quantile(&s, 0.5),
            q1: quantile(&s, 0.25),
            q3: quantile(&s, 0.75),
            n: s.len(),
        })
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

/// The `p`-quantile of ascending `sorted` by Python's default
/// "exclusive" method (`statistics.quantiles`): position `p·(n+1)`,
/// linearly interpolated and clamped to the sample range.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = (p * (n as f64 + 1.0) - 1.0).clamp(0.0, (n - 1) as f64);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Stat::of(&v).unwrap();
        assert_eq!((s.q1, s.value, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Stat::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.value, s.q3), (1.0, 2.0, 3.0));
        assert!(Stat::of(&[]).is_none());
        assert_eq!(Stat::of(&[4.0]).unwrap().spread(), 0.0);
    }
}
