//! Log-bucketed latency histogram with percentile queries.
//!
//! Tail-latency reporting (P95/P99/P99.9) over millions of request latencies
//! needs a compact sketch rather than a sorted vector. The histogram below
//! uses HDR-style buckets: each power-of-two range is split into
//! `2^SUB_BITS` linear sub-buckets, giving a bounded relative error of about
//! `1 / 2^SUB_BITS` (≈1.6 % with the default 6 sub-bucket bits) at any
//! percentile.

use crate::time::SimDuration;

/// Number of linear sub-buckets per power-of-two range (as a power of two).
const SUB_BITS: u32 = 6;
const SUB_COUNT: usize = 1 << SUB_BITS;

/// A latency histogram over [`SimDuration`] samples.
///
/// # Example
///
/// ```
/// use fleetio_des::{LatencyHistogram, SimDuration};
///
/// let mut h = LatencyHistogram::new();
/// for us in 1..=1000u64 {
///     h.record(SimDuration::from_micros(us));
/// }
/// let p50 = h.percentile(50.0).unwrap().as_micros();
/// assert!((480..=520).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Flat `range * SUB_COUNT + sub` bucket counts: samples whose
    /// nanosecond value falls in that log range / linear sub-bucket.
    buckets: Vec<u64>,
    count: u64,
    sum_nanos: u128,
    max_nanos: u64,
    min_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram covering the full `u64` nanosecond range.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; ((64 - SUB_BITS) as usize + 1) * SUB_COUNT],
            count: 0,
            sum_nanos: 0,
            max_nanos: 0,
            min_nanos: u64::MAX,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        let v = latency.as_nanos();
        let (range, sub) = Self::index(v);
        self.buckets[range * SUB_COUNT + sub] += 1;
        self.count += 1;
        self.sum_nanos += u128::from(v);
        self.max_nanos = self.max_nanos.max(v);
        self.min_nanos = self.min_nanos.min(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of all samples, or `None` when empty.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.count == 0 {
            return None;
        }
        Some(SimDuration::from_nanos(
            (self.sum_nanos / u128::from(self.count)) as u64,
        ))
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_nanos(self.max_nanos))
    }

    /// Smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_nanos(self.min_nanos))
    }

    /// Value at the given percentile in `[0, 100]`, or `None` when empty.
    ///
    /// The returned value is the upper edge of the bucket containing the
    /// requested rank, so it never under-reports a tail latency by more than
    /// the bucket's relative error.
    ///
    /// # Panics
    ///
    /// Panics if `pct` is outside `[0, 100]` or not finite.
    pub fn percentile(&self, pct: f64) -> Option<SimDuration> {
        assert!(
            pct.is_finite() && (0.0..=100.0).contains(&pct),
            "percentile out of range: {pct}"
        );
        if self.count == 0 {
            return None;
        }
        let target = ((pct / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= target {
                let (range, sub) = (i / SUB_COUNT, i % SUB_COUNT);
                return Some(SimDuration::from_nanos(
                    Self::bucket_high(range, sub).min(self.max_nanos),
                ));
            }
        }
        Some(SimDuration::from_nanos(self.max_nanos))
    }

    /// Merges another histogram's samples into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.max_nanos = self.max_nanos.max(other.max_nanos);
        self.min_nanos = self.min_nanos.min(other.min_nanos);
    }

    /// Forgets all samples.
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum_nanos = 0;
        self.max_nanos = 0;
        self.min_nanos = u64::MAX;
    }

    /// Maps a nanosecond value to its (range, sub-bucket) index.
    ///
    /// Range 0 holds values below `SUB_COUNT` exactly (one value per
    /// sub-bucket). Range `r >= 1` holds values whose most significant bit is
    /// `SUB_BITS + r - 1`; its sub-bucket is the next `SUB_BITS` bits after
    /// the leading one, so each bucket spans `2^(r-1)` values.
    fn index(v: u64) -> (usize, usize) {
        if v < SUB_COUNT as u64 {
            return (0, v as usize);
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let range = (shift + 1) as usize;
        let sub = (v >> shift) as usize - SUB_COUNT;
        (range, sub)
    }

    /// Inclusive low edge of a bucket in nanoseconds.
    fn bucket_low(range: usize, sub: usize) -> u64 {
        if range == 0 {
            return sub as u64;
        }
        ((sub + SUB_COUNT) as u64) << (range - 1)
    }

    /// Inclusive high edge of a bucket in nanoseconds.
    fn bucket_high(range: usize, sub: usize) -> u64 {
        if range == 0 {
            return sub as u64;
        }
        Self::bucket_low(range, sub) + ((1u64 << (range - 1)) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SmallRng};

    #[test]
    fn empty_histogram_reports_none() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(99.0), None);
    }

    #[test]
    fn single_sample_percentiles() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_micros(123));
        for pct in [0.0, 50.0, 99.0, 100.0] {
            let v = h.percentile(pct).unwrap().as_nanos();
            let err = (v as f64 - 123_000.0).abs() / 123_000.0;
            assert!(err < 0.02, "pct {pct}: got {v}");
        }
        assert_eq!(h.max().unwrap().as_micros(), 123);
        assert_eq!(h.min().unwrap().as_micros(), 123);
    }

    #[test]
    fn uniform_distribution_percentiles_are_accurate() {
        let mut h = LatencyHistogram::new();
        for us in 1..=10_000u64 {
            h.record(SimDuration::from_micros(us));
        }
        for (pct, want_us) in [(50.0, 5_000.0), (95.0, 9_500.0), (99.0, 9_900.0)] {
            let got = h.percentile(pct).unwrap().as_nanos() as f64 / 1_000.0;
            let err = (got - want_us).abs() / want_us;
            assert!(err < 0.03, "pct {pct}: got {got}, want {want_us}");
        }
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(SimDuration::from_micros(10));
        b.record(SimDuration::from_micros(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max().unwrap().as_micros(), 1000);
        assert_eq!(a.min().unwrap().as_micros(), 10);
    }

    #[test]
    fn clear_resets() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_micros(5));
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_micros(100));
        h.record(SimDuration::from_micros(300));
        assert_eq!(h.mean().unwrap().as_micros(), 200);
    }

    /// Values below `SUB_COUNT` occupy one-value buckets (range 0), so
    /// percentiles there are exact, not approximate: a 90/10 split of two
    /// such values pins P50 to the low value and P95/P99/P100 to the high.
    #[test]
    fn exact_percentiles_in_linear_range() {
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(SimDuration::from_nanos(10));
        }
        for _ in 0..10 {
            h.record(SimDuration::from_nanos(50));
        }
        assert_eq!(h.percentile(50.0).unwrap().as_nanos(), 10);
        assert_eq!(h.percentile(90.0).unwrap().as_nanos(), 10);
        assert_eq!(h.percentile(95.0).unwrap().as_nanos(), 50);
        assert_eq!(h.percentile(99.0).unwrap().as_nanos(), 50);
        assert_eq!(h.percentile(100.0).unwrap().as_nanos(), 50);
    }

    /// Property: every value falls inside its own bucket's [low, high].
    #[test]
    fn prop_bucket_index_brackets_value() {
        let mut rng = SmallRng::seed_from_u64(0x8157);
        for _case in 0..4096 {
            let v = rng.gen_range(0u64..u64::MAX / 2);
            let (range, sub) = LatencyHistogram::index(v);
            let lo = LatencyHistogram::bucket_low(range, sub);
            let hi = LatencyHistogram::bucket_high(range, sub);
            assert!(
                lo <= v && v <= hi,
                "v={v} not in [{lo},{hi}] (range={range},sub={sub})"
            );
            // Relative bucket width bounded.
            if v >= SUB_COUNT as u64 {
                assert!((hi - lo) as f64 / v as f64 <= 2.0 / SUB_COUNT as f64 + 1e-9);
            }
        }
    }

    /// Property: percentiles are monotone in the requested rank.
    #[test]
    fn prop_percentile_monotone() {
        let mut rng = SmallRng::seed_from_u64(0x9e01);
        for _case in 0..128 {
            let n = rng.gen_range(2usize..300);
            let mut h = LatencyHistogram::new();
            for _ in 0..n {
                h.record(SimDuration::from_nanos(rng.gen_range(1u64..10_000_000)));
            }
            let p50 = h.percentile(50.0).unwrap();
            let p90 = h.percentile(90.0).unwrap();
            let p99 = h.percentile(99.0).unwrap();
            assert!(p50 <= p90 && p90 <= p99);
        }
    }
}
