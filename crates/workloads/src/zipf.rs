//! Zipfian sampling for key-value access locality.
//!
//! YCSB's zipfian request distribution gives key-value workloads their
//! characteristic low-entropy (high-locality) address patterns — the very
//! property that puts YCSB-B in its own cluster in Figure 6 of the paper.

use fleetio_des::rng::Rng;

/// A zipfian sampler over `0..n` with skew `theta` (YCSB default 0.99),
/// using the Gray et al. constant-time rejection-free method.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    /// `1 + 0.5^θ`: a draw with `u·ζ(n)` under it (and at least 1) is
    /// rank 1.
    rank1_bound: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfSampler {
    /// Builds a sampler over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "n must be positive");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfSampler {
            n,
            rank1_bound: 1.0 + 0.5f64.powf(theta),
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n, integral approximation for large n.
        if n <= 10_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=10_000u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            // ∫_{10000}^{n} x^{-θ} dx
            let tail = ((n as f64).powf(1.0 - theta) - 10_000f64.powf(1.0 - theta)) / (1.0 - theta);
            head + tail
        }
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws one zipf-distributed rank in `0..n` (0 is the hottest).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_bound {
            return 1;
        }
        let v = ((self.eta * u - self.eta + 1.0).powf(self.alpha) * self.n as f64) as u64;
        v.min(self.n - 1)
    }
}

/// Scrambles a zipf rank into the address space so hot items are spread
/// out (YCSB's scrambled-zipfian), keeping hot-set size but avoiding a
/// single hot region.
pub fn scramble(rank: u64, n: u64) -> u64 {
    // SplitMix-style mix, folded into range.
    let mut z = rank.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % n
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::rng::SmallRng;

    #[test]
    fn hottest_item_dominates() {
        let z = ZipfSampler::new(1000, 0.99);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut count0 = 0;
        let n = 100_000;
        for _ in 0..n {
            if z.sample(&mut rng) == 0 {
                count0 += 1;
            }
        }
        let frac = count0 as f64 / n as f64;
        // For θ=0.99, n=1000: p(0) = 1/ζ ≈ 0.127.
        assert!((0.10..0.16).contains(&frac), "p(0) = {frac}");
    }

    #[test]
    fn samples_stay_in_range() {
        let z = ZipfSampler::new(50, 0.5);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 50);
        }
    }

    #[test]
    fn large_n_zeta_approximation_is_close() {
        // Compare approximate zeta against exact for a crossable size.
        let exact = ZipfSampler::zeta(10_000, 0.9);
        let _z = ZipfSampler::new(10_001, 0.9);
        let approx = ZipfSampler::zeta(20_000, 0.9);
        // ζ(20000) > ζ(10000), and the tail adds roughly n^{0.1} terms.
        assert!(approx > exact && approx < exact * 1.2);
    }

    #[test]
    fn scramble_is_a_stable_spread() {
        let a = scramble(0, 1000);
        let b = scramble(1, 1000);
        assert_ne!(a, b);
        assert_eq!(a, scramble(0, 1000));
        assert!(a < 1000 && b < 1000);
    }

    #[test]
    fn skew_concentrates_mass() {
        let mut rng = SmallRng::seed_from_u64(2);
        let z = ZipfSampler::new(10_000, 0.99);
        // Fraction of accesses hitting the top 1% of ranks.
        let mut hot = 0;
        let n = 50_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 100 {
                hot += 1;
            }
        }
        let frac = hot as f64 / n as f64;
        assert!(frac > 0.5, "top-1% share {frac}");
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn invalid_theta_panics() {
        let _ = ZipfSampler::new(10, 1.5);
    }
}
