//! Reproducible random-stream derivation and the workspace PRNG.
//!
//! Experiments fan out into many stochastic components (one per vSSD, per
//! workload generator, per rollout worker). Deriving each component's seed
//! from a root seed plus a stable label keeps runs reproducible while keeping
//! the streams statistically independent.
//!
//! This module is the **only sanctioned entropy source** in the workspace:
//! `fleetio-audit` rejects `thread_rng`, `SystemTime`, and `Instant`-derived
//! seeds anywhere else, so every random draw in the simulator flows through
//! a [`SmallRng`] seeded explicitly from a root seed. The generator itself
//! (xoshiro256++) is implemented here on pure `std`, with the subset of the
//! `rand` API the workspace uses ([`Rng::gen_range`], [`Rng::shuffle`],
//! [`SmallRng::seed_from_u64`]), so builds never depend on crates.io.

use std::ops::Range;

/// Derives a child seed from a root seed and a stream label.
///
/// Uses the SplitMix64 finalizer, which is a strong 64-bit mixer; distinct
/// `(root, label)` pairs produce well-separated seeds.
///
/// # Example
///
/// ```
/// use fleetio_des::rng::derive_seed;
///
/// let a = derive_seed(42, "vssd-0");
/// let b = derive_seed(42, "vssd-1");
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(42, "vssd-0")); // stable
/// ```
pub fn derive_seed(root: u64, label: &str) -> u64 {
    let mut h = root ^ 0x9e37_79b9_7f4a_7c15;
    for &b in label.as_bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    splitmix64(h)
}

/// Derives a child seed from a root seed and a numeric stream index.
pub fn derive_seed_indexed(root: u64, label: &str, index: u64) -> u64 {
    splitmix64(derive_seed(root, label) ^ splitmix64(index.wrapping_add(0xabcd_ef01)))
}

/// Constructs a [`SmallRng`] from a root seed and label.
pub fn stream(root: u64, label: &str) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(root, label))
}

/// The SplitMix64 output mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic pseudo-random number generator (xoshiro256++).
///
/// Small, fast and statistically strong; the same algorithm family `rand`'s
/// `SmallRng` uses on 64-bit targets. Streams are fully determined by the
/// seed, which is what the determinism regression tests rely on.
///
/// # Example
///
/// ```
/// use fleetio_des::rng::{Rng, SmallRng};
///
/// let mut a = SmallRng::seed_from_u64(7);
/// let mut b = SmallRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Builds a generator whose state is expanded from `seed` with
    /// SplitMix64, as recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut z = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *slot = splitmix64(z);
        }
        // The all-zero state is a fixed point; SplitMix64 of any seed never
        // produces four zero outputs in a row, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        SmallRng { s }
    }

    /// The raw xoshiro256++ state, for checkpointing. Restoring via
    /// [`SmallRng::from_state`] continues the stream bit-identically.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a state captured by [`SmallRng::state`].
    ///
    /// # Panics
    ///
    /// Panics on the all-zero state (the xoshiro fixed point), which no
    /// [`SmallRng::seed_from_u64`]-constructed generator can ever reach.
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(
            s != [0, 0, 0, 0],
            "all-zero xoshiro state is invalid (corrupt checkpoint?)"
        );
        SmallRng { s }
    }
}

impl Rng for SmallRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// The random-draw interface used throughout the workspace.
///
/// Only [`Rng::next_u64`] is required; everything else derives from it, so
/// any generator (or test double) plugs into the generic `R: Rng` APIs in
/// `fleetio-ml`, `fleetio-rl` and `fleetio-workloads`.
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform draw from `[0, 1)` with 53 bits of precision.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from `[0, 1)` with 24 bits of precision.
    fn gen_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// A Bernoulli draw with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform draw from a half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty (or, for floats, not finite).
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Fisher–Yates shuffle of a slice in place.
    fn shuffle<T>(&mut self, xs: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A half-open range [`Rng::gen_range`] can sample from uniformly.
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one uniform sample from the range.
    fn sample<G: Rng>(self, rng: &mut G) -> Self::Output;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample<G: Rng>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "gen_range called with empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

int_sample_range!(u16, u32, u64, usize);

impl SampleRange for Range<i64> {
    type Output = i64;
    fn sample<G: Rng>(self, rng: &mut G) -> i64 {
        assert!(self.start < self.end, "gen_range called with empty range");
        let span = (self.end as u64).wrapping_sub(self.start as u64);
        self.start.wrapping_add((rng.next_u64() % span) as i64)
    }
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample<G: Rng>(self, rng: &mut G) -> f64 {
        assert!(
            self.start < self.end && (self.end - self.start).is_finite(),
            "gen_range called with empty or non-finite float range"
        );
        let v = self.start + (self.end - self.start) * rng.gen_f64();
        // Rounding can land exactly on `end`; fold it back into the range.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange for Range<f32> {
    type Output = f32;
    fn sample<G: Rng>(self, rng: &mut G) -> f32 {
        assert!(
            self.start < self.end && (self.end - self.start).is_finite(),
            "gen_range called with empty or non-finite float range"
        );
        let v = self.start + (self.end - self.start) * rng.gen_f32();
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn derive_seed_is_stable_and_distinct() {
        assert_eq!(derive_seed(1, "a"), derive_seed(1, "a"));
        assert_ne!(derive_seed(1, "a"), derive_seed(1, "b"));
        assert_ne!(derive_seed(1, "a"), derive_seed(2, "a"));
    }

    #[test]
    fn indexed_seeds_do_not_collide_over_small_range() {
        let mut seen = HashSet::new();
        for root in 0..8u64 {
            for idx in 0..64u64 {
                assert!(seen.insert(derive_seed_indexed(root, "worker", idx)));
            }
        }
    }

    #[test]
    fn streams_reproduce() {
        let mut a = stream(7, "x");
        let mut b = stream(7, "x");
        let xs: Vec<u32> = (0..16).map(|_| a.next_u32()).collect();
        let ys: Vec<u32> = (0..16).map(|_| b.next_u32()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn label_prefixes_do_not_alias() {
        // "ab" + root vs "a" then continuing must differ.
        assert_ne!(derive_seed(0, "ab"), derive_seed(0, "ba"));
        assert_ne!(derive_seed(0, ""), derive_seed(0, "\0"));
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.gen_range(5u64..17);
            assert!((5..17).contains(&v));
            let f = rng.gen_range(-2.0f64..3.5);
            assert!((-2.0..3.5).contains(&f));
            let u = rng.gen_range(0usize..1);
            assert_eq!(u, 0);
        }
    }

    #[test]
    fn gen_range_covers_small_domains() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.gen_range(0usize..4)] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn floats_live_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.gen_f32();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b: Vec<u32> = (0..50).collect();
        SmallRng::seed_from_u64(5).shuffle(&mut a);
        SmallRng::seed_from_u64(5).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let want: Vec<u32> = (0..50).collect();
        assert_eq!(sorted, want);
        assert_ne!(a, want, "50-element shuffle left input untouched");
    }

    #[test]
    fn state_roundtrip_continues_stream() {
        let mut a = SmallRng::seed_from_u64(77);
        for _ in 0..10 {
            let _ = a.next_u64();
        }
        let mut b = SmallRng::from_state(a.state());
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    #[should_panic(expected = "all-zero xoshiro state")]
    fn zero_state_rejected() {
        let _ = SmallRng::from_state([0; 4]);
    }

    #[test]
    fn mean_of_unit_draws_is_centered() {
        let mut rng = SmallRng::seed_from_u64(1234);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.gen_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
