//! Token-bucket I/O rate limiting.
//!
//! Software-isolated vSSDs throttle each tenant with a token bucket, the
//! mechanism the paper cites from IOFlow and blk-throttle. Tokens are
//! bytes: a request may dispatch when the bucket holds at least its size
//! (with a small overdraft so large requests are never starved), and the
//! bucket refills continuously at the configured rate.

use fleetio_des::SimTime;

/// A byte-denominated token bucket.
///
/// # Example
///
/// ```
/// use fleetio_des::SimTime;
/// use fleetio_vssd::token_bucket::TokenBucket;
///
/// // 1 MB/s with a 64 KB burst.
/// let mut tb = TokenBucket::new(1_000_000.0, 64_000.0);
/// assert!(tb.try_take(SimTime::ZERO, 64_000));
/// assert!(!tb.try_take(SimTime::ZERO, 64_000)); // bucket drained
/// assert!(tb.try_take(SimTime::from_millis(64), 64_000)); // refilled
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Refill rate, bytes per second.
    rate: f64,
    /// Maximum stored tokens (burst size), bytes.
    burst: f64,
    /// Current tokens.
    tokens: f64,
    /// Last refill instant.
    last: SimTime,
}

impl TokenBucket {
    /// Creates a full bucket.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` and `burst` are strictly positive and finite.
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        assert!(burst.is_finite() && burst > 0.0, "burst must be positive");
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: SimTime::ZERO,
        }
    }

    /// The refill rate in bytes per second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Brings the token count up to date at `now`.
    fn refill(&mut self, now: SimTime) {
        if now > self.last {
            let dt = now.saturating_since(self.last).as_secs_f64();
            self.tokens = (self.tokens + dt * self.rate).min(self.burst);
            self.last = now;
        }
        #[cfg(feature = "audit")]
        debug_assert!(
            self.tokens <= self.burst,
            "token balance {} exceeds burst cap {}",
            self.tokens,
            self.burst
        );
    }

    /// Current token count at `now`.
    pub fn available(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// Whether a [`TokenBucket::try_take`] of `bytes` at `now` would
    /// succeed, without consuming tokens.
    pub fn would_allow(&mut self, now: SimTime, bytes: u64) -> bool {
        self.refill(now);
        let need = bytes as f64;
        self.tokens >= need || (need > self.burst && self.tokens >= self.burst)
    }

    /// Attempts to take `bytes` tokens at `now`.
    ///
    /// Requests larger than the burst size are allowed whenever the bucket
    /// is full (the balance goes negative), so a single oversized request
    /// cannot deadlock; it simply forces a longer subsequent wait.
    pub fn try_take(&mut self, now: SimTime, bytes: u64) -> bool {
        self.refill(now);
        let need = bytes as f64;
        if self.tokens >= need || (need > self.burst && self.tokens >= self.burst) {
            self.tokens -= need;
            // The balance may only go negative via the oversized-request
            // overdraft; a burst-sized-or-smaller grant never overdraws.
            #[cfg(feature = "audit")]
            debug_assert!(
                need > self.burst || self.tokens >= 0.0,
                "token bucket overdrawn to {} by a within-burst take of {need}",
                self.tokens
            );
            true
        } else {
            false
        }
    }

    /// Earliest time at which `bytes` tokens will be available, given no
    /// intervening consumption.
    pub fn ready_at(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.refill(now);
        let need = (bytes as f64).min(self.burst);
        if self.tokens >= need {
            return now;
        }
        let deficit = need - self.tokens;
        now + fleetio_des::SimDuration::from_secs_f64(deficit / self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::rng::Rng;
    use fleetio_des::SimDuration;

    #[test]
    fn starts_full_and_drains() {
        let mut tb = TokenBucket::new(100.0, 50.0);
        assert!(tb.try_take(SimTime::ZERO, 50));
        assert!(!tb.try_take(SimTime::ZERO, 1));
    }

    #[test]
    fn refills_at_rate() {
        let mut tb = TokenBucket::new(1000.0, 100.0);
        assert!(tb.try_take(SimTime::ZERO, 100));
        // After 50 ms at 1000 B/s → 50 tokens.
        let t = SimTime::from_millis(50);
        assert!((tb.available(t) - 50.0).abs() < 1e-6);
        assert!(tb.try_take(t, 50));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut tb = TokenBucket::new(1000.0, 100.0);
        let t = SimTime::from_secs(10);
        assert!((tb.available(t) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn oversized_request_uses_overdraft() {
        let mut tb = TokenBucket::new(1000.0, 100.0);
        assert!(tb.try_take(SimTime::ZERO, 500)); // burst-full → allowed
                                                  // Deep in debt now; refilling 100 ms gives 100 tokens = -300.
        assert!(!tb.try_take(SimTime::from_millis(100), 1));
        // After 500 ms total the debt clears (-400 + 500 = 100 capped).
        assert!(tb.try_take(SimTime::from_millis(500), 50));
    }

    #[test]
    fn ready_at_predicts_refill() {
        let mut tb = TokenBucket::new(1000.0, 100.0);
        assert!(tb.try_take(SimTime::ZERO, 100));
        let at = tb.ready_at(SimTime::ZERO, 100);
        assert_eq!(at, SimTime::ZERO + SimDuration::from_millis(100));
        assert!(tb.try_take(at, 100));
    }

    /// Closed-form oracle: a client that always has a request of at most
    /// one burst waiting, and takes it the moment the tokens suffice, is
    /// admitted `rate × H` bytes within one burst over every window of
    /// length `H` — at most the burst it may enter the window with plus the
    /// refill, at least the refill less the request still waiting at the
    /// window's end.
    #[test]
    fn admitted_bytes_track_rate_within_one_burst() {
        let mut rng = fleetio_des::rng::SmallRng::seed_from_u64(0x70_4e4);
        let horizon = SimTime::from_secs(2);
        for _case in 0..24 {
            let rate = rng.gen_range(1e6..2e9);
            let burst = rate * rng.gen_range(0.001..0.2);
            let mut tb = TokenBucket::new(rate, burst);
            // `(at, bytes admitted up to and including this take)`.
            let mut takes = vec![(0u64, 0.0f64)];
            let mut now = SimTime::ZERO;
            while now <= horizon {
                let bytes = rng.gen_range(1..burst as u64 + 1);
                while !tb.try_take(now, bytes) {
                    now = tb
                        .ready_at(now, bytes)
                        .max(now + SimDuration::from_nanos(1));
                }
                let total = takes.last().map_or(0.0, |t| t.1) + bytes as f64;
                takes.push((now.as_nanos(), total));
            }
            let admitted_before = |ns: u64| takes[takes.partition_point(|t| t.0 < ns) - 1].1;
            for _ in 0..2_000 {
                // Window lengths log-uniform from 1 ns to the horizon.
                let a = rng.gen_range(1..horizon.as_nanos());
                let scale = rng.gen_range(0u32..31);
                let len = rng.gen_range(0..horizon.as_nanos() >> scale);
                let b = (a + len).min(horizon.as_nanos());
                let admitted = admitted_before(b + 1) - admitted_before(a);
                let refill = rate * (b - a) as f64 * 1e-9;
                // One byte for the float refill's rounding.
                assert!(
                    (admitted - refill).abs() <= burst + 1.0,
                    "rate {rate}, burst {burst}: {admitted} bytes in [{a}, {b}] ns, refill {refill}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = TokenBucket::new(0.0, 1.0);
    }
}
