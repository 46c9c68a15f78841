//! Stride scheduling for proportional sharing among vSSDs.
//!
//! Software isolation uses stride scheduling (Waldspurger & Weihl) so that
//! high-intensity workloads cannot starve low-intensity ones: each client
//! holds tickets; picking a client advances its *pass* by `stride ∝
//! 1/tickets`, and the client with the minimum pass is always served next.

use std::collections::BTreeMap;

/// Global stride numerator: pass advances by `STRIDE1 / tickets`.
const STRIDE1: u64 = 1 << 20;

/// A stride scheduler over clients identified by `K`.
///
/// # Example
///
/// ```
/// use fleetio_vssd::stride::StrideScheduler;
///
/// let mut s = StrideScheduler::new();
/// s.add_client("a", 100);
/// s.add_client("b", 100);
/// // Equal tickets → strict alternation when both are runnable.
/// let first = s.pick(["a", "b"]).unwrap();
/// let second = s.pick(["a", "b"]).unwrap();
/// assert_ne!(first, second);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StrideScheduler<K: Ord + Clone> {
    clients: BTreeMap<K, StrideState>,
}

#[derive(Debug, Clone)]
struct StrideState {
    stride: u64,
    pass: u64,
}

impl<K: Ord + Clone> StrideScheduler<K> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        StrideScheduler {
            clients: BTreeMap::new(),
        }
    }

    /// Registers a client with `tickets` shares. Re-registering resets its
    /// pass to the current minimum so it cannot monopolize after absence.
    ///
    /// # Panics
    ///
    /// Panics if `tickets` is zero.
    pub fn add_client(&mut self, key: K, tickets: u32) {
        assert!(tickets > 0, "tickets must be positive");
        let min_pass = self.clients.values().map(|c| c.pass).min().unwrap_or(0);
        self.clients.insert(
            key,
            StrideState {
                stride: STRIDE1 / u64::from(tickets),
                pass: min_pass,
            },
        );
    }

    /// Changes a registered client's ticket count while *preserving* its
    /// pass (its accumulated fairness credit). Unknown keys are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `tickets` is zero.
    pub fn set_tickets(&mut self, key: &K, tickets: u32) {
        assert!(tickets > 0, "tickets must be positive");
        if let Some(st) = self.clients.get_mut(key) {
            st.stride = STRIDE1 / u64::from(tickets);
        }
    }

    /// Whether `key` is registered.
    pub fn contains(&self, key: &K) -> bool {
        self.clients.contains_key(key)
    }

    /// Number of registered clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Whether no clients are registered.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Picks the runnable client with the minimum pass and charges it one
    /// quantum. Unregistered keys in `runnable` are ignored. Returns `None`
    /// when no runnable client is registered.
    ///
    /// Ties break on insertion-independent key order is not guaranteed by
    /// `BTreeMap`; callers that need determinism should pass `runnable` in a
    /// stable order — the first minimal client in iteration order of
    /// `runnable` wins.
    pub fn pick<I>(&mut self, runnable: I) -> Option<K>
    where
        I: IntoIterator<Item = K>,
    {
        let mut best: Option<(K, u64)> = None;
        for key in runnable {
            if let Some(st) = self.clients.get(&key) {
                match &best {
                    Some((_, pass)) if *pass <= st.pass => {}
                    _ => best = Some((key, st.pass)),
                }
            }
        }
        let (key, _) = best?;
        let st = self.clients.get_mut(&key).expect("picked client exists");
        st.pass = st.pass.saturating_add(st.stride);
        Some(key)
    }
}

/// A stride scheduler specialized for small dense `usize` keys — the
/// engine's per-channel vSSD indices. Client state lives in a flat vector
/// indexed by key, so the per-dispatch [`DenseStride::pick`] costs two
/// array loads per runnable candidate instead of tree walks. Semantics
/// are identical to [`StrideScheduler<usize>`]: same pass/stride
/// arithmetic, same first-minimal-in-iteration-order tie-break.
#[derive(Debug, Clone, Default)]
pub struct DenseStride {
    clients: Vec<Option<StrideState>>,
}

impl DenseStride {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        DenseStride {
            clients: Vec::new(),
        }
    }

    /// Registers a client with `tickets` shares. Re-registering resets its
    /// pass to the current minimum so it cannot monopolize after absence.
    ///
    /// # Panics
    ///
    /// Panics if `tickets` is zero.
    pub fn add_client(&mut self, key: usize, tickets: u32) {
        assert!(tickets > 0, "tickets must be positive");
        let min_pass = self
            .clients
            .iter()
            .flatten()
            .map(|c| c.pass)
            .min()
            .unwrap_or(0);
        if key >= self.clients.len() {
            self.clients.resize(key + 1, None);
        }
        self.clients[key] = Some(StrideState {
            stride: STRIDE1 / u64::from(tickets),
            pass: min_pass,
        });
    }

    /// Changes a registered client's ticket count while *preserving* its
    /// pass. Unknown keys are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `tickets` is zero.
    pub fn set_tickets(&mut self, key: usize, tickets: u32) {
        assert!(tickets > 0, "tickets must be positive");
        if let Some(Some(st)) = self.clients.get_mut(key) {
            st.stride = STRIDE1 / u64::from(tickets);
        }
    }

    /// Whether `key` is registered.
    pub fn contains(&self, key: usize) -> bool {
        self.clients.get(key).is_some_and(|c| c.is_some())
    }

    /// Picks the runnable client with the minimum pass and charges it one
    /// quantum; the first minimal client in `runnable` iteration order
    /// wins. Unregistered keys are ignored.
    pub fn pick<I>(&mut self, runnable: I) -> Option<usize>
    where
        I: IntoIterator<Item = usize>,
    {
        let mut best: Option<(usize, u64)> = None;
        for key in runnable {
            if let Some(Some(st)) = self.clients.get(key) {
                match &best {
                    Some((_, pass)) if *pass <= st.pass => {}
                    _ => best = Some((key, st.pass)),
                }
            }
        }
        let (key, _) = best?;
        let st = self.clients[key].as_mut().expect("picked client exists");
        st.pass = st.pass.saturating_add(st.stride);
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_des::rng::{Rng, SmallRng};

    #[test]
    fn equal_tickets_alternate() {
        let mut s = StrideScheduler::new();
        s.add_client(1, 100);
        s.add_client(2, 100);
        let mut counts = [0u32; 3];
        for _ in 0..100 {
            let k = s.pick([1, 2]).unwrap();
            counts[k as usize] += 1;
        }
        assert_eq!(counts[1], 50);
        assert_eq!(counts[2], 50);
    }

    #[test]
    fn proportional_shares() {
        let mut s = StrideScheduler::new();
        s.add_client("heavy", 300);
        s.add_client("light", 100);
        let mut heavy = 0;
        for _ in 0..400 {
            if s.pick(["heavy", "light"]).unwrap() == "heavy" {
                heavy += 1;
            }
        }
        // 3:1 split within rounding.
        assert!((295..=305).contains(&heavy), "heavy won {heavy}/400");
    }

    #[test]
    fn only_runnable_clients_are_picked() {
        let mut s = StrideScheduler::new();
        s.add_client(1, 100);
        s.add_client(2, 100);
        for _ in 0..10 {
            assert_eq!(s.pick([2]), Some(2));
        }
        // Client 1 did not fall behind forever: it wins immediately once
        // runnable because its pass never advanced.
        assert_eq!(s.pick([1, 2]), Some(1));
    }

    #[test]
    fn rejoining_client_does_not_monopolize() {
        let mut s = StrideScheduler::new();
        s.add_client(1, 100);
        for _ in 0..50 {
            s.pick([1]);
        }
        s.add_client(2, 100);
        // Client 2 starts at client 1's pass, not zero: near-alternation.
        let mut twos = 0;
        for _ in 0..10 {
            if s.pick([1, 2]).unwrap() == 2 {
                twos += 1;
            }
        }
        assert!((4..=6).contains(&twos), "client 2 won {twos}/10");
    }

    #[test]
    fn set_tickets_preserves_pass() {
        let mut s = StrideScheduler::new();
        s.add_client(1, 100);
        s.add_client(2, 100);
        // Client 2 idles while client 1 runs: client 1's pass grows.
        for _ in 0..20 {
            s.pick([1]);
        }
        // Re-weighting client 1 must NOT forgive its accumulated usage:
        // client 2 must win the next picks.
        s.set_tickets(&1, 300);
        for _ in 0..5 {
            assert_eq!(s.pick([1, 2]), Some(2));
        }
    }

    /// Differential: `DenseStride` reproduces the generic scheduler's
    /// pick stream over a mixed add/re-weight/pick sequence.
    #[test]
    fn dense_matches_generic_scheduler() {
        let mut dense = DenseStride::new();
        let mut tree: StrideScheduler<usize> = StrideScheduler::new();
        let keys = [0usize, 1, 2, 3];
        let tickets = [100u32, 300, 50, 100];
        for (k, t) in keys.iter().zip(tickets) {
            dense.add_client(*k, t);
            tree.add_client(*k, t);
        }
        // Deterministic pseudo-random runnable subsets.
        let mut x = 0x1234_5678u64;
        for step in 0..2_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mask = (x >> 32) as usize & 0xf;
            let runnable: Vec<usize> = keys
                .iter()
                .copied()
                .filter(|k| mask & (1 << k) != 0)
                .collect();
            assert_eq!(
                dense.pick(runnable.iter().copied()),
                tree.pick(runnable.iter().copied()),
                "diverged at step {step}"
            );
            if step == 700 {
                dense.set_tickets(1, 10);
                tree.set_tickets(&1, 10);
            }
            if step == 1_200 {
                dense.add_client(2, 400); // re-register resets pass
                tree.add_client(2, 400);
            }
        }
    }

    /// Closed-form oracle: with fixed tickets and every client runnable, a
    /// client is charged only while its pass is the minimum, so every pass
    /// stays within one stride of the minimum. Over any window of N picks
    /// client i then gets N·w_i/W picks within 1 + (n − 2)·w_i/W, where
    /// w_i = 1/stride_i is its tickets as the integer stride rounds them:
    /// one quantum for two clients, nearly n − 1 for a dominant client
    /// among n (DESIGN.md "Known divergences").
    #[test]
    fn window_shares_match_tickets_in_closed_form() {
        let mut rng = SmallRng::seed_from_u64(0x5_7a1de);
        let mut worst_beyond_one_quantum = 0.0f64;
        for _case in 0..120 {
            let n = rng.gen_range(2usize..9);
            let tickets: Vec<u32> = (0..n).map(|_| rng.gen_range(1u32..1_001)).collect();
            let mut s = DenseStride::new();
            for (k, &t) in tickets.iter().enumerate() {
                s.add_client(k, t);
            }
            let w: Vec<f64> = tickets
                .iter()
                .map(|&t| 1.0 / (STRIDE1 / u64::from(t)) as f64)
                .collect();
            let total: f64 = w.iter().sum();
            // counts[p][k]: client k's picks among the first p.
            let mut counts = vec![vec![0u32; n]];
            for p in 0..256 {
                let mut next = counts[p].clone();
                next[s.pick(0..n).expect("every client is runnable")] += 1;
                counts.push(next);
            }
            for (a, from) in counts.iter().enumerate() {
                for (b, to) in counts.iter().enumerate().skip(a + 1) {
                    for k in 0..n {
                        let share = w[k] / total;
                        let err = f64::from(to[k] - from[k]) - (b - a) as f64 * share;
                        let bound = 1.0 + (n - 2) as f64 * share;
                        assert!(
                            err.abs() <= bound + 1e-9,
                            "tickets {tickets:?}: client {k} off by {err} in picks {a}..{b}"
                        );
                        worst_beyond_one_quantum = worst_beyond_one_quantum.max(err.abs() - 1.0);
                    }
                }
            }
        }
        // The bound is not slack: with three or more clients, plain stride
        // scheduling misses a window's ticket share by more than a quantum.
        assert!(worst_beyond_one_quantum > 0.5);
    }

    #[test]
    fn empty_and_unknown_runnable() {
        let mut s: StrideScheduler<u32> = StrideScheduler::new();
        assert_eq!(s.pick([]), None);
        assert_eq!(s.pick([9]), None);
        assert!(s.is_empty());
        s.add_client(1, 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.pick([9]), None);
    }
}
