//! Deterministic time-ordered event queue.
//!
//! Events order by `(at, seq)`: timestamp first, then insertion
//! sequence, so events scheduled for the same instant pop in FIFO order
//! and whole simulations reproduce bit-for-bit across runs.
//!
//! [`EventQueue`] is a binary heap on that key. The engine keeps 15–30
//! events pending on average and at most 176 in the benchmark workloads,
//! so the heap stays at most 8 levels deep; DESIGN.md § "DES internals"
//! has the measurements.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event scheduled on an [`EventQueue`].
#[derive(Debug, Clone, Copy)]
pub struct Event<T> {
    /// When the event fires.
    pub at: SimTime,
    /// Tie-break sequence number: among equal timestamps, lower pops first.
    pub seq: u64,
    /// The event payload.
    pub payload: T,
}

impl<T> Event<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

struct HeapEntry<T>(Event<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}

impl<T> Eq for HeapEntry<T> {}

impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top.
        other.0.key().cmp(&self.0.key())
    }
}

/// A deterministic queue of timed events, popped in `(at, seq)` order.
///
/// # Example
///
/// ```
/// use fleetio_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_micros(10), 'b');
/// q.push(SimTime::from_micros(10), 'c'); // same instant: FIFO order
/// q.push(SimTime::from_micros(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
pub struct EventQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    next_seq: u64,
    /// Lifetime count of popped events, the numerator for events/sec
    /// throughput reporting.
    popped: u64,
    /// With `--features audit`: timestamp of the last popped event, for
    /// monotonicity auditing of the queue ordering itself.
    #[cfg(feature = "audit")]
    last_popped: Option<SimTime>,
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .field("popped", &self.popped)
            .finish()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
            #[cfg(feature = "audit")]
            last_popped: None,
        }
    }

    /// Schedules `payload` to fire at `at`. Returns the event's sequence
    /// number (useful for cancellation bookkeeping by the caller).
    pub fn push(&mut self, at: SimTime, payload: T) -> u64 {
        let seq = self.reserve_seq();
        #[cfg(feature = "audit")]
        {
            // A past-time push (tolerated by the API, never issued by the
            // engine) legitimately makes `at` the earliest poppable time,
            // so the monotonicity watermark rolls back to it.
            if self.last_popped.is_some_and(|p| at < p) {
                self.last_popped = Some(at);
            }
        }
        self.heap.push(HeapEntry(Event { at, seq, payload }));
        seq
    }

    /// Takes the sequence number the next [`EventQueue::push`] would have
    /// got and schedules nothing: for a caller that keeps an event of its
    /// own off the queue but in the queue's order (see
    /// [`EventQueue::pop_if_before`]).
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<Event<T>> {
        let ev = self.heap.pop()?.0;
        self.popped += 1;
        #[cfg(feature = "audit")]
        {
            if let Some(prev) = self.last_popped {
                debug_assert!(
                    ev.at >= prev,
                    "event queue popped {} after {prev}: heap ordering broken",
                    ev.at
                );
            }
            self.last_popped = Some(ev.at);
        }
        Some(ev)
    }

    /// Removes and returns the earliest event only if it fires at or
    /// before `deadline`.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<Event<T>> {
        if self.heap.peek()?.0.at > deadline {
            return None;
        }
        self.pop()
    }

    /// Removes and returns the earliest event only if it orders before
    /// `key` in the queue's own `(at, seq)` order. With `seq`s drawn from
    /// [`EventQueue::reserve_seq`], this is how a caller merges events it
    /// keeps elsewhere into this queue's order.
    pub fn pop_if_before(&mut self, key: (SimTime, u64)) -> Option<Event<T>> {
        if self.heap.peek()?.0.key() >= key {
            return None;
        }
        self.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Lifetime count of events popped from this queue: the
    /// sim-events/sec numerator for throughput reporting.
    pub fn popped(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SmallRng};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), 3);
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(20), 2);
        let got: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let got: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        let want: Vec<i32> = (0..100).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), "early");
        q.push(SimTime::from_micros(100), "late");
        assert_eq!(
            q.pop_before(SimTime::from_micros(50)).map(|e| e.payload),
            Some("early")
        );
        assert!(q.pop_before(SimTime::from_micros(50)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_before(SimTime::from_micros(100)).map(|e| e.payload),
            Some("late"),
            "the deadline instant itself is included"
        );
    }

    #[test]
    fn reserved_seqs_merge_an_outside_event_into_queue_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(10);
        let a = q.push(t, "a");
        let kept_outside = q.reserve_seq();
        let c = q.push(t, "c");
        assert!(a < kept_outside && kept_outside < c);
        // "a" precedes the outside event, "c" does not.
        assert_eq!(
            q.pop_if_before((t, kept_outside)).map(|e| e.payload),
            Some("a")
        );
        assert!(q.pop_if_before((t, kept_outside)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|e| (e.seq, e.payload)), Some((c, "c")));
    }

    #[test]
    fn popped_counts_lifetime_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.popped(), 0);
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::from_micros(9), 2);
        q.pop();
        assert!(q.pop_before(SimTime::ZERO).is_none()); // Refused: not counted.
        assert_eq!(q.popped(), 1);
        q.pop();
        q.pop(); // Empty pop does not count.
        assert_eq!(q.popped(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn past_time_pushes_still_order_correctly() {
        // The engine never pushes into the past, but the API tolerates it.
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), "future");
        assert_eq!(q.pop().map(|e| e.payload), Some("future"));
        q.push(SimTime::from_micros(1), "past");
        q.push(SimTime::from_millis(20), "later");
        assert_eq!(q.pop().map(|e| e.payload), Some("past"));
        assert_eq!(q.pop().map(|e| e.payload), Some("later"));
    }

    /// Property: the queue, merged by key with events a caller holds
    /// outside it under [`EventQueue::reserve_seq`] numbers (the way the
    /// engine merges its bus arbiter), pops exactly the `(at, seq,
    /// payload)` stream of a brute-force reference — one `Vec` holding
    /// everything, popped by a min-by-key scan. The schedule is
    /// adversarial: same-instant bursts, far-future pushes, outside events
    /// at instants the queue also holds, pops interleaved with pushes.
    #[test]
    fn prop_merge_matches_brute_force() {
        type Rec = (SimTime, u64, u32);
        fn pop_min(v: &mut Vec<Rec>) -> Option<Rec> {
            let i = (0..v.len()).min_by_key(|&i| (v[i].0, v[i].1))?;
            Some(v.swap_remove(i))
        }
        let mut rng = SmallRng::seed_from_u64(0xca1e_0dae);
        let (mut total, mut popped, mut merged) = (0u64, 0u64, 0u64);
        for _case in 0..512 {
            let mut q = EventQueue::new();
            let mut outside: Vec<Rec> = Vec::new();
            let mut reference: Vec<Rec> = Vec::new();
            let mut last: Option<Rec> = None;
            let mut now = 0u64;
            let mut payload = 0u32;
            // One merged pop: the queue gives way to the earliest outside
            // event via `pop_if_before`; must equal the reference's pop, and
            // the merged stream must be sorted, FIFO among equal stamps.
            let mut pop_both = |q: &mut EventQueue<u32>,
                                outside: &mut Vec<Rec>,
                                reference: &mut Vec<Rec>|
             -> Option<Rec> {
                let first = (0..outside.len()).min_by_key(|&i| (outside[i].0, outside[i].1));
                let got = match first {
                    None => q.pop().map(|e| (e.at, e.seq, e.payload)),
                    Some(i) => match q.pop_if_before((outside[i].0, outside[i].1)) {
                        Some(e) => Some((e.at, e.seq, e.payload)),
                        None => {
                            merged += 1;
                            Some(outside.swap_remove(i))
                        }
                    },
                };
                assert_eq!(got, pop_min(reference), "merged order differs");
                if let Some(x) = got {
                    assert!(last.is_none_or(|l| (l.0, l.1) < (x.0, x.1)));
                    last = got;
                }
                got
            };
            for _ in 0..rng.gen_range(10usize..400) {
                match rng.gen_range(0u64..16) {
                    // Burst: several events at one instant (FIFO tie-break).
                    0..=2 => {
                        let at = SimTime::from_nanos(now + rng.gen_range(0u64..65_536));
                        for _ in 0..rng.gen_range(1u64..4) {
                            let seq = q.push(at, payload);
                            reference.push((at, seq, payload));
                            payload += 1;
                        }
                    }
                    // Near-future push.
                    3..=5 => {
                        let at = SimTime::from_nanos(now + rng.gen_range(0u64..16_384));
                        let seq = q.push(at, payload);
                        reference.push((at, seq, payload));
                        payload += 1;
                    }
                    // Far-future push, past everything else pending.
                    6 => {
                        let at =
                            SimTime::from_nanos(now + rng.gen_range(70_000_000u64..300_000_000));
                        let seq = q.push(at, payload);
                        reference.push((at, seq, payload));
                        payload += 1;
                    }
                    // An event kept outside under a reserved seq, often at
                    // an instant the queue also holds events for.
                    7..=11 => {
                        let at = match reference.last() {
                            Some(&(at, ..))
                                if at.as_nanos() >= now && rng.gen_range(0u32..2) == 0 =>
                            {
                                at
                            }
                            _ => SimTime::from_nanos(now + rng.gen_range(0u64..32_768)),
                        };
                        let seq = q.reserve_seq();
                        outside.push((at, seq, payload));
                        reference.push((at, seq, payload));
                        payload += 1;
                    }
                    // Pop a few: time advances to what pops.
                    _ => {
                        for _ in 0..rng.gen_range(1u64..4) {
                            let Some(x) = pop_both(&mut q, &mut outside, &mut reference) else {
                                break;
                            };
                            now = x.0.as_nanos();
                        }
                    }
                }
            }
            while pop_both(&mut q, &mut outside, &mut reference).is_some() {}
            assert!(q.is_empty() && outside.is_empty() && reference.is_empty());
            total += u64::from(payload);
            popped += q.popped();
            assert_eq!(popped + merged, total);
        }
        // About a third of all events were kept outside the queue.
        assert!(
            (total / 4..total / 2).contains(&merged),
            "{merged} of {total} events merged from outside"
        );
    }

    /// Property: pops come out sorted by time, FIFO among equal stamps.
    #[test]
    fn prop_pops_are_sorted_and_stable() {
        let mut rng = SmallRng::seed_from_u64(0x9_0e0e);
        for _case in 0..256 {
            let n = rng.gen_range(1usize..200);
            let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..1_000)).collect();
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(*t), i);
            }
            let mut popped = Vec::new();
            while let Some(e) = q.pop() {
                popped.push((e.at, e.payload));
            }
            // Sorted by time.
            for w in popped.windows(2) {
                assert!(w[0].0 <= w[1].0);
                // FIFO among equal timestamps: insertion index increases.
                if w[0].0 == w[1].0 {
                    assert!(w[0].1 < w[1].1);
                }
            }
            assert_eq!(popped.len(), times.len());
        }
    }
}
