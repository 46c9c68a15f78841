//! Deterministic time-ordered event queues.
//!
//! Events order by `(at, seq)`: timestamp first, then insertion
//! sequence, so events scheduled for the same instant pop in FIFO order
//! and whole simulations reproduce bit-for-bit across runs.
//!
//! [`EventQueue`] is a **calendar queue**: events hash into fixed-width
//! time buckets on a ring, the active bucket is sorted once and drained by
//! cursor, and only far-future events (beyond the ring horizon) or
//! same/past-time cascades touch a heap. For the engine's heavily
//! time-clustered event distribution this replaces the per-event
//! `O(log n)` heap percolation of a binary heap with `O(1)` pushes and
//! amortized `O(1)` pops. The straightforward binary-heap queue it
//! replaced lives on in this module's tests as the **reference semantics**
//! for differential testing (`prop_calendar_matches_heap`).
//!
//! See DESIGN.md § "DES internals" for the ordering argument and the
//! bucket-width selection.

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

struct HeapEntry<T>(Event<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
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
        other
            .0
            .at
            .cmp(&self.0.at)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

/// Default bucket width: `1 << 14` ns ≈ 16.4 µs. Engine events cluster at
/// sub-microsecond to tens-of-microseconds gaps (page reads ≈ 3–50 µs, bus
/// grants ≈ 64 µs), so a bucket holds a handful of events — enough to
/// amortize the per-bucket sort, small enough that the sort stays cache-hot.
const DEFAULT_SHIFT: u32 = 14;

/// Default ring size (buckets). With the default width the ring horizon is
/// `4096 << 14` ns ≈ 67 ms, which covers every recurring engine delay
/// (admission ticks at 50 ms, erases at ≈ 3 ms); only pre-submitted future
/// arrivals overflow to the heap.
const DEFAULT_RING: usize = 4096;

/// A deterministic calendar queue of timed events.
///
/// Same `(at, seq)` total order as a binary heap keyed on it; a
/// differential property test holds the two identical.
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
    /// Bucket index = `at.as_nanos() >> shift`.
    shift: u32,
    /// Ring of future buckets, len a power of two; slot = `bucket & mask`.
    buckets: Vec<Vec<Event<T>>>,
    mask: u64,
    /// Absolute index of the bucket currently being drained. Every event
    /// in the ring belongs to a bucket in `(cur, cur + ring_len)`.
    cur: u64,
    /// The active bucket's events, sorted *descending* by `(at, seq)` so
    /// the front is `last()` and consumption is `pop()` — no placeholder
    /// writes, no cursor.
    cur_vec: Vec<Event<T>>,
    /// Events pushed for bucket ≤ `cur` after the bucket was opened
    /// (same-time cascades, or past-time pushes through the public API).
    late: BinaryHeap<HeapEntry<T>>,
    /// Events beyond the ring horizon (`bucket ≥ cur + ring_len`); they
    /// migrate into the ring as `cur` advances.
    overflow: BinaryHeap<HeapEntry<T>>,
    /// Events currently stored in ring buckets.
    ring_count: usize,
    len: usize,
    next_seq: u64,
    /// Lifetime count of popped events (survives [`EventQueue::clear`]),
    /// the numerator for events/sec throughput reporting.
    popped: u64,
    /// With `--features audit`: timestamp of the last popped event, for
    /// monotonicity auditing of the queue ordering itself.
    #[cfg(feature = "audit")]
    last_popped: Option<SimTime>,
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("next_seq", &self.next_seq)
            .field("cur_bucket", &self.cur)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue with the default geometry (16.4 µs buckets,
    /// 67 ms ring horizon).
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_SHIFT, DEFAULT_RING)
    }

    /// Creates a queue with `1 << shift` ns buckets on a ring of
    /// `ring_len` buckets. Exposed so tests can force bucket rollover and
    /// overflow migration with tiny geometries.
    ///
    /// # Panics
    ///
    /// Panics if `ring_len` is not a power of two or `shift` ≥ 64.
    pub fn with_geometry(shift: u32, ring_len: usize) -> Self {
        assert!(
            ring_len.is_power_of_two(),
            "ring_len must be a power of two"
        );
        assert!(shift < 64, "shift must leave time bits");
        EventQueue {
            shift,
            buckets: (0..ring_len).map(|_| Vec::new()).collect(),
            mask: ring_len as u64 - 1,
            cur: 0,
            cur_vec: Vec::new(),
            late: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            ring_count: 0,
            len: 0,
            next_seq: 0,
            popped: 0,
            #[cfg(feature = "audit")]
            last_popped: None,
        }
    }

    #[inline]
    fn bucket_of(&self, at: SimTime) -> u64 {
        at.as_nanos() >> self.shift
    }

    #[inline]
    fn ring_len(&self) -> u64 {
        self.mask + 1
    }

    /// Schedules `payload` to fire at `at`. Returns the event's sequence
    /// number (useful for cancellation bookkeeping by the caller).
    pub fn push(&mut self, at: SimTime, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        #[cfg(feature = "audit")]
        {
            // A past-time push (tolerated by the API, never issued by the
            // engine) legitimately makes `at` the earliest poppable time,
            // so the monotonicity watermark rolls back to it.
            if self.last_popped.is_some_and(|p| at < p) {
                self.last_popped = Some(at);
            }
        }
        let ev = Event { at, seq, payload };
        let b = self.bucket_of(at);
        if b == self.cur {
            // Current-bucket cascade — the common case for flash
            // completions that land within one bucket width of `now`.
            // The active bucket is sorted descending, so a binary-searched
            // insert keeps it ordered without paying heap percolation on
            // both the push and the pop.
            let key = (at, seq);
            let idx = self.cur_vec.partition_point(|e| (e.at, e.seq) > key);
            self.cur_vec.insert(idx, ev);
        } else if b < self.cur {
            // Past-time push through the public API (the engine never
            // does this): keep it out of the sorted bucket via a heap.
            self.late.push(HeapEntry(ev));
        } else if b < self.cur + self.ring_len() {
            self.buckets[(b & self.mask) as usize].push(ev);
            self.ring_count += 1;
        } else {
            self.overflow.push(HeapEntry(ev));
        }
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

    /// Advances `cur` until the active bucket (`cur_vec`/`late`) holds the
    /// queue's earliest event. Returns `false` when the queue is empty.
    ///
    /// Invariant on return (when `true`): every event in `cur_vec` and
    /// `late` precedes every event still in ring buckets, and ring events
    /// precede overflow events.
    fn ensure_front(&mut self) -> bool {
        loop {
            if !self.cur_vec.is_empty() || !self.late.is_empty() {
                return true;
            }
            if self.ring_count == 0 && self.overflow.is_empty() {
                return false;
            }
            if self.ring_count == 0 {
                // Ring empty: jump straight to the bucket before the
                // overflow minimum instead of scanning empty slots.
                let min_at = self
                    .overflow
                    .peek()
                    .map(|e| e.0.at)
                    .expect("overflow checked non-empty");
                let target = self.bucket_of(min_at);
                self.cur = self.cur.max(target.saturating_sub(1));
            }
            self.cur += 1;
            // Migrate overflow events that fell inside the horizon. They
            // are always ≥ cur (overflow held buckets ≥ old horizon), so
            // they land in ring slots — possibly the one drained next.
            let horizon = self.cur + self.ring_len();
            while let Some(peek) = self.overflow.peek() {
                if self.bucket_of(peek.0.at) >= horizon {
                    break;
                }
                let ev = self.overflow.pop().expect("peek observed an entry").0;
                let b = self.bucket_of(ev.at);
                debug_assert!(b >= self.cur, "overflow event migrated into the past");
                self.buckets[(b & self.mask) as usize].push(ev);
                self.ring_count += 1;
            }
            let slot = (self.cur & self.mask) as usize;
            if !self.buckets[slot].is_empty() {
                // Swap the slot's vector in as the active bucket; the
                // drained vector (with its capacity) becomes the slot's
                // storage for a future lap, so steady state allocates
                // nothing.
                std::mem::swap(&mut self.cur_vec, &mut self.buckets[slot]);
                self.ring_count -= self.cur_vec.len();
                self.cur_vec
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                return true;
            }
        }
    }

    /// `(at, seq)` of the earliest pending event, assuming [`Self::ensure_front`]
    /// returned `true`.
    #[inline]
    fn front_key(&self) -> (SimTime, u64) {
        let sorted = self.cur_vec.last().map(|e| (e.at, e.seq));
        let late = self.late.peek().map(|e| (e.0.at, e.0.seq));
        match (sorted, late) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => unreachable!("front_key called on empty active bucket"),
        }
    }

    /// Pops the front event, assuming [`Self::ensure_front`] returned `true`.
    fn pop_front(&mut self) -> Event<T> {
        let take_late = match (self.cur_vec.last(), self.late.peek()) {
            (Some(s), Some(l)) => (l.0.at, l.0.seq) < (s.at, s.seq),
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => unreachable!("pop_front called on empty active bucket"),
        };
        let ev = if take_late {
            self.late.pop().expect("late peeked non-empty").0
        } else {
            self.cur_vec.pop().expect("cur_vec checked non-empty")
        };
        self.len -= 1;
        self.popped += 1;
        #[cfg(feature = "audit")]
        {
            if let Some(prev) = self.last_popped {
                debug_assert!(
                    ev.at >= prev,
                    "event queue popped {} after {prev}: calendar ordering broken",
                    ev.at
                );
            }
            self.last_popped = Some(ev.at);
        }
        ev
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<Event<T>> {
        if !self.ensure_front() {
            return None;
        }
        Some(self.pop_front())
    }

    /// The timestamp of the earliest pending event, if any.
    ///
    /// Read-only, so it cannot rotate the ring: when the active bucket is
    /// exhausted this scans ahead for the next occupied slot. Hot paths
    /// use [`EventQueue::pop_before`], which pays a single comparison.
    pub fn peek_time(&self) -> Option<SimTime> {
        let mut best: Option<SimTime> = self.cur_vec.last().map(|e| e.at);
        if let Some(l) = self.late.peek() {
            best = Some(best.map_or(l.0.at, |b| b.min(l.0.at)));
        }
        if best.is_some() {
            return best;
        }
        if self.ring_count > 0 {
            for off in 1..=self.ring_len() {
                let slot = &self.buckets[((self.cur + off) & self.mask) as usize];
                if let Some(min) = slot.iter().map(|e| e.at).min() {
                    return Some(min);
                }
            }
        }
        self.overflow.peek().map(|e| e.0.at)
    }

    /// Removes and returns the earliest event only if it fires at or
    /// before `deadline`: the engine loop's fast path, one key comparison
    /// after the active bucket is positioned (no peek-then-pop double
    /// traversal).
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<Event<T>> {
        if !self.ensure_front() {
            return None;
        }
        if self.front_key().0 > deadline {
            return None;
        }
        Some(self.pop_front())
    }

    /// Like [`EventQueue::pop_before`] but strict: only events firing
    /// *before* `deadline`. Used by the engine loop to interleave newly
    /// scheduled events with an already-drained batch.
    pub fn pop_strictly_before(&mut self, deadline: SimTime) -> Option<Event<T>> {
        self.pop_if_before((deadline, 0))
    }

    /// Removes and returns the earliest event only if it orders before
    /// `key` in the queue's own `(at, seq)` order. With `seq`s drawn from
    /// [`EventQueue::reserve_seq`], this is how a caller merges events it
    /// keeps elsewhere into this queue's order.
    pub fn pop_if_before(&mut self, key: (SimTime, u64)) -> Option<Event<T>> {
        if !self.ensure_front() {
            return None;
        }
        if self.front_key() >= key {
            return None;
        }
        Some(self.pop_front())
    }

    /// Drains every event firing at or before `deadline` into `out`, in
    /// `(at, seq)` order. When the active bucket lies entirely inside the
    /// deadline and no late pushes are pending, the whole bucket moves in
    /// one `memcpy`-class append instead of event-by-event pops.
    pub fn drain_before(&mut self, deadline: SimTime, out: &mut Vec<Event<T>>) {
        #[cfg(feature = "audit")]
        let drained_from = out.len();
        while self.ensure_front() {
            if self.late.is_empty() {
                // `cur_vec` is sorted descending, so `first()` is its
                // latest event: when that fits the deadline the whole
                // bucket moves in one reversed append.
                if let Some(max) = self.cur_vec.first() {
                    if max.at <= deadline {
                        let n = self.cur_vec.len();
                        self.len -= n;
                        self.popped += n as u64;
                        out.extend(self.cur_vec.drain(..).rev());
                        continue;
                    }
                }
            }
            if self.front_key().0 > deadline {
                break;
            }
            out.push(self.pop_front());
        }
        #[cfg(feature = "audit")]
        {
            // The caller dispatches the drained batch in order and may
            // interleave fresh pops before later batch entries, so the
            // monotonicity watermark rolls back to the batch's *first*
            // event: nothing can legitimately pop earlier than that
            // (handlers only push at or after the entry being dispatched,
            // and everything left in the queue fires past `deadline`).
            if let Some(first) = out.get(drained_from) {
                self.last_popped = Some(first.at);
            }
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lifetime count of events popped from this queue (not reset by
    /// [`EventQueue::clear`]): the sim-events/sec numerator for
    /// throughput reporting.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Drops all pending events (and, under the `audit` feature, the
    /// popped-time watermark — a cleared queue may be reused for a new run).
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.cur_vec.clear();
        self.late.clear();
        self.overflow.clear();
        self.ring_count = 0;
        self.len = 0;
        #[cfg(feature = "audit")]
        {
            self.last_popped = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SmallRng};

    /// The binary-heap event queue the calendar queue replaced: the
    /// simplest correct `(at, seq)` implementation, kept as the oracle the
    /// differential tests below hold [`EventQueue`] to.
    struct BinaryHeapQueue<T> {
        heap: BinaryHeap<HeapEntry<T>>,
        next_seq: u64,
        popped: u64,
    }

    impl<T> BinaryHeapQueue<T> {
        fn new() -> Self {
            BinaryHeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                popped: 0,
            }
        }

        fn push(&mut self, at: SimTime, payload: T) {
            self.heap.push(HeapEntry(Event {
                at,
                seq: self.next_seq,
                payload,
            }));
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<Event<T>> {
            let ev = self.heap.pop().map(|e| e.0);
            self.popped += u64::from(ev.is_some());
            ev
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.0.at)
        }

        fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }

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
    }

    #[test]
    fn pop_strictly_before_excludes_the_deadline_instant() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), "at");
        assert!(q.pop_strictly_before(SimTime::from_micros(10)).is_none());
        assert_eq!(
            q.pop_strictly_before(SimTime::from_micros(11))
                .map(|e| e.payload),
            Some("at")
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
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_sees_ring_and_overflow() {
        // Tiny geometry: 1 µs buckets, 4-slot ring → 4 µs horizon.
        let mut q = EventQueue::with_geometry(10, 4);
        q.push(SimTime::from_millis(5), "overflow");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
        q.push(SimTime::from_micros(2), "ring");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(2)));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop().map(|e| e.payload), None);
    }

    #[test]
    fn popped_counts_lifetime_pops_across_clear() {
        let mut q = EventQueue::new();
        assert_eq!(q.popped(), 0);
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        q.pop();
        assert_eq!(q.popped(), 1);
        q.clear();
        assert_eq!(q.popped(), 1, "clear drops pending, not history");
        q.push(SimTime::ZERO, 3);
        q.pop();
        q.pop(); // Empty pop does not count.
        assert_eq!(q.popped(), 2);
    }

    #[test]
    fn drain_before_pops_batch_in_order() {
        let mut q = EventQueue::new();
        for (t, p) in [(30, 'c'), (10, 'a'), (20, 'b'), (90, 'z')] {
            q.push(SimTime::from_micros(t), p);
        }
        let mut out = Vec::new();
        q.drain_before(SimTime::from_micros(50), &mut out);
        let got: Vec<char> = out.iter().map(|e| e.payload).collect();
        assert_eq!(got, vec!['a', 'b', 'c']);
        assert_eq!(q.len(), 1);
        assert_eq!(q.popped(), 3);
        out.clear();
        q.drain_before(SimTime::from_micros(50), &mut out);
        assert!(out.is_empty());
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

    /// Generates an engine-like schedule: bursts of same-time events,
    /// short cascades, occasional far-future jumps — and events the
    /// caller keeps *outside* the calendar under reserved sequence
    /// numbers, merged back in with `pop_if_before` the way the engine
    /// merges its bus arbiter. Interleaves pushes and pops so the ring
    /// rotates and overflow migrates mid-stream. Returns `(pushed, popped,
    /// popped from outside)`.
    #[allow(clippy::type_complexity)]
    fn adversarial_case(
        rng: &mut SmallRng,
        shift: u32,
        ring: usize,
    ) -> (Vec<(SimTime, u32)>, Vec<(SimTime, u64, u32)>, usize) {
        let mut cal = EventQueue::with_geometry(shift, ring);
        let mut heap = BinaryHeapQueue::new();
        // Events kept outside the calendar: `(at, seq, payload)`.
        let mut outside: Vec<(SimTime, u64, u32)> = Vec::new();
        let mut from_outside = 0usize;
        let mut pushed = Vec::new();
        let mut popped = Vec::new();
        let mut now = 0u64;
        let mut payload = 0u32;
        // One merged pop: whichever of calendar and outside list holds the
        // smaller `(at, seq)`; must equal the reference heap's pop.
        let mut pop_both = |cal: &mut EventQueue<u32>,
                            heap: &mut BinaryHeapQueue<u32>,
                            outside: &mut Vec<(SimTime, u64, u32)>|
         -> Option<(SimTime, u64, u32)> {
            let first = (0..outside.len()).min_by_key(|&i| (outside[i].0, outside[i].1));
            let got = match first {
                None => cal.pop().map(|e| (e.at, e.seq, e.payload)),
                Some(i) => match cal.pop_if_before((outside[i].0, outside[i].1)) {
                    Some(e) => Some((e.at, e.seq, e.payload)),
                    None => {
                        from_outside += 1;
                        Some(outside.swap_remove(i))
                    }
                },
            };
            let want = heap.pop().map(|e| (e.at, e.seq, e.payload));
            assert_eq!(got, want, "merged order differs from one queue's");
            got
        };
        let n_ops = rng.gen_range(10usize..400);
        for _ in 0..n_ops {
            match rng.gen_range(0u64..12) {
                // Burst: several events at one instant (FIFO tie-break).
                0..=2 => {
                    let t = now + rng.gen_range(0u64..(1 << (shift + 2)));
                    for _ in 0..rng.gen_range(1u64..6) {
                        let at = SimTime::from_nanos(t);
                        cal.push(at, payload);
                        heap.push(at, payload);
                        pushed.push((at, payload));
                        payload += 1;
                    }
                }
                // Clustered near-future push (bucket-local).
                3..=5 => {
                    let at = SimTime::from_nanos(now + rng.gen_range(0u64..(1 << shift)));
                    cal.push(at, payload);
                    heap.push(at, payload);
                    pushed.push((at, payload));
                    payload += 1;
                }
                // Far-future push beyond the ring horizon (overflow).
                6 => {
                    let horizon = (ring as u64) << shift;
                    let at = SimTime::from_nanos(now + horizon + rng.gen_range(0u64..4 * horizon));
                    cal.push(at, payload);
                    heap.push(at, payload);
                    pushed.push((at, payload));
                    payload += 1;
                }
                // An event kept outside under a reserved seq, often at an
                // instant the calendar also holds events for.
                7..=8 => {
                    let at = match pushed.last() {
                        Some(&(at, _)) if at.as_nanos() >= now && rng.gen_range(0u32..2) == 0 => at,
                        _ => SimTime::from_nanos(now + rng.gen_range(0u64..(1 << (shift + 1)))),
                    };
                    outside.push((at, cal.reserve_seq(), payload));
                    heap.push(at, payload);
                    pushed.push((at, payload));
                    payload += 1;
                }
                // Pop a few: time advances to what pops (monotone driver),
                // which rotates the ring across bucket boundaries.
                _ => {
                    for _ in 0..rng.gen_range(1u64..4) {
                        let Some(x) = pop_both(&mut cal, &mut heap, &mut outside) else {
                            break;
                        };
                        now = now.max(x.0.as_nanos());
                        popped.push(x);
                    }
                }
            }
        }
        // Drain the rest.
        while let Some(x) = pop_both(&mut cal, &mut heap, &mut outside) {
            popped.push(x);
        }
        assert!(cal.is_empty() && heap.is_empty());
        assert_eq!(cal.popped() + from_outside as u64, heap.popped);
        (pushed, popped, from_outside)
    }

    /// Differential property: the calendar queue, merged by key with
    /// events held outside it under reserved sequence numbers, pops the
    /// exact `(at, seq, payload)` stream of one reference binary heap
    /// holding everything — over randomized clustered/adversarial
    /// schedules, across bucket rollover and far-future overflow, for
    /// several ring geometries.
    #[test]
    fn prop_calendar_matches_heap() {
        let mut rng = SmallRng::seed_from_u64(0xca1e_0dae);
        // Tiny rings force constant rollover + overflow migration; the
        // default geometry exercises the production fast paths.
        for (shift, ring) in [(4, 2), (6, 4), (10, 16), (DEFAULT_SHIFT, DEFAULT_RING)] {
            let mut merged = 0;
            for _case in 0..128 {
                let (pushed, popped, from_outside) = adversarial_case(&mut rng, shift, ring);
                assert_eq!(pushed.len(), popped.len());
                // Sorted by time, FIFO among equal stamps.
                for w in popped.windows(2) {
                    assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
                }
                merged += from_outside;
            }
            assert!(
                merged > 1_000,
                "geometry ({shift}, {ring}): {merged} merged"
            );
        }
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

    /// Property: drain_before equals repeated pop_before on the
    /// reference queue, including deadlines inside a bucket.
    #[test]
    fn prop_drain_matches_reference_pops() {
        let mut rng = SmallRng::seed_from_u64(0xdead_beef);
        for _case in 0..128 {
            let mut cal = EventQueue::with_geometry(8, 8);
            let mut heap = BinaryHeapQueue::new();
            let n = rng.gen_range(1usize..150);
            for i in 0..n {
                let at = SimTime::from_nanos(rng.gen_range(0u64..50_000));
                cal.push(at, i);
                heap.push(at, i);
            }
            let mut deadline = 0u64;
            while !heap.is_empty() {
                deadline += rng.gen_range(0u64..20_000);
                let d = SimTime::from_nanos(deadline);
                let mut batch = Vec::new();
                cal.drain_before(d, &mut batch);
                let mut want = Vec::new();
                while let Some(t) = heap.peek_time() {
                    if t > d {
                        break;
                    }
                    want.push(heap.pop().expect("peeked"));
                }
                assert_eq!(batch.len(), want.len(), "deadline {deadline}");
                for (a, b) in batch.iter().zip(&want) {
                    assert_eq!((a.at, a.seq, a.payload), (b.at, b.seq, b.payload));
                }
            }
            assert!(cal.is_empty());
        }
    }
}
