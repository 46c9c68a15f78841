//! A deterministic work queue over scoped threads: the one place the
//! workspace spawns simulation workers (fleet shards, rollout
//! environments, behaviour-cloning collection).
//!
//! Results are placed by item index; which thread ran an item, and in
//! what order items were claimed, is host-only state that nothing
//! simulated may read. A caller therefore gets the same `Vec<R>` for any
//! worker count and any claim order, and only wall-clock time changes.
//! Order-sensitive merging (float sums, normalizer updates) belongs in
//! the caller, over the returned vector.

use std::cmp::Reverse;
use std::sync::Mutex;
use std::thread;

/// Runs `task(i, &mut items[i])` once per item on up to `workers`
/// threads and returns the results in item-index order.
///
/// Workers claim the next unclaimed item of `order` — every index of
/// `items` exactly once, `0..items.len()` for plain index order — until
/// none is left, so one long item never strands the items queued behind
/// it on the same thread. Even a single worker is a spawned thread: the
/// allocator keeps freed memory per thread, so a caller that ran some
/// calls itself and handed others to workers would hold a high-water
/// mark in both heaps (+6–14 MiB peak RSS on the `fleet-hotspot`
/// benchmark when its 1-worker runs were inlined).
///
/// # Panics
///
/// Panics if `order` repeats, omits or exceeds an item index. A panic in
/// `task` is re-raised on the caller after every worker has been joined.
pub fn map_mut<T, R, F>(
    items: &mut [T],
    workers: usize,
    order: impl IntoIterator<Item = usize>,
    task: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    let mut unclaimed: Vec<Option<&mut T>> = items.iter_mut().map(Some).collect();
    let queue: Vec<(usize, &mut T)> = order
        .into_iter()
        .map(|i| (i, unclaimed[i].take().expect("claim order repeats an item")))
        .collect();
    assert_eq!(queue.len(), n, "claim order omits an item");
    let queue = Mutex::new(queue.into_iter());
    let work = || {
        let mut done = Vec::new();
        loop {
            // The guard drops with this statement, before the task runs,
            // so a panicking task cannot poison the queue.
            let claimed = queue.lock().expect("no task runs under the lock").next();
            let Some((i, item)) = claimed else {
                return done;
            };
            done.push((i, task(i, item)));
        }
    };
    let threads = workers.max(1).min(n);
    let finished: Vec<thread::Result<Vec<(usize, R)>>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
        // Joined by handle: the scope's implicit join returns once the
        // closures have, before the workers' thread-local destructors
        // run, and a profile read right after would miss the spans those
        // destructors flush.
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut done = Vec::with_capacity(n);
    for worker in finished {
        match worker {
            Ok(part) => done.extend(part),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// The claim order that starts the costliest items first: indices by
/// descending cost, ties by index. With items of unequal length this is
/// the greedy longest-processing-time schedule; all-equal costs give
/// plain index order.
pub fn heavy_first(costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| Reverse(costs[i]));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn squares(n: usize, workers: usize, order: Vec<usize>) -> (Vec<u64>, Vec<u64>) {
        let mut items: Vec<u64> = (0..n as u64).collect();
        let out = map_mut(&mut items, workers, order, |i, item| {
            assert_eq!(*item, i as u64, "the task sees its own item");
            *item *= 10;
            *item * *item
        });
        (items, out)
    }

    #[test]
    fn results_come_back_in_index_order_for_any_worker_count() {
        let expect: Vec<u64> = (0..5u64).map(|i| 100 * i * i).collect();
        // 8 and 32 are more workers than items.
        for workers in [0, 1, 2, 3, 8, 32] {
            let (items, out) = squares(5, workers, (0..5).collect());
            assert_eq!(out, expect, "{workers} workers");
            assert_eq!(items, vec![0, 10, 20, 30, 40], "{workers} workers");
        }
    }

    /// All permutations of `0..n`: `n - 1` inserted at every position of
    /// every permutation of `0..n - 1`.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        let Some(last) = n.checked_sub(1) else {
            return vec![Vec::new()];
        };
        let mut out = Vec::new();
        for shorter in permutations(last) {
            for at in 0..n {
                let mut p = shorter.clone();
                p.insert(at, last);
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn every_claim_order_returns_the_same_results() {
        let perms = permutations(4);
        assert_eq!(perms.len(), 24);
        let (_, expect) = squares(4, 1, (0..4).collect());
        for order in perms {
            for workers in [1, 2, 3] {
                let (_, out) = squares(4, workers, order.clone());
                assert_eq!(out, expect, "order {order:?}, {workers} workers");
            }
        }
    }

    #[test]
    fn one_worker_claims_in_the_given_order() {
        let claimed = Mutex::new(Vec::new());
        let mut items = [(); 4];
        map_mut(&mut items, 1, [2, 0, 3, 1], |i, _| {
            claimed.lock().unwrap().push(i);
        });
        assert_eq!(claimed.into_inner().unwrap(), vec![2, 0, 3, 1]);
    }

    #[test]
    fn zero_items_spawn_nothing() {
        let mut items: [u8; 0] = [];
        let out: Vec<u8> = map_mut(&mut items, 4, 0..0, |_, _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn a_task_panic_reaches_the_caller_after_every_worker_is_joined() {
        for workers in [1, 2, 3] {
            let ran = AtomicUsize::new(0);
            let mut items = [0u8; 6];
            let caught = catch_unwind(AssertUnwindSafe(|| {
                map_mut(&mut items, workers, 0..6, |i, _| {
                    if i == 1 {
                        panic!("task {i} failed");
                    }
                    ran.fetch_add(1, Ordering::SeqCst);
                })
            }));
            let msg = caught.expect_err("the panic propagates");
            assert_eq!(
                msg.downcast_ref::<String>().map(String::as_str),
                Some("task 1 failed"),
                "{workers} workers"
            );
            // A surviving worker drains the queue before it is joined; with
            // one worker the panic ends the only claimer after item 0.
            let expect = if workers == 1 { 1 } else { 5 };
            assert_eq!(ran.load(Ordering::SeqCst), expect, "{workers} workers");
        }
    }

    #[test]
    #[should_panic(expected = "claim order repeats an item")]
    fn a_repeated_index_is_rejected() {
        map_mut(&mut [0u8; 3], 2, [0, 1, 1], |_, _| ());
    }

    #[test]
    #[should_panic(expected = "claim order omits an item")]
    fn a_short_order_is_rejected() {
        map_mut(&mut [0u8; 3], 2, [0, 1], |_, _| ());
    }

    #[test]
    fn heavy_first_sorts_by_descending_cost_with_ties_by_index() {
        assert_eq!(heavy_first(&[3, 9, 3, 0, 9, 1]), vec![1, 4, 0, 2, 5, 3]);
        assert_eq!(heavy_first(&[0, 0, 0, 0]), vec![0, 1, 2, 3]);
        assert_eq!(heavy_first(&[]), Vec::<usize>::new());
        assert_eq!(heavy_first(&[u64::MAX, 0, u64::MAX]), vec![0, 2, 1]);
    }
}
