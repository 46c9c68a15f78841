//! Host-time span profiler: where does the *simulator* spend wall time?
//!
//! Everything else in `fleetio-obs` observes simulated time; this module
//! is the one sanctioned home for wall-clock measurement outside
//! `crates/bench` (enforced by the `host-time-scope` audit rule). Host
//! time flows one way — out of the simulator into reports — and never
//! back into simulation state, so determinism is preserved.
//!
//! Model:
//! * [`span`] returns an RAII guard; guards nest on a per-thread span
//!   stack and build a per-thread call tree keyed by span name.
//! * Each tree node aggregates call count, total wall time and the time
//!   spent in direct children; self time is their difference.
//! * Per-thread trees merge into a process-global table at thread exit;
//!   [`take_report`] also merges the calling thread's. Thread exit is
//!   what `JoinHandle::join` waits for; `std::thread::scope`'s implicit
//!   join returns earlier, when the closure does, so scoped workers whose
//!   spans must be in the next report are joined by handle (as
//!   `fleetio_des::par::map_mut` does). Merging only sums, so aggregate
//!   counts are independent of thread join order.
//! * Profiling is off by default behind a cached [`enabled`] flag (the
//!   same trick as `ObsSink`): a disabled [`span`] call is one relaxed
//!   atomic load and touches no thread-local state.
//!
//! A [`ProfReport`] lists every span by path and exports folded stacks
//! for flamegraph tooling ([`ProfReport::folded`]).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Process-wide on/off switch, read with a single relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Merged span statistics from flushed threads, keyed by root-to-span
/// name path.
static GLOBAL: Mutex<BTreeMap<Vec<String>, SpanStats>> = Mutex::new(BTreeMap::new());

/// Turns profiling on for subsequently created spans.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns profiling off; live guards created while enabled still record.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether profiling is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn global_lock() -> MutexGuard<'static, BTreeMap<Vec<String>, SpanStats>> {
    // A poisoned profiler table is still structurally valid; keep the
    // data rather than losing the whole report to an unrelated panic.
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Aggregate statistics for one span (one path in the call tree).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed calls.
    pub calls: u64,
    /// Total wall time across calls, nanoseconds (inclusive of children).
    pub total_ns: u64,
    /// Wall time spent in direct children, nanoseconds.
    pub child_ns: u64,
}

impl SpanStats {
    /// Wall time not attributed to any child span.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    /// Commutative, associative merge: aggregate counts are independent
    /// of the order threads flush in.
    fn merge(&mut self, other: &SpanStats) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.child_ns += other.child_ns;
    }
}

struct Node {
    name: String,
    parent: Option<usize>,
    children: Vec<usize>,
    stats: SpanStats,
}

/// One thread's call tree plus the live span stack.
struct ThreadProfiler {
    nodes: Vec<Node>,
    roots: Vec<usize>,
    stack: Vec<usize>,
    /// Bumped by [`reset`]; guards from an older epoch no-op on drop so
    /// a reset under a live guard can never corrupt the tree.
    epoch: u64,
}

impl ThreadProfiler {
    fn child_node(&mut self, parent: Option<usize>, name: &str) -> usize {
        let found = {
            let siblings: &[usize] = match parent {
                Some(p) => &self.nodes[p].children,
                None => &self.roots,
            };
            siblings
                .iter()
                .copied()
                .find(|&i| self.nodes[i].name == name)
        };
        if let Some(i) = found {
            return i;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name: name.to_string(),
            parent,
            children: Vec::new(),
            stats: SpanStats::default(),
        });
        match parent {
            Some(p) => self.nodes[p].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    fn enter(&mut self, name: &str) -> usize {
        let idx = self.child_node(self.stack.last().copied(), name);
        self.stack.push(idx);
        idx
    }

    fn exit(&mut self, idx: usize, ns: u64) {
        // Guards drop LIFO under normal RAII scoping; pop defensively in
        // case one was kept alive past a sibling.
        while let Some(top) = self.stack.pop() {
            if top == idx {
                break;
            }
        }
        let stats = &mut self.nodes[idx].stats;
        stats.calls += 1;
        stats.total_ns += ns;
        if let Some(p) = self.nodes[idx].parent {
            self.nodes[p].stats.child_ns += ns;
        }
    }

    fn flush_into(&mut self, global: &mut BTreeMap<Vec<String>, SpanStats>) {
        for i in 0..self.nodes.len() {
            let stats = self.nodes[i].stats;
            if stats.calls == 0 {
                continue;
            }
            let mut path = Vec::new();
            let mut cur = Some(i);
            while let Some(c) = cur {
                path.push(self.nodes[c].name.clone());
                cur = self.nodes[c].parent;
            }
            path.reverse();
            global.entry(path).or_default().merge(&stats);
            self.nodes[i].stats = SpanStats::default();
        }
    }
}

/// Wrapper whose `Drop` flushes the thread's tree into the global table
/// at thread exit. Thread-local destructors run after a scoped thread's
/// closure returns, so only an explicit `join()` on its handle — not the
/// scope's implicit join — guarantees the flush has happened.
struct TlsProfiler(RefCell<ThreadProfiler>);

impl Drop for TlsProfiler {
    fn drop(&mut self) {
        let mut p = self.0.borrow_mut();
        p.flush_into(&mut global_lock());
    }
}

thread_local! {
    static PROF: TlsProfiler = const {
        TlsProfiler(RefCell::new(ThreadProfiler {
            nodes: Vec::new(),
            roots: Vec::new(),
            stack: Vec::new(),
            epoch: 0,
        }))
    };
}

/// RAII guard for one span activation. Dropping it records the elapsed
/// wall time into this thread's call tree.
#[must_use = "a span records its duration when the guard drops"]
pub struct SpanGuard {
    /// `None` when profiling was disabled at creation: drop is a no-op.
    start: Option<Instant>,
    node: usize,
    epoch: u64,
    /// Span attribution is thread-local; keep the guard on its thread.
    _not_send: PhantomData<*const ()>,
}

/// Opens a span named `name` under the thread's innermost open span.
///
/// When profiling is disabled this is one relaxed atomic load and the
/// returned guard does nothing on drop.
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::OFF;
    }
    span_enabled(name)
}

fn span_enabled(name: &str) -> SpanGuard {
    let entered = PROF.try_with(|h| {
        let mut p = h.0.borrow_mut();
        let node = p.enter(name);
        (node, p.epoch)
    });
    match entered {
        Ok((node, epoch)) => SpanGuard {
            // Taken last so tree bookkeeping is excluded from the span.
            start: Some(Instant::now()),
            node,
            epoch,
            _not_send: PhantomData,
        },
        // Thread-local storage already torn down (span opened from
        // another destructor): record nothing.
        Err(_) => SpanGuard::OFF,
    }
}

impl Drop for SpanGuard {
    /// Inlined so a disabled guard costs one check at its drop site.
    #[inline]
    fn drop(&mut self) {
        if self.start.is_some() {
            self.record_exit();
        }
    }
}

impl SpanGuard {
    /// A guard that records nothing.
    const OFF: SpanGuard = SpanGuard {
        start: None,
        node: 0,
        epoch: 0,
        _not_send: PhantomData,
    };

    /// Records the finished activation; only guards opened while
    /// profiling was enabled get here.
    #[cold]
    #[inline(never)]
    fn record_exit(&mut self) {
        let Some(start) = self.start else { return };
        // Taken first so guard bookkeeping is excluded from the span.
        let ns = start.elapsed().as_nanos() as u64;
        let _ = PROF.try_with(|h| {
            let mut p = h.0.borrow_mut();
            if p.epoch == self.epoch {
                p.exit(self.node, ns);
            }
        });
    }
}

/// Runs `f` inside a span named `name`.
pub fn time<T, F: FnOnce() -> T>(name: &str, f: F) -> T {
    let _guard = span(name);
    f()
}

/// Merges the calling thread's completed span statistics into the global
/// table; other threads do so at exit.
fn flush_thread() {
    let _ = PROF.try_with(|h| {
        let mut p = h.0.borrow_mut();
        p.flush_into(&mut global_lock());
    });
}

/// Flushes the calling thread and returns the merged report, clearing
/// the global table. Worker threads that already exited — whose handles
/// were `join()`ed — are included; still-live threads are not.
pub fn take_report() -> ProfReport {
    flush_thread();
    let map = std::mem::take(&mut *global_lock());
    ProfReport {
        spans: map
            .into_iter()
            .map(|(path, stats)| ProfSpan { path, stats })
            .collect(),
    }
}

/// Clears all accumulated data: the global table and the calling
/// thread's tree. Live guards on this thread become no-ops (their epoch
/// no longer matches); other threads' trees are untouched.
pub fn reset() {
    global_lock().clear();
    let _ = PROF.try_with(|h| {
        let mut p = h.0.borrow_mut();
        p.nodes.clear();
        p.roots.clear();
        p.stack.clear();
        p.epoch += 1;
    });
}

/// One aggregated span in a [`ProfReport`], identified by its
/// root-to-span name path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfSpan {
    /// Span names from the root down to (and including) this span.
    pub path: Vec<String>,
    /// Aggregated statistics across all calls and threads.
    pub stats: SpanStats,
}

impl ProfSpan {
    /// The span's own name (last path element).
    pub fn name(&self) -> &str {
        self.path.last().map(String::as_str).unwrap_or("")
    }

    /// The path joined with `;` (the folded-stacks key).
    pub fn folded_key(&self) -> String {
        self.path.join(";")
    }
}

/// A merged profiling report: spans in depth-first path order (parents
/// before children, siblings in name order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfReport {
    /// All aggregated spans, sorted by path.
    pub spans: Vec<ProfSpan>,
}

impl ProfReport {
    /// Renders folded stacks (`a;b;c self_ns` per line), the input format
    /// of `flamegraph.pl` / `inferno-flamegraph`. Spans with zero self
    /// time are omitted, as collapse tools do.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let self_ns = s.stats.self_ns();
            if self_ns == 0 {
                continue;
            }
            let _ = writeln!(out, "{} {}", s.folded_key(), self_ns);
        }
        out
    }
}

/// Formats a nanosecond quantity with an adaptive unit (the one timing
/// formatter for all figure/profiling output).
pub fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Profiler state is process-global; tests touching it serialize here.
    fn lock() -> MutexGuard<'static, ()> {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Restores "profiling off, state clear" even if a test panics.
    struct Scope(#[allow(dead_code)] MutexGuard<'static, ()>);

    fn scoped() -> Scope {
        let guard = lock();
        reset();
        enable();
        Scope(guard)
    }

    impl Drop for Scope {
        fn drop(&mut self) {
            disable();
            reset();
        }
    }

    /// The statistics of the span at exactly `path`.
    fn stats(report: &ProfReport, path: &[&str]) -> SpanStats {
        report
            .spans
            .iter()
            .find(|s| s.path.iter().map(String::as_str).eq(path.iter().copied()))
            .unwrap_or_else(|| panic!("no span {path:?} in {report:?}"))
            .stats
    }

    #[test]
    fn nesting_builds_tree_and_self_time_is_total_minus_children() {
        let _s = scoped();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                std::hint::black_box(vec![1u8; 64]);
            }
            {
                let _inner = span("inner");
            }
            let _other = span("other");
        }
        let report = take_report();
        let outer = stats(&report, &["outer"]);
        let inner = stats(&report, &["outer", "inner"]);
        let other = stats(&report, &["outer", "other"]);
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 2);
        assert_eq!(other.calls, 1);
        // Children's totals are exactly the parent's child time, so
        // self = total − children holds as an identity.
        assert_eq!(outer.child_ns, inner.total_ns + other.total_ns);
        assert_eq!(outer.self_ns(), outer.total_ns - outer.child_ns);
        assert!(outer.total_ns >= inner.total_ns + other.total_ns);
    }

    #[test]
    fn per_thread_trees_merge_deterministic_counts() {
        let _s = scoped();
        let per_thread = [3usize, 5, 7, 11];
        // No explicit flush: thread exit flushes, and joining by handle
        // (unlike the scope's implicit join) waits for thread exit.
        let run = |order: &[usize]| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = order
                    .iter()
                    .map(|&reps| {
                        scope.spawn(move || {
                            for _ in 0..reps {
                                let _work = span("work");
                                let _step = span("step");
                            }
                        })
                    })
                    .collect();
                for handle in handles {
                    handle.join().expect("worker panicked");
                }
            });
        };
        run(&per_thread);
        let report = take_report();
        let total: u64 = per_thread.iter().map(|&r| r as u64).sum();
        assert_eq!(stats(&report, &["work"]).calls, total);
        assert_eq!(stats(&report, &["work", "step"]).calls, total);
        // Merge is commutative: the same work spawned in reverse order
        // aggregates the same.
        run(&[11, 7, 5, 3]);
        assert_eq!(stats(&take_report(), &["work"]).calls, total);
    }

    /// Holds up its thread's exit when dropped. Touched after a thread's
    /// first span, its destructor runs before the profiler's flush
    /// (thread-local destructors run in reverse order of registration),
    /// so a caller that returns before its workers have exited misses
    /// their spans every time rather than now and then.
    struct SlowExit;

    impl Drop for SlowExit {
        fn drop(&mut self) {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    thread_local! {
        static SLOW_EXIT: SlowExit = const { SlowExit };
    }

    /// `par::map_mut` joins its workers by handle, so their thread-exit
    /// flush has run by the time it returns and the caller's next report
    /// holds every task's span.
    #[test]
    fn par_workers_spans_reach_the_callers_next_report() {
        let _s = scoped();
        let mut items = [0u8; 4];
        fleetio_des::par::map_mut(&mut items, 2, 0..4, |_, _| {
            let _task = span("task");
            SLOW_EXIT.with(|_| ());
        });
        assert_eq!(stats(&take_report(), &["task"]).calls, 4);
    }

    #[test]
    fn disabled_spans_record_nothing_and_stay_cheap() {
        let _s = scoped();
        disable();
        let t0 = Instant::now();
        for _ in 0..100_000 {
            let _g = span("hot");
        }
        let spent = t0.elapsed();
        assert_eq!(
            take_report(),
            ProfReport::default(),
            "disabled spans must not record"
        );
        // Generous smoke bound: 100k disabled spans in well under a
        // second even on a loaded CI machine (~10 µs/span budget).
        assert!(spent < Duration::from_secs(1), "took {spent:?}");
    }

    #[test]
    fn reset_under_live_guard_is_safe() {
        let _s = scoped();
        let guard = span("doomed");
        reset();
        drop(guard); // Epoch mismatch: must not panic or record.
        assert_eq!(take_report(), ProfReport::default());
    }

    #[test]
    fn folded_output_matches_collapse_format() {
        let _s = scoped();
        {
            let _a = span("a");
            let _b = span("b");
            // Real work so span `b` has nonzero self time on any clock.
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(acc);
        }
        let report = take_report();
        for line in report.folded().lines() {
            let (key, val) = line.rsplit_once(' ').expect("key value");
            assert!(!key.is_empty());
            assert!(val.parse::<u64>().is_ok(), "self ns parses: {line}");
        }
        assert!(report.folded().contains("a;b "));
    }

    #[test]
    fn merge_sums_every_field() {
        let mut a = SpanStats {
            calls: 2,
            total_ns: 30,
            child_ns: 5,
        };
        a.merge(&SpanStats {
            calls: 1,
            total_ns: 5,
            child_ns: 0,
        });
        assert_eq!(
            a,
            SpanStats {
                calls: 3,
                total_ns: 35,
                child_ns: 5,
            }
        );
        assert_eq!(a.self_ns(), 30);
    }

    #[test]
    fn format_ns_picks_adaptive_units() {
        assert_eq!(format_ns(12.0), "12 ns");
        assert_eq!(format_ns(1_500.0), "1.50 us");
        assert_eq!(format_ns(2_500_000.0), "2.50 ms");
        assert_eq!(format_ns(3_000_000_000.0), "3.000 s");
    }
}
