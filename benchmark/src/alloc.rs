//! Process-wide counting allocator: the wall-clock-free proxy behind
//! `vssd.allocs_per_sim_event` and `vssd.alloc_bytes_per_window`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Delegates to [`System`] while counting allocations and requested
/// bytes across all threads. Install with `#[global_allocator]` in the
/// binary (and in test binaries that read the alloc metrics).
pub struct CountingAlloc;

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// statics that publish no other data (hence `Relaxed`) and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[inline]
fn note(bytes: usize) {
    COUNT.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Cumulative `(allocations, bytes requested)` since process start;
/// `(0, 0)` forever when [`CountingAlloc`] is not installed.
pub fn counters() -> (u64, u64) {
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}
