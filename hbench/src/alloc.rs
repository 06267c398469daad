//! A counting global allocator for the benchmark process only.
//!
//! Counting is off unless a traced run switches it on, so end-to-end timings
//! pay one relaxed load per allocation and nothing else. Exact byte and call
//! counts are the only numbers a later change may claim without a timing, so
//! the traced run asserts that they repeat across its iterations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// The allocator `main.rs` installs with `#[global_allocator]`.
pub struct Counting;

#[inline]
fn record(size: usize) {
    // Relaxed: these are statistics and publish no other data.
    if ENABLED.load(Ordering::Relaxed) {
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Bytes requested and allocation calls made while counting was on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub bytes: u64,
    pub calls: u64,
}

/// Run `f` with counting on and return what it allocated. Single-threaded
/// use only: a concurrent allocation on another thread would be counted too.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, AllocCount) {
    let before = (BYTES.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed));
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    let count = AllocCount {
        bytes: BYTES.load(Ordering::Relaxed) - before.0,
        calls: CALLS.load(Ordering::Relaxed) - before.1,
    };
    (out, count)
}
