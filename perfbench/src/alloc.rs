//! Counting global allocator: live/peak heap bytes for `peak_heap_mb`, and
//! the allocation count behind `SchedRun::steady_state_allocs`.
//!
//! The type lives in the library so the binary and the self-tests can both
//! install it with `#[global_allocator]`; without it installed the counters
//! never move.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator with live-byte, peak-byte and allocation counters.
pub struct CountingAlloc;

// Statistics only: no other data is published through these atomics, so
// `Relaxed` ordering suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method delegates to `System` with the caller's arguments
// unchanged; the bookkeeping around the calls only touches atomics and never
// allocates, so the `GlobalAlloc` contract is exactly `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        stt_ctrl::alloc_probe::on_alloc();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        stt_ctrl::alloc_probe::on_alloc();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s
        // contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator with
        // `layout`, which is `System`'s requirement too.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        stt_ctrl::alloc_probe::on_alloc();
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract for `ptr`, `layout` and `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        new
    }
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live heap size (bytes) since the last [`reset_peak`].
#[must_use]
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}
