//! Counting allocator: the instrument behind `peak_heap_mb`.
//!
//! A passthrough to [`System`] that tracks live and peak heap bytes, so the
//! benchmark reports memory without platform-specific RSS probes and the
//! number repeats exactly for single-threaded workloads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct CountingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    let now = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: a pure passthrough to the `System` allocator — layouts are
// forwarded untouched, so the GlobalAlloc invariants hold exactly as they do
// for `System`; the atomic counters never allocate and cannot re-enter.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: delegates to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    // SAFETY: delegates to `System.alloc_zeroed` with the caller's layout.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    // SAFETY: delegates to `System.dealloc`; `ptr`/`layout` come from a prior
    // allocation on this same passthrough allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // SAFETY: delegates to `System.realloc` under the caller's contract
    // (live `ptr`, matching `layout`, non-zero rounded `new_size`).
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() {
            if new_size >= layout.size() {
                note_alloc(new_size - layout.size());
            } else {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        out
    }
}

/// Restarts the high-water mark at the bytes live right now.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap since the last [`reset_peak`], in MB (1e6 bytes).
pub fn peak_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / 1e6
}
