//! Counting allocator behind `host.alloc.*`.
//!
//! This file holds the only `unsafe` in the benchmark. A
//! `#[global_allocator]` must implement the `unsafe trait GlobalAlloc`,
//! and no safe wrapper exists in `std`; counting allocations is the one
//! deterministic host-side proxy the benchmark has (counts gate tightly
//! where wall time is noisy), so the wrapper is worth it. Every method
//! forwards its arguments untouched to `System`, which upholds the trait's
//! contract; the wrapper adds only relaxed atomic counters, which publish
//! no other data. Disarmed (every `--trace 0` run) it costs one relaxed
//! load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// `System`, plus allocation counters that run only while armed.
pub struct Counting;

#[inline]
fn note(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// layout and pointer requirements the caller guarantees to this allocator
// are exactly the ones `System` needs, and every returned pointer is
// `System`'s own. The counters are statistics only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which only ever hands out
        // `System` pointers; `layout` and `new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which only ever hands out
        // `System` pointers, with the same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Starts or stops counting (all threads).
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far while armed.
pub fn counted() -> (u64, u64) {
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}
