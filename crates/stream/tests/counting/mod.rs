//! A counting global allocator for the heap-bound tests.
//!
//! A test binary that declares `mod counting;` (another crate's tests
//! reach it through `#[path]`) runs every allocation through
//! [`Counting`], which forwards it to `System` and keeps a running total
//! of the bytes held, and of the allocation calls made and the bytes
//! they asked for. Each such binary holds one test, so no other test
//! allocates while it measures, and reads only the figures it bounds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Bytes currently allocated through the global allocator.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
/// Calls to `alloc`, `alloc_zeroed` and `realloc` so far.
static CALLS: AtomicUsize = AtomicUsize::new(0);
/// Bytes those calls asked for (a `realloc` its new size).
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

/// Bytes the process currently holds on the heap.
#[allow(dead_code)]
pub fn live_bytes() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) the process
/// has made, and the bytes they asked for.
#[allow(dead_code)]
pub fn allocations() -> (usize, usize) {
    (
        CALLS.load(Ordering::Relaxed),
        REQUESTED.load(Ordering::Relaxed),
    )
}

struct Counting;

fn count(bytes: usize, sign: isize) {
    let bytes = isize::try_from(bytes).expect("allocation sizes fit isize");
    LIVE_BYTES.fetch_add(sign * bytes, Ordering::Relaxed);
}

/// One allocation call that asked for `bytes`.
fn call(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    REQUESTED.fetch_add(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        call(layout.size());
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count(layout.size(), 1);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        call(layout.size());
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            count(layout.size(), 1);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(layout.size(), -1);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        call(new_size);
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            count(layout.size(), -1);
            count(new_size, 1);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;
