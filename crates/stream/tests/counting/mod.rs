//! A counting global allocator for the heap-bound tests.
//!
//! A test binary that declares `mod counting;` (another crate's tests
//! reach it through `#[path]`) runs every allocation through
//! [`Counting`], which forwards it to `System` and keeps a running total
//! of the bytes held. Each such binary holds one test, so no other test
//! allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes currently allocated through the global allocator.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

/// Bytes the process currently holds on the heap.
pub fn live_bytes() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

struct Counting;

fn count(bytes: usize, sign: isize) {
    let bytes = isize::try_from(bytes).expect("allocation sizes fit isize");
    LIVE_BYTES.fetch_add(sign * bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count(layout.size(), 1);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
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
