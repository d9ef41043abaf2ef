//! The heap a live violation costs the engine, bounded.
//!
//! A counting global allocator measures two engines over the same 400
//! blocks of 30 rows each. In one, every row agrees with its block's
//! majority; in the other, 20 rows of each block (8,000 in all) hold a
//! minority value, so each is a live violation. Everything else is the
//! same size in both engines — the table, the blocking partitions, the
//! key memo — except each block's RHS tally, which holds three more
//! values. The difference, divided by the live violations, is what one
//! violation holds: its ledger entry plus its share of its block's
//! evidence.
//!
//! The test binary holds this one test, so no other test allocates
//! while it measures.

use anmat_core::{PatternTuple, Pfd};
use anmat_stream::StreamEngine;
use anmat_table::{Op, Schema, ValuePool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes currently allocated through the global allocator.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

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

const BLOCKS: usize = 400;
const ROWS_PER_BLOCK: usize = 30;
/// Rows per block that always hold the majority.
const MAJORITY_ROWS: usize = 10;
/// The per-violation bound.
const MAX_BYTES_PER_VIOLATION: isize = 64;

/// The heap-test engine's rule: a shared 3-digit zip prefix ⇒ a shared
/// city.
fn rules() -> Vec<Pfd> {
    let prefix = "[\\D{3}]\\D{2}".parse().expect("pattern");
    vec![Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::variable(prefix)],
    )]
}

/// Every row as an insert, round-robin over the blocks (as interleaved
/// keys arrive in a stream), majority rows first so no majority ever
/// flips. With `flagged`, rows past the first 10 of a block hold one of
/// three minority cities (7, 7 and 6 rows, each short of 10).
fn ops(flagged: bool) -> Vec<Op> {
    let mut ops = Vec::with_capacity(BLOCKS * ROWS_PER_BLOCK);
    for round in 0..ROWS_PER_BLOCK {
        for block in 0..BLOCKS {
            let city = if flagged && round >= MAJORITY_ROWS {
                ["heap-elm", "heap-oak", "heap-ash"][round % 3]
            } else {
                "heap-city"
            };
            let zip = format!("{block:03}{round:02}");
            ops.push(Op::Insert(ValuePool::intern_batch([zip.as_str(), city])));
        }
    }
    ops
}

/// An engine fed `ops` in batches of 256, dropping each batch's events.
fn engine(ops: &[Op]) -> StreamEngine {
    let schema = Schema::new(["zip", "city"]).expect("schema");
    let mut engine = StreamEngine::new(schema, rules());
    for batch in ops.chunks(256) {
        engine.apply(batch.to_vec()).expect("valid ops");
    }
    engine
}

/// The heap an engine over `ops` holds, and its live violations.
fn measure(ops: &[Op]) -> (isize, usize) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let engine = engine(ops);
    let held = LIVE_BYTES.load(Ordering::Relaxed) - before;
    (held, engine.ledger().live_count())
}

#[test]
fn a_live_violation_holds_at_most_64_bytes() {
    let (agree, flagged) = (ops(false), ops(true));
    // Warm up: intern the block keys the key memo derives and touch every
    // lazily registered metric, so neither measurement pays for them.
    drop(engine(&agree));
    drop(engine(&flagged));
    let (clean, none) = measure(&agree);
    let (dirty, live) = measure(&flagged);
    assert_eq!(none, 0);
    assert_eq!(live, BLOCKS * (ROWS_PER_BLOCK - MAJORITY_ROWS));
    let per = (dirty - clean) / live as isize;
    eprintln!("engine heap: {clean} B clean, {dirty} B with {live} live violations: {per} B each");
    assert!(
        per <= MAX_BYTES_PER_VIOLATION,
        "{per} bytes per live violation (bound {MAX_BYTES_PER_VIOLATION})"
    );
}
