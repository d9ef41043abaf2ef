//! The heap a distinct interned string costs the pool, bounded.
//!
//! A counting global allocator measures the heap that interning 100,000
//! distinct 10-byte strings adds: each string's record, its store slot
//! and its index bucket, with the slot chunks and the index's bucket
//! array at whatever spare capacity they have at that count. The same
//! interns must move `ValuePool::mem_footprint().bytes` by close to what
//! they allocate, so the `pool.bytes` gauge and the CLI's `pool:` line
//! stay honest. So must reclaiming them (which parks the records for a
//! deferred free and grows the reclaimer's lists) and the next reclaim
//! (which frees the parked records).
//!
//! The pool is process-global and the allocator counts the whole
//! process, so this binary holds this one test: nothing else interns or
//! allocates while it measures.

#[path = "../../stream/tests/counting/mod.rs"]
mod counting;

use anmat_table::ValuePool;

const STRINGS: usize = 100_000;
/// The per-string bound on requested heap bytes.
const MAX_BYTES_PER_STRING: f64 = 48.0;
/// How far the footprint may sit from the measured heap, as a share of
/// the heap.
const FOOTPRINT_TOLERANCE: f64 = 0.10;

/// The heap the process holds and the pool's footprint, in bytes.
fn measure() -> (f64, f64) {
    (
        counting::live_bytes() as f64,
        ValuePool::mem_footprint().bytes as f64,
    )
}

/// The footprint moved within the tolerance of the heap between two
/// measurements.
fn assert_footprint_tracks_heap(step: &str, before: (f64, f64), after: (f64, f64)) {
    let heap = after.0 - before.0;
    let footprint = after.1 - before.1;
    println!("{step}: heap moved {heap} bytes, footprint {footprint}");
    assert!(
        (footprint - heap).abs() <= FOOTPRINT_TOLERANCE * heap.abs(),
        "{step}: footprint moved {footprint} bytes against {heap} heap bytes"
    );
}

#[test]
fn heap_per_distinct_string_is_bounded() {
    // Every key, and room for every id, is allocated before the first
    // measurement, so only the pool's own allocations fall between reads.
    let keys: Vec<String> = (0..STRINGS).map(|i| format!("ph{i:08}")).collect();
    assert!(keys.iter().all(|k| k.len() == 10));
    let mut ids = Vec::with_capacity(STRINGS);

    let heap_before = counting::live_bytes();
    let footprint_before = ValuePool::mem_footprint().bytes;
    for key in &keys {
        ids.push(ValuePool::intern(key));
    }
    let interned = measure();
    let heap = (counting::live_bytes() - heap_before) as f64;
    let footprint = (ValuePool::mem_footprint().bytes - footprint_before) as f64;
    assert_eq!(ValuePool::live_strings(), STRINGS);

    let per_string = heap / STRINGS as f64;
    println!(
        "heap per distinct 10-byte string: {per_string:.1} bytes; footprint {:.1} bytes",
        footprint / STRINGS as f64
    );
    assert!(
        per_string <= MAX_BYTES_PER_STRING,
        "{per_string:.1} heap bytes per string, bound {MAX_BYTES_PER_STRING}"
    );
    assert!(
        (footprint - heap).abs() <= FOOTPRINT_TOLERANCE * heap,
        "footprint moved {footprint} bytes against {heap} heap bytes"
    );

    // Reclaiming every string parks its record until the next reclaim
    // and grows the reclaimer's free-id and deferred lists.
    assert_eq!(ValuePool::reclaim(ids.iter().copied()).strings, STRINGS);
    let reclaimed = measure();
    assert_footprint_tracks_heap("reclaim", interned, reclaimed);
    // The next reclaim frees the parked records; the lists keep their
    // capacity.
    assert_eq!(ValuePool::reclaim([]).strings, 0);
    assert_footprint_tracks_heap("second reclaim", reclaimed, measure());
}
