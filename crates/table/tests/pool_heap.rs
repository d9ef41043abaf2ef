//! The heap a distinct interned string costs the pool, bounded.
//!
//! A counting global allocator measures the heap that interning 100,000
//! distinct 10-byte strings adds: each string's record, its store slot
//! and its index bucket, with the slot chunks and the index's bucket
//! array at whatever spare capacity they have at that count. The same
//! interns must move `ValuePool::mem_footprint().bytes` by close to what
//! they allocate, so the `pool.bytes` gauge and the CLI's `pool:` line
//! stay honest.
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

#[test]
fn heap_per_distinct_string_is_bounded() {
    // Every key is built before the first measurement, so only the
    // pool's own allocations fall between the two reads.
    let keys: Vec<String> = (0..STRINGS).map(|i| format!("ph{i:08}")).collect();
    assert!(keys.iter().all(|k| k.len() == 10));

    let heap_before = counting::live_bytes();
    let footprint_before = ValuePool::mem_footprint().bytes;
    for key in &keys {
        let _ = ValuePool::intern(key);
    }
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
}
