//! `ValuePool::mem_footprint` counts exactly, and `ValuePool::reclaim`
//! frees exactly the ids it is given and recycles them.
//!
//! The pool is process-global: a string another test interns between
//! two footprint reads moves the count, and `reclaim` trusts its caller
//! to be the sole holder of the ids it hands back. This file is its own
//! test binary with a single `#[test]`, so the process has exactly one
//! pool user: no other test can move the counts, be handed a freed id
//! and read the wrong string, or have its own string freed by a reclaim
//! of a recycled id.

use anmat_table::{ValueId, ValuePool};

#[test]
fn footprint_and_reclaim_are_exact() {
    // Interning one string grows the footprint by exactly one string.
    let before = ValuePool::mem_footprint();
    assert_eq!(
        before.bytes,
        before.chunk_bytes
            + before.entry_bytes
            + before.string_bytes
            + before.map_bytes
            + before.reclaimer_bytes
    );
    let payload = "footprint-probe-with-a-reasonably-long-payload";
    let _ = ValuePool::intern(payload);
    let after = ValuePool::mem_footprint();
    assert_eq!(after.strings, before.strings + 1);
    assert!(after.string_bytes >= before.string_bytes + payload.len());
    assert!(after.bytes > before.bytes);
    assert!(after.chunk_bytes >= 64 * std::mem::size_of::<std::sync::atomic::AtomicPtr<u8>>());

    let a = ValuePool::intern("rcl-pool-test-aaaa");
    let b = ValuePool::intern("rcl-pool-test-bbbb");
    let live_before = ValuePool::live_strings();

    let stats = ValuePool::reclaim([a, b]);
    assert_eq!(stats.strings, 2);
    assert_eq!(stats.bytes, "rcl-pool-test-aaaa".len() * 2);
    assert_eq!(ValuePool::live_strings(), live_before - 2);
    // The string is gone from the map and the slot is fail-stop.
    assert_eq!(ValuePool::lookup("rcl-pool-test-aaaa"), None);
    assert!(std::panic::catch_unwind(|| ValuePool::resolve(a)).is_err());
    // Double reclaim is a no-op, and so is the null id.
    assert_eq!(ValuePool::reclaim([a, ValueId::NULL]).strings, 0);

    // Re-interning recycles a freed id (the watermark does not grow).
    let len_before = ValuePool::len();
    let a2 = ValuePool::intern("rcl-pool-test-cccc");
    assert_eq!(ValuePool::len(), len_before);
    assert!(a2 == a || a2 == b, "freed id recycled");
    assert_eq!(ValuePool::resolve(a2), "rcl-pool-test-cccc");

    // The footprint moves by exactly what one reclaim freed.
    let s = "rcl-footprint-probe-string-payload";
    let id = ValuePool::intern(s);
    let before = ValuePool::mem_footprint();
    let stats = ValuePool::reclaim([id]);
    assert_eq!(stats.strings, 1);
    let after = ValuePool::mem_footprint();
    assert_eq!(after.strings, before.strings - 1);
    assert_eq!(after.string_bytes, before.string_bytes - s.len());
    assert_eq!(after.reclaimed_strings, before.reclaimed_strings + 1);
    assert_eq!(after.reclaimed_bytes, before.reclaimed_bytes + s.len());

    // Removing strings frees no bucket of the map, so a sweep leaves its
    // byte count where it was, though `HashMap::capacity` falls.
    let ids: Vec<ValueId> = (0..20_000)
        .map(|i| ValuePool::intern(&format!("rcl-map-probe-{i:05}")))
        .collect();
    let before = ValuePool::mem_footprint();
    assert_eq!(ValuePool::reclaim(ids).strings, 20_000);
    let after = ValuePool::mem_footprint();
    assert_eq!(after.map_bytes, before.map_bytes);

    // The records that sweep parked for their deferred free still count,
    // as part of the reclaimer's holdings, and the sum identity holds.
    assert!(after.reclaimer_bytes >= 20_000 * (8 + "rcl-map-probe-00000".len()));
    assert_eq!(
        after.bytes,
        after.chunk_bytes
            + after.entry_bytes
            + after.string_bytes
            + after.map_bytes
            + after.reclaimer_bytes
    );
}
