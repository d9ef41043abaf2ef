//! The allocations an emitted event costs the engine, bounded.
//!
//! An event is the assertion it creates or retracts, ids only; it is
//! rendered where it is shown, not when it is emitted. So a batch's
//! events should cost the engine little beyond the ledger's own writes
//! and the growth of the vector that returns them.
//!
//! One block of 1,000 rows sits at a tie between two cities. Each of 40
//! one-op batches then flips its majority, inserting a row of the other
//! city or deleting that row again, so every batch retracts the 500
//! assertions of one majority and creates the 500 of the other. A
//! counting global allocator counts the allocation calls the batches
//! make, with their ops built before counting starts.
//!
//! The test binary holds this one test, so no other test allocates
//! while it measures.

mod counting;

use anmat_core::{PatternTuple, Pfd};
use anmat_stream::StreamEngine;
use anmat_table::{Op, Schema, ValuePool};

/// Rows of each city in the tied block.
const HALF: usize = 500;
/// One-op batches, each flipping the block's majority.
const FLIPS: usize = 40;
/// The per-event bound on allocation calls.
const MAX_ALLOCATIONS_PER_EVENT: f64 = 0.5;

#[test]
fn allocations_per_event_are_bounded() {
    let prefix = "[\\D{3}]\\D{2}".parse().expect("pattern");
    let rules = vec![Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::variable(prefix)],
    )];
    let schema = Schema::new(["zip", "city"]).expect("schema");
    let mut engine = StreamEngine::new(schema, rules);
    let zip = |i: usize| ValuePool::intern(&format!("900{:02}", i % 100));
    // The tie goes to the lexicographically smaller city.
    let (smaller, larger) = (ValuePool::intern("ea-A"), ValuePool::intern("ea-B"));
    let base = 2 * HALF;
    let tied = (0..base).map(|i| Op::Insert(vec![zip(i), [smaller, larger][i % 2]]));
    engine.apply(tied).expect("valid rows");
    assert_eq!(engine.ledger().live_count(), HALF);

    // A `larger` row breaks the tie its way, and deleting it restores
    // the tie.
    let flips: Vec<Op> = (0..FLIPS)
        .map(|i| {
            let slot = base + i / 2;
            if i % 2 == 0 {
                Op::Insert(vec![zip(slot), larger])
            } else {
                Op::Delete(slot)
            }
        })
        .collect();
    let (calls_before, bytes_before) = counting::allocations();
    let mut events = 0;
    for op in flips {
        events += engine.apply([op]).expect("valid op").len();
    }
    let (calls_after, bytes_after) = counting::allocations();

    assert_eq!(events, FLIPS * 2 * HALF, "every batch flips the block");
    let per_event = (calls_after - calls_before) as f64 / events as f64;
    let bytes = (bytes_after - bytes_before) as f64 / events as f64;
    println!("{events} events: {per_event:.3} allocations and {bytes:.0} bytes per event");
    assert!(
        per_event <= MAX_ALLOCATIONS_PER_EVENT,
        "{per_event:.3} allocations per event, bound {MAX_ALLOCATIONS_PER_EVENT}"
    );
}
