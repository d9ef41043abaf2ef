//! The heap a blocked row costs the engine, bounded.
//!
//! A counting global allocator measures two engines over the same
//! 100,000 rows, appended in row order and dealt round-robin over 400
//! blocks, every row agreeing with its block's majority. One engine has
//! one variable tableau tuple (a shared 3-digit zip prefix ⇒ a shared
//! city); the other has no rules. Both hold the same table, so the
//! difference, divided by the rows, is what the variable tuple holds per
//! row: the row's entry in its block's runs, plus its share of the
//! block's RHS tally and of the key memo (one LHS value per block).
//!
//! A block names its rows and leaves their RHS cells in the table, so an
//! entry is one 4-byte row id.
//!
//! The test binary holds this one test, so no other test allocates
//! while it measures.

mod counting;

use anmat_core::{PatternTuple, Pfd};
use anmat_stream::StreamEngine;
use anmat_table::{Op, Schema, ValuePool};

const BLOCKS: usize = 400;
const ROWS: usize = 100_000;
/// The per-row bound.
const MAX_BYTES_PER_ROW: f64 = 6.0;

/// One variable tuple: a shared 3-digit zip prefix ⇒ a shared city.
fn rules() -> Vec<Pfd> {
    let prefix = "[\\D{3}]\\D{2}".parse().expect("pattern");
    vec![Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::variable(prefix)],
    )]
}

/// Row `r` lands in block `r % 400`, whose rows share one zip and one
/// city.
fn ops() -> Vec<Op> {
    (0..ROWS)
        .map(|row| {
            let block = row % BLOCKS;
            let zip = format!("{block:03}42");
            let city = format!("block-heap-{block}");
            Op::Insert(ValuePool::intern_batch([zip.as_str(), city.as_str()]))
        })
        .collect()
}

/// An engine with `rules` fed `ops` in batches of 256, dropping each
/// batch's events.
fn engine(ops: &[Op], rules: Vec<Pfd>) -> StreamEngine {
    let schema = Schema::new(["zip", "city"]).expect("schema");
    let mut engine = StreamEngine::new(schema, rules);
    for batch in ops.chunks(256) {
        engine.apply(batch.to_vec()).expect("valid ops");
    }
    engine
}

/// The heap an engine with `rules` over `ops` holds.
fn measure(ops: &[Op], rules: Vec<Pfd>) -> isize {
    let before = counting::live_bytes();
    let engine = engine(ops, rules);
    let held = counting::live_bytes() - before;
    assert_eq!(engine.ledger().live_count(), 0, "every row agrees");
    held
}

#[test]
fn a_blocked_row_holds_at_most_6_bytes() {
    let ops = ops();
    // Warm up: intern the block keys the key memo derives and touch every
    // lazily registered metric, so neither measurement pays for them.
    drop(engine(&ops, rules()));
    drop(engine(&ops, Vec::new()));
    let bare = measure(&ops, Vec::new());
    let blocked = measure(&ops, rules());
    let per = (blocked - bare) as f64 / ROWS as f64;
    eprintln!("engine heap: {bare} B without rules, {blocked} B with one variable tuple: {per:.2} B per row");
    assert!(
        per <= MAX_BYTES_PER_ROW,
        "{per:.2} bytes per blocked row (bound {MAX_BYTES_PER_ROW})"
    );
}
