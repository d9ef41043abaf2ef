//! `anmat-stream` — incremental PFD violation maintenance for *mutable*
//! streams: inserts, deletes, and in-place updates.
//!
//! The batch pipeline (`discover` → confirm → `detect_all`) recomputes
//! every violation from scratch per call — `O(table)` even when a single
//! row changed. This crate maintains violations *as deltas arrive*:
//!
//! * [`StreamEngine`] is seeded with confirmed [`Pfd`]s (from a
//!   `RuleStore` or straight from discovery) and consumes
//!   [`Op`](anmat_table::Op)s — inserts, deletes and in-place updates
//!   over interned cells, as the op-log reader
//!   ([`anmat_table::oplog`]) yields them — through one write entry,
//!   [`StreamEngine::apply`], which validates each batch whole before
//!   any op runs, and does nothing more. It emits [`LedgerEvent`]s:
//!   newly created violations *and retractions* of earlier ones (a late
//!   burst of agreeing rows can flip a block's majority RHS, withdrawing
//!   what used to look like an error; a delete can do the same in
//!   reverse). An event is the [`Assertion`](anmat_core::Assertion) it
//!   changes, ids only; [`ViolationLedger::describe`] renders it where it
//!   is shown.
//! * A rule's constant tableau tuples cost one memo probe per op plus
//!   the tuples the row's LHS matches, independent of table and tableau
//!   size: a [`TableauMemo`](anmat_index::TableauMemo) per rule maps each
//!   distinct LHS value to the tuples it matches, evaluating on first
//!   sighting only those whose literal prefix the value starts with.
//!   Variable tuples maintain an incremental
//!   [`BlockingPartition`](anmat_index::BlockingPartition), each tuple
//!   deriving a row's blocking key once per distinct LHS value through
//!   its own [`KeyMemo`](anmat_index::KeyMemo): an
//!   insert or removal touches exactly the affected key's block, in
//!   `O(log block + run cap)` (blocks keep their rows as short ascending
//!   runs of 4-byte row ids and leave each RHS in the table: about 5.4
//!   bytes of heap per row, bounded by `tests/block_heap.rs`), and moves
//!   at most the row's own violation. `O(block)` work
//!   happens only when the block's majority flips and its violations are
//!   re-derived. A batch is validated in `O(batch)`, so no op costs
//!   `O(table)`.
//! * The ledger holds each live violation as an
//!   [`Assertion`](anmat_core::Assertion) of ids (about 50 bytes of heap
//!   each, bounded by `tests/violation_heap.rs`), and keeps witnesses as
//!   evidence once per block: a witness leaving moves no violation and
//!   emits no event. A full violation, witnesses and repair included, is
//!   rendered only where one is shown ([`ViolationLedger::snapshot`]).
//! * An update is delete+insert *fused on one slot*: the row keeps its
//!   `RowId` (the table tombstones deleted slots rather than moving
//!   rows, so ids embedded in violations and ledgers never dangle) and
//!   the caller gets one coherent event batch.
//! * Tombstones are reclaimed by **compaction epochs**, which the
//!   caller runs between batches, after reading a batch's events:
//!   [`StreamEngine::compact`], or the tombstone-ratio trigger
//!   [`StreamEngine::compact_if`]. Compaction drops dead slots and
//!   threads the resulting [`RowIdRemap`](anmat_table::RowIdRemap)
//!   through every consumer — blocking partitions, and the ledger's live
//!   assertions and block witnesses all translate in place, with zero
//!   pattern re-evaluation and zero events. `apply` never compacts, so
//!   every event one call returns is in the epoch
//!   [`StreamEngine::epoch`] reports on return, and renders until the
//!   next compaction. Memory is thereby proportional to *live* rows,
//!   not to history (`tests/harness.rs` pins the whole protocol after
//!   every step: compacted runs are observably identical to a
//!   never-compacting twin modulo the remap, and slots stay within 2×
//!   live rows at ratio 0.3 —
//!   `forced_and_ratio_triggered_compaction_are_invisible`).
//! * Violation semantics are *identical to batch*: a constant tuple
//!   flags a matched row whose RHS differs from its constant, and a
//!   variable tuple the rows of a block whose RHS differs from the
//!   block's majority, exactly as `detect_all`'s `violation_at` and
//!   `flag_block_minority` do, so any interleaving of
//!   inserts/deletes/updates ends in exactly the batch violation set
//!   over the surviving rows (property-tested after every step by
//!   `tests/harness.rs`: `datagen_replay_equals_batch_at_any_batch_split`
//!   for appends, `any_script_matches_the_model` for random op
//!   interleavings).
//! * Each tableau tuple keeps its own [`TupleHealth`] on the live stream
//!   — the denominator shrinks as matched rows are deleted — and a
//!   [`DriftMonitor`] reports tuples that decay below the discovery
//!   threshold, so their rules can be demoted to `RuleStatus::Pending`
//!   for re-review.
//! * The engine runs on the calling thread: each op phase (the removal
//!   before a delete or update, the insert after an insert or update)
//!   goes through every rule in index order, each rule writing its
//!   creations and retractions straight into the one ledger in tableau
//!   order, so event order is deterministic: rule index, then tableau
//!   order.
//!
//! # Example
//!
//! ```
//! use anmat_stream::StreamEngine;
//! use anmat_core::{Pfd, PatternTuple};
//! use anmat_table::{oplog, Op, Schema};
//!
//! // λ5: rows sharing a 3-digit zip prefix must share a city.
//! let pfd = Pfd::new(
//!     "Zip",
//!     "zip",
//!     "city",
//!     vec![PatternTuple::variable("[\\D{3}]\\D{2}".parse().unwrap())],
//! );
//! let schema = Schema::new(["zip", "city"]).unwrap();
//! let mut engine = StreamEngine::new(schema, vec![pfd]);
//!
//! let log = "+,90001,Los Angeles\n+,90002,Los Angeles\n+,90004,New York\n";
//! let events = engine.apply(oplog::parse(log).unwrap()).unwrap();
//! // Row 2 is flagged on arrival.
//! assert_eq!(events.len(), 1);
//! assert_eq!(engine.ledger().live_count(), 1);
//!
//! // Deleting it retracts the violation.
//! let events = engine.apply([Op::Delete(2)]).unwrap();
//! assert!(!events[0].is_created());
//! assert!(engine.ledger().is_empty());
//! ```

pub mod drift;
pub mod engine;

pub use drift::{DriftMonitor, DriftReport, TupleHealth};
pub use engine::{
    BatchEvents, CompactionStats, EngineSnapshot, ShardBy, StreamConfig, StreamEngine,
};

/// Another name for [`StreamEngine`]. Kept only because the benchmark
/// harness (`perfbench/harness/src/measure.rs`) still names it, like
/// [`ShardBy`], the inert [`StreamConfig`] fields `shards`, `shard_by`
/// and `run_ahead`, and the [`StreamEngine::push_id_batch`],
/// [`StreamEngine::submit`] and [`StreamEngine::flush`] shims; the next
/// change to the benchmark (ROADMAP item 5) drops them all.
pub type ShardedEngine = StreamEngine;

// Re-exported so downstream users of the engine's event stream don't need
// a direct anmat-core dependency.
pub use anmat_core::{LedgerEvent, Pfd, ViolationLedger};
