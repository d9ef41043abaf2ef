//! `anmat-stream` — incremental PFD violation maintenance for *mutable*
//! streams: inserts, deletes, and in-place updates.
//!
//! The batch pipeline (`discover` → confirm → `detect_all`) recomputes
//! every violation from scratch per call — `O(table)` even when a single
//! row changed. This crate maintains violations *as deltas arrive*:
//!
//! * [`StreamEngine`] is seeded with confirmed [`Pfd`]s (from a
//!   `RuleStore` or straight from discovery) and consumes
//!   [`RowOp`](anmat_table::RowOp)s — [`StreamEngine::push_row`] /
//!   [`StreamEngine::push_batch`] for appends,
//!   [`StreamEngine::delete_row`] / [`StreamEngine::update_row`] for
//!   mutations, [`StreamEngine::apply`] for a mixed op batch — emitting
//!   [`LedgerEvent`]s: newly created violations *and retractions* of
//!   earlier ones (a late burst of agreeing rows can flip a block's
//!   majority RHS, withdrawing what used to look like an error; a
//!   delete can do the same in reverse).
//! * A rule's constant tableau tuples cost one memo probe per op plus
//!   the tuples the row's LHS matches, independent of table and tableau
//!   size: a [`TableauMemo`](anmat_index::TableauMemo) per rule maps each
//!   distinct LHS value to the tuples it matches, evaluating on first
//!   sighting only those whose literal prefix the value starts with.
//!   Variable tuples maintain an incremental
//!   [`BlockingPartition`](anmat_index::BlockingPartition), fed by the
//!   engine's one key router, which derives each row's blocking keys
//!   once through a [`KeyMemo`](anmat_index::KeyMemo) per tuple: an
//!   insert or removal touches exactly the affected key's block, in
//!   `O(log block + run cap)` (blocks keep their rows as short ascending
//!   runs), and only that block's violations are diffed. `O(block)` work
//!   happens only when the block's majority flips and its violations are
//!   re-derived. A batch is validated in `O(batch)`, so no op costs
//!   `O(table)`.
//! * An update is delete+insert *fused on one slot*: the row keeps its
//!   `RowId` (the table tombstones deleted slots rather than moving
//!   rows, so ids embedded in violations and ledgers never dangle) and
//!   the caller gets one coherent event batch.
//! * Tombstones are reclaimed by **compaction epochs**:
//!   [`StreamEngine::compact`] (or the automatic
//!   [`StreamConfig::compact_ratio`] trigger, checked at batch
//!   boundaries) drops dead slots and threads the resulting
//!   [`RowIdRemap`](anmat_table::RowIdRemap) through every consumer —
//!   blocking partitions, asserted block context, and the ledger's live
//!   violations all translate in place, with zero pattern
//!   re-evaluation and zero events. Each [`LedgerEvent`] carries the
//!   epoch it was emitted in, so event history stays valid verbatim
//!   across renumberings. Memory is thereby proportional to *live*
//!   rows, not to history (`tests/mutations.rs` pins the whole
//!   protocol: compacted runs are observably identical to uncompacted
//!   ones modulo the remap, and slots stay within 2× live rows at
//!   ratio 0.3).
//! * Violation semantics are *identical to batch*: the engine calls the
//!   same `flag_block_minority` / `violation_at` primitives as
//!   `detect_all`, so any interleaving of inserts/deletes/updates ends
//!   in exactly the batch violation set over the surviving rows
//!   (property-tested in `tests/equivalence.rs` for appends and
//!   `tests/mutations.rs` for random op interleavings).
//! * A [`DriftMonitor`] tracks per-rule confidence on the live stream —
//!   the denominator shrinks as matched rows are deleted — and flags
//!   rules that decay below the discovery threshold, so they can be
//!   demoted to `RuleStatus::Pending` for re-review.
//! * Every layout runs one rule processor through a shard: every rule,
//!   restricted to the blocking keys the shard owns. One shard runs
//!   inline on the calling thread and owns every key. With
//!   [`StreamConfig::shards`]` > 1` the same engine runs its delta
//!   pipeline across worker threads: blocking keys are hashed over the
//!   workers, so a single heavy rule's blocks spread across every core,
//!   and the coordinator derives each distinct key once and ships routes
//!   with the batch. Key ownership is fixed when the engine is built, so
//!   no state ever moves between workers. Each op batch is interned
//!   once, fanned out over bounded channels, and per-shard deltas are
//!   merged back in `(rule, tuple)` order into the engine's one ledger,
//!   through the same fold the inline layout merges each op with. With
//!   [`StreamConfig::run_ahead`]` > 0` the coordinator *pipelines*
//!   batches: [`StreamEngine::submit`] returns while workers run ahead,
//!   and epoch-sequence-tagged merges happen strictly in submission
//!   order ([`BatchEvents`]). The **determinism contract**: for any op
//!   sequence, shard count, and run-ahead window, the event
//!   stream, ledger state, per-rule health, and drift report are
//!   bit-for-bit identical to the inline layout's (property-tested in
//!   `tests/shard_equivalence.rs`). Cross-shard string traffic rides the
//!   `ValuePool`, whose id→string resolution is lock-free. Compaction
//!   runs as a coordinated **epoch barrier** ([`StreamEngine::compact`]):
//!   the pipeline drains, the coordinator compacts, broadcasts the
//!   remap, and every worker remaps its replica and rule state before
//!   the next batch flows — the equivalence contract holds across
//!   compactions too.
//!
//! # Example
//!
//! ```
//! use anmat_stream::StreamEngine;
//! use anmat_core::{Pfd, PatternTuple};
//! use anmat_table::Schema;
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
//! for row in [
//!     ["90001", "Los Angeles"],
//!     ["90002", "Los Angeles"],
//!     ["90004", "New York"], // ← flagged on arrival
//! ] {
//!     let events = engine.push_str_row(row).unwrap();
//!     for e in &events {
//!         println!("{e:?}");
//!     }
//! }
//! assert_eq!(engine.ledger().live_count(), 1);
//! ```

pub mod drift;
pub mod engine;
pub mod sharded;

pub use drift::{DriftMonitor, DriftReport, RuleHealth};
pub use engine::{CompactionStats, EngineSnapshot, ShardBy, StreamConfig, StreamEngine};
pub use sharded::{BatchEvents, KEY_SLOTS};

/// The former name of the sharded engine, now [`StreamEngine`] with
/// [`StreamConfig::shards`]` > 1`. Kept only because the benchmark
/// harness (`perfbench/harness/src/measure.rs`) still names it, like
/// [`ShardBy`] and [`StreamConfig::shard_by`]; the next change to the
/// benchmark drops all three.
pub type ShardedEngine = StreamEngine;

// Re-exported so downstream users of the engine's event stream don't need
// a direct anmat-core dependency.
pub use anmat_core::{LedgerChange, LedgerEvent, Pfd, ViolationLedger};
