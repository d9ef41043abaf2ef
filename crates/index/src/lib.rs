//! Indexing substrates for PFD discovery and error detection.
//!
//! Three access paths from §3 of the paper:
//!
//! * [`inverted`] — the hash-based inverted list `H` of the discovery
//!   algorithm (Figure 2, lines 4–12): each LHS token, n-gram or prefix
//!   → its postings `(tuple id, LHS position)` and its support, the
//!   distinct rows holding it. Discovery builds one per column pair and
//!   extraction mode, and reads each group's RHS values from the table;
//! * [`pattern_index`] — the paper's "index supporting regular
//!   expressions for each column present on the LHS of the PFDs", asked
//!   the transposed way: a [`TableauMemo`] maps each distinct LHS value
//!   to the patterns it matches, evaluating on first sighting only the
//!   patterns whose literal prefix the value starts with. It is the one
//!   answer to "which tuples admit this value": batch and streaming
//!   detection dispatch constant tuples through it, discovery validates
//!   a column pair's candidate patterns in one walk through it, and
//!   coverage and the tableau report count through it;
//! * [`blocking`] — the blocking strategy (cf. BigDansing) that avoids the
//!   quadratic tuple-pair enumeration for variable PFDs: rows are grouped
//!   by their constrained-capture key, and pairs are enumerated within
//!   blocks only.
//!
//! Blocking keys are derived in one place, a [`KeyMemo`] per keyer:
//! batch blocking and each variable tuple of the `anmat-stream` engine
//! memoize captures through it.
//! The [`BlockingPartition`] that holds the blocks is handed those keys
//! and is *incrementally updatable in both directions* — mutable
//! streams, not just appends: [`BlockingPartition::insert`] /
//! [`BlockingPartition::remove`] touch exactly the affected block, with
//! an `O(1)` majority update per insert and a majority re-derivation
//! only when a removal dethrones the leader — the substrate of the
//! engine's variable-PFD delta pipeline.
//!
//! The memos and blocks key their maps on interned
//! [`ValueId`](anmat_table::ValueId)s from the global
//! [`ValuePool`](anmat_table::ValuePool): probes hash a 4-byte `Copy` id
//! under the vendored `FxHasher` rather than re-hashing strings, and
//! per-value work (pattern matching, capture extraction) is bounded by
//! the column's *distinct-value* count via id-keyed memos
//! ([`KeyMemo::evals`] and [`TableauMemo::evals`] count the actual
//! evaluations). The inverted list keys on slices of the table's cells
//! under the same hasher: its keys are parts of values, which discovery
//! reads once per column pair, so interning them would only grow the
//! pool.

pub mod blocking;
pub mod inverted;
pub mod pattern_index;
mod runs;

pub use blocking::{BlockingIndex, BlockingPartition, Blocks, KeyBlock, KeyMemo};
pub use inverted::{ExtractionMode, InvertedIndex, Posting};
pub use pattern_index::TableauMemo;
