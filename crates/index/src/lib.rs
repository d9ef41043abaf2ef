//! Indexing substrates for PFD discovery and error detection.
//!
//! Three access paths from §3 of the paper:
//!
//! * [`inverted`] — the hash-based inverted list `H` of the discovery
//!   algorithm (Figure 2, lines 4–12): LHS token/n-gram → postings of
//!   `(tuple id, LHS position, RHS token, RHS position)`, with per-entry
//!   support/confidence statistics that feed the decision function `f`;
//! * [`pattern_index`] — the "index supporting regular expressions for
//!   each column present on the LHS of the PFDs": distinct values are
//!   sorted once by string, and a pattern lookup runs its compiled
//!   matcher over the range of values that start with the pattern's
//!   literal prefix (discovery validates its candidates this way). Its
//!   transpose, [`TableauMemo`], maps each distinct LHS value to the
//!   constant tableau tuples it matches, evaluating on first sighting
//!   only the tuples whose literal prefix the value starts with; batch
//!   and streaming detection both dispatch constant tuples through it;
//! * [`blocking`] — the blocking strategy (cf. BigDansing) that avoids the
//!   quadratic tuple-pair enumeration for variable PFDs: rows are grouped
//!   by their constrained-capture key, and pairs are enumerated within
//!   blocks only.
//!
//! The inverted list is built in one pass per candidate dependency
//! ([`InvertedIndex::build`]), each row adding its per-key
//! [`EntryStats`] deltas in `O(keys per row)`. Blocking keys are derived
//! in one place, a [`KeyMemo`] per keyer: batch blocking and each
//! variable tuple of the `anmat-stream` engine memoize captures through
//! it.
//! The [`BlockingPartition`] that holds the blocks is handed those keys
//! and is *incrementally updatable in both directions* — mutable
//! streams, not just appends: [`BlockingPartition::insert`] /
//! [`BlockingPartition::remove`] touch exactly the affected block, with
//! an `O(1)` majority update per insert and a majority re-derivation
//! only when a removal dethrones the leader — the substrate of the
//! engine's variable-PFD delta pipeline.
//!
//! All three indexes key their maps on interned
//! [`ValueId`](anmat_table::ValueId)s from the global
//! [`ValuePool`](anmat_table::ValuePool): probes hash a 4-byte `Copy` id
//! under the vendored `FxHasher` rather than re-hashing strings, and
//! per-value work (pattern matching, capture extraction) is bounded by
//! the column's *distinct-value* count via id-keyed memos
//! ([`KeyMemo::evals`] and [`TableauMemo::evals`] count the actual
//! evaluations).

pub mod blocking;
pub mod inverted;
pub mod pattern_index;
mod runs;

pub use blocking::{BlockingIndex, BlockingPartition, Blocks, KeyBlock, KeyMemo};
pub use inverted::{EntryStats, ExtractionMode, InvertedIndex, Posting};
pub use pattern_index::{PatternIndex, TableauMemo};
