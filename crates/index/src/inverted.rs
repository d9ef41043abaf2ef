//! The hash-based inverted list `H` of the discovery algorithm
//! (Figure 2, lines 4–12).
//!
//! For a candidate dependency `A → B`, every token (or n-gram, or prefix)
//! `s` of `t[A]` maps to a posting `(id(t), pos_s, u, pos_u)` for each
//! token/n-gram `u` of `t[B]` — exactly line 8 of the paper's algorithm.
//! On top of the raw lists this module computes per-entry statistics
//! ([`EntryStats`]): support, the RHS full-value distribution, and the
//! dominant RHS — the inputs of the PFD decision function `f`.
//!
//! All maps are keyed on interned [`ValueId`]s (keys and RHS values are
//! interned into the global `ValuePool`), so probing and posting-list
//! maintenance hash a 4-byte `Copy` id under `FxHasher` instead of
//! re-hashing strings per row. The public `&str`-keyed accessors remain
//! for callers holding raw text; they resolve through the pool without
//! interning.

use anmat_obs as obs;
use anmat_table::{
    for_each_ngram, for_each_prefix, for_each_token, RowId, Table, ValueId, ValuePool,
};
use fxhash::FxHashMap;

/// How LHS/RHS strings are decomposed into inverted-list keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtractionMode {
    /// Whitespace tokens (`Tokenize` in the paper).
    Tokens,
    /// Character n-grams of the given length (`NGrams`).
    NGrams(usize),
    /// String prefixes up to the given length — the variant that finds
    /// determining prefixes such as `900` in `90001`. (The paper folds
    /// this into its n-gram mode by using positions; a dedicated prefix
    /// mode keeps positions trivially 0 and avoids redundant keys.)
    Prefixes(usize),
}

impl ExtractionMode {
    /// Visit each `(key text, position)` pair of one cell string, with the
    /// key borrowed from `s` — the allocation-free path used by index
    /// construction (`InvertedIndex::insert_row` interns each key
    /// directly off the borrow, so no per-cell `Vec<String>` is built).
    ///
    /// Positions follow the paper's display convention: token index for
    /// token mode, character offset for n-gram/prefix modes.
    pub fn for_each_key(&self, s: &str, f: impl FnMut(&str, usize)) {
        match *self {
            ExtractionMode::Tokens => for_each_token(s, f),
            ExtractionMode::NGrams(n) => for_each_ngram(s, n, f),
            ExtractionMode::Prefixes(max) => for_each_prefix(s, max, f),
        }
    }
}

/// One posting: where a key occurred and what the RHS held there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Tuple id.
    pub row: RowId,
    /// Position of the key within `t[A]` (token index or char offset).
    pub lhs_pos: usize,
    /// One RHS token/n-gram of `t[B]`, interned. [`ValueId::NULL`] stands
    /// in for an RHS cell that produced no tokens at all.
    pub rhs_token: ValueId,
    /// Its position within `t[B]`.
    pub rhs_pos: usize,
    /// The full RHS cell value (what constant-PFD tableaux store),
    /// interned.
    pub rhs_full: ValueId,
}

/// Aggregate statistics for one inverted-list entry (one LHS key).
#[derive(Debug, Clone, PartialEq)]
pub struct EntryStats {
    /// Number of distinct rows containing the key.
    pub support: usize,
    /// Distinct full RHS values (interned) with their row counts,
    /// descending; ties break to the lexicographically smaller *string*
    /// (not the smaller id), so the ordering is identical across runs
    /// and platforms regardless of interning order.
    pub rhs_counts: Vec<(ValueId, usize)>,
}

impl EntryStats {
    /// The most frequent full RHS value, if any.
    #[must_use]
    pub fn dominant_rhs(&self) -> Option<&'static str> {
        self.rhs_counts.first().and_then(|(v, _)| v.as_str())
    }

    /// Confidence of the dominant RHS: `max_count / support`.
    #[must_use]
    pub fn confidence(&self) -> f64 {
        if self.support == 0 {
            return 0.0;
        }
        self.rhs_counts
            .first()
            .map_or(0.0, |(_, c)| *c as f64 / self.support as f64)
    }

    /// Number of rows that disagree with the dominant RHS.
    #[must_use]
    pub fn violations(&self) -> usize {
        self.support - self.rhs_counts.first().map_or(0, |(_, c)| *c)
    }
}

/// Sort an RHS distribution: count descending, ties by ascending resolved
/// string (deterministic across runs/platforms; see [`EntryStats`]).
pub(crate) fn sort_rhs_counts(rhs_counts: &mut [(ValueId, usize)]) {
    rhs_counts.sort_by(|(va, ca), (vb, cb)| cb.cmp(ca).then_with(|| va.render().cmp(vb.render())));
}

/// The inverted list for one candidate dependency `A → B`.
///
/// [`InvertedIndex::build`] appends the table's rows one at a time, each
/// in `O(keys in the row)`, maintaining per-key [`EntryStats`] deltas
/// alongside the raw postings, so statistics never need a pass over the
/// postings. The index is read-only once built; the streaming detector
/// maintains its sibling, [`BlockingPartition`](crate::BlockingPartition),
/// incrementally instead.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    /// LHS decomposition mode (kept so inserts match the build mode).
    lhs_mode: ExtractionMode,
    /// RHS decomposition mode.
    rhs_mode: ExtractionMode,
    /// Key → postings (one per (row, lhs occurrence, rhs token)).
    entries: FxHashMap<ValueId, Vec<Posting>>,
    /// Key → distinct rows containing it (deduplicated, sorted).
    rows_by_key: FxHashMap<ValueId, Vec<RowId>>,
    /// Key → full-RHS-value → distinct-row count, maintained per insert
    /// (the Δ behind [`InvertedIndex::stats`]).
    rhs_counts_by_key: FxHashMap<ValueId, FxHashMap<ValueId, usize>>,
    /// Scratch buffer for the RHS keys of the row being inserted (reused
    /// across inserts so the hot path performs no allocation once warm).
    rhs_scratch: Vec<(ValueId, usize)>,
}

impl InvertedIndex {
    /// An empty index that decomposes cells with the given modes.
    fn empty(lhs_mode: ExtractionMode, rhs_mode: ExtractionMode) -> InvertedIndex {
        InvertedIndex {
            lhs_mode,
            rhs_mode,
            entries: FxHashMap::default(),
            rows_by_key: FxHashMap::default(),
            rhs_counts_by_key: FxHashMap::default(),
            rhs_scratch: Vec::new(),
        }
    }

    /// Build the inverted list for the column pair `(lhs, rhs)` of `table`.
    ///
    /// Implements lines 4–8 of Figure 2. Rows with a null on either side
    /// are skipped (they can neither support nor violate a PFD).
    #[must_use]
    pub fn build(
        table: &Table,
        lhs: usize,
        rhs: usize,
        lhs_mode: ExtractionMode,
        rhs_mode: ExtractionMode,
    ) -> InvertedIndex {
        let mut index = InvertedIndex::empty(lhs_mode, rhs_mode);
        for (row, a, b) in table.iter_pair(lhs, rhs) {
            index.insert_row(row, a, b);
        }
        index
    }

    /// Append one row's non-null `(lhs, rhs)` cell pair.
    ///
    /// Cost is proportional to the number of keys extracted from the row,
    /// independent of how many rows the index already holds. Rows must
    /// arrive in nondecreasing `RowId` order (`build` walks the table in
    /// row order).
    fn insert_row(&mut self, row: RowId, lhs: &str, rhs: &str) {
        obs::counter!("index.insert").incr();
        let rhs_full = ValuePool::intern(rhs);
        let mut rhs_keys = std::mem::take(&mut self.rhs_scratch);
        rhs_keys.clear();
        self.rhs_mode
            .for_each_key(rhs, |u, pos| rhs_keys.push((ValuePool::intern(u), pos)));
        let lhs_mode = self.lhs_mode;
        lhs_mode.for_each_key(lhs, |key, lhs_pos| {
            let key = ValuePool::intern(key);
            let postings = self.entries.entry(key).or_default();
            for &(rhs_token, rhs_pos) in &rhs_keys {
                postings.push(Posting {
                    row,
                    lhs_pos,
                    rhs_token,
                    rhs_pos,
                    rhs_full,
                });
            }
            // RHS cells with no tokens at all still count the row.
            if rhs_keys.is_empty() {
                postings.push(Posting {
                    row,
                    lhs_pos,
                    rhs_token: ValueId::NULL,
                    rhs_pos: 0,
                    rhs_full,
                });
            }
            let rows = self.rows_by_key.entry(key).or_default();
            if rows.last() != Some(&row) {
                rows.push(row);
                // First sighting of this key in this row: one delta to
                // the key's RHS distribution.
                *self
                    .rhs_counts_by_key
                    .entry(key)
                    .or_default()
                    .entry(rhs_full)
                    .or_insert(0) += 1;
            }
        });
        self.rhs_scratch = rhs_keys;
    }

    /// Number of distinct keys.
    #[must_use]
    pub fn key_count(&self) -> usize {
        self.entries.len()
    }

    /// The id of a key string, if the index ever saw it.
    fn key_id(&self, key: &str) -> Option<ValueId> {
        let id = ValuePool::lookup(key)?;
        self.entries.contains_key(&id).then_some(id)
    }

    /// The postings for a key.
    #[must_use]
    pub fn postings(&self, key: &str) -> &[Posting] {
        self.key_id(key).map_or(&[], |id| self.postings_id(id))
    }

    /// The postings for an interned key.
    #[must_use]
    pub fn postings_id(&self, key: ValueId) -> &[Posting] {
        self.entries.get(&key).map_or(&[], Vec::as_slice)
    }

    /// The distinct rows containing a key.
    #[must_use]
    pub fn rows(&self, key: &str) -> &[RowId] {
        self.key_id(key).map_or(&[], |id| self.rows_id(id))
    }

    /// The distinct rows containing an interned key.
    #[must_use]
    pub fn rows_id(&self, key: ValueId) -> &[RowId] {
        self.rows_by_key.get(&key).map_or(&[], Vec::as_slice)
    }

    /// Aggregate statistics for one key.
    #[must_use]
    pub fn stats(&self, key: &str) -> EntryStats {
        match self.key_id(key) {
            Some(id) => self.stats_id(id),
            None => EntryStats {
                support: 0,
                rhs_counts: Vec::new(),
            },
        }
    }

    /// Aggregate statistics for one interned key.
    ///
    /// Reads the per-key deltas maintained by
    /// `InvertedIndex::insert_row`, so cost is `O(distinct RHS values)`
    /// for the key rather than `O(postings)`. A row contributes once
    /// regardless of how many RHS tokens it produced.
    #[must_use]
    pub fn stats_id(&self, key: ValueId) -> EntryStats {
        let support = self.rows_id(key).len();
        let mut rhs_counts: Vec<(ValueId, usize)> = self
            .rhs_counts_by_key
            .get(&key)
            .map(|counts| counts.iter().map(|(v, c)| (*v, *c)).collect())
            .unwrap_or_default();
        sort_rhs_counts(&mut rhs_counts);
        EntryStats {
            support,
            rhs_counts,
        }
    }

    /// Iterate keys in deterministic (sorted) order with their stats.
    pub fn iter_stats(&self) -> impl Iterator<Item = (&'static str, EntryStats)> + '_ {
        let mut keys: Vec<ValueId> = self.entries.keys().copied().collect();
        keys.sort_by_cached_key(|k| k.render());
        keys.into_iter().map(|k| (k.render(), self.stats_id(k)))
    }

    /// Keys whose support is at least `min_support`, sorted by descending
    /// support (ties: ascending key).
    #[must_use]
    pub fn frequent_keys(&self, min_support: usize) -> Vec<(&'static str, usize)> {
        let mut out: Vec<(&'static str, usize)> = self
            .rows_by_key
            .iter()
            .filter(|(_, rows)| rows.len() >= min_support)
            .map(|(k, rows)| (k.render(), rows.len()))
            .collect();
        out.sort_by(|(ka, sa), (kb, sb)| sb.cmp(sa).then_with(|| ka.cmp(kb)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anmat_table::{Schema, Table};

    fn name_gender_table() -> Table {
        // Table 1 of the paper (D1), including the seeded error in r4.
        let schema = Schema::new(["name", "gender"]).unwrap();
        Table::from_str_rows(
            schema,
            [
                ["John Charles", "M"],
                ["John Bosco", "M"],
                ["Susan Orlean", "F"],
                ["Susan Boyle", "M"], // error: should be F
            ],
        )
        .unwrap()
    }

    #[test]
    fn token_extraction_builds_postings() {
        let t = name_gender_table();
        let idx = InvertedIndex::build(&t, 0, 1, ExtractionMode::Tokens, ExtractionMode::Tokens);
        assert_eq!(idx.rows("John"), &[0, 1]);
        assert_eq!(idx.rows("Susan"), &[2, 3]);
        let p = idx.postings("John");
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].lhs_pos, 0);
        assert_eq!(p[0].rhs_full.as_str(), Some("M"));
    }

    #[test]
    fn stats_detect_paper_error() {
        let t = name_gender_table();
        let idx = InvertedIndex::build(&t, 0, 1, ExtractionMode::Tokens, ExtractionMode::Tokens);
        let john = idx.stats("John");
        assert_eq!(john.support, 2);
        assert_eq!(john.dominant_rhs(), Some("M"));
        assert_eq!(john.violations(), 0);
        assert!((john.confidence() - 1.0).abs() < 1e-9);
        let susan = idx.stats("Susan");
        assert_eq!(susan.support, 2);
        assert_eq!(susan.violations(), 1);
        assert!((susan.confidence() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn prefix_mode_zip_codes() {
        // Table 2 of the paper (D2).
        let schema = Schema::new(["zip", "city"]).unwrap();
        let t = Table::from_str_rows(
            schema,
            [
                ["90001", "Los Angeles"],
                ["90002", "Los Angeles"],
                ["90003", "Los Angeles"],
                ["90004", "New York"], // error
            ],
        )
        .unwrap();
        let idx = InvertedIndex::build(
            &t,
            0,
            1,
            ExtractionMode::Prefixes(3),
            ExtractionMode::Tokens,
        );
        let s = idx.stats("900");
        assert_eq!(s.support, 4);
        assert_eq!(s.dominant_rhs(), Some("Los Angeles"));
        assert_eq!(s.violations(), 1);
    }

    #[test]
    fn ngram_mode_positions() {
        let schema = Schema::new(["id", "dept"]).unwrap();
        let t =
            Table::from_str_rows(schema, [["F-9-107", "Finance"], ["F-3-220", "Finance"]]).unwrap();
        let idx = InvertedIndex::build(&t, 0, 1, ExtractionMode::NGrams(2), ExtractionMode::Tokens);
        // "F-" occurs at char 0 in both ids.
        let p = idx.postings("F-");
        assert_eq!(p.len(), 2);
        assert!(p.iter().all(|p| p.lhs_pos == 0));
        assert_eq!(idx.stats("F-").support, 2);
    }

    #[test]
    fn multi_occurrence_key_counts_row_once() {
        let schema = Schema::new(["a", "b"]).unwrap();
        let t = Table::from_str_rows(schema, [["x x x", "1"]]).unwrap();
        let idx = InvertedIndex::build(&t, 0, 1, ExtractionMode::Tokens, ExtractionMode::Tokens);
        assert_eq!(idx.stats("x").support, 1);
        assert_eq!(idx.postings("x").len(), 3);
    }

    #[test]
    fn nulls_skipped() {
        let schema = Schema::new(["a", "b"]).unwrap();
        let t = Table::from_str_rows(schema, [["x", "1"], ["", "2"], ["y", ""]]).unwrap();
        let idx = InvertedIndex::build(&t, 0, 1, ExtractionMode::Tokens, ExtractionMode::Tokens);
        assert_eq!(idx.rows("x"), &[0]);
        assert!(idx.rows("y").is_empty());
        assert_eq!(idx.key_count(), 1);
    }

    #[test]
    fn frequent_keys_sorted() {
        let t = name_gender_table();
        let idx = InvertedIndex::build(&t, 0, 1, ExtractionMode::Tokens, ExtractionMode::Tokens);
        let freq = idx.frequent_keys(2);
        assert_eq!(freq, vec![("John", 2), ("Susan", 2)]);
        assert!(idx.frequent_keys(3).is_empty());
    }

    #[test]
    fn incremental_insert_matches_build() {
        let t = name_gender_table();
        let batch = InvertedIndex::build(&t, 0, 1, ExtractionMode::Tokens, ExtractionMode::Tokens);
        let mut inc = InvertedIndex::empty(ExtractionMode::Tokens, ExtractionMode::Tokens);
        for (row, a, b) in t.iter_pair(0, 1) {
            inc.insert_row(row, a, b);
        }
        assert_eq!(inc.key_count(), batch.key_count());
        for (key, stats) in batch.iter_stats() {
            assert_eq!(inc.stats(key), stats, "stats diverge for key {key:?}");
            assert_eq!(inc.rows(key), batch.rows(key));
        }
    }

    #[test]
    fn insert_row_is_constant_per_row() {
        // The per-key RHS distribution updates by delta: support grows by
        // one per containing row and the dominant value tracks the counts.
        let mut idx = InvertedIndex::empty(ExtractionMode::Tokens, ExtractionMode::Tokens);
        for row in 0..100 {
            idx.insert_row(row, "John Smith", if row % 10 == 0 { "F" } else { "M" });
            let s = idx.stats("John");
            assert_eq!(s.support, row + 1);
        }
        let s = idx.stats("John");
        assert_eq!(s.dominant_rhs(), Some("M"));
        assert_eq!(s.violations(), 10);
    }

    #[test]
    fn iter_stats_deterministic() {
        let t = name_gender_table();
        let idx = InvertedIndex::build(&t, 0, 1, ExtractionMode::Tokens, ExtractionMode::Tokens);
        let keys: Vec<&str> = idx.iter_stats().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn dominant_rhs_tie_breaks_to_smaller_string() {
        // Two RHS values with equal counts must pick the same winner on
        // every run and platform: the lexicographically smaller string,
        // independent of pool id assignment order.
        let mut a = InvertedIndex::empty(ExtractionMode::Tokens, ExtractionMode::Tokens);
        a.insert_row(0, "key", "zzz-tie");
        a.insert_row(1, "key", "aaa-tie");
        assert_eq!(a.stats("key").dominant_rhs(), Some("aaa-tie"));
        // Reversed ingest (and hence reversed interning order): same
        // winner.
        let mut b = InvertedIndex::empty(ExtractionMode::Tokens, ExtractionMode::Tokens);
        b.insert_row(0, "key", "aaa-tie");
        b.insert_row(1, "key", "zzz-tie");
        assert_eq!(b.stats("key").dominant_rhs(), Some("aaa-tie"));
        assert_eq!(a.stats("key").rhs_counts, b.stats("key").rhs_counts);
    }

    #[test]
    fn unseen_key_is_empty() {
        let idx = InvertedIndex::empty(ExtractionMode::Tokens, ExtractionMode::Tokens);
        assert!(idx.postings("never-seen-inverted-key").is_empty());
        assert!(idx.rows("never-seen-inverted-key").is_empty());
        assert_eq!(idx.stats("never-seen-inverted-key").support, 0);
    }
}
