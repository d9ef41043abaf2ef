//! The hash-based inverted list `H` of the discovery algorithm
//! (Figure 2, lines 4–12).
//!
//! For a candidate dependency `A → B`, every token (or n-gram, or prefix)
//! `s` of `t[A]` maps to one posting `(id(t), pos_s)` per occurrence,
//! and each key keeps its support: the distinct rows holding it. Line 8
//! of the paper also posts each token `u` of `t[B]` with its position.
//! This list does not. The decision function scores a (key, position)
//! group by the whole RHS values of its rows, never by their tokens, and
//! the miner reads each of those values from the table by row id, so
//! tokenizing and interning every RHS cell would only build postings
//! nobody reads.
//!
//! Keys are slices of the table's own cells, borrowed for the list's
//! lifetime: building interns nothing, so a key that occurs in one
//! column pair does not outlive the list that holds it.

use anmat_obs as obs;
use anmat_table::{for_each_ngram, for_each_prefix, for_each_token, RowId, Table};
use fxhash::FxHashMap;

/// How LHS strings are decomposed into inverted-list keys.
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
    /// key a slice of `s` that lives as long as `s` does — the
    /// allocation-free path [`InvertedIndex::build`] keys its list on.
    ///
    /// Positions follow the paper's display convention: token index for
    /// token mode, character offset for n-gram/prefix modes.
    pub fn for_each_key<'s>(&self, s: &'s str, f: impl FnMut(&'s str, usize)) {
        match *self {
            ExtractionMode::Tokens => for_each_token(s, f),
            ExtractionMode::NGrams(n) => for_each_ngram(s, n, f),
            ExtractionMode::Prefixes(max) => for_each_prefix(s, max, f),
        }
    }
}

/// One posting: a row holding the key, and where in `t[A]` it occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Tuple id.
    pub row: RowId,
    /// Position of the key within `t[A]` (token index or char offset).
    pub lhs_pos: usize,
}

/// One key's inverted-list entry.
#[derive(Debug, Clone, Default)]
struct Entry {
    /// One posting per occurrence, in row order, then position order.
    postings: Vec<Posting>,
    /// Distinct rows holding the key.
    support: usize,
}

/// The inverted list for one candidate dependency `A → B`: each key of
/// `t[A]` with its postings and support.
///
/// [`InvertedIndex::build`] appends the table's rows one at a time, each
/// in `O(keys in the row)`. Each key is a slice of a cell of the table,
/// so the list borrows the table. It is read-only once built, and
/// discovery drops it after mining its column pair.
#[derive(Debug, Clone)]
pub struct InvertedIndex<'t> {
    entries: FxHashMap<&'t str, Entry>,
}

impl<'t> InvertedIndex<'t> {
    /// Build the inverted list for the column pair `(lhs, rhs)` of `table`,
    /// decomposing each LHS cell with `lhs_mode`.
    ///
    /// Implements lines 4–8 of Figure 2. Rows with a null on either side
    /// are skipped (they can neither support nor violate a PFD).
    #[must_use]
    pub fn build(
        table: &'t Table,
        lhs: usize,
        rhs: usize,
        lhs_mode: ExtractionMode,
    ) -> InvertedIndex<'t> {
        let mut entries: FxHashMap<&'t str, Entry> = FxHashMap::default();
        for (row, value, _) in table.iter_pair(lhs, rhs) {
            obs::counter!("index.insert").incr();
            lhs_mode.for_each_key(value, |key, lhs_pos| {
                let entry = entries.entry(key).or_default();
                if entry.postings.last().map(|p| p.row) != Some(row) {
                    entry.support += 1;
                }
                entry.postings.push(Posting { row, lhs_pos });
            });
        }
        InvertedIndex { entries }
    }

    /// Number of distinct keys.
    #[must_use]
    pub fn key_count(&self) -> usize {
        self.entries.len()
    }

    /// The postings for a key, in row order, then position order.
    #[must_use]
    pub fn postings(&self, key: &str) -> &[Posting] {
        self.entries
            .get(key)
            .map_or(&[], |entry| entry.postings.as_slice())
    }

    /// Keys whose support is at least `min_support`, sorted by descending
    /// support (ties: ascending key).
    #[must_use]
    pub fn frequent_keys(&self, min_support: usize) -> Vec<(&'t str, usize)> {
        let mut out: Vec<(&'t str, usize)> = self
            .entries
            .iter()
            .filter(|(_, entry)| entry.support >= min_support)
            .map(|(&k, entry)| (k, entry.support))
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

    fn posting(row: RowId, lhs_pos: usize) -> Posting {
        Posting { row, lhs_pos }
    }

    #[test]
    fn token_extraction_builds_postings() {
        let t = name_gender_table();
        let idx = InvertedIndex::build(&t, 0, 1, ExtractionMode::Tokens);
        assert_eq!(idx.postings("John"), &[posting(0, 0), posting(1, 0)]);
        assert_eq!(idx.postings("Susan"), &[posting(2, 0), posting(3, 0)]);
        assert_eq!(idx.postings("Boyle"), &[posting(3, 1)]);
        // Keys come from the LHS only.
        assert!(idx.postings("M").is_empty());
        assert_eq!(idx.key_count(), 6);
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
        let idx = InvertedIndex::build(&t, 0, 1, ExtractionMode::Prefixes(3));
        assert_eq!(idx.frequent_keys(4), vec![("9", 4), ("90", 4), ("900", 4)]);
        assert!(idx.postings("900").iter().all(|p| p.lhs_pos == 0));
    }

    #[test]
    fn ngram_mode_positions() {
        let schema = Schema::new(["id", "dept"]).unwrap();
        let t =
            Table::from_str_rows(schema, [["F-9-107", "Finance"], ["F-3-220", "Finance"]]).unwrap();
        let idx = InvertedIndex::build(&t, 0, 1, ExtractionMode::NGrams(2));
        // "F-" occurs at char 0 in both ids.
        assert_eq!(idx.postings("F-"), &[posting(0, 0), posting(1, 0)]);
        assert_eq!(idx.postings("-1"), &[posting(0, 3)]);
        assert!(idx.frequent_keys(2).contains(&("F-", 2)));
    }

    #[test]
    fn multi_occurrence_key_counts_row_once() {
        let schema = Schema::new(["a", "b"]).unwrap();
        let t = Table::from_str_rows(schema, [["x x x", "1 2"], ["x", "3"]]).unwrap();
        let idx = InvertedIndex::build(&t, 0, 1, ExtractionMode::Tokens);
        // One posting per occurrence, however many tokens the RHS has.
        assert_eq!(
            idx.postings("x"),
            &[posting(0, 0), posting(0, 1), posting(0, 2), posting(1, 0)]
        );
        assert_eq!(idx.frequent_keys(1), vec![("x", 2)]);
    }

    #[test]
    fn nulls_skipped() {
        let schema = Schema::new(["a", "b"]).unwrap();
        let t = Table::from_str_rows(schema, [["x", "1"], ["", "2"], ["y", ""]]).unwrap();
        let idx = InvertedIndex::build(&t, 0, 1, ExtractionMode::Tokens);
        assert_eq!(idx.postings("x"), &[posting(0, 0)]);
        assert!(idx.postings("y").is_empty());
        assert_eq!(idx.key_count(), 1);
    }

    #[test]
    fn frequent_keys_sorted() {
        let t = name_gender_table();
        let idx = InvertedIndex::build(&t, 0, 1, ExtractionMode::Tokens);
        let freq = idx.frequent_keys(2);
        assert_eq!(freq, vec![("John", 2), ("Susan", 2)]);
        assert!(idx.frequent_keys(3).is_empty());
        // Descending support first, then ascending key.
        let all = idx.frequent_keys(1);
        assert_eq!(&all[..2], &freq[..]);
        assert_eq!(
            all[2..].iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            ["Bosco", "Boyle", "Charles", "Orlean"]
        );
    }

    #[test]
    fn unseen_key_is_empty() {
        let t = name_gender_table();
        let idx = InvertedIndex::build(&t, 0, 1, ExtractionMode::Tokens);
        assert!(idx.postings("never-seen-inverted-key").is_empty());
    }
}
