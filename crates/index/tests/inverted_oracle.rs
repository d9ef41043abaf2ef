//! Oracle for discovery's inverted list: over random tables, in every
//! extraction mode, `postings`, `frequent_keys` and `key_count` equal a
//! brute-force map from each key to its `(row, position)` occurrences,
//! built from `Table::iter_pair` and the tokenize visitors.
//!
//! Tables hold nulls on either side, deleted rows, empty and
//! whitespace-only cells, and multibyte values (`é`, `😀`). Keys are
//! slices of the table's cells, so building the list interns nothing:
//! a key that no cell equals stays out of the value pool.
//!
//! Case count scales with `PROPTEST_CASES` (CI runs it at an elevated
//! count with the pattern tier differential).

use anmat_index::{ExtractionMode, InvertedIndex};
use anmat_table::{
    for_each_ngram, for_each_prefix, for_each_token, RowId, Schema, Table, Value, ValuePool,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One cell: null, empty, whitespace only, or text over an alphabet with
/// spaces, a tab and multibyte characters.
fn any_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::text("")),
        Just(Value::text(" \t ")),
        "[ab9é😀 \t]{1,7}".prop_map(Value::text),
        "[ab9é😀 \t]{1,7}".prop_map(Value::text),
    ]
}

/// Rows of `(lhs, rhs)` cells, some of them deleted.
fn any_table() -> impl Strategy<Value = Table> {
    (
        prop::collection::vec((any_cell(), any_cell()), 0..20),
        prop::collection::vec(0usize..20, 0..5),
    )
        .prop_map(|(rows, deletes)| {
            let mut table = Table::empty(Schema::new(["code", "label"]).unwrap());
            for (lhs, rhs) in rows {
                table.push_row(vec![lhs, rhs]).unwrap();
            }
            for row in deletes {
                if row < table.row_count() && table.is_live(row) {
                    table.delete_row(row).unwrap();
                }
            }
            table
        })
}

fn any_mode() -> impl Strategy<Value = ExtractionMode> {
    prop_oneof![
        Just(ExtractionMode::Tokens),
        (0usize..4).prop_map(ExtractionMode::NGrams),
        (0usize..5).prop_map(ExtractionMode::Prefixes),
    ]
}

/// Each key of each live row non-null on both sides, with its
/// occurrences in row order, then position order.
fn brute_force(table: &Table, mode: ExtractionMode) -> BTreeMap<String, Vec<(RowId, usize)>> {
    let mut map: BTreeMap<String, Vec<(RowId, usize)>> = BTreeMap::new();
    for (row, lhs, _) in table.iter_pair(0, 1) {
        let mut post = |key: &str, pos: usize| {
            map.entry(key.to_string()).or_default().push((row, pos));
        };
        match mode {
            ExtractionMode::Tokens => for_each_token(lhs, &mut post),
            ExtractionMode::NGrams(n) => for_each_ngram(lhs, n, &mut post),
            ExtractionMode::Prefixes(max) => for_each_prefix(lhs, max, &mut post),
        }
    }
    map
}

fn distinct_rows(postings: &[(RowId, usize)]) -> usize {
    let mut rows: Vec<RowId> = postings.iter().map(|&(row, _)| row).collect();
    rows.dedup();
    rows.len()
}

proptest! {
    /// The list holds exactly the brute-force keys, each with the same
    /// postings, and ranks the frequent ones by support (distinct rows),
    /// then key.
    #[test]
    fn inverted_list_equals_a_brute_force_map(table in any_table(), mode in any_mode()) {
        let expected = brute_force(&table, mode);
        let inv = InvertedIndex::build(&table, 0, 1, mode);
        prop_assert_eq!(inv.key_count(), expected.len());
        for (key, postings) in &expected {
            let got: Vec<(RowId, usize)> =
                inv.postings(key).iter().map(|p| (p.row, p.lhs_pos)).collect();
            prop_assert_eq!(&got, postings, "key {:?}", key);
        }
        for absent in ["", "zz", "é😀é😀é😀é😀"] {
            if !expected.contains_key(absent) {
                prop_assert!(inv.postings(absent).is_empty(), "key {:?}", absent);
            }
        }
        for min_support in 0..4 {
            let mut ranked: Vec<(&str, usize)> = expected
                .iter()
                .map(|(key, postings)| (key.as_str(), distinct_rows(postings)))
                .filter(|&(_, support)| support >= min_support)
                .collect();
            ranked.sort_by(|(ka, sa), (kb, sb)| sb.cmp(sa).then_with(|| ka.cmp(kb)));
            prop_assert_eq!(inv.frequent_keys(min_support), ranked);
        }
    }
}

#[test]
fn building_interns_no_key() {
    // Two cells share the 3-grams "ꙮq7" and "ꙮq8", which no cell is.
    let schema = Schema::new(["code", "label"]).unwrap();
    let table = Table::from_str_rows(schema, [["ꙮq7ꙮq8", "x"], ["ꙮq7ꙮq8", "y"]]).unwrap();
    let inv = InvertedIndex::build(&table, 0, 1, ExtractionMode::NGrams(3));
    assert_eq!(inv.postings("ꙮq7").len(), 2);
    assert_eq!(inv.postings("ꙮq8").len(), 2);
    assert!(ValuePool::lookup("ꙮq7ꙮq8").is_some());
    assert_eq!(ValuePool::lookup("ꙮq7"), None);
    assert_eq!(ValuePool::lookup("ꙮq8"), None);
}
