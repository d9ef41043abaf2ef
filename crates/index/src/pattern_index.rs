//! The per-column pattern index of §3.
//!
//! For constant-PFD detection the paper "create\[s\] an index supporting
//! regular expressions for each column present on the LHS of the PFDs", so
//! that the violation scan only touches tuples matching `tp[A]`. This
//! implementation:
//!
//! * deduplicates the column into distinct values with row postings
//!   (low-cardinality columns collapse dramatically);
//! * sorts the distinct values once by string;
//! * answers a pattern lookup by compiling the pattern once, narrowing the
//!   sorted values to the range that starts with the pattern's literal
//!   prefix (`900` for `900\D{2}`; the whole array when there is none)
//!   with two binary searches, and running the compiled matcher on each
//!   value in that range.
//!
//! The range is the only pruning. A compiled match costs tens of
//! nanoseconds per distinct value, while an exact language test that
//! could accept or reject a group of values at once (an NFA product)
//! costs microseconds, more than matching the values it would decide at
//! the table sizes batch detection sees.

use anmat_pattern::{match_pattern, CompiledPattern, Pattern, SymbolClass};
use anmat_table::{RowId, Table, ValueId, ValuePool};
use fxhash::FxHashMap;

/// An index over one column supporting pattern lookups.
///
/// The column is deduplicated into interned distinct values
/// ([`ValueId`]-keyed postings), so a pattern is ever matched against at
/// most `distinct(column)` strings, and row-posting probes hash a 4-byte
/// id. The index stores ids, not strings: an id that outlives its string
/// fails loudly when resolved rather than dangling.
#[derive(Debug)]
pub struct PatternIndex {
    /// Distinct value → rows holding it.
    values: FxHashMap<ValueId, Vec<RowId>>,
    /// Distinct values in ascending string order.
    sorted: Vec<ValueId>,
    /// Rows with a non-null value.
    pub indexed_rows: usize,
}

impl PatternIndex {
    /// Build the index over column `col` of `table`.
    #[must_use]
    pub fn build(table: &Table, col: usize) -> PatternIndex {
        let mut values: FxHashMap<ValueId, Vec<RowId>> = FxHashMap::default();
        let mut indexed_rows = 0usize;
        for (row, v) in table.iter_column(col) {
            if v.is_null() {
                continue;
            }
            indexed_rows += 1;
            values.entry(v).or_default().push(row);
        }
        let mut sorted: Vec<ValueId> = values.keys().copied().collect();
        sorted.sort_by_cached_key(|v| v.render());
        PatternIndex {
            values,
            sorted,
            indexed_rows,
        }
    }

    /// Number of distinct values.
    #[must_use]
    pub fn distinct_count(&self) -> usize {
        self.values.len()
    }

    /// Rows whose value matches `pattern`, sorted ascending.
    #[must_use]
    pub fn lookup(&self, pattern: &Pattern) -> Vec<RowId> {
        let mut rows: Vec<RowId> = Vec::new();
        for v in self.matching_ids(pattern) {
            rows.extend_from_slice(&self.values[&v]);
        }
        rows.sort_unstable();
        rows
    }

    /// Distinct values matching `pattern`.
    #[must_use]
    pub fn matching_values(&self, pattern: &Pattern) -> Vec<&'static str> {
        self.matching_ids(pattern)
            .into_iter()
            .map(ValueId::render)
            .collect()
    }

    /// Interned distinct values matching `pattern`, in ascending string
    /// order.
    #[must_use]
    pub fn matching_ids(&self, pattern: &Pattern) -> Vec<ValueId> {
        let compiled = CompiledPattern::compile(pattern);
        let prefix = literal_prefix(pattern);
        // Every match starts with `prefix`, and the values that do form
        // one contiguous run of the sorted array.
        let start = self
            .sorted
            .partition_point(|v| v.render() < prefix.as_str());
        let run = &self.sorted[start..];
        let len = run.partition_point(|v| v.render().starts_with(prefix.as_str()));
        run[..len]
            .iter()
            .copied()
            .filter(|v| compiled.matches(v.render()))
            .collect()
    }

    /// Rows holding exactly `value`.
    #[must_use]
    pub fn rows_for_value(&self, value: &str) -> &[RowId] {
        ValuePool::lookup(value).map_or(&[], |id| self.rows_for_id(id))
    }

    /// Rows holding exactly the interned value.
    #[must_use]
    pub fn rows_for_id(&self, value: ValueId) -> &[RowId] {
        self.values.get(&value).map_or(&[], Vec::as_slice)
    }

    /// Full scan fallback (the ablation benchmark's baseline and the
    /// tests' oracle): match every distinct value with the AST
    /// interpreter, with no prefix range and no compiled code.
    #[must_use]
    pub fn lookup_scan(&self, pattern: &Pattern) -> Vec<RowId> {
        let mut rows: Vec<RowId> = Vec::new();
        for (v, ids) in &self.values {
            if match_pattern(pattern, v.render()) {
                rows.extend_from_slice(ids);
            }
        }
        rows.sort_unstable();
        rows
    }
}

/// The longest literal prefix of a pattern (maximal run of exactly-once
/// literal elements at the start).
fn literal_prefix(p: &Pattern) -> String {
    let mut out = String::new();
    for e in p.elements() {
        match (e.class, e.quant.interval()) {
            (SymbolClass::Literal(c), (1, Some(1))) => out.push(c),
            (SymbolClass::Literal(c), (min, _)) if min >= 1 => {
                out.push(c);
                break; // repetition: only the first copy is certain
            }
            _ => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use anmat_table::Schema;

    fn zip_table() -> Table {
        let schema = Schema::new(["zip"]).unwrap();
        Table::from_str_rows(
            schema,
            [
                ["90001"],
                ["90002"],
                ["90003"],
                ["60601"],
                ["60601"],
                ["606-01"],
                ["abcde"],
                [""],
            ],
        )
        .unwrap()
    }

    fn pat(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    #[test]
    fn build_stats() {
        let t = zip_table();
        let idx = PatternIndex::build(&t, 0);
        assert_eq!(idx.indexed_rows, 7);
        assert_eq!(idx.distinct_count(), 6);
    }

    #[test]
    fn lookup_with_literal_prefix() {
        let t = zip_table();
        let idx = PatternIndex::build(&t, 0);
        assert_eq!(idx.lookup(&pat("900\\D{2}")), vec![0, 1, 2]);
        assert_eq!(idx.lookup(&pat("606\\D{2}")), vec![3, 4]);
    }

    #[test]
    fn lookup_class_pattern() {
        let t = zip_table();
        let idx = PatternIndex::build(&t, 0);
        assert_eq!(idx.lookup(&pat("\\D{5}")), vec![0, 1, 2, 3, 4]);
        assert_eq!(idx.lookup(&pat("\\LL{5}")), vec![6]);
        assert_eq!(idx.lookup(&pat("\\D{3}-\\D{2}")), vec![5]);
    }

    #[test]
    fn lookup_agrees_with_scan() {
        let t = zip_table();
        let idx = PatternIndex::build(&t, 0);
        for p in ["900\\D{2}", "\\D{5}", "\\A*", "\\D+", "x\\D*"] {
            let p = pat(p);
            assert_eq!(idx.lookup(&p), idx.lookup_scan(&p), "pattern {p}");
        }
    }

    #[test]
    fn rows_for_value_duplicates() {
        let t = zip_table();
        let idx = PatternIndex::build(&t, 0);
        assert_eq!(idx.rows_for_value("60601"), &[3, 4]);
        assert!(idx.rows_for_value("nope").is_empty());
    }

    #[test]
    fn literal_prefix_extraction() {
        assert_eq!(literal_prefix(&pat("900\\D{2}")), "900");
        assert_eq!(literal_prefix(&pat("\\D{5}")), "");
        assert_eq!(literal_prefix(&pat("ab+c")), "ab");
        assert_eq!(literal_prefix(&pat("a{0,1}bc")), "");
    }

    #[test]
    fn empty_pattern_lookup() {
        let schema = Schema::new(["x"]).unwrap();
        let t = Table::from_str_rows(schema, [["a"], [""]]).unwrap();
        let idx = PatternIndex::build(&t, 0);
        assert!(idx.lookup(&Pattern::empty()).is_empty());
    }
}
