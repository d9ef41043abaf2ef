//! The data profiler (Figure 3 of the paper, and line 1 of the discovery
//! algorithm).
//!
//! Profiling serves two purposes in ANMAT:
//!
//! 1. **Candidate pruning** — `CandidateDependencies(T)` drops columns for
//!    which PFDs cannot be found; the paper's example is "we drop all
//!    columns with pure numerical values" (a measurement column has no
//!    determining sub-pattern). We additionally skip columns that are
//!    entirely null or have as many distinct values as rows on *both*
//!    sides of a candidate (no dependency can have support).
//! 2. **The profiling view** — Figure 3 lists, per column, the pattern
//!    signatures present in the data with their frequencies. That view is
//!    [`PatternHistogram`], computed at every [`PatternLevel`].

use crate::pool::ValueId;
use crate::table::Table;
use anmat_pattern::{signature, Pattern, PatternLevel};
use fxhash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// Coarse type inferred for a column from its non-null cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InferredType {
    /// Every value parses as an integer.
    Integer,
    /// Every value parses as a float (and at least one is not an integer).
    Float,
    /// Every value is `true`/`false`/`yes`/`no` (case-insensitive).
    Boolean,
    /// Anything else.
    Text,
    /// No non-null values to infer from.
    Unknown,
}

impl InferredType {
    /// Is the column purely numerical (dropped by candidate pruning)?
    #[must_use]
    pub fn is_numeric(&self) -> bool {
        matches!(self, InferredType::Integer | InferredType::Float)
    }
}

/// A `signature → frequency` histogram at one generalization level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternHistogram {
    /// The level the signatures were computed at.
    pub level: PatternLevel,
    /// `(pattern, number of non-null cells with that signature)`,
    /// descending by frequency then by pattern text for determinism.
    pub entries: Vec<(Pattern, usize)>,
}

impl PatternHistogram {
    /// The most frequent signature, if any.
    #[must_use]
    pub fn dominant(&self) -> Option<&Pattern> {
        self.entries.first().map(|(p, _)| p)
    }

    /// Fraction of profiled cells covered by the most frequent signature.
    #[must_use]
    pub fn dominant_ratio(&self) -> f64 {
        let total: usize = self.entries.iter().map(|(_, c)| c).sum();
        if total == 0 {
            return 0.0;
        }
        self.entries
            .first()
            .map_or(0.0, |(_, c)| *c as f64 / total as f64)
    }
}

/// Statistics and pattern histograms for one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnProfile {
    /// Column name.
    pub name: String,
    /// Total rows (including nulls).
    pub row_count: usize,
    /// Number of null cells.
    pub null_count: usize,
    /// Number of distinct non-null values.
    pub distinct_count: usize,
    /// Inferred coarse type.
    pub dtype: InferredType,
    /// Minimum character length over non-null values.
    pub min_len: usize,
    /// Maximum character length over non-null values.
    pub max_len: usize,
    /// Average character length over non-null values.
    pub avg_len: f64,
    /// Pattern histograms at class-exact and class-unbounded levels.
    pub histograms: Vec<PatternHistogram>,
    /// Up to `SAMPLE_LIMIT` distinct example values.
    pub samples: Vec<String>,
}

/// How many distinct example values a profile retains.
const SAMPLE_LIMIT: usize = 8;

impl ColumnProfile {
    /// Fraction of non-null values that are distinct (1.0 = key-like).
    #[must_use]
    pub fn distinct_ratio(&self) -> f64 {
        let non_null = self.row_count - self.null_count;
        if non_null == 0 {
            return 0.0;
        }
        self.distinct_count as f64 / non_null as f64
    }

    /// Is this column a viable LHS participant in a PFD?
    ///
    /// Implements the paper's pruning ("we drop all columns with pure
    /// numerical values") with one refinement the paper's own Table 3
    /// requires: *code-like* numeric columns — fixed character width, like
    /// 5-digit zips or 10-digit phones — are kept, because their digits
    /// carry positional structure (`900xx` → Los Angeles). Only
    /// variable-width numerics (measures, counts, amounts) are dropped.
    #[must_use]
    pub fn is_candidate(&self) -> bool {
        if self.dtype == InferredType::Unknown {
            return false;
        }
        if self.row_count - self.null_count == 0 {
            return false;
        }
        if self.dtype.is_numeric() {
            // Fixed-width numerics are codes, not measures.
            return self.min_len == self.max_len && self.min_len >= 2;
        }
        true
    }

    /// Is this column usable as the RHS of a PFD (any typed content)?
    #[must_use]
    pub fn is_rhs_candidate(&self) -> bool {
        self.dtype != InferredType::Unknown
    }

    /// The histogram at a given level, if computed.
    #[must_use]
    pub fn histogram(&self, level: PatternLevel) -> Option<&PatternHistogram> {
        self.histograms.iter().find(|h| h.level == level)
    }

    /// Heuristic: does the column hold single-token values (codes/ids)?
    ///
    /// The paper switches from `Tokenize` to `NGrams` for such columns.
    #[must_use]
    pub fn is_single_token(&self) -> bool {
        self.samples
            .iter()
            .all(|s| !s.trim().contains(char::is_whitespace))
            && !self.samples.is_empty()
    }
}

/// Profiles for all columns of a table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableProfile {
    /// Per-column profiles, in schema order.
    pub columns: Vec<ColumnProfile>,
}

impl TableProfile {
    /// Profile every column of a table.
    #[must_use]
    pub fn profile(table: &Table) -> TableProfile {
        let columns = (0..table.column_count())
            .map(|c| profile_column(table, c))
            .collect();
        TableProfile { columns }
    }

    /// Indices of columns that survive `CandidateDependencies` pruning.
    #[must_use]
    pub fn candidate_columns(&self) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_candidate())
            .map(|(i, _)| i)
            .collect()
    }

    /// All ordered candidate column pairs `(A, B)`, `A ≠ B` — the initial
    /// dependency candidates of the discovery loop. The LHS must survive
    /// [`ColumnProfile::is_candidate`]; the RHS only needs usable content.
    #[must_use]
    pub fn candidate_pairs(&self) -> Vec<(usize, usize)> {
        let lhs = self.candidate_columns();
        let rhs: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_rhs_candidate())
            .map(|(i, _)| i)
            .collect();
        let mut out = Vec::with_capacity(lhs.len() * rhs.len());
        for &a in &lhs {
            for &b in &rhs {
                if a != b {
                    out.push((a, b));
                }
            }
        }
        out
    }
}

fn profile_column(table: &Table, col: usize) -> ColumnProfile {
    let name = table.schema().name(col).to_string();
    // Live rows only: tombstoned slots are not data.
    let row_count = table.live_rows();
    let mut null_count = 0usize;
    let mut distinct: FxHashMap<ValueId, usize> = FxHashMap::default();
    let mut min_len = usize::MAX;
    let mut max_len = 0usize;
    let mut len_sum = 0usize;
    let mut all_int = true;
    let mut all_float = true;
    let mut all_bool = true;
    for (_, v) in table.iter_column(col) {
        let Some(s) = v.as_str() else {
            null_count += 1;
            continue;
        };
        *distinct.entry(v).or_insert(0) += 1;
        let len = s.chars().count();
        min_len = min_len.min(len);
        max_len = max_len.max(len);
        len_sum += len;
        if all_int && s.trim().parse::<i64>().is_err() {
            all_int = false;
        }
        if all_float && s.trim().parse::<f64>().is_err() {
            all_float = false;
        }
        if all_bool
            && !matches!(
                s.trim().to_ascii_lowercase().as_str(),
                "true" | "false" | "yes" | "no"
            )
        {
            all_bool = false;
        }
    }
    let non_null = row_count - null_count;
    let dtype = if non_null == 0 {
        InferredType::Unknown
    } else if all_int {
        InferredType::Integer
    } else if all_float {
        InferredType::Float
    } else if all_bool {
        InferredType::Boolean
    } else {
        InferredType::Text
    };
    if non_null == 0 {
        min_len = 0;
    }

    let histograms = [PatternLevel::ClassExact, PatternLevel::ClassUnbounded]
        .into_iter()
        .map(|level| {
            let mut counts: FxHashMap<Pattern, usize> = FxHashMap::default();
            for (v, n) in &distinct {
                *counts.entry(signature(v.render(), level)).or_insert(0) += n;
            }
            let mut entries: Vec<(Pattern, usize)> = counts.into_iter().collect();
            entries.sort_by_cached_key(|(p, count)| (Reverse(*count), p.to_string()));
            PatternHistogram { level, entries }
        })
        .collect();

    let mut samples: Vec<String> = distinct.keys().map(|v| v.render().to_string()).collect();
    samples.sort_unstable();
    samples.truncate(SAMPLE_LIMIT);

    ColumnProfile {
        name,
        row_count,
        null_count,
        distinct_count: distinct.len(),
        dtype,
        min_len,
        max_len,
        avg_len: if non_null == 0 {
            0.0
        } else {
            len_sum as f64 / non_null as f64
        },
        histograms,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn table(rows: &[[&str; 3]]) -> Table {
        let schema = Schema::new(["zip", "city", "pop"]).unwrap();
        Table::from_str_rows(schema, rows.iter().map(|r| r.iter().copied())).unwrap()
    }

    fn sample_table() -> Table {
        table(&[
            ["90001", "Los Angeles", "3898747"],
            ["90002", "Los Angeles", "3898747"],
            ["90003", "Los Angeles", "3898747"],
            ["60601", "Chicago", "2746388"],
        ])
    }

    #[test]
    fn basic_stats() {
        let p = TableProfile::profile(&sample_table());
        let zip = &p.columns[0];
        assert_eq!(zip.row_count, 4);
        assert_eq!(zip.null_count, 0);
        assert_eq!(zip.distinct_count, 4);
        assert_eq!(zip.min_len, 5);
        assert_eq!(zip.max_len, 5);
        let city = &p.columns[1];
        assert_eq!(city.distinct_count, 2);
        assert!((city.distinct_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn type_inference() {
        let p = TableProfile::profile(&sample_table());
        // zip parses as integer → numeric → pruned (paper's rule).
        assert_eq!(p.columns[0].dtype, InferredType::Integer);
        assert_eq!(p.columns[1].dtype, InferredType::Text);
        assert_eq!(p.columns[2].dtype, InferredType::Integer);
    }

    #[test]
    fn float_and_bool_inference() {
        let schema = Schema::new(["f", "b"]).unwrap();
        let t = Table::from_str_rows(schema, [["1.5", "true"], ["2.25", "no"], ["3.0", "Yes"]])
            .unwrap();
        let p = TableProfile::profile(&t);
        assert_eq!(p.columns[0].dtype, InferredType::Float);
        assert_eq!(p.columns[1].dtype, InferredType::Boolean);
    }

    #[test]
    fn null_column_unknown() {
        let schema = Schema::new(["x"]).unwrap();
        let t = Table::from_str_rows(schema, [[""], [""]]).unwrap();
        let p = TableProfile::profile(&t);
        assert_eq!(p.columns[0].dtype, InferredType::Unknown);
        assert!(!p.columns[0].is_candidate());
    }

    #[test]
    fn candidate_pruning_drops_variable_width_numeric() {
        let p = TableProfile::profile(&sample_table());
        // Fixed-width numeric zips are code-like → kept.
        assert!(p.columns[0].is_candidate());
        assert!(p.columns[1].is_candidate()); // city text
                                              // Populations are all 7 digits in the fixture; use a clearly
                                              // variable-width numeric column instead.
        let schema = Schema::new(["amount"]).unwrap();
        let t = Table::from_str_rows(schema, [["5"], ["1200"], ["37"]]).unwrap();
        let p2 = TableProfile::profile(&t);
        assert!(!p2.columns[0].is_candidate());
        assert!(p2.columns[0].is_rhs_candidate());
    }

    #[test]
    fn candidate_pairs_are_ordered_distinct() {
        let schema = Schema::new(["a", "b"]).unwrap();
        let t = Table::from_str_rows(schema, [["x1", "u2"], ["y1", "v2"]]).unwrap();
        let p = TableProfile::profile(&t);
        assert_eq!(p.candidate_pairs(), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn histograms_group_by_signature() {
        let schema = Schema::new(["phone"]).unwrap();
        let t = Table::from_str_rows(schema, [["8505467600x"], ["6073771300x"], ["404-848-1918"]])
            .unwrap();
        let p = TableProfile::profile(&t);
        let h = p.columns[0].histogram(PatternLevel::ClassExact).unwrap();
        // Two signatures: \D{10}x (twice) and \D{3}-\D{3}-\D{4} (once).
        assert_eq!(h.entries.len(), 2);
        assert_eq!(h.entries[0].1, 2);
        assert!(h.dominant_ratio() > 0.6);
    }

    #[test]
    fn single_token_heuristic() {
        let schema = Schema::new(["id", "name"]).unwrap();
        let t = Table::from_str_rows(
            schema,
            [["F-9-107", "John Charles"], ["E-3-201", "Susan Boyle"]],
        )
        .unwrap();
        let p = TableProfile::profile(&t);
        assert!(p.columns[0].is_single_token());
        assert!(!p.columns[1].is_single_token());
    }

    #[test]
    fn histogram_counts_weight_by_frequency() {
        let schema = Schema::new(["s"]).unwrap();
        let t = Table::from_str_rows(schema, [["ab"], ["ab"], ["cd"], ["XY"]]).unwrap();
        let p = TableProfile::profile(&t);
        let h = p.columns[0].histogram(PatternLevel::ClassExact).unwrap();
        // \LL{2} occurs 3 times (ab×2, cd×1), \LU{2} once.
        assert_eq!(h.entries[0].1, 3);
        assert_eq!(h.entries[1].1, 1);
    }
}
