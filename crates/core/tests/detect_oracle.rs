//! An independent oracle for batch constant detection, coverage and the
//! tableau report.
//!
//! Batch detection and the stream engine both reach a rule's constant
//! tuples through one `TableauMemo` (a value is evaluated only against the
//! tuples whose literal prefix it starts with), so the stream harness's
//! stream ≡ `detect_all` check no longer compares two dispatch routes.
//! This test does: it asks the AST interpreter (`match_pattern`) about
//! every live row and every tableau tuple, with no prefix, memo or
//! compiled code, and holds `detect_pfd` and `detect_all` to that scan,
//! order included. `Pfd::coverage` and `report::tableau_view` count
//! through a memo over every tuple's LHS cell; they are held to the same
//! interpreter: the share of non-null live LHS values some tuple admits,
//! and each tuple's count of the values it admits.
//!
//! Tableaux draw their LHS patterns from literal prefixes that are equal,
//! nested, absent or multibyte, plus wildcards and duplicated tuples;
//! tables hold nulls, empty strings, multibyte values and deleted rows.

use anmat_core::detect::{Repair, Violation, ViolationKind};
use anmat_core::{detect_all, detect_pfd, report, LhsCell, PatternTuple, Pfd, RhsCell};
use anmat_pattern::{match_pattern, ConstrainedPattern, Pattern};
use anmat_table::{Schema, Table, Value};
use proptest::prelude::*;

/// Literal prefixes: equal (`ab` twice over the tail choices), nested
/// (`a` ⊂ `ab` ⊂ `abc`, `é` ⊂ `éa`), multibyte, and none.
const PREFIXES: [&str; 6] = ["", "a", "ab", "abc", "é", "éa"];
/// What follows the prefix: fixed, variable and empty tails.
const TAILS: [&str; 6] = ["", "\\A*", "\\LL+", "\\D{1,2}", "\\S\\A*", "\\LL*\\D*"];
/// Expected RHS constants.
const EXPECTED: [&str; 3] = ["x", "y", "zé"];

/// Strategy: one constant tuple's LHS, a pattern or (index 0) a wildcard.
fn any_lhs() -> impl Strategy<Value = Option<Pattern>> {
    (0usize..PREFIXES.len() + 1, 0usize..TAILS.len()).prop_map(|(prefix, tail)| {
        (prefix > 0).then(|| {
            format!("{}{}", PREFIXES[prefix - 1], TAILS[tail])
                .parse()
                .expect("fixture pattern parses")
        })
    })
}

/// Strategy: a constant tableau of 1..6 tuples. A drawn tuple is repeated
/// once in a while, so duplicate tuples occur.
fn any_tableau() -> impl Strategy<Value = Vec<PatternTuple>> {
    (
        prop::collection::vec((any_lhs(), 0usize..EXPECTED.len()), 1..6),
        any::<bool>(),
    )
        .prop_map(|(tuples, duplicate)| {
            let mut tableau: Vec<PatternTuple> = tuples
                .into_iter()
                .map(|(lhs, expected)| PatternTuple {
                    lhs: match lhs {
                        Some(p) => LhsCell::Pattern(ConstrainedPattern::unconstrained(p)),
                        None => LhsCell::Wildcard,
                    },
                    rhs: RhsCell::Constant(EXPECTED[expected].to_string()),
                })
                .collect();
            if duplicate {
                tableau.push(tableau[0].clone());
            }
            tableau
        })
}

/// Strategy: one cell — null, the empty (non-null) string, or a short
/// value over an alphabet that meets the prefixes, with multibyte
/// scalars.
fn any_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::text("")),
        "[abcé1 -]{1,5}".prop_map(Value::text),
        (0usize..EXPECTED.len()).prop_map(|i| Value::text(EXPECTED[i])),
    ]
}

/// Strategy: rows of `(lhs, rhs)` cells, and the rows to delete.
fn any_table() -> impl Strategy<Value = Table> {
    (
        prop::collection::vec((any_cell(), any_cell()), 0..24),
        prop::collection::vec(0usize..24, 0..6),
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

/// Does the interpreter say `lhs` admits `value`?
fn admits(lhs: &LhsCell, value: &str) -> bool {
    match lhs {
        LhsCell::Pattern(q) => match_pattern(q.embedded(), value),
        LhsCell::Wildcard => true,
    }
}

/// The non-null LHS values of the live rows.
fn live_values(table: &Table) -> Vec<&str> {
    table
        .iter_live()
        .filter_map(|row| table.cell_str(row, 0))
        .collect()
}

/// The share of `values` that some tuple of `pfd` admits, 0 for none.
fn oracle_coverage(pfd: &Pfd, values: &[&str]) -> f64 {
    let covered = values
        .iter()
        .filter(|v| pfd.tableau.iter().any(|t| admits(&t.lhs, v)))
        .count();
    if values.is_empty() {
        0.0
    } else {
        covered as f64 / values.len() as f64
    }
}

/// The interpreter's violation of `tuple` at `row`, if any.
fn oracle_violation(
    table: &Table,
    pfd: &Pfd,
    tuple: &PatternTuple,
    row: usize,
) -> Option<Violation> {
    let RhsCell::Constant(expected) = &tuple.rhs else {
        return None;
    };
    let value = table.cell_str(row, 0)?;
    let matched = admits(&tuple.lhs, value);
    let found = table.cell_str(row, 1);
    if !matched || found == Some(expected.as_str()) {
        return None;
    }
    let found = found.map(str::to_string);
    Some(Violation {
        dependency: format!("{} → {}", pfd.lhs_attr, pfd.rhs_attr),
        lhs_attr: pfd.lhs_attr.clone(),
        rhs_attr: pfd.rhs_attr.clone(),
        row,
        lhs_value: value.to_string(),
        kind: ViolationKind::Constant {
            pattern: tuple.lhs.to_string(),
            expected: expected.clone(),
            found: found.clone(),
        },
        repair: Some(Repair {
            row,
            attr: pfd.rhs_attr.clone(),
            from: found,
            to: expected.clone(),
        }),
    })
}

/// Every live row in ascending order, every rule in order, every tuple
/// in tableau order; a violation another rule already reported for the
/// row is reported once (the rules share one dependency).
fn oracle(table: &Table, rules: &[Pfd]) -> Vec<Violation> {
    let mut out = Vec::new();
    for row in table.iter_live() {
        let first = out.len();
        for pfd in rules {
            for tuple in &pfd.tableau {
                if let Some(v) = oracle_violation(table, pfd, tuple, row) {
                    if !out[first..].contains(&v) {
                        out.push(v);
                    }
                }
            }
        }
    }
    out
}

fn rule(tableau: Vec<PatternTuple>) -> Pfd {
    Pfd::new("R", "code", "label", tableau)
}

proptest! {
    /// One rule: `detect_pfd` equals the interpreter's scan, in order. A
    /// repeated tuple reports its violations once per copy on both sides
    /// (only `detect_all` deduplicates).
    #[test]
    fn detect_pfd_equals_the_interpreter_scan(tableau in any_tableau(), table in any_table()) {
        let pfd = rule(tableau);
        let mut expected = Vec::new();
        for row in table.iter_live() {
            for tuple in &pfd.tableau {
                expected.extend(oracle_violation(&table, &pfd, tuple, row));
            }
        }
        prop_assert_eq!(detect_pfd(&table, &pfd), expected);
    }

    /// Two rules on one dependency: `detect_all` equals the scan over
    /// both, each distinct violation at its first occurrence.
    #[test]
    fn detect_all_equals_the_interpreter_scan(
        first in any_tableau(),
        second in any_tableau(),
        table in any_table(),
    ) {
        let rules = [rule(first), rule(second)];
        prop_assert_eq!(detect_all(&table, &rules), oracle(&table, &rules));
    }

    /// `Pfd::coverage` is the share of non-null live LHS values that some
    /// tuple admits, and 0 when there are none.
    #[test]
    fn coverage_equals_the_interpreter_share(tableau in any_tableau(), table in any_table()) {
        let pfd = rule(tableau);
        prop_assert_eq!(pfd.coverage(&table), oracle_coverage(&pfd, &live_values(&table)));
    }

    /// `report::tableau_view` prints, for each tuple in order, how many
    /// non-null live LHS values it admits: a value counts once for every
    /// tuple that admits it. Its header prints the coverage.
    #[test]
    fn tableau_view_frequencies_equal_the_interpreter_counts(
        tableau in any_tableau(),
        table in any_table(),
    ) {
        let pfd = rule(tableau);
        let values = live_values(&table);
        let expected: Vec<usize> = pfd
            .tableau
            .iter()
            .map(|t| values.iter().filter(|v| admits(&t.lhs, v)).count())
            .collect();
        let view = report::tableau_view(&table, &pfd);
        let header = format!("coverage {:.2} ===", oracle_coverage(&pfd, &values));
        prop_assert!(view.lines().next().is_some_and(|line| line.ends_with(&header)), "{}", view);
        let printed: Vec<usize> = view
            .lines()
            .filter(|line| line.starts_with("  tp"))
            .map(|line| {
                let (_, frequency) = line.rsplit_once("(frequency ").expect("a frequency");
                frequency.trim_end_matches(')').parse().expect("a count")
            })
            .collect();
        prop_assert_eq!(printed, expected);
    }
}
