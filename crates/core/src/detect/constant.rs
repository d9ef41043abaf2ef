//! Constant-PFD violation detection.
//!
//! Per §3: "for each constant PFD, we simply scan the table and check, for
//! each tuple `t`, if `t[A] ⊨ tp[A]` and `t[B] ≠ tp[B]`, then there is a
//! violation. … For better performance, we create an index supporting
//! regular expressions for each column present on the LHS of the PFDs",
//! limiting the scan to tuples matching `tp[A]`.
//!
//! Here the scan asks the transposed question, as the stream engine does:
//! not "which rows match this tuple" but "which tuples does this row
//! match". A rule's constant tuples form one [`TableauMemo`], which
//! classifies each distinct LHS value once, evaluating only the tuples
//! whose literal prefix the value starts with; the walk over the LHS
//! column then costs a memo probe and an id comparison per matched
//! tuple. Discovery's candidate validation, `Pfd::coverage` and the
//! tableau report ask their own lists of patterns through the same type.

use super::{Repair, Violation, ViolationKind};
use crate::pfd::{LhsCell, Pfd, RhsCell};
use anmat_index::TableauMemo;
use anmat_table::{RowId, Table, ValueId, ValuePool};

/// Detect violations of the constant tuples of `pfd`, in ascending row
/// order and, within a row, in tableau order.
pub(crate) fn detect(table: &Table, pfd: &Pfd, lhs: usize, rhs: usize) -> Vec<Violation> {
    // Member `m` of the memo is `tuples[m]`, expecting `expected[m]`.
    let (tuples, expected): (Vec<&LhsCell>, Vec<ValueId>) = pfd
        .constant_tuples()
        .filter_map(|t| match &t.rhs {
            RhsCell::Constant(c) => Some((&t.lhs, ValuePool::intern(c))),
            RhsCell::Wildcard => None,
        })
        .unzip();
    let mut memo = TableauMemo::new(tuples.iter().map(|lhs| lhs.embedded()));
    // A tuple's display form, rendered at its first violation.
    let mut displays: Vec<Option<String>> = vec![None; tuples.len()];
    let mut out = Vec::new();
    for (row, value) in table.iter_column(lhs) {
        for &m in memo.matches(value) {
            let m = m as usize;
            if table.cell_id(row, rhs) == expected[m] {
                continue;
            }
            let display = displays[m].get_or_insert_with(|| tuples[m].to_string());
            out.extend(violation_at(
                table,
                pfd,
                display,
                expected[m],
                lhs,
                rhs,
                row,
            ));
        }
    }
    out
}

/// Check one row against one constant tableau tuple.
///
/// Batch detection's statement of constant-tuple semantics (the
/// incremental `anmat-stream` engine asserts the same rows, held equal by
/// its harness): a non-null LHS row whose RHS differs from `expected` is a
/// violation; the suggested repair assumes the LHS is correct and sets
/// the RHS to `tp[B]`. The caller guarantees the row's LHS matches the
/// tuple pattern. The agreement check is an interned-id comparison made
/// before any string is resolved, so a row that agrees never touches
/// string bytes.
#[must_use]
pub fn violation_at(
    table: &Table,
    pfd: &Pfd,
    pattern_display: &str,
    expected: ValueId,
    lhs: usize,
    rhs: usize,
    row: RowId,
) -> Option<Violation> {
    let found = table.cell_id(row, rhs);
    if found == expected {
        return None;
    }
    let lhs_value = table.cell_str(row, lhs)?;
    let found = found.as_str();
    Some(Violation {
        dependency: pfd.embedded_fd(),
        lhs_attr: pfd.lhs_attr.clone(),
        rhs_attr: pfd.rhs_attr.clone(),
        row,
        lhs_value: lhs_value.to_string(),
        kind: ViolationKind::Constant {
            pattern: pattern_display.to_string(),
            expected: expected.render().to_string(),
            found: found.map(str::to_string),
        },
        repair: Some(Repair {
            row,
            attr: pfd.rhs_attr.clone(),
            from: found.map(str::to_string),
            to: expected.render().to_string(),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pfd::PatternTuple;
    use anmat_pattern::ConstrainedPattern;
    use anmat_table::{Schema, Table};

    fn zip_pfd() -> Pfd {
        // λ3: 900\D{2} → Los Angeles.
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::constant(
                ConstrainedPattern::unconstrained("900\\D{2}".parse().unwrap()),
                "Los Angeles",
            )],
        )
    }

    fn zip_table() -> Table {
        Table::from_str_rows(
            Schema::new(["zip", "city"]).unwrap(),
            [
                ["90001", "Los Angeles"],
                ["90002", "Los Angeles"],
                ["90003", "Los Angeles"],
                ["90004", "New York"],
                ["10001", "New York"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn lambda3_detects_s4() {
        let t = zip_table();
        let violations = super::super::detect_pfd(&t, &zip_pfd());
        assert_eq!(violations.len(), 1);
        let v = &violations[0];
        assert_eq!(v.row, 3);
        assert_eq!(v.lhs_value, "90004");
        match &v.kind {
            ViolationKind::Constant {
                expected, found, ..
            } => {
                assert_eq!(expected, "Los Angeles");
                assert_eq!(found.as_deref(), Some("New York"));
            }
            other => panic!("expected constant violation, got {other:?}"),
        }
        // Repair: assume LHS correct, set RHS to tp[B].
        let r = v.repair.as_ref().unwrap();
        assert_eq!(r.to, "Los Angeles");
        assert_eq!(r.row, 3);
    }

    #[test]
    fn non_matching_lhs_not_flagged() {
        // 10001 is New York and does not match 900\D{2}: no violation.
        let t = zip_table();
        let violations = super::super::detect_pfd(&t, &zip_pfd());
        assert!(violations.iter().all(|v| v.row != 4));
    }

    #[test]
    fn null_rhs_is_a_violation() {
        let t = Table::from_str_rows(
            Schema::new(["zip", "city"]).unwrap(),
            [["90001", "Los Angeles"], ["90002", ""]],
        )
        .unwrap();
        let violations = super::super::detect_pfd(&t, &zip_pfd());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].row, 1);
        match &violations[0].kind {
            ViolationKind::Constant { found, .. } => assert!(found.is_none()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wildcard_lhs_checks_all_rows() {
        let pfd = Pfd::new(
            "R",
            "zip",
            "city",
            vec![PatternTuple {
                lhs: crate::pfd::LhsCell::Wildcard,
                rhs: crate::pfd::RhsCell::Constant("Los Angeles".into()),
            }],
        );
        let t = zip_table();
        let violations = super::super::detect_pfd(&t, &pfd);
        // Rows 3 and 4 are New York.
        assert_eq!(violations.len(), 2);
    }

    #[test]
    fn multiple_tuples_detect_independently() {
        let pfd = Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![
                PatternTuple::constant(
                    ConstrainedPattern::unconstrained("900\\D{2}".parse().unwrap()),
                    "Los Angeles",
                ),
                PatternTuple::constant(
                    ConstrainedPattern::unconstrained("100\\D{2}".parse().unwrap()),
                    "Boston", // wrong on purpose
                ),
            ],
        );
        let t = zip_table();
        let violations = super::super::detect_pfd(&t, &pfd);
        assert_eq!(violations.len(), 2);
        assert!(violations.iter().any(|v| v.row == 3));
        assert!(violations.iter().any(|v| v.row == 4));
    }
}
