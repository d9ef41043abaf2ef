//! Error detection with PFDs (§3 of the paper).
//!
//! * **Constant PFDs** — scan the tuples matching `tp[A]` and flag those
//!   with `t[B] ≠ tp[B]`; the suggested repair, "if we assume that the
//!   LHS value is correct", is `tp[B]`. A rule's constant tuples share one
//!   [`TableauMemo`](anmat_index::TableauMemo), the stream engine's
//!   dispatch: each distinct LHS value is classified once, against only
//!   the tuples whose literal prefix it starts with, and a row is checked
//!   against the tuples its value matched. Discovery's candidate
//!   validation, `Pfd::coverage` and the tableau report ask their own
//!   lists of patterns through `TableauMemo` too.
//! * **Variable PFDs** — block rows by the constrained-capture key
//!   (lossless for `≡_Q`), then within each block flag the rows whose RHS
//!   disagrees with the block majority; the violation records the
//!   witnessing cells, four per conflicting pair in the paper's
//!   formulation. A brute-force pair enumeration
//!   ([`detect_variable_bruteforce`]) is kept for the blocking-vs-quadratic
//!   ablation.

pub mod constant;
pub mod repair_apply;
pub mod variable;

pub use repair_apply::{apply_repairs, repair_to_fixpoint, RepairReport};

use crate::pfd::{Pfd, PfdKind};
use anmat_table::{RowId, Table};
use serde::{Deserialize, Serialize};

/// A suggested cell repair.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Repair {
    /// The row to change.
    pub row: RowId,
    /// The attribute (RHS of the PFD).
    pub attr: String,
    /// Current (suspected-wrong) value.
    pub from: Option<String>,
    /// Proposed value.
    pub to: String,
}

/// What kind of evidence produced a violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ViolationKind {
    /// A tuple matched a constant tableau pattern but disagreed with its
    /// constant RHS.
    Constant {
        /// The tableau pattern (display form) that matched.
        pattern: String,
        /// The expected RHS constant.
        expected: String,
        /// The RHS value found.
        found: Option<String>,
    },
    /// Rows equivalent under a variable tableau pattern disagreed on the
    /// RHS; the flagged row is in the minority.
    Variable {
        /// The tableau pattern (display form).
        pattern: String,
        /// The blocking key the rows agreed on.
        key: String,
        /// The block-majority RHS value the row disagreed with.
        majority: String,
        /// The RHS value found.
        found: Option<String>,
        /// Representative co-blocked rows holding the majority value
        /// (witnesses; capped).
        witnesses: Vec<RowId>,
    },
}

/// One detected violation: a suspected erroneous cell plus evidence.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Violation {
    /// The embedded FD, e.g. `zip → city`.
    pub dependency: String,
    /// LHS attribute name.
    pub lhs_attr: String,
    /// RHS attribute name.
    pub rhs_attr: String,
    /// The flagged row.
    pub row: RowId,
    /// The LHS value of the flagged row.
    pub lhs_value: String,
    /// Evidence.
    pub kind: ViolationKind,
    /// Suggested repair, when the evidence implies one.
    pub repair: Option<Repair>,
}

impl Violation {
    /// All rows involved: the flagged row plus any witnesses.
    #[must_use]
    pub fn rows(&self) -> Vec<RowId> {
        let mut out = vec![self.row];
        if let ViolationKind::Variable { witnesses, .. } = &self.kind {
            out.extend_from_slice(witnesses);
        }
        out
    }

    /// The cells of the violation as `(row, attr)` pairs — four cells for
    /// a minimal variable-PFD violation, as in the paper's
    /// `(r3[name], r3[gender], r4[name], r4[gender])` example.
    #[must_use]
    pub fn cells(&self) -> Vec<(RowId, String)> {
        let mut out = vec![
            (self.row, self.lhs_attr.clone()),
            (self.row, self.rhs_attr.clone()),
        ];
        if let ViolationKind::Variable { witnesses, .. } = &self.kind {
            for &w in witnesses {
                out.push((w, self.lhs_attr.clone()));
                out.push((w, self.rhs_attr.clone()));
            }
        }
        out
    }
}

/// Run one PFD over a table, dispatching on tableau-tuple kind.
///
/// Sorted stably by row: within a row, constant tuples come first in
/// tableau order, then variable tuples.
#[must_use]
pub fn detect_pfd(table: &Table, pfd: &Pfd) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some(lhs) = table.schema().index_of(&pfd.lhs_attr) else {
        return out;
    };
    let Some(rhs) = table.schema().index_of(&pfd.rhs_attr) else {
        return out;
    };
    match pfd.kind() {
        PfdKind::Constant => {
            out.extend(constant::detect(table, pfd, lhs, rhs));
        }
        PfdKind::Variable => {
            out.extend(variable::detect(table, pfd, lhs, rhs));
        }
        PfdKind::Mixed => {
            out.extend(constant::detect(table, pfd, lhs, rhs));
            out.extend(variable::detect(table, pfd, lhs, rhs));
        }
    }
    out.sort_by(|a, b| {
        a.row
            .cmp(&b.row)
            .then_with(|| a.dependency.cmp(&b.dependency))
    });
    out
}

/// Variable detection via explicit pair enumeration (quadratic) — kept
/// for the blocking ablation (E13). Produces the same flagged rows as the
/// blocking path.
#[must_use]
pub fn detect_variable_bruteforce(table: &Table, pfd: &Pfd) -> Vec<Violation> {
    let Some(lhs) = table.schema().index_of(&pfd.lhs_attr) else {
        return Vec::new();
    };
    let Some(rhs) = table.schema().index_of(&pfd.rhs_attr) else {
        return Vec::new();
    };
    variable::detect_bruteforce(table, pfd, lhs, rhs)
}

/// Run a set of PFDs over a table.
///
/// The result is a set: two rules (or two tuples) that imply the same
/// violation report it once, as the stream engine's ledger holds it once.
/// It is sorted stably by `(row, dependency)`, and within each such run
/// the first occurrence of every distinct violation is kept.
#[must_use]
pub fn detect_all(table: &Table, pfds: &[Pfd]) -> Vec<Violation> {
    let mut found: Vec<Violation> = pfds.iter().flat_map(|p| detect_pfd(table, p)).collect();
    found.sort_by(|a, b| {
        a.row
            .cmp(&b.row)
            .then_with(|| a.dependency.cmp(&b.dependency))
    });
    // Equal violations share `(row, dependency)`, so duplicates can only
    // sit in one run, though not always next to each other.
    let mut out: Vec<Violation> = Vec::with_capacity(found.len());
    let mut run = 0;
    for v in found {
        if out
            .last()
            .is_some_and(|last| (last.row, &last.dependency) != (v.row, &v.dependency))
        {
            run = out.len();
        }
        if !out[run..].contains(&v) {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pfd::PatternTuple;
    use anmat_pattern::ConstrainedPattern;
    use anmat_table::Schema;

    #[test]
    fn overlapping_rules_report_each_violation_once() {
        // The repeated constant rule implies the same violation as the
        // first, and the variable rule's violation of the same row sits
        // between the two in the `(row, dependency)` run.
        let constant = Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::constant(
                ConstrainedPattern::unconstrained("900\\D{2}".parse().unwrap()),
                "Los Angeles",
            )],
        );
        let variable = Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::variable("[\\D{3}]\\D{2}".parse().unwrap())],
        );
        let table = Table::from_str_rows(
            Schema::new(["zip", "city"]).unwrap(),
            [
                ["90001", "Los Angeles"],
                ["90002", "Los Angeles"],
                ["90003", "New York"],
            ],
        )
        .unwrap();
        let rules = [constant.clone(), variable.clone(), constant.clone()];
        let violations = detect_all(&table, &rules);
        assert_eq!(violations.len(), 2, "{violations:#?}");
        // Today's order: each distinct violation at its first occurrence.
        let once = detect_all(&table, &[constant, variable]);
        assert_eq!(violations, once);
        assert!(matches!(violations[0].kind, ViolationKind::Constant { .. }));
        assert!(matches!(violations[1].kind, ViolationKind::Variable { .. }));
    }
}
