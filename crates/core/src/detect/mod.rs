//! Error detection with PFDs (§3 of the paper).
//!
//! * **Constant PFDs** — scan the tuples matching `tp[A]` and flag those
//!   with `t[B] ≠ tp[B]`; the suggested repair, "if we assume that the
//!   LHS value is correct", is `tp[B]`. The per-column [`PatternIndex`]
//!   finds the tuples by running `tp[A]`'s compiled matcher once per
//!   distinct value in the range that starts with its literal prefix.
//! * **Variable PFDs** — block rows by the constrained-capture key
//!   (lossless for `≡_Q`), then within each block flag the rows whose RHS
//!   disagrees with the block majority; the violation records the
//!   witnessing cells, four per conflicting pair in the paper's
//!   formulation. A brute-force pair enumeration
//!   ([`Detector::detect_variable_bruteforce`]) is kept for the
//!   blocking-vs-quadratic ablation.

pub mod constant;
pub mod repair_apply;
pub mod variable;

pub use repair_apply::{apply_repairs, repair_to_fixpoint, RepairReport};

use crate::pfd::{Pfd, PfdKind};
use anmat_index::PatternIndex;
use anmat_table::{RowId, Table};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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

    /// Rewrite every row reference (flagged row, witnesses, repair
    /// target) through a compaction [`RowIdRemap`] — the violation's
    /// side of the remap protocol. All referenced rows are live by
    /// construction (deleting any of them retracts or rewrites the
    /// violation first), so the translation is total; witness lists
    /// stay ascending because the remap is monotone.
    ///
    /// [`RowIdRemap`]: anmat_table::RowIdRemap
    pub fn remap(&mut self, remap: &anmat_table::RowIdRemap) {
        self.row = remap.live_id(self.row);
        if let ViolationKind::Variable { witnesses, .. } = &mut self.kind {
            remap.remap_sorted_in_place(witnesses);
        }
        if let Some(repair) = &mut self.repair {
            repair.row = remap.live_id(repair.row);
        }
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

/// Detection engine with a per-column pattern-index cache, for running
/// many PFDs over one table.
pub struct Detector<'t> {
    table: &'t Table,
    index_cache: HashMap<usize, PatternIndex>,
}

impl<'t> Detector<'t> {
    /// Create a detector for a table.
    #[must_use]
    pub fn new(table: &'t Table) -> Detector<'t> {
        Detector {
            table,
            index_cache: HashMap::new(),
        }
    }

    /// The pattern index for a column, built on first use.
    pub fn index_for(&mut self, col: usize) -> &PatternIndex {
        self.index_cache
            .entry(col)
            .or_insert_with(|| PatternIndex::build(self.table, col))
    }

    /// Run one PFD, dispatching on tableau-tuple kind.
    pub fn detect(&mut self, pfd: &Pfd) -> Vec<Violation> {
        let mut out = Vec::new();
        let Some(lhs) = self.table.schema().index_of(&pfd.lhs_attr) else {
            return out;
        };
        let Some(rhs) = self.table.schema().index_of(&pfd.rhs_attr) else {
            return out;
        };
        match pfd.kind() {
            PfdKind::Constant => {
                out.extend(constant::detect(self, pfd, lhs, rhs));
            }
            PfdKind::Variable => {
                out.extend(variable::detect(self.table, pfd, lhs, rhs));
            }
            PfdKind::Mixed => {
                out.extend(constant::detect(self, pfd, lhs, rhs));
                out.extend(variable::detect(self.table, pfd, lhs, rhs));
            }
        }
        out.sort_by(|a, b| {
            a.row
                .cmp(&b.row)
                .then_with(|| a.dependency.cmp(&b.dependency))
        });
        out
    }

    /// Variable detection via explicit pair enumeration (quadratic) —
    /// kept for the blocking ablation (E13). Produces the same flagged
    /// rows as the blocking path.
    pub fn detect_variable_bruteforce(&mut self, pfd: &Pfd) -> Vec<Violation> {
        let Some(lhs) = self.table.schema().index_of(&pfd.lhs_attr) else {
            return Vec::new();
        };
        let Some(rhs) = self.table.schema().index_of(&pfd.rhs_attr) else {
            return Vec::new();
        };
        variable::detect_bruteforce(self.table, pfd, lhs, rhs)
    }

    /// The underlying table.
    #[must_use]
    pub fn table(&self) -> &'t Table {
        self.table
    }
}

/// Run one PFD over a table (convenience; builds indexes internally).
#[must_use]
pub fn detect_pfd(table: &Table, pfd: &Pfd) -> Vec<Violation> {
    Detector::new(table).detect(pfd)
}

/// Run a set of PFDs over a table, sharing per-column indexes.
#[must_use]
pub fn detect_all(table: &Table, pfds: &[Pfd]) -> Vec<Violation> {
    let mut detector = Detector::new(table);
    let mut out: Vec<Violation> = pfds.iter().flat_map(|p| detector.detect(p)).collect();
    out.sort_by(|a, b| {
        a.row
            .cmp(&b.row)
            .then_with(|| a.dependency.cmp(&b.dependency))
    });
    out.dedup();
    out
}
