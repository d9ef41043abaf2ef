//! The PFD model (§2 of the paper).
//!
//! A PFD `ψ` over schema `R` is a pair `R(X → Y, Tp)`: an embedded FD plus
//! a pattern tableau whose cells are constrained patterns or the wildcard
//! `⊥`. Discovery works over column pairs, so this implementation models
//! the (single-LHS-attribute, single-RHS-attribute) case the paper's
//! algorithm and all its examples use; the tableau may hold any number of
//! pattern tuples.
//!
//! Two classes drive detection (§3):
//!
//! * **constant PFDs** — every tableau RHS is a constant
//!   (λ1: `[name = John\ \A*] → [gender = M]`);
//! * **variable PFDs** — the RHS is `⊥`
//!   (λ4: `[name = \LU\LL*\ \A*] → [gender]`).
//!
//! A mixed tableau is allowed; [`Pfd::kind`] reports what it holds.

use anmat_index::TableauMemo;
use anmat_pattern::{ConstrainedPattern, Pattern};
use anmat_table::Table;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The LHS cell of a pattern tuple: a constrained pattern or a wildcard.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LhsCell {
    /// A constrained pattern the LHS value must match.
    Pattern(ConstrainedPattern),
    /// The unnamed variable `⊥` (any value).
    Wildcard,
}

impl LhsCell {
    /// The pattern a value must match to be admitted (the constrained
    /// pattern's embedded one), or `None` for the wildcard, which admits
    /// every value: this cell as a [`TableauMemo`] member.
    pub(crate) fn embedded(&self) -> Option<&Pattern> {
        match self {
            LhsCell::Pattern(q) => Some(q.embedded()),
            LhsCell::Wildcard => None,
        }
    }
}

/// The RHS cell of a pattern tuple: a constant or the wildcard `⊥`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RhsCell {
    /// The RHS must equal this constant.
    Constant(String),
    /// `⊥`: RHS values must merely *agree* across `≡_Q`-equivalent rows.
    Wildcard,
}

/// One tuple of the pattern tableau `Tp`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PatternTuple {
    /// The LHS cell.
    pub lhs: LhsCell,
    /// The RHS cell.
    pub rhs: RhsCell,
}

impl PatternTuple {
    /// A constant pattern tuple.
    #[must_use]
    pub fn constant(lhs: ConstrainedPattern, rhs: impl Into<String>) -> PatternTuple {
        PatternTuple {
            lhs: LhsCell::Pattern(lhs),
            rhs: RhsCell::Constant(rhs.into()),
        }
    }

    /// A variable pattern tuple.
    #[must_use]
    pub fn variable(lhs: ConstrainedPattern) -> PatternTuple {
        PatternTuple {
            lhs: LhsCell::Pattern(lhs),
            rhs: RhsCell::Wildcard,
        }
    }

    /// Is the RHS a constant?
    #[must_use]
    pub fn is_constant(&self) -> bool {
        matches!(self.rhs, RhsCell::Constant(_))
    }
}

/// Classification of a PFD's tableau.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PfdKind {
    /// All tableau RHS cells are constants.
    Constant,
    /// All tableau RHS cells are wildcards.
    Variable,
    /// Both kinds present.
    Mixed,
}

/// A pattern functional dependency `R(A → B, Tp)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pfd {
    /// Relation (table) name, for display.
    pub relation: String,
    /// LHS attribute name.
    pub lhs_attr: String,
    /// RHS attribute name.
    pub rhs_attr: String,
    /// The pattern tableau.
    pub tableau: Vec<PatternTuple>,
}

impl Pfd {
    /// Build a PFD.
    #[must_use]
    pub fn new(
        relation: impl Into<String>,
        lhs_attr: impl Into<String>,
        rhs_attr: impl Into<String>,
        tableau: Vec<PatternTuple>,
    ) -> Pfd {
        Pfd {
            relation: relation.into(),
            lhs_attr: lhs_attr.into(),
            rhs_attr: rhs_attr.into(),
            tableau,
        }
    }

    /// Classify the tableau.
    #[must_use]
    pub fn kind(&self) -> PfdKind {
        let constants = self.tableau.iter().filter(|t| t.is_constant()).count();
        if constants == self.tableau.len() {
            PfdKind::Constant
        } else if constants == 0 {
            PfdKind::Variable
        } else {
            PfdKind::Mixed
        }
    }

    /// The embedded FD, rendered `A → B`.
    #[must_use]
    pub fn embedded_fd(&self) -> String {
        format!("{} → {}", self.lhs_attr, self.rhs_attr)
    }

    /// Fraction of live rows (non-null on the LHS) whose LHS value matches
    /// at least one tableau pattern — the paper's *coverage*, the quantity
    /// compared against the minimum-coverage threshold γ. Each distinct
    /// value is classified once, through a [`TableauMemo`] over every
    /// tuple's LHS cell.
    #[must_use]
    pub fn coverage(&self, table: &Table) -> f64 {
        self.walk_lhs(table, |_| {})
    }

    /// One walk of the live LHS column through a [`TableauMemo`] over
    /// every tuple's LHS cell (member `i` is tuple `i`): `on_row` gets
    /// the members each non-null value matches, none included, and the
    /// walk returns the coverage, a row being covered when it matches
    /// any member. 0 when the table lacks the LHS column or it holds no
    /// non-null live value.
    pub(crate) fn walk_lhs(&self, table: &Table, mut on_row: impl FnMut(&[u32])) -> f64 {
        let Some(col) = table.schema().index_of(&self.lhs_attr) else {
            return 0.0;
        };
        let mut memo = TableauMemo::new(self.tableau.iter().map(|t| t.lhs.embedded()));
        let (mut total, mut covered) = (0usize, 0usize);
        for (_, v) in table.iter_column(col) {
            if !v.is_null() {
                let members = memo.matches(v);
                total += 1;
                covered += usize::from(!members.is_empty());
                on_row(members);
            }
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// The tableau tuples with constant RHS.
    pub fn constant_tuples(&self) -> impl Iterator<Item = &PatternTuple> {
        self.tableau.iter().filter(|t| t.is_constant())
    }

    /// The tableau tuples with wildcard RHS.
    pub fn variable_tuples(&self) -> impl Iterator<Item = &PatternTuple> {
        self.tableau.iter().filter(|t| !t.is_constant())
    }

    /// Tableau tuple `i` in paper syntax:
    /// `[name = John\ \A*] → [gender = M]`.
    ///
    /// # Panics
    /// Panics if the tableau has no tuple `i`.
    #[must_use]
    pub fn tuple_text(&self, i: usize) -> String {
        let t = &self.tableau[i];
        let rhs = match &t.rhs {
            RhsCell::Constant(c) => format!(" = {c}"),
            RhsCell::Wildcard => String::new(),
        };
        format!("[{} = {}] → [{}{rhs}]", self.lhs_attr, t.lhs, self.rhs_attr)
    }
}

impl fmt::Display for LhsCell {
    /// The pattern's display form, or `⊥` for the wildcard — the form
    /// violation evidence names a tuple by.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LhsCell::Pattern(q) => write!(f, "{q}"),
            LhsCell::Wildcard => write!(f, "⊥"),
        }
    }
}

impl fmt::Display for Pfd {
    /// Paper syntax, one tableau tuple per line:
    /// `Name ([name = John\ \A*] → [gender = M])`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.tableau.len() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{} ({})", self.relation, self.tuple_text(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anmat_table::{Schema, ValuePool};

    fn q(s: &str) -> ConstrainedPattern {
        s.parse().unwrap()
    }

    fn name_table() -> Table {
        Table::from_str_rows(
            Schema::new(["name", "gender"]).unwrap(),
            [
                ["John Charles", "M"],
                ["John Bosco", "M"],
                ["Susan Orlean", "F"],
                ["Susan Boyle", "M"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn lambda1_display() {
        // λ1 from the paper.
        let pfd = Pfd::new(
            "Name",
            "name",
            "gender",
            vec![PatternTuple::constant(q("John\\ \\A*"), "M")],
        );
        assert_eq!(
            pfd.to_string(),
            "Name ([name = John\\ \\A*] → [gender = M])"
        );
        assert_eq!(pfd.kind(), PfdKind::Constant);
    }

    #[test]
    fn lambda4_display() {
        // λ4: variable PFD.
        let pfd = Pfd::new(
            "Name",
            "name",
            "gender",
            vec![PatternTuple::variable(q("[\\LU\\LL*\\ ]\\A*"))],
        );
        assert_eq!(
            pfd.to_string(),
            "Name ([name = [\\LU\\LL*\\ ]\\A*] → [gender])"
        );
        assert_eq!(pfd.kind(), PfdKind::Variable);
    }

    #[test]
    fn kind_mixed() {
        let pfd = Pfd::new(
            "R",
            "a",
            "b",
            vec![
                PatternTuple::constant(q("x\\A*"), "1"),
                PatternTuple::variable(q("[\\LL+]")),
            ],
        );
        assert_eq!(pfd.kind(), PfdKind::Mixed);
        assert_eq!(pfd.constant_tuples().count(), 1);
        assert_eq!(pfd.variable_tuples().count(), 1);
    }

    #[test]
    fn coverage_counts_matching_lhs() {
        let t = name_table();
        let pfd = Pfd::new(
            "Name",
            "name",
            "gender",
            vec![
                PatternTuple::constant(q("John\\ \\A*"), "M"),
                PatternTuple::constant(q("Susan\\ \\A*"), "F"),
            ],
        );
        assert!((pfd.coverage(&t) - 1.0).abs() < 1e-9);
        let partial = Pfd::new(
            "Name",
            "name",
            "gender",
            vec![PatternTuple::constant(q("John\\ \\A*"), "M")],
        );
        assert!((partial.coverage(&t) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn coverage_zero_for_unknown_column() {
        let t = name_table();
        let pfd = Pfd::new("Name", "missing", "gender", vec![]);
        assert_eq!(pfd.coverage(&t), 0.0);
    }

    #[test]
    fn lhs_cell_admission_and_keys() {
        let zip = q("[\\D{3}]\\D{2}");
        assert!(zip.matches("90001"));
        assert_eq!(zip.key("90001").as_deref(), Some("900"));
        assert_eq!(zip.key("9000x"), None);
        assert_eq!(q("\\D{5}").key("90001").as_deref(), Some(""));
        // A pattern cell admits what its embedded pattern matches, and
        // ⊥ every non-null value.
        let cells = [LhsCell::Pattern(zip), LhsCell::Wildcard];
        let mut memo = TableauMemo::new(cells.iter().map(LhsCell::embedded));
        assert_eq!(memo.matches(ValuePool::intern("90001")), &[0, 1]);
        assert_eq!(memo.matches(ValuePool::intern("9000x")), &[1]);
    }

    #[test]
    fn serde_roundtrip() {
        let pfd = Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::constant(q("900\\D{2}"), "Los Angeles")],
        );
        let json = serde_json::to_string(&pfd).unwrap();
        let pfd2: Pfd = serde_json::from_str(&json).unwrap();
        assert_eq!(pfd, pfd2);
    }
}
