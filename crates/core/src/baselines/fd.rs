//! TANE-style functional-dependency discovery and FD-based error
//! detection.
//!
//! Discovery is levelwise over the attribute lattice with *stripped
//! partitions* (equivalence classes of size ≥ 2), exactly the data
//! structure TANE uses: an FD `X → B` holds iff the partition of `X`
//! refines the partition of `X ∪ {B}`; the approximate variant accepts
//! `g3(X → B) ≤ max_error`, where `g3` is the minimum fraction of rows to
//! remove for the FD to hold. Minimality pruning removes `X → B` when some
//! `X' ⊂ X` already yields it.

use anmat_table::{RowId, Table};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A discovered functional dependency `X → B`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fd {
    /// LHS attribute indices (sorted).
    pub lhs: Vec<usize>,
    /// RHS attribute index.
    pub rhs: usize,
    /// `g3` error on the mining table (0.0 = exact).
    pub error: f64,
}

impl Fd {
    /// Render with attribute names.
    #[must_use]
    pub fn display(&self, table: &Table) -> String {
        let lhs: Vec<&str> = self.lhs.iter().map(|&i| table.schema().name(i)).collect();
        format!("{} → {}", lhs.join(", "), table.schema().name(self.rhs))
    }
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} → {}", self.lhs, self.rhs)
    }
}

/// A row flagged by an FD.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FdViolation {
    /// The violating row (disagrees with its class majority).
    pub row: RowId,
    /// RHS attribute index.
    pub rhs: usize,
    /// The majority RHS value of the row's LHS class.
    pub majority: String,
    /// The value found.
    pub found: Option<String>,
}

/// Configuration for FD discovery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FdConfig {
    /// Maximum LHS size explored (lattice depth).
    pub max_lhs: usize,
    /// Maximum `g3` error tolerated (0.0 = exact FDs only).
    pub max_error: f64,
    /// Skip RHS candidates that are keys (all-distinct LHS columns yield
    /// trivial FDs that assert nothing).
    pub skip_key_lhs: bool,
}

impl Default for FdConfig {
    fn default() -> Self {
        FdConfig {
            max_lhs: 2,
            max_error: 0.0,
            skip_key_lhs: true,
        }
    }
}

/// TANE-style FD miner.
#[derive(Debug)]
pub struct FdMiner {
    config: FdConfig,
}

/// A stripped partition: equivalence classes with at least two rows.
#[derive(Debug, Clone)]
struct StrippedPartition {
    classes: Vec<Vec<RowId>>,
    /// Total rows in stripped classes.
    stripped_rows: usize,
}

impl StrippedPartition {
    /// Partition of one attribute (nulls form their own class).
    fn of_column(table: &Table, col: usize) -> StrippedPartition {
        let mut groups: HashMap<Option<&str>, Vec<RowId>> = HashMap::new();
        for (row, v) in table.iter_column(col) {
            groups.entry(v.as_str()).or_default().push(row);
        }
        Self::strip(groups.into_values())
    }

    /// Product refinement `self · other` (the TANE partition product).
    fn product(&self, other_class_of: &[usize]) -> StrippedPartition {
        let mut groups: HashMap<(usize, usize), Vec<RowId>> = HashMap::new();
        for (ci, class) in self.classes.iter().enumerate() {
            for &row in class {
                let oc = other_class_of[row];
                if oc == usize::MAX {
                    // Row is a singleton in the other partition: the
                    // product class is a singleton too.
                    continue;
                }
                groups.entry((ci, oc)).or_default().push(row);
            }
        }
        Self::strip(groups.into_values())
    }

    fn strip<I: IntoIterator<Item = Vec<RowId>>>(groups: I) -> StrippedPartition {
        let mut classes: Vec<Vec<RowId>> = groups.into_iter().filter(|g| g.len() >= 2).collect();
        for c in &mut classes {
            c.sort_unstable();
        }
        classes.sort();
        let stripped_rows = classes.iter().map(Vec::len).sum();
        StrippedPartition {
            classes,
            stripped_rows,
        }
    }

    /// `class_of[row]` = index of the row's stripped class, or MAX.
    fn class_of(&self, n_rows: usize) -> Vec<usize> {
        let mut out = vec![usize::MAX; n_rows];
        for (ci, class) in self.classes.iter().enumerate() {
            for &row in class {
                out[row] = ci;
            }
        }
        out
    }

    /// `g3` error of `X → B` where `self` = partition(X): fraction of rows
    /// to remove so that each X-class maps to a single B value.
    fn g3_error(&self, table: &Table, rhs: usize, n_rows: usize) -> f64 {
        if n_rows == 0 {
            return 0.0;
        }
        let mut violating = 0usize;
        for class in &self.classes {
            let mut counts: HashMap<Option<&str>, usize> = HashMap::new();
            for &row in class {
                *counts.entry(table.cell_str(row, rhs)).or_insert(0) += 1;
            }
            let max = counts.values().copied().max().unwrap_or(0);
            violating += class.len() - max;
        }
        violating as f64 / n_rows as f64
    }
}

impl FdMiner {
    /// Create a miner.
    #[must_use]
    pub fn new(config: FdConfig) -> FdMiner {
        FdMiner { config }
    }

    /// Discover (approximate) minimal FDs over `table` (live rows only).
    #[must_use]
    pub fn discover(&self, table: &Table) -> Vec<Fd> {
        let n_cols = table.column_count();
        // Slot count sizes the RowId-indexed lookup tables; the live
        // count normalizes g3 (partitions see only live rows).
        let n_slots = table.row_count();
        let n_live = table.live_rows();
        if n_cols < 2 || n_live == 0 {
            return Vec::new();
        }
        // Level-1 partitions.
        let singles: Vec<StrippedPartition> = (0..n_cols)
            .map(|c| StrippedPartition::of_column(table, c))
            .collect();
        let mut found: Vec<Fd> = Vec::new();
        // level state: (lhs set, partition)
        let mut level: Vec<(Vec<usize>, StrippedPartition)> = (0..n_cols)
            .filter(|&c| {
                // A key column (no stripped classes) can only yield trivial
                // FDs: every class is a singleton.
                !(self.config.skip_key_lhs && singles[c].classes.is_empty())
            })
            .map(|c| (vec![c], singles[c].clone()))
            .collect();
        for _depth in 1..=self.config.max_lhs {
            for (lhs, part) in &level {
                for rhs in 0..n_cols {
                    if lhs.contains(&rhs) {
                        continue;
                    }
                    // Minimality: skip if a subset LHS already gives it.
                    if found
                        .iter()
                        .any(|f| f.rhs == rhs && f.lhs.iter().all(|a| lhs.contains(a)))
                    {
                        continue;
                    }
                    let error = part.g3_error(table, rhs, n_live);
                    if error <= self.config.max_error {
                        found.push(Fd {
                            lhs: lhs.clone(),
                            rhs,
                            error,
                        });
                    }
                }
            }
            // Build next level by extending with a larger attribute index.
            if _depth == self.config.max_lhs {
                break;
            }
            let mut next: Vec<(Vec<usize>, StrippedPartition)> = Vec::new();
            for (lhs, part) in &level {
                let max_attr = *lhs.last().expect("non-empty lhs");
                for (c, single) in singles.iter().enumerate().take(n_cols).skip(max_attr + 1) {
                    if lhs.contains(&c) {
                        continue;
                    }
                    let class_of = single.class_of(n_slots);
                    let product = part.product(&class_of);
                    if product.stripped_rows == 0 {
                        continue; // superkey: nothing non-trivial below
                    }
                    let mut new_lhs = lhs.clone();
                    new_lhs.push(c);
                    next.push((new_lhs, product));
                }
            }
            level = next;
        }
        found.sort_by(|a, b| a.lhs.cmp(&b.lhs).then_with(|| a.rhs.cmp(&b.rhs)));
        found
    }

    /// Flag live rows violating an FD on (possibly different) data:
    /// within each LHS class, minority-RHS rows. Tombstoned slots
    /// neither vote nor get flagged.
    #[must_use]
    pub fn detect(&self, table: &Table, fd: &Fd) -> Vec<FdViolation> {
        let mut groups: HashMap<Vec<Option<&str>>, Vec<RowId>> = HashMap::new();
        for row in table.iter_live() {
            let key: Vec<Option<&str>> = fd.lhs.iter().map(|&c| table.cell_str(row, c)).collect();
            groups.entry(key).or_default().push(row);
        }
        let mut out = Vec::new();
        let mut keys: Vec<_> = groups.keys().cloned().collect();
        keys.sort_unstable();
        for key in keys {
            let rows = &groups[&key];
            if rows.len() < 2 {
                continue;
            }
            let mut counts: HashMap<Option<&str>, usize> = HashMap::new();
            for &row in rows {
                *counts.entry(table.cell_str(row, fd.rhs)).or_insert(0) += 1;
            }
            let Some((majority, _)) = counts
                .iter()
                .filter_map(|(k, c)| k.map(|v| (v, *c)))
                .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then_with(|| vb.cmp(va)))
            else {
                continue;
            };
            for &row in rows {
                let found = table.cell_str(row, fd.rhs);
                if found != Some(majority) {
                    out.push(FdViolation {
                        row,
                        rhs: fd.rhs,
                        majority: majority.to_string(),
                        found: found.map(str::to_string),
                    });
                }
            }
        }
        out.sort_by_key(|v| v.row);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anmat_table::Schema;

    fn table(rows: &[[&str; 3]]) -> Table {
        Table::from_str_rows(
            Schema::new(["a", "b", "c"]).unwrap(),
            rows.iter().map(|r| r.iter().copied()),
        )
        .unwrap()
    }

    #[test]
    fn exact_fd_discovered() {
        // a → b holds; b → a does not (x/y both map to 1... actually they
        // do not collide here); a → c does not.
        let t = table(&[
            ["x", "1", "p"],
            ["x", "1", "q"],
            ["y", "2", "p"],
            ["y", "2", "q"],
        ]);
        let miner = FdMiner::new(FdConfig::default());
        let fds = miner.discover(&t);
        assert!(fds.iter().any(|f| f.lhs == vec![0] && f.rhs == 1));
        assert!(!fds.iter().any(|f| f.lhs == vec![0] && f.rhs == 2));
    }

    #[test]
    fn approximate_fd_with_g3() {
        let t = table(&[
            ["x", "1", "p"],
            ["x", "1", "p"],
            ["x", "2", "p"], // 1 bad row of 5
            ["y", "3", "p"],
            ["y", "3", "p"],
        ]);
        let exact = FdMiner::new(FdConfig::default()).discover(&t);
        assert!(!exact.iter().any(|f| f.lhs == vec![0] && f.rhs == 1));
        let approx = FdMiner::new(FdConfig {
            max_error: 0.25,
            ..FdConfig::default()
        })
        .discover(&t);
        let fd = approx
            .iter()
            .find(|f| f.lhs == vec![0] && f.rhs == 1)
            .expect("approximate FD");
        assert!((fd.error - 0.2).abs() < 1e-9);
    }

    #[test]
    fn multi_attribute_lhs() {
        // Neither a nor b alone determines c, but (a, b) does.
        let t = table(&[
            ["x", "1", "p"],
            ["x", "2", "q"],
            ["y", "1", "r"],
            ["y", "2", "s"],
            ["x", "1", "p"],
            ["y", "2", "s"],
        ]);
        let fds = FdMiner::new(FdConfig::default()).discover(&t);
        assert!(!fds.iter().any(|f| f.lhs == vec![0] && f.rhs == 2));
        assert!(!fds.iter().any(|f| f.lhs == vec![1] && f.rhs == 2));
        assert!(fds.iter().any(|f| f.lhs == vec![0, 1] && f.rhs == 2));
    }

    #[test]
    fn minimality_pruning() {
        // a → b exactly; then (a, c) → b must not be reported.
        let t = table(&[
            ["x", "1", "p"],
            ["x", "1", "q"],
            ["y", "2", "p"],
            ["y", "2", "q"],
        ]);
        let fds = FdMiner::new(FdConfig::default()).discover(&t);
        assert!(fds.iter().any(|f| f.lhs == vec![0] && f.rhs == 1));
        assert!(!fds.iter().any(|f| f.lhs == vec![0, 2] && f.rhs == 1));
    }

    #[test]
    fn detection_flags_minority() {
        let t = table(&[
            ["x", "1", "p"],
            ["x", "1", "q"],
            ["x", "9", "r"], // violates a → b
            ["y", "2", "p"],
        ]);
        let miner = FdMiner::new(FdConfig::default());
        let fd = Fd {
            lhs: vec![0],
            rhs: 1,
            error: 0.0,
        };
        let violations = miner.detect(&t, &fd);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].row, 2);
        assert_eq!(violations[0].majority, "1");
    }

    #[test]
    fn fd_cannot_see_partial_value_errors() {
        // The paper's core claim: full names are all distinct, so no FD on
        // name → gender exists and FD detection is blind to r4.
        let t = Table::from_str_rows(
            Schema::new(["name", "gender"]).unwrap(),
            [
                ["John Charles", "M"],
                ["John Bosco", "M"],
                ["Susan Orlean", "F"],
                ["Susan Boyle", "M"],
            ],
        )
        .unwrap();
        let fds = FdMiner::new(FdConfig::default()).discover(&t);
        assert!(
            !fds.iter().any(|f| f.lhs == vec![0] && f.rhs == 1),
            "all-distinct names must not yield name → gender: {fds:?}"
        );
    }

    #[test]
    fn display_uses_names() {
        let t = table(&[["x", "1", "p"], ["x", "1", "q"]]);
        let fd = Fd {
            lhs: vec![0, 2],
            rhs: 1,
            error: 0.0,
        };
        assert_eq!(fd.display(&t), "a, c → b");
    }
}
