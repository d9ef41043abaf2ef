//! Variable-PFD violation detection.
//!
//! Per §3: for `tp[B] = ⊥` the brute-force approach enumerates all tuple
//! pairs `(ti, tj)` with `ti[A] ≡ tj[A] ≡ tp[A]` and `ti[B] ≠ tj[B]` —
//! quadratic. "The quadratic time complexity can be avoided using
//! blocking": rows are grouped by the constrained-capture key (exact for
//! `≡_Q`), and each block is resolved by majority vote — minority rows are
//! flagged, with majority rows as witnesses. The brute-force path is kept
//! for the E13 ablation and agrees with blocking on the flagged set.

use super::{Repair, Violation, ViolationKind};
use crate::pfd::{LhsCell, Pfd, RhsCell};
use anmat_index::BlockingIndex;
use anmat_table::{RowId, Table, ValueId};
use fxhash::FxHashMap;
use std::collections::HashMap;

/// Cap on stored witness rows per violation.
pub const MAX_WITNESSES: usize = 4;

/// Detect violations of the variable tuples of `pfd` via blocking.
pub(crate) fn detect(table: &Table, pfd: &Pfd, lhs: usize, rhs: usize) -> Vec<Violation> {
    let mut out = Vec::new();
    for tuple in pfd.variable_tuples() {
        let RhsCell::Wildcard = &tuple.rhs else {
            continue;
        };
        // A wildcard LHS is a plain FD on the whole column: each block is
        // one value.
        let q = match &tuple.lhs {
            LhsCell::Pattern(q) => Some(q),
            LhsCell::Wildcard => None,
        };
        let display = tuple.lhs.to_string();
        let blocks = BlockingIndex::block(table, lhs, q);
        for (key, rows) in &blocks.blocks {
            out.extend(flag_block_minority(
                table,
                pfd,
                lhs,
                rhs,
                &display,
                key.render(),
                rows.iter().copied(),
            ));
        }
    }
    out
}

/// Flag the minority rows of one block.
///
/// This is batch detection's statement of variable-PFD block semantics:
/// majority vote over non-null RHS values (ties break to the
/// lexicographically smallest value, independent of interning order),
/// null RHS rows flagged but never voting, up to [`MAX_WITNESSES`]
/// majority rows recorded as witnesses in row order. The incremental
/// `anmat-stream` engine maintains the same vote per block (its blocking
/// partitions use the same tie-break) and asserts the same rows; the
/// stream harness holds the two equal after every step. The vote runs
/// over interned ids; strings are only touched to break ties and to
/// render evidence. `rows` must be in ascending order; it is walked up
/// to three times.
pub fn flag_block_minority<I>(
    table: &Table,
    pfd: &Pfd,
    lhs: usize,
    rhs: usize,
    pattern_display: &str,
    key: &str,
    rows: I,
) -> Vec<Violation>
where
    I: IntoIterator<Item = RowId>,
    I::IntoIter: Clone,
{
    let rows = rows.into_iter();
    if rows.clone().nth(1).is_none() {
        return Vec::new();
    }
    // RHS distribution (ValueId::NULL = null RHS participates as a
    // violation candidate but never as majority).
    let mut counts: FxHashMap<ValueId, usize> = FxHashMap::default();
    for row in rows.clone() {
        *counts.entry(table.cell_id(row, rhs)).or_insert(0) += 1;
    }
    let distinct_non_null = counts.keys().filter(|k| !k.is_null()).count();
    if distinct_non_null <= 1 && !counts.contains_key(&ValueId::NULL) {
        return Vec::new(); // block agrees
    }
    let Some((majority, _)) = counts
        .iter()
        .filter_map(|(k, c)| (!k.is_null()).then_some((*k, *c)))
        .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then_with(|| vb.render().cmp(va.render())))
    else {
        return Vec::new(); // all RHS null: nothing to vote with
    };
    let witnesses: Vec<RowId> = rows
        .clone()
        .filter(|&r| table.cell_id(r, rhs) == majority)
        .take(MAX_WITNESSES)
        .collect();
    let mut out = Vec::new();
    for row in rows {
        if table.cell_id(row, rhs) == majority {
            continue;
        }
        let (found, majority) = (table.cell_str(row, rhs), majority.render());
        out.push(Violation {
            dependency: pfd.embedded_fd(),
            lhs_attr: pfd.lhs_attr.clone(),
            rhs_attr: pfd.rhs_attr.clone(),
            row,
            lhs_value: table.cell_str(row, lhs).unwrap_or_default().to_string(),
            kind: ViolationKind::Variable {
                pattern: pattern_display.to_string(),
                key: key.to_string(),
                majority: majority.to_string(),
                found: found.map(str::to_string),
                witnesses: witnesses.clone(),
            },
            repair: Some(Repair {
                row,
                attr: pfd.rhs_attr.clone(),
                from: found.map(str::to_string),
                to: majority.to_string(),
            }),
        });
    }
    out
}

/// Quadratic pair enumeration (the paper's brute-force description), for
/// the blocking ablation. Flags the same rows as [`detect`]: a row is
/// flagged iff it disagrees with the majority of its equivalence class.
pub(crate) fn detect_bruteforce(
    table: &Table,
    pfd: &Pfd,
    lhs: usize,
    rhs: usize,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for tuple in pfd.variable_tuples() {
        let LhsCell::Pattern(q) = &tuple.lhs else {
            continue;
        };
        // Materialize matches + keys once (the paper's index does the
        // same; capture extraction memoized per distinct LHS id), then
        // enumerate pairs explicitly.
        let mut key_cache: FxHashMap<ValueId, Option<ValueId>> = FxHashMap::default();
        let mut matched: Vec<(RowId, ValueId)> = Vec::new();
        for (row, v) in table.iter_column(lhs) {
            let Some(s) = v.as_str() else { continue };
            if let Some(key) = key_cache
                .entry(v)
                .or_insert_with(|| q.key(s).map(|k| anmat_table::ValuePool::intern(&k)))
            {
                matched.push((row, *key));
            }
        }
        // Pair scan: votes[row] = (agreements, disagreements) against every
        // equivalent row.
        let mut conflicts: HashMap<RowId, Vec<RowId>> = HashMap::new();
        for i in 0..matched.len() {
            for j in (i + 1)..matched.len() {
                let (ri, ki) = matched[i];
                let (rj, kj) = matched[j];
                if ki != kj {
                    continue;
                }
                let bi = table.cell_id(ri, rhs);
                let bj = table.cell_id(rj, rhs);
                if bi != bj {
                    conflicts.entry(ri).or_default().push(rj);
                    conflicts.entry(rj).or_default().push(ri);
                }
            }
        }
        // Resolve conflicts identically to blocking (majority vote per key).
        let mut by_key: FxHashMap<ValueId, Vec<RowId>> = FxHashMap::default();
        for &(row, key) in &matched {
            by_key.entry(key).or_default().push(row);
        }
        let mut keys: Vec<ValueId> = by_key.keys().copied().collect();
        keys.sort_by_cached_key(|k| k.render());
        for key in keys {
            let rows = &by_key[&key];
            if rows.iter().all(|r| !conflicts.contains_key(r)) {
                continue;
            }
            out.extend(flag_block_minority(
                table,
                pfd,
                lhs,
                rhs,
                &q.to_string(),
                key.render(),
                rows.iter().copied(),
            ));
        }
    }
    out.sort_by_key(|v| v.row);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pfd::PatternTuple;
    use anmat_pattern::ConstrainedPattern;
    use anmat_table::Schema;

    fn lambda4() -> Pfd {
        Pfd::new(
            "Name",
            "name",
            "gender",
            vec![PatternTuple::variable(
                "[\\LU\\LL*\\ ]\\A*".parse::<ConstrainedPattern>().unwrap(),
            )],
        )
    }

    fn name_table() -> Table {
        // Table 1 with the r4 error.
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
    fn lambda4_detects_r4_with_witness() {
        let t = name_table();
        let violations = super::super::detect_pfd(&t, &lambda4());
        // The Susan block has a 1–1 tie; majority vote picks one side
        // deterministically, flagging exactly one of r3/r4.
        assert_eq!(violations.len(), 1);
        let v = &violations[0];
        assert!(v.row == 2 || v.row == 3);
        match &v.kind {
            ViolationKind::Variable { key, witnesses, .. } => {
                assert_eq!(key, "Susan ");
                assert_eq!(witnesses.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The violation spans four cells: both rows' name and gender.
        assert_eq!(v.cells().len(), 4);
    }

    #[test]
    fn majority_flags_minority_only() {
        let t = Table::from_str_rows(
            Schema::new(["name", "gender"]).unwrap(),
            [
                ["Susan Orlean", "F"],
                ["Susan Boyle", "F"],
                ["Susan Sarandon", "F"],
                ["Susan Smith", "M"], // minority
            ],
        )
        .unwrap();
        let violations = super::super::detect_pfd(&t, &lambda4());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].row, 3);
        let r = violations[0].repair.as_ref().unwrap();
        assert_eq!(r.to, "F");
    }

    #[test]
    fn zip_prefix_variable_pfd() {
        // λ5 on Table 2: comparing s4 with s1–s3 catches the error.
        let pfd = Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::variable(
                "[\\D{3}]\\D{2}".parse::<ConstrainedPattern>().unwrap(),
            )],
        );
        let t = Table::from_str_rows(
            Schema::new(["zip", "city"]).unwrap(),
            [
                ["90001", "Los Angeles"],
                ["90002", "Los Angeles"],
                ["90003", "Los Angeles"],
                ["90004", "New York"],
            ],
        )
        .unwrap();
        let violations = super::super::detect_pfd(&t, &pfd);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].row, 3);
        match &violations[0].kind {
            ViolationKind::Variable { key, majority, .. } => {
                assert_eq!(key, "900");
                assert_eq!(majority, "Los Angeles");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bruteforce_agrees_with_blocking() {
        let t = name_table();
        let blocking = super::super::detect_pfd(&t, &lambda4());
        let brute = super::super::detect_variable_bruteforce(&t, &lambda4());
        let rows_a: Vec<_> = blocking.iter().map(|v| v.row).collect();
        let rows_b: Vec<_> = brute.iter().map(|v| v.row).collect();
        assert_eq!(rows_a, rows_b);
    }

    #[test]
    fn null_rhs_flagged_against_majority() {
        let t = Table::from_str_rows(
            Schema::new(["name", "gender"]).unwrap(),
            [
                ["Susan Orlean", "F"],
                ["Susan Boyle", "F"],
                ["Susan Smith", ""],
            ],
        )
        .unwrap();
        let violations = super::super::detect_pfd(&t, &lambda4());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].row, 2);
        match &violations[0].kind {
            ViolationKind::Variable { found, .. } => assert!(found.is_none()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn agreeing_blocks_produce_nothing() {
        let t = Table::from_str_rows(
            Schema::new(["name", "gender"]).unwrap(),
            [
                ["John Charles", "M"],
                ["John Bosco", "M"],
                ["Susan Orlean", "F"],
            ],
        )
        .unwrap();
        assert!(super::super::detect_pfd(&t, &lambda4()).is_empty());
    }
}
