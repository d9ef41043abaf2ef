//! Text renderings of the demo's three views (Figures 3–5) and the
//! Table 3 summary.
//!
//! The paper's GUI shows: a profiling view listing each column's patterns
//! as `pattern::position, frequency` (Figure 3); the tableau of each
//! discovered dependency for user confirmation (Figure 4); and the
//! violating records with the violated rule (Figure 5). This module
//! renders the same content as plain text, so examples, logs and the
//! benchmark harness can display what the demo displayed.

use crate::detect::{Violation, ViolationKind};
use crate::pfd::{LhsCell, Pfd, RhsCell};
use anmat_pattern::PatternLevel;
use anmat_table::{Table, TableProfile};
use std::fmt::Write as _;

/// Figure 3: the profiling view.
///
/// Per column: inferred type, null/distinct statistics, and the pattern
/// histogram in the paper's `pattern::position, frequency` form (position
/// is 0 for whole-value signatures).
#[must_use]
pub fn profiling_view(table: &Table, profile: &TableProfile) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Profiling: {} rows × {} columns ===",
        table.live_rows(),
        table.column_count()
    );
    for col in &profile.columns {
        let _ = writeln!(
            out,
            "\nColumn `{}` — type {:?}, {} nulls, {} distinct (ratio {:.2}), len {}..{}",
            col.name,
            col.dtype,
            col.null_count,
            col.distinct_count,
            col.distinct_ratio(),
            col.min_len,
            col.max_len
        );
        if let Some(hist) = col.histogram(PatternLevel::ClassExact) {
            let _ = writeln!(out, "  patterns (class-exact):");
            for (pattern, freq) in hist.entries.iter().take(8) {
                let _ = writeln!(out, "    {pattern}::0, {freq}");
            }
            if hist.entries.len() > 8 {
                let _ = writeln!(out, "    … {} more", hist.entries.len() - 8);
            }
        }
        if !col.samples.is_empty() {
            let _ = writeln!(out, "  samples: {}", col.samples.join(" | "));
        }
        let _ = writeln!(
            out,
            "  candidate LHS: {}",
            if col.is_candidate() { "yes" } else { "no" }
        );
    }
    out
}

/// Figure 4: the tableau view of one discovered PFD, with per-tuple
/// coverage so the user can confirm or reject it.
#[must_use]
pub fn tableau_view(table: &Table, pfd: &Pfd) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Dependency {} ({:?}) — coverage {:.2} ===",
        pfd.embedded_fd(),
        pfd.kind(),
        pfd.coverage(table)
    );
    let lhs_col = table.schema().index_of(&pfd.lhs_attr);
    for (i, t) in pfd.tableau.iter().enumerate() {
        let lhs = match &t.lhs {
            LhsCell::Pattern(q) => q.to_string(),
            LhsCell::Wildcard => "⊥".to_string(),
        };
        let rhs = match &t.rhs {
            RhsCell::Constant(c) => c.clone(),
            RhsCell::Wildcard => "⊥".to_string(),
        };
        // Per-tuple frequency, as in the Figure 4 display (the pattern
        // compiled once, admission memoized per distinct interned value).
        let freq = lhs_col.map_or(0, |col| {
            let program = t.lhs.compile();
            let mut memo: fxhash::FxHashMap<anmat_table::ValueId, bool> =
                fxhash::FxHashMap::default();
            table
                .iter_column(col)
                .filter(|(_, v)| {
                    v.as_str().is_some_and(|s| {
                        *memo
                            .entry(*v)
                            .or_insert_with(|| program.as_ref().is_none_or(|c| c.matches(s)))
                    })
                })
                .count()
        });
        let _ = writeln!(out, "  tp{i}: {lhs} → {rhs}   (frequency {freq})");
    }
    out
}

/// Figure 5: violations with the violated rule and the full record.
#[must_use]
pub fn violations_view(table: &Table, violations: &[Violation]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== {} violation(s) ===", violations.len());
    for v in violations {
        let record: Vec<String> = (0..table.column_count())
            .map(|c| table.cell_id(v.row, c).to_string())
            .collect();
        match &v.kind {
            ViolationKind::Constant {
                pattern,
                expected,
                found,
            } => {
                let _ = writeln!(
                    out,
                    "row {}: [{}] violates {} :: {} → {}",
                    v.row,
                    record.join(" | "),
                    v.dependency,
                    pattern,
                    expected
                );
                let _ = writeln!(
                    out,
                    "    found {} = {:?}, expected {:?}",
                    v.rhs_attr,
                    found.as_deref().unwrap_or("∅"),
                    expected
                );
            }
            ViolationKind::Variable {
                pattern,
                key,
                majority,
                found,
                witnesses,
            } => {
                let _ = writeln!(
                    out,
                    "row {}: [{}] violates {} :: {}",
                    v.row,
                    record.join(" | "),
                    v.dependency,
                    pattern
                );
                let _ = writeln!(
                    out,
                    "    block key {key:?}: found {} = {:?}, block majority {:?} (witness rows {:?})",
                    v.rhs_attr,
                    found.as_deref().unwrap_or("∅"),
                    majority,
                    witnesses
                );
            }
        }
        if let Some(r) = &v.repair {
            let _ = writeln!(
                out,
                "    suggested repair: set {}[row {}] := {:?}",
                r.attr, r.row, r.to
            );
        }
    }
    out
}

/// One row of the paper's Table 3: dependency, tableau patterns, and the
/// errors detected.
#[must_use]
pub fn table3_row(dataset: &str, table: &Table, pfd: &Pfd, violations: &[Violation]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{dataset}  {}", pfd.embedded_fd());
    for t in &pfd.tableau {
        let lhs = match &t.lhs {
            LhsCell::Pattern(q) => q.to_string(),
            LhsCell::Wildcard => "⊥".to_string(),
        };
        let rhs = match &t.rhs {
            RhsCell::Constant(c) => c.clone(),
            RhsCell::Wildcard => "⊥".to_string(),
        };
        let _ = writeln!(out, "    {lhs} → {rhs}");
    }
    for v in violations.iter().take(8) {
        let lhs_val = &v.lhs_value;
        let found = match &v.kind {
            ViolationKind::Constant { found, .. } | ViolationKind::Variable { found, .. } => {
                found.as_deref().unwrap_or("∅")
            }
        };
        let _ = writeln!(out, "    error: {lhs_val} | {found}");
    }
    let _ = table;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_pfd;
    use crate::pfd::PatternTuple;
    use anmat_pattern::ConstrainedPattern;
    use anmat_table::Schema;

    fn zip_table() -> Table {
        Table::from_str_rows(
            Schema::new(["zip", "city"]).unwrap(),
            [
                ["90001", "Los Angeles"],
                ["90002", "Los Angeles"],
                ["90003", "Los Angeles"],
                ["90004", "New York"],
            ],
        )
        .unwrap()
    }

    fn lambda3() -> Pfd {
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

    #[test]
    fn profiling_view_lists_patterns() {
        let t = zip_table();
        let p = TableProfile::profile(&t);
        let view = profiling_view(&t, &p);
        assert!(view.contains("Column `zip`"), "{view}");
        assert!(view.contains("\\D{5}::0, 4"), "{view}");
        assert!(view.contains("candidate LHS: yes"), "{view}");
    }

    #[test]
    fn tableau_view_shows_frequency() {
        let t = zip_table();
        let view = tableau_view(&t, &lambda3());
        assert!(view.contains("zip → city"), "{view}");
        assert!(view.contains("900\\D{2} → Los Angeles"), "{view}");
        assert!(view.contains("frequency 4"), "{view}");
    }

    #[test]
    fn violations_view_shows_record_and_repair() {
        let t = zip_table();
        let violations = detect_pfd(&t, &lambda3());
        let view = violations_view(&t, &violations);
        assert!(view.contains("1 violation(s)"), "{view}");
        assert!(view.contains("90004 | New York"), "{view}");
        assert!(view.contains("suggested repair"), "{view}");
    }

    #[test]
    fn table3_row_format() {
        let t = zip_table();
        let violations = detect_pfd(&t, &lambda3());
        let row = table3_row("D5", &t, &lambda3(), &violations);
        assert!(row.contains("D5  zip → city"), "{row}");
        assert!(row.contains("900\\D{2} → Los Angeles"), "{row}");
        assert!(row.contains("error: 90004 | New York"), "{row}");
    }
}
