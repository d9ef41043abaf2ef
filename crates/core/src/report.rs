//! Text renderings of the demo's three views (Figures 3–5).
//!
//! The paper's GUI shows: a profiling view listing each column's patterns
//! as `pattern::position, frequency` (Figure 3); the tableau of each
//! discovered dependency for user confirmation (Figure 4); and the
//! violating records with the violated rule (Figure 5). This module
//! renders the same content as plain text, so examples, logs and the
//! benchmark harness can display what the demo displayed.

use crate::detect::{Violation, ViolationKind};
use crate::pfd::{Pfd, RhsCell};
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
    // Per-tuple frequency, as in the Figure 4 display, and the header's
    // coverage, from one walk of the LHS column through a memo over every
    // tuple: each tuple is credited every value it matches.
    let mut frequency = vec![0usize; pfd.tableau.len()];
    let coverage = pfd.walk_lhs(table, |members| {
        for &m in members {
            frequency[m as usize] += 1;
        }
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Dependency {} ({:?}) — coverage {:.2} ===",
        pfd.embedded_fd(),
        pfd.kind(),
        coverage
    );
    for (i, (t, freq)) in pfd.tableau.iter().zip(frequency).enumerate() {
        let rhs = match &t.rhs {
            RhsCell::Constant(c) => c.as_str(),
            RhsCell::Wildcard => "⊥",
        };
        let _ = writeln!(out, "  tp{i}: {} → {rhs}   (frequency {freq})", t.lhs);
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
}
