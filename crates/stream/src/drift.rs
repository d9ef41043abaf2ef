//! Rule drift monitoring.
//!
//! Discovery accepts a tableau entry when its dominant RHS reaches
//! confidence `1 − max_violation_ratio` over at least `min_support`
//! rows of its own. Live traffic can invalidate that acceptance — a
//! schema migration, an upstream format change, or genuine data drift
//! can push a tuple's observed violation ratio past what discovery
//! would have tolerated. The engine keeps the same statistic per
//! tableau tuple ([`TupleHealth`]), and a [`DriftMonitor`] judges it
//! against the discovery thresholds, so a decayed rule can be demoted
//! to `RuleStatus::Pending` for human re-review instead of silently
//! spraying false positives, with a report naming the tuple that
//! decayed.

use anmat_core::Pfd;

/// Streaming health counters for one tableau tuple.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TupleHealth {
    /// Live rows whose LHS matches the tuple: for a constant tuple, its
    /// pattern; for a variable tuple, any block key.
    pub matched_rows: usize,
    /// Violations the tuple itself currently asserts (its creations minus
    /// its retractions). Counted per tuple, independent of the ledger's
    /// cross-rule deduplication, so two rules making the same assertion
    /// each carry their own tally. A tuple flags at most one violation
    /// per matched row, so this never exceeds `matched_rows`.
    pub live_violations: usize,
}

impl TupleHealth {
    /// `1 − live_violations / matched_rows` (1.0 with no matches yet) —
    /// the streaming analogue of the discovery decision function's
    /// confidence for one tableau entry. Always in `[0, 1]`.
    #[must_use]
    pub fn confidence(&self) -> f64 {
        if self.matched_rows == 0 {
            return 1.0;
        }
        1.0 - self.live_violations as f64 / self.matched_rows as f64
    }

    /// Record one row phase that matched the tuple: a row's arrival, or
    /// with `removal` its departure (the denominator shrinks with the
    /// stream — a tuple judged over 1 000 matched rows of which 900 were
    /// later deleted is judged over the 100 that remain), with the
    /// violations the phase made the tuple create and retract.
    pub fn record(&mut self, removal: bool, created: usize, retracted: usize) {
        if removal {
            self.matched_rows -= 1;
        } else {
            self.matched_rows += 1;
        }
        self.live_violations = self.live_violations + created - retracted;
        debug_assert!(self.live_violations <= self.matched_rows);
    }
}

/// One drifted tableau tuple, with the numbers behind the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Index of the rule in the engine's seeded rule list.
    pub rule: usize,
    /// Index of the tuple in the rule's tableau.
    pub tuple: usize,
    /// The rule's embedded FD, for display.
    pub dependency: String,
    /// The tuple in paper syntax (`[zip = 900\D{2}] → [city = LA]`).
    pub pattern: String,
    /// Rows the tuple matches.
    pub matched_rows: usize,
    /// Live violations the tuple asserts.
    pub live_violations: usize,
    /// Observed streaming confidence.
    pub confidence: f64,
    /// The discovery threshold the tuple fell below.
    pub min_confidence: f64,
}

/// The discovery thresholds tuple health is judged against.
#[derive(Debug, Clone, Copy)]
pub struct DriftMonitor {
    min_support: usize,
    min_confidence: f64,
}

impl DriftMonitor {
    /// A monitor with the given discovery-style thresholds.
    #[must_use]
    pub fn new(min_support: usize, max_violation_ratio: f64) -> DriftMonitor {
        DriftMonitor {
            min_support,
            min_confidence: 1.0 - max_violation_ratio,
        }
    }

    /// Judge tuple `tuple` of rule `rule` (`pfd`): a report if its
    /// streaming confidence fell below the discovery threshold (only
    /// once `min_support` rows matched it).
    #[must_use]
    pub fn judge(
        &self,
        rule: usize,
        pfd: &Pfd,
        tuple: usize,
        health: TupleHealth,
    ) -> Option<DriftReport> {
        if health.matched_rows < self.min_support || health.confidence() >= self.min_confidence {
            return None;
        }
        Some(DriftReport {
            rule,
            tuple,
            dependency: pfd.embedded_fd(),
            pattern: pfd.tuple_text(tuple),
            matched_rows: health.matched_rows,
            live_violations: health.live_violations,
            confidence: health.confidence(),
            min_confidence: self.min_confidence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StreamConfig, StreamEngine};
    use anmat_core::PatternTuple;
    use anmat_pattern::ConstrainedPattern;
    use anmat_table::{RowOp, Schema, Value};

    /// `a → b` with one variable tuple.
    fn pfd() -> Pfd {
        Pfd::new(
            "R",
            "a",
            "b",
            vec![PatternTuple::variable("[\\D]".parse().unwrap())],
        )
    }

    fn health(matched_rows: usize, live_violations: usize) -> TupleHealth {
        TupleHealth {
            matched_rows,
            live_violations,
        }
    }

    #[test]
    fn healthy_tuple_not_reported() {
        let mut h = TupleHealth::default();
        for _ in 0..20 {
            h.record(false, 0, 0);
        }
        h.record(false, 1, 0); // one violation in 21 rows
        assert!(DriftMonitor::new(5, 0.3).judge(0, &pfd(), 0, h).is_none());
        assert!(h.confidence() > 0.9);
    }

    #[test]
    fn decayed_tuple_reported_after_min_support() {
        let monitor = DriftMonitor::new(5, 0.3);
        let rule = pfd();
        // Every row violates — but only 3 matches: not judged.
        assert!(monitor.judge(0, &rule, 0, health(3, 3)).is_none());
        // Two more matched rows cross min_support; confidence 0 < 0.7.
        let drifted = monitor.judge(2, &rule, 0, health(5, 5)).expect("drifted");
        assert_eq!((drifted.rule, drifted.tuple), (2, 0));
        assert_eq!(drifted.dependency, "a → b");
        assert_eq!(drifted.pattern, "[a = [\\D]] → [b]");
        assert_eq!(drifted.live_violations, 5);
        assert!(drifted.confidence < drifted.min_confidence);
        // A tuple that never matched a row.
        assert!(monitor.judge(0, &rule, 0, health(0, 0)).is_none());
    }

    #[test]
    fn removals_shrink_the_denominator() {
        let monitor = DriftMonitor::new(2, 0.3);
        let mut h = TupleHealth::default();
        // 10 clean matched rows, then 2 violating ones: confidence 10/12.
        for _ in 0..10 {
            h.record(false, 0, 0);
        }
        for _ in 0..2 {
            h.record(false, 1, 0);
        }
        assert!(monitor.judge(0, &pfd(), 0, h).is_none());
        // Deleting 8 clean rows leaves 2 violations in 4 matched rows:
        // confidence 0.5 < 0.7 → drifted.
        for _ in 0..8 {
            h.record(true, 0, 0);
        }
        assert_eq!(h.matched_rows, 4);
        assert!((h.confidence() - 0.5).abs() < 1e-12);
        assert!(monitor.judge(0, &pfd(), 0, h).is_some());
        // Deleting the violating rows (their violations retract) heals it.
        h.record(true, 0, 1);
        h.record(true, 0, 1);
        assert!(monitor.judge(0, &pfd(), 0, h).is_none());
        assert_eq!(h.live_violations, 0);
    }

    #[test]
    fn retractions_restore_confidence() {
        let monitor = DriftMonitor::new(2, 0.3);
        let mut h = TupleHealth::default();
        for _ in 0..10 {
            h.record(false, 1, 0);
        }
        assert!(monitor.judge(0, &pfd(), 0, h).is_some());
        // A majority flip retracts the violations: health recovers.
        h.record(false, 0, 10);
        assert!(monitor.judge(0, &pfd(), 0, h).is_none());
        assert_eq!(h.live_violations, 0);
    }

    #[test]
    fn one_row_violating_two_tuples_stays_within_zero_and_one() {
        // Both constant tuples match `90004`, and New York violates both:
        // judged per rule, that was one matched row and two violations
        // (confidence −1); per tuple it is one of one, twice.
        let constant = |pattern: &str, city: &str| {
            PatternTuple::constant(
                ConstrainedPattern::unconstrained(pattern.parse().unwrap()),
                city,
            )
        };
        let rule = Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![
                constant("900\\D{2}", "Los Angeles"),
                constant("90\\D{3}", "Pasadena"),
            ],
        );
        let config = StreamConfig {
            min_support: 1,
            ..StreamConfig::default()
        };
        let schema = Schema::new(["zip", "city"]).unwrap();
        let mut engine = StreamEngine::with_config(schema, vec![rule], config);
        let row = [Value::text("90004"), Value::text("New York")].to_vec();
        engine.apply([RowOp::Insert(row)]).unwrap();
        assert_eq!(engine.rule_health(0), &[health(1, 1), health(1, 1)]);
        let reports = engine.drift_report();
        assert_eq!(reports.len(), 2, "{reports:?}");
        for (tuple, report) in reports.iter().enumerate() {
            assert_eq!((report.rule, report.tuple), (0, tuple));
            assert!((0.0..=1.0).contains(&report.confidence));
            assert_eq!(report.confidence, 0.0);
        }
        assert_eq!(reports[1].pattern, "[zip = 90\\D{3}] → [city = Pasadena]");
    }
}
