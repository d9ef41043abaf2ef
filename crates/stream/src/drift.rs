//! Rule drift monitoring.
//!
//! Discovery accepts a rule when its dominant RHS reaches confidence
//! `1 − max_violation_ratio` over at least `min_support` rows. Live
//! traffic can invalidate that acceptance — a schema migration, an
//! upstream format change, or genuine data drift can push a rule's
//! observed violation ratio past what discovery would have tolerated.
//! The [`DriftMonitor`] recomputes the same statistic incrementally over
//! the stream, so decayed rules can be demoted to
//! `RuleStatus::Pending` for human re-review instead of silently
//! spraying false positives.

use anmat_core::Pfd;

/// Streaming health counters for one rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleHealth {
    /// Rows whose LHS matched at least one tableau tuple of the rule.
    pub matched_rows: usize,
    /// Violations the rule itself currently asserts (its creations minus
    /// its retractions). Counted per rule, independent of the ledger's
    /// cross-rule deduplication, so two rules implying the same
    /// violation each carry their own tally.
    pub live_violations: usize,
}

impl RuleHealth {
    /// `1 − live_violations / matched_rows` (1.0 with no matches yet) —
    /// the streaming analogue of the discovery decision function's
    /// confidence.
    #[must_use]
    pub fn confidence(&self) -> f64 {
        if self.matched_rows == 0 {
            return 1.0;
        }
        1.0 - self.live_violations as f64 / self.matched_rows as f64
    }
}

/// One drifted rule, with the numbers behind the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Index of the rule in the engine's seeded rule list.
    pub rule: usize,
    /// The rule's embedded FD, for display.
    pub dependency: String,
    /// Rows matched so far.
    pub matched_rows: usize,
    /// Live violations attributed to the rule.
    pub live_violations: usize,
    /// Observed streaming confidence.
    pub confidence: f64,
    /// The discovery threshold the rule fell below.
    pub min_confidence: f64,
}

/// Incrementally maintained per-rule health, judged against the
/// discovery thresholds.
#[derive(Debug)]
pub struct DriftMonitor {
    health: Vec<RuleHealth>,
    min_support: usize,
    min_confidence: f64,
}

impl DriftMonitor {
    /// A monitor for `rule_count` rules with the given discovery-style
    /// thresholds.
    #[must_use]
    pub fn new(rule_count: usize, min_support: usize, max_violation_ratio: f64) -> DriftMonitor {
        DriftMonitor {
            health: vec![RuleHealth::default(); rule_count],
            min_support,
            min_confidence: 1.0 - max_violation_ratio,
        }
    }

    /// Record one processed row for a rule: whether its LHS matched, and
    /// the violation deltas the row caused for that rule.
    pub fn observe(&mut self, rule: usize, matched: bool, created: usize, retracted: usize) {
        let h = &mut self.health[rule];
        if matched {
            h.matched_rows += 1;
        }
        h.live_violations = (h.live_violations + created).saturating_sub(retracted);
    }

    /// Record one *removed* row for a rule: the inverse of
    /// [`DriftMonitor::observe`]. The denominator shrinks with the
    /// stream — a rule judged over 1 000 matched rows of which 900 were
    /// later deleted is judged over the 100 that remain — and the
    /// violation deltas the removal caused (retractions for the row's
    /// own violations, plus any creations from a majority re-derive)
    /// keep the numerator exact.
    pub fn retire(&mut self, rule: usize, matched: bool, created: usize, retracted: usize) {
        let h = &mut self.health[rule];
        if matched {
            h.matched_rows = h.matched_rows.saturating_sub(1);
        }
        h.live_violations = (h.live_violations + created).saturating_sub(retracted);
    }

    /// Health counters for one rule.
    #[must_use]
    pub fn health(&self, rule: usize) -> RuleHealth {
        self.health[rule]
    }

    /// Judge one rule: a report if its streaming confidence fell below
    /// the discovery threshold (only once `min_support` rows matched).
    #[must_use]
    pub fn judge(&self, rule: usize, dependency: String) -> Option<DriftReport> {
        let h = self.health[rule];
        if h.matched_rows < self.min_support || h.confidence() >= self.min_confidence {
            return None;
        }
        Some(DriftReport {
            rule,
            dependency,
            matched_rows: h.matched_rows,
            live_violations: h.live_violations,
            confidence: h.confidence(),
            min_confidence: self.min_confidence,
        })
    }

    /// All drifted rules (see [`DriftMonitor::judge`]).
    #[must_use]
    pub fn drifted(&self, rules: &[Pfd]) -> Vec<DriftReport> {
        (0..self.health.len())
            .filter_map(|i| {
                self.judge(
                    i,
                    rules
                        .get(i)
                        .map(Pfd::embedded_fd)
                        .unwrap_or_else(|| format!("rule {i}")),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_rule_not_reported() {
        let mut m = DriftMonitor::new(1, 5, 0.3);
        for _ in 0..20 {
            m.observe(0, true, 0, 0);
        }
        m.observe(0, true, 1, 0); // one violation in 21 rows
        assert!(m.drifted(&[]).is_empty());
        assert!(m.health(0).confidence() > 0.9);
    }

    #[test]
    fn decayed_rule_reported_after_min_support() {
        let mut m = DriftMonitor::new(2, 5, 0.3);
        // Rule 0 violates on every row — but only 3 matches: not judged.
        for _ in 0..3 {
            m.observe(0, true, 1, 0);
        }
        assert!(m.drifted(&[]).is_empty());
        // Two more matched rows cross min_support; confidence 0 < 0.7.
        for _ in 0..2 {
            m.observe(0, true, 1, 0);
        }
        let drifted = m.drifted(&[]);
        assert_eq!(drifted.len(), 1);
        assert_eq!(drifted[0].rule, 0);
        assert_eq!(drifted[0].live_violations, 5);
        assert!(drifted[0].confidence < drifted[0].min_confidence);
    }

    #[test]
    fn retire_shrinks_the_denominator() {
        let mut m = DriftMonitor::new(1, 2, 0.3);
        // 10 clean matched rows, then 2 violating ones: confidence 10/12.
        for _ in 0..10 {
            m.observe(0, true, 0, 0);
        }
        for _ in 0..2 {
            m.observe(0, true, 1, 0);
        }
        assert!(m.drifted(&[]).is_empty());
        // Deleting 8 clean rows leaves 2 violations in 4 matched rows:
        // confidence 0.5 < 0.7 → drifted.
        for _ in 0..8 {
            m.retire(0, true, 0, 0);
        }
        let drifted = m.drifted(&[]);
        assert_eq!(drifted.len(), 1);
        assert_eq!(drifted[0].matched_rows, 4);
        assert!((drifted[0].confidence - 0.5).abs() < 1e-12);
        // Deleting the violating rows (their violations retract) heals it.
        m.retire(0, true, 0, 1);
        m.retire(0, true, 0, 1);
        assert!(m.drifted(&[]).is_empty());
        assert_eq!(m.health(0).live_violations, 0);
    }

    #[test]
    fn retractions_restore_confidence() {
        let mut m = DriftMonitor::new(1, 2, 0.3);
        for _ in 0..10 {
            m.observe(0, true, 1, 0);
        }
        assert_eq!(m.drifted(&[]).len(), 1);
        // Majority flips retract the violations: health recovers.
        m.observe(0, true, 0, 10);
        assert!(m.drifted(&[]).is_empty());
        assert_eq!(m.health(0).live_violations, 0);
    }
}
