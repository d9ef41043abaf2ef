//! PFD discovery — the algorithm of Figure 2.
//!
//! ```text
//! Algorithm Discover PFDs
//! Input : a relational table T, a decision function f, a minimum
//!         coverage threshold γ
//! Output: a set Ψ of PFDs
//! 1.  Φ := CandidateDependencies(T)              — profiling + pruning
//! 2.  Ψ := ∅
//! 3.  for each FD φ : (A → B) ∈ Φ:
//! 4.    H := ∅                                   — inverted list
//! 5–8.  fill H from Tokenize(t[A])|NGrams(t[A]) × Tokenize(t[B])…
//! 9–12. for each entry h ∈ H: if f(h) add a pattern tuple to Tp
//! 13–14. if coverage(Tp) ≥ γ: Ψ := Ψ ∪ {ψ}
//! ```
//!
//! Lines 5–8 here post each key of `t[A]` with its row and position
//! only, and the key is a slice of the cell it came from: the list
//! borrows the table and interns nothing. `f` scores an entry by the
//! whole values of `t[B]`, never by their tokens, so the miner reads
//! each row's RHS id from the table and counts the ids (a tie still
//! goes to the smaller string); no RHS token is extracted. An accepted
//! entry's context is read in place from its agreeing rows' values, one
//! slice pair per distinct value. The tuples lines 9–12 propose for one
//! column pair are validated together, in one walk of the LHS column
//! through a memo over their patterns, and coverage (line 13) counts
//! through a memo over the tableau's.
//!
//! The decision function `f` is support/confidence over an entry's RHS
//! distribution, with the user's *allowed-violation ratio* as the
//! confidence slack (§4 "Parameter Setting"): an entry becomes a constant
//! pattern tuple when at least `min_support` rows contain the key at a
//! consistent position and at least `1 − max_violation_ratio` of them
//! agree on the RHS value.
//!
//! Beyond the paper's pseudo-code (which only shows the constant case),
//! [`variable`] mines variable PFDs — λ4/λ5-style rules with a wildcard
//! RHS — by generating candidate constrained patterns from the column's
//! dominant signatures and validating them with lossless blocking.

pub mod constant;
pub mod context;
pub mod variable;

use crate::pfd::{Pfd, PfdKind};
use anmat_table::{Table, TableProfile};
use serde::{Deserialize, Serialize};

/// How the free context around a discovered key is rendered in the LHS
/// pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContextStyle {
    /// Induce the context pattern from the supporting values and loosen
    /// repetition counts (`Holloway, ` ⊔ `Kimbell, ` → `\LU\LL+,\ `).
    /// More specific than the paper's display, never wrong on the data.
    Induced,
    /// Render free context as `\A*` while preserving the separator
    /// characters adjacent to the key (`\A*,\ Donald\A*`) — the display
    /// style of the paper's Table 3.
    AnyString,
}

/// The settings of the discovery algorithm.
///
/// The two parameters the demo exposes (§4) are [`min_coverage`] and
/// [`max_violation_ratio`]. The other fields are the ones a caller sets:
/// the relation name, the support floor (the CLI's `--min-support`) and
/// the context style (its `--paper-style`).
///
/// The miner's other settings are constants ([`constant`]), since no
/// caller needs another value and each value is one the tests and the
/// benchmark run: n = 3 for n-grams, prefixes up to 4 characters, at most
/// 64 tuples per tableau, and a significance level of 0.05. Constant and
/// variable PFDs are both mined, one column pair at a time.
///
/// [`min_coverage`]: DiscoveryConfig::min_coverage
/// [`max_violation_ratio`]: DiscoveryConfig::max_violation_ratio
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveryConfig {
    /// Relation name stamped on discovered PFDs.
    pub relation: String,
    /// Minimum coverage γ: the ratio of LHS rows that must match at least
    /// one tableau pattern for the PFD to be reported.
    pub min_coverage: f64,
    /// Allowed-violation ratio: an entry/candidate may disagree with its
    /// dominant RHS on at most this fraction of supporting rows (the
    /// disagreements are exactly what detection later reports as errors).
    pub max_violation_ratio: f64,
    /// Minimum number of rows supporting an inverted-list entry before it
    /// can become a pattern tuple.
    pub min_support: usize,
    /// Context rendering style for constant-tuple LHS patterns.
    pub context_style: ContextStyle,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            relation: "T".into(),
            min_coverage: 0.6,
            max_violation_ratio: 0.3,
            min_support: 2,
            context_style: ContextStyle::Induced,
        }
    }
}

impl DiscoveryConfig {
    /// The minimum confidence an entry's dominant RHS must reach:
    /// `1 − max_violation_ratio`.
    #[must_use]
    pub fn min_confidence(&self) -> f64 {
        1.0 - self.max_violation_ratio
    }
}

/// Discover PFDs over every candidate column pair of `table`.
///
/// Implements the outer loop of Figure 2. Results are sorted by
/// `(lhs attribute, rhs attribute, kind)` for determinism.
#[must_use]
pub fn discover(table: &Table, config: &DiscoveryConfig) -> Vec<Pfd> {
    let profile = TableProfile::profile(table);
    let mut out = Vec::new();
    for (lhs, rhs) in profile.candidate_pairs() {
        out.extend(constant::mine_constant(table, &profile, lhs, rhs, config));
        out.extend(variable::mine_variable(table, &profile, lhs, rhs, config));
    }
    out.sort_by(|a, b| {
        (&a.lhs_attr, &a.rhs_attr, kind_rank(a.kind())).cmp(&(
            &b.lhs_attr,
            &b.rhs_attr,
            kind_rank(b.kind()),
        ))
    });
    out
}

fn kind_rank(k: PfdKind) -> u8 {
    match k {
        PfdKind::Constant => 0,
        PfdKind::Variable => 1,
        PfdKind::Mixed => 2,
    }
}
