//! Mining constant PFDs (the case spelled out in Figure 2).
//!
//! For a candidate dependency `A → B`, every inverted-list entry — a key
//! (token, n-gram or prefix of `t[A]`) at a consistent position — is
//! scored by the decision function: enough supporting rows, and a dominant
//! full RHS value with confidence at least `1 − allowed-violation-ratio`.
//! Passing entries propose tableau tuples `(context ⧺ key ⧺ context →
//! rhs)`. A column pair's proposals are re-validated against the whole
//! table (induced contexts can widen the match set) in one walk of the
//! LHS column through one [`TableauMemo`] over their patterns, minimized
//! under language containment (keep the most general pattern per RHS),
//! and the tableau is emitted as a PFD if its coverage reaches γ.

use super::context::{build_lhs_pattern, KeyContexts};
use super::DiscoveryConfig;
use crate::pfd::{PatternTuple, Pfd};
use anmat_index::{ExtractionMode, InvertedIndex, Posting, TableauMemo};
use anmat_pattern::{contains, ConstrainedPattern, Pattern};
use anmat_table::{for_each_token, Table, TableProfile, ValueId};
use fxhash::{FxHashMap, FxHashSet};
use std::cmp::Reverse;

/// n of the n-gram extraction mode.
const NGRAM_LEN: usize = 3;
/// Longest key of the prefix extraction mode.
const PREFIX_MAX: usize = 4;
/// Cap on tableau size per PFD (the most-supported tuples win).
const MAX_TABLEAU: usize = 64;
/// Significance level α for accepting an entry. With thousands of
/// candidate n-gram keys, a handful of rows agreeing on the RHS *by
/// chance* passes the confidence gate; an entry is kept only if
/// `base_rate^(support−1) · #keys ≤ α`, where `base_rate` is the dominant
/// RHS value's global frequency. Only applied to pairs with at least 100
/// considered rows: on demo-sized tables the statistic is meaningless and
/// every confident entry is kept.
const SIGNIFICANCE: f64 = 0.05;

/// A proposed tuple: an LHS pattern and the dominant RHS value of the
/// entry that induced it.
type Proposal = (Pattern, ValueId);

/// What validation counts for one proposal over the live rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    /// Rows whose LHS value matches the pattern.
    matched: usize,
    /// Those whose RHS is not null.
    with_rhs: usize,
    /// Those whose RHS is the proposal's dominant value.
    agreeing: usize,
}

impl Tally {
    /// The decision function over the whole table: enough rows bear an
    /// RHS, and enough of them agree with the dominant value.
    fn passes(&self, config: &DiscoveryConfig) -> bool {
        self.with_rhs >= config.min_support
            && (self.agreeing as f64) >= config.min_confidence() * self.with_rhs as f64
    }
}

/// A validated candidate tuple with bookkeeping for minimization.
struct Candidate {
    pattern: Pattern,
    /// The pattern's specificity and text, computed once for the sorts.
    specificity: u32,
    text: String,
    rhs: String,
    /// Rows matching the pattern (from validation).
    support: usize,
}

/// Mine the constant-PFD tableau for one column pair.
pub(crate) fn mine_constant(
    table: &Table,
    profile: &TableProfile,
    lhs: usize,
    rhs: usize,
    config: &DiscoveryConfig,
) -> Vec<Pfd> {
    let lhs_profile = &profile.columns[lhs];
    let modes: Vec<ExtractionMode> = if lhs_profile.is_single_token() {
        vec![
            ExtractionMode::Prefixes(PREFIX_MAX),
            ExtractionMode::NGrams(NGRAM_LEN),
        ]
    } else {
        vec![ExtractionMode::Tokens]
    };

    // Proposals in the order first proposed, one per (pattern text,
    // dominant) signature.
    let mut proposals: Vec<Proposal> = Vec::new();
    let mut seen: FxHashSet<(String, ValueId)> = FxHashSet::default();

    // Global RHS distribution for the significance test.
    let mut rhs_global: FxHashMap<ValueId, usize> = FxHashMap::default();
    let mut pair_rows = 0usize;
    for (row, found) in table.iter_column(rhs) {
        if !found.is_null() && !table.cell_id(row, lhs).is_null() {
            *rhs_global.entry(found).or_insert(0) += 1;
            pair_rows += 1;
        }
    }

    // Scratch reused across groups: a key's postings by position, one
    // group's RHS counts, and its agreeing rows' distinct LHS values.
    let mut by_pos: Vec<Posting> = Vec::new();
    let mut rhs_counts: FxHashMap<ValueId, usize> = FxHashMap::default();
    let mut values: Vec<ValueId> = Vec::new();
    for mode in modes {
        let inv = InvertedIndex::build(table, lhs, rhs, mode);
        let key_count = inv.key_count();
        let mut keys: Vec<(&str, usize)> = inv.frequent_keys(config.min_support);
        keys.truncate(10_000); // cost cap on pathological columns
        for (key, _) in keys {
            // Postings are in row order; the stable sort keeps each
            // position's rows ascending. A key occurs at most once per
            // (row, position), so a group's postings are distinct rows.
            by_pos.clear();
            by_pos.extend_from_slice(inv.postings(key));
            by_pos.sort_by_key(|p| p.lhs_pos);
            for group in by_pos.chunk_by(|a, b| a.lhs_pos == b.lhs_pos) {
                if group.len() < config.min_support {
                    continue;
                }
                let pos = group[0].lhs_pos;
                // RHS distribution over the group's rows, all of which
                // bear an RHS (the list skips rows null on either side).
                rhs_counts.clear();
                for p in group {
                    *rhs_counts.entry(table.cell_id(p.row, rhs)).or_insert(0) += 1;
                }
                let Some((dominant, dom_count)) = most_frequent(&rhs_counts) else {
                    continue;
                };
                if (dom_count as f64) < config.min_confidence() * group.len() as f64 {
                    continue;
                }
                // Significance: with many candidate keys, small groups can
                // agree on the RHS by chance. Expected false discoveries
                // for this entry ≈ base_rate^(support−1) · #keys.
                if pair_rows >= 100 {
                    let base =
                        rhs_global.get(&dominant).copied().unwrap_or(0) as f64 / pair_rows as f64;
                    let chance = base.powi(dom_count.saturating_sub(1) as i32) * key_count as f64;
                    if chance > SIGNIFICANCE {
                        continue;
                    }
                }
                // Contexts from the agreeing rows only, so injected errors
                // cannot distort the learned pattern; one per distinct LHS
                // value (see `context` for why that is exact).
                values.clear();
                values.extend(
                    group
                        .iter()
                        .filter(|p| table.cell_id(p.row, rhs) == dominant)
                        .map(|p| table.cell_id(p.row, lhs)),
                );
                values.sort_unstable();
                values.dedup();
                let mut contexts = KeyContexts::default();
                for value in values.iter().map(|v| v.render()) {
                    if let Some((before, after)) = split_at_occurrence(value, key, pos, mode) {
                        contexts.push(before, after);
                    }
                }
                if contexts.is_empty() {
                    continue;
                }
                let pattern = build_lhs_pattern(key, &contexts, config.context_style);
                if seen.insert((pattern.to_string(), dominant)) {
                    proposals.push((pattern, dominant));
                }
            }
        }
    }

    // Re-validate against the full table: an induced pattern may match
    // rows outside its supporting set.
    let tableau = minimize(validate(table, lhs, rhs, proposals, config));
    if tableau.is_empty() {
        return Vec::new();
    }
    let pfd = Pfd::new(
        config.relation.clone(),
        table.schema().name(lhs),
        table.schema().name(rhs),
        tableau,
    );
    if pfd.coverage(table) >= config.min_coverage {
        vec![pfd]
    } else {
        Vec::new()
    }
}

/// The most frequent value of a group, with its count. A tie goes to
/// the lexicographically smallest string, never to the smallest id
/// (which is only the order values were first interned in).
fn most_frequent(counts: &FxHashMap<ValueId, usize>) -> Option<(ValueId, usize)> {
    counts
        .iter()
        .map(|(&value, &count)| (value, count))
        .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then_with(|| vb.render().cmp(va.render())))
}

/// Split `value` into (before, after) around the key occurrence at `pos`.
///
/// Positions are token indices for token mode and char offsets otherwise
/// (matching [`ExtractionMode::for_each_key`]). Returns `None` when the
/// occurrence cannot be located (value changed shape). Allocates nothing:
/// it finds the occurrence's byte start and compares the key there.
fn split_at_occurrence<'v>(
    value: &'v str,
    key: &str,
    pos: usize,
    mode: ExtractionMode,
) -> Option<(&'v str, &'v str)> {
    let start = match mode {
        ExtractionMode::Tokens => {
            let mut start = None;
            for_each_token(value, |token, index| {
                if index == pos && token == key {
                    // Tokens are slices of `value`.
                    start = Some(token.as_ptr() as usize - value.as_ptr() as usize);
                }
            });
            start?
        }
        ExtractionMode::NGrams(_) | ExtractionMode::Prefixes(_) => value.char_indices().nth(pos)?.0,
    };
    let end = start + key.len();
    (value.get(start..end)? == key).then(|| (&value[..start], &value[end..]))
}

/// Count, for every proposal at once, the live rows its pattern matches
/// and their RHS: one walk of the LHS column through one memo over the
/// proposals' patterns, which classifies each distinct value once
/// against only the patterns whose literal prefix it starts with.
fn tally(table: &Table, lhs: usize, rhs: usize, proposals: &[Proposal]) -> Vec<Tally> {
    let mut memo = TableauMemo::new(proposals.iter().map(|(pattern, _)| Some(pattern)));
    let mut tallies = vec![Tally::default(); proposals.len()];
    for (row, value) in table.iter_column(lhs) {
        let members = memo.matches(value);
        if members.is_empty() {
            continue;
        }
        let found = table.cell_id(row, rhs);
        for &m in members {
            let tally = &mut tallies[m as usize];
            tally.matched += 1;
            if !found.is_null() {
                tally.with_rhs += 1;
                tally.agreeing += usize::from(found == proposals[m as usize].1);
            }
        }
    }
    tallies
}

/// The proposals that pass the decision function over the whole table,
/// in proposal order.
fn validate(
    table: &Table,
    lhs: usize,
    rhs: usize,
    proposals: Vec<Proposal>,
    config: &DiscoveryConfig,
) -> Vec<Candidate> {
    let tallies = tally(table, lhs, rhs, &proposals);
    proposals
        .into_iter()
        .zip(tallies)
        .filter(|(_, tally)| tally.passes(config))
        .map(|((pattern, dominant), tally)| Candidate {
            specificity: pattern.specificity(),
            text: pattern.to_string(),
            pattern,
            rhs: dominant.render().to_string(),
            support: tally.matched,
        })
        .collect()
}

/// Keep the most general pattern per RHS value; drop contained duplicates;
/// cap the tableau size by support.
fn minimize(mut candidates: Vec<Candidate>) -> Vec<PatternTuple> {
    // Most general first (lower specificity = more general), then higher
    // support.
    candidates.sort_by(|a, b| {
        (a.specificity, Reverse(a.support), &a.text).cmp(&(
            b.specificity,
            Reverse(b.support),
            &b.text,
        ))
    });
    let mut kept: Vec<Candidate> = Vec::new();
    'outer: for c in candidates {
        for k in &kept {
            if k.rhs == c.rhs && contains(&k.pattern, &c.pattern) {
                continue 'outer; // already covered by a more general tuple
            }
        }
        kept.push(c);
    }
    kept.sort_by(|a, b| (Reverse(a.support), &a.text).cmp(&(Reverse(b.support), &b.text)));
    kept.truncate(MAX_TABLEAU);
    kept.into_iter()
        .map(|c| PatternTuple::constant(ConstrainedPattern::unconstrained(c.pattern), c.rhs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::ContextStyle;
    use crate::pfd::RhsCell;
    use anmat_table::{Schema, ValuePool};

    fn cfg() -> DiscoveryConfig {
        DiscoveryConfig {
            min_support: 2,
            max_violation_ratio: 0.4,
            min_coverage: 0.5,
            ..DiscoveryConfig::default()
        }
    }

    fn mine(table: &Table, config: &DiscoveryConfig) -> Vec<Pfd> {
        let profile = TableProfile::profile(table);
        mine_constant(table, &profile, 0, 1, config)
    }

    #[test]
    fn paper_table1_name_gender() {
        // D1: λ1/λ2 should emerge (John → M, Susan → F) despite r4's error.
        let t = Table::from_str_rows(
            Schema::new(["name", "gender"]).unwrap(),
            [
                ["John Charles", "M"],
                ["John Bosco", "M"],
                ["Susan Orlean", "F"],
                ["Susan Boyle", "M"], // error tolerated by the ratio
            ],
        )
        .unwrap();
        let pfds = mine(&t, &cfg());
        assert_eq!(pfds.len(), 1);
        let rendered = pfds[0].to_string();
        assert!(rendered.contains("John"), "{rendered}");
        assert!(
            rendered.contains("gender = M"),
            "John should determine M: {rendered}"
        );
    }

    #[test]
    fn paper_table2_zip_city() {
        // D2: λ3 (900xx → Los Angeles).
        let t = Table::from_str_rows(
            Schema::new(["zip", "city"]).unwrap(),
            [
                ["90001", "Los Angeles"],
                ["90002", "Los Angeles"],
                ["90003", "Los Angeles"],
                ["90004", "New York"], // error
            ],
        )
        .unwrap();
        let pfds = mine(&t, &cfg());
        assert_eq!(pfds.len(), 1);
        let pfd = &pfds[0];
        assert!(pfd.to_string().contains("Los Angeles"), "{pfd}");
        // The winning pattern should cover all four zips.
        assert!(pfd.coverage(&t) >= 0.99, "coverage {}", pfd.coverage(&t));
    }

    #[test]
    fn context_from_agreeing_rows_only() {
        // The error row has a different LHS shape; it must not poison the
        // learned pattern.
        let t = Table::from_str_rows(
            Schema::new(["code", "dept"]).unwrap(),
            [
                ["F-101", "Finance"],
                ["F-102", "Finance"],
                ["F-103", "Finance"],
                ["F-1x4", "Sales"], // shape-breaking error row
            ],
        )
        .unwrap();
        let mut c = cfg();
        c.max_violation_ratio = 0.3;
        let pfds = mine(&t, &c);
        assert_eq!(pfds.len(), 1, "{pfds:?}");
        let s = pfds[0].to_string();
        assert!(s.contains("Finance"), "{s}");
    }

    #[test]
    fn no_pfd_when_rhs_random() {
        let t = Table::from_str_rows(
            Schema::new(["a", "b"]).unwrap(),
            [
                ["tok x1", "p"],
                ["tok x2", "q"],
                ["tok x3", "r"],
                ["tok x4", "s"],
            ],
        )
        .unwrap();
        let mut c = cfg();
        c.max_violation_ratio = 0.1;
        // "tok" appears everywhere but its RHS confidence is 1/4; the
        // unique suffix tokens have support 1 < min_support.
        assert!(mine(&t, &c).is_empty());
    }

    #[test]
    fn coverage_gate_blocks_narrow_tableaux() {
        let t = Table::from_str_rows(
            Schema::new(["name", "flag"]).unwrap(),
            [
                ["aa one", "1"],
                ["aa two", "1"],
                ["bb three", "2"],
                ["cc four", "3"],
                ["dd five", "4"],
                ["ee six", "5"],
            ],
        )
        .unwrap();
        let mut c = cfg();
        c.min_coverage = 0.9; // "aa ..." covers only 1/3 of rows
        assert!(mine(&t, &c).is_empty());
        c.min_coverage = 0.3;
        assert_eq!(mine(&t, &c).len(), 1);
    }

    #[test]
    fn count_ties_break_to_the_smaller_string_not_the_smaller_id() {
        // Interned first, so the larger string holds the smaller id.
        let larger = ValuePool::intern("tie-break pin: zulu");
        let smaller = ValuePool::intern("tie-break pin: alpha");
        assert!(smaller > larger);
        let t = Table::from_str_rows(
            Schema::new(["code", "label"]).unwrap(),
            [
                ["tok one", "tie-break pin: zulu"],
                ["tok two", "tie-break pin: alpha"],
                ["tok three", "tie-break pin: zulu"],
                ["tok four", "tie-break pin: alpha"],
            ],
        )
        .unwrap();
        let mut c = cfg();
        c.max_violation_ratio = 0.5;
        // "tok" at position 0 is the one group with support; its two
        // labels tie 2–2.
        let pfds = mine(&t, &c);
        assert_eq!(pfds.len(), 1, "{pfds:?}");
        let rhs: Vec<&RhsCell> = pfds[0].tableau.iter().map(|t| &t.rhs).collect();
        assert_eq!(
            rhs,
            [&RhsCell::Constant("tie-break pin: alpha".into())],
            "{}",
            pfds[0]
        );
    }

    #[test]
    fn split_at_occurrence_modes() {
        assert_eq!(
            split_at_occurrence("Holloway, Donald E.", "Donald", 1, ExtractionMode::Tokens),
            Some(("Holloway, ", " E."))
        );
        assert_eq!(
            split_at_occurrence("90001", "900", 0, ExtractionMode::Prefixes(3)),
            Some(("", "01"))
        );
        assert_eq!(
            split_at_occurrence("F-9-107", "9-1", 2, ExtractionMode::NGrams(3)),
            Some(("F-", "07"))
        );
        // Mismatch cases.
        assert_eq!(
            split_at_occurrence("ab", "zz", 0, ExtractionMode::Prefixes(2)),
            None
        );
        assert_eq!(
            split_at_occurrence("one two", "three", 1, ExtractionMode::Tokens),
            None
        );
    }

    #[test]
    fn anystring_style_produces_paper_shapes() {
        let t = Table::from_str_rows(
            Schema::new(["name", "gender"]).unwrap(),
            [
                ["Holloway, Donald E.", "M"],
                ["Kimbell, Donald", "M"],
                ["Jones, Stacey R.", "F"],
                ["Smith, Stacey", "F"],
            ],
        )
        .unwrap();
        let mut c = cfg();
        c.context_style = ContextStyle::AnyString;
        c.max_violation_ratio = 0.1;
        let pfds = mine(&t, &c);
        assert_eq!(pfds.len(), 1);
        let s = pfds[0].to_string();
        assert!(
            s.contains("\\A*,\\ Donald\\A*") || s.contains("\\A*,\\ Donald"),
            "expected paper-style pattern, got: {s}"
        );
    }

    /// An independent oracle for candidate validation: each proposal's
    /// tally and verdict, held to a scan that asks the AST interpreter
    /// (`match_pattern`) about every live row for that proposal alone,
    /// with no memo, prefix or compiled code.
    mod validation_oracle {
        use super::*;
        use anmat_pattern::match_pattern;
        use anmat_table::Value;
        use proptest::prelude::*;

        /// Literal heads: equal (drawn more than once), nested (`a` ⊂
        /// `ab` ⊂ `abc`, `é` ⊂ `éa`), multibyte, and none.
        const HEADS: [&str; 6] = ["", "a", "ab", "abc", "é", "éa"];
        /// What follows a head: fixed, variable and empty tails.
        const TAILS: [&str; 5] = ["", "\\A*", "\\LL+", "\\D{1,2}", "\\LL*\\D*"];
        /// Dominant RHS values.
        const DOMINANTS: [&str; 3] = ["x", "y", "zé"];

        fn any_proposal() -> impl Strategy<Value = Proposal> {
            (0..HEADS.len(), 0..TAILS.len(), 0..DOMINANTS.len()).prop_map(|(h, t, d)| {
                let pattern = format!("{}{}", HEADS[h], TAILS[t]);
                (
                    pattern.parse().expect("fixture pattern parses"),
                    ValuePool::intern(DOMINANTS[d]),
                )
            })
        }

        /// 1..8 proposals, then the first one's pattern again under
        /// another dominant value.
        fn any_proposals() -> impl Strategy<Value = Vec<Proposal>> {
            prop::collection::vec(any_proposal(), 1..8).prop_map(|mut proposals| {
                let (pattern, dominant) = proposals[0].clone();
                let other = DOMINANTS
                    .iter()
                    .map(|d| ValuePool::intern(d))
                    .find(|&d| d != dominant)
                    .expect("several dominants");
                proposals.push((pattern, other));
                proposals
            })
        }

        /// One cell: null, the empty (non-null) string, a value built on
        /// a head, or a dominant.
        fn any_cell() -> impl Strategy<Value = Value> {
            prop_oneof![
                Just(Value::Null),
                Just(Value::text("")),
                (0..HEADS.len(), "[abcé1 -]{0,3}")
                    .prop_map(|(h, tail)| Value::text(format!("{}{tail}", HEADS[h]))),
                (0..DOMINANTS.len()).prop_map(|d| Value::text(DOMINANTS[d])),
            ]
        }

        /// Rows of `(lhs, rhs)` cells, some of them deleted.
        fn any_table() -> impl Strategy<Value = Table> {
            (
                prop::collection::vec((any_cell(), any_cell()), 0..24),
                prop::collection::vec(0usize..24, 0..6),
            )
                .prop_map(|(rows, deletes)| {
                    let mut table = Table::empty(Schema::new(["code", "label"]).unwrap());
                    for (lhs, rhs) in rows {
                        table.push_row(vec![lhs, rhs]).unwrap();
                    }
                    for row in deletes {
                        if row < table.row_count() && table.is_live(row) {
                            table.delete_row(row).unwrap();
                        }
                    }
                    table
                })
        }

        /// The interpreter's tally of one proposal over the live rows.
        fn scan(table: &Table, (pattern, dominant): &Proposal) -> Tally {
            let mut tally = Tally::default();
            for row in table.iter_live() {
                let Some(value) = table.cell_str(row, 0) else {
                    continue;
                };
                if !match_pattern(pattern, value) {
                    continue;
                }
                tally.matched += 1;
                if let Some(found) = table.cell_str(row, 1) {
                    tally.with_rhs += 1;
                    if found == dominant.render() {
                        tally.agreeing += 1;
                    }
                }
            }
            tally
        }

        proptest! {
            /// Every proposal's matched, RHS-bearing and agreeing rows
            /// equal the interpreter's scan, and validation keeps exactly
            /// the proposals whose scan passes, in order, with the matched
            /// rows as their support.
            #[test]
            fn validation_equals_a_per_candidate_interpreter_scan(
                proposals in any_proposals(),
                table in any_table(),
                min_support in 1usize..4,
                slack in 0usize..4,
            ) {
                let config = DiscoveryConfig {
                    min_support,
                    max_violation_ratio: slack as f64 / 4.0,
                    ..DiscoveryConfig::default()
                };
                let scanned: Vec<Tally> = proposals.iter().map(|p| scan(&table, p)).collect();
                prop_assert_eq!(tally(&table, 0, 1, &proposals), scanned.clone());
                let expected: Vec<(String, String, usize)> = proposals
                    .iter()
                    .zip(&scanned)
                    .filter(|(_, t)| {
                        t.with_rhs >= min_support
                            && t.agreeing as f64 >= (1.0 - config.max_violation_ratio) * t.with_rhs as f64
                    })
                    .map(|((p, d), t)| (p.to_string(), d.render().to_string(), t.matched))
                    .collect();
                let kept: Vec<(String, String, usize)> = validate(&table, 0, 1, proposals, &config)
                    .into_iter()
                    .map(|c| (c.pattern.to_string(), c.rhs, c.support))
                    .collect();
                prop_assert_eq!(kept, expected);
            }
        }
    }
}
