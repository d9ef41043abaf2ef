//! Mining variable PFDs (wildcard RHS — λ4/λ5 of the paper).
//!
//! A variable PFD asserts that rows agreeing on a *constrained part* of
//! the LHS pattern agree on the RHS, without naming any constant. The
//! search space of constrained patterns is generated from the column's own
//! structure:
//!
//! * **prefix splits** — for a fixed-length dominant signature such as
//!   `\D{5}`, every split `[\D{k}]\D{5−k}` (λ5: the first 3 digits of a
//!   zip determine the city);
//! * **token anchors** — for multi-token columns, constrain token `i` with
//!   its induced signature, anchoring tokens `0..i` with theirs
//!   (λ4: `[\LU\LL*\ ]\A*`, the first name determines the gender).
//!
//! Candidates are validated with lossless blocking
//! ([`BlockingIndex`]): coverage is the fraction of rows matching the
//! embedded pattern, and the violation ratio is measured over rows in
//! blocks of size ≥ 2 (singleton blocks assert nothing). Among passing
//! candidates, restrictions of other passing candidates are dropped — the
//! most general rule wins, as in the paper's preference for `λ4` over an
//! enumeration of `λ1, λ2, …`.

use super::DiscoveryConfig;
use crate::pfd::{PatternTuple, Pfd};
use anmat_index::BlockingIndex;
use anmat_pattern::{
    induce, loosen, ConstrainedPattern, Element, Pattern, PatternLevel, Quantifier, Segment,
};
use anmat_table::{for_each_token, Table, TableProfile};
use std::collections::HashMap;

/// Mine variable PFDs for one column pair.
pub(crate) fn mine_variable(
    table: &Table,
    profile: &TableProfile,
    lhs: usize,
    rhs: usize,
    config: &DiscoveryConfig,
) -> Vec<Pfd> {
    // Each family is ordered most-general-first (e.g. prefix splits by
    // ascending split point); the first passing member wins the family —
    // agreeing on `\D{3}` implies agreeing on `\D{1}`, so once a general
    // split holds, its restrictions are redundant.
    let families = generate_candidates(table, profile, lhs, config);
    let mut passing: Vec<ConstrainedPattern> = Vec::new();
    for family in families {
        for q in family {
            if evaluate(table, lhs, rhs, &q, config) {
                passing.push(q);
                break;
            }
        }
    }
    // Cross-family domination: drop candidates that are restrictions of
    // another passing candidate.
    let mut kept: Vec<ConstrainedPattern> = Vec::new();
    for q in &passing {
        let dominated = passing
            .iter()
            .any(|other| other != q && q.is_restriction_of(other) && !other.is_restriction_of(q));
        if !dominated {
            kept.push(q.clone());
        }
    }
    kept.sort_by_key(ToString::to_string);
    kept.dedup();
    if kept.is_empty() {
        return Vec::new();
    }
    let tableau: Vec<PatternTuple> = kept.into_iter().map(PatternTuple::variable).collect();
    vec![Pfd::new(
        config.relation.clone(),
        table.schema().name(lhs),
        table.schema().name(rhs),
        tableau,
    )]
}

/// Generate candidate families from the LHS column structure. Families are
/// ordered most-general-first.
fn generate_candidates(
    table: &Table,
    profile: &TableProfile,
    lhs: usize,
    config: &DiscoveryConfig,
) -> Vec<Vec<ConstrainedPattern>> {
    let lhs_profile = &profile.columns[lhs];
    let mut out: Vec<Vec<ConstrainedPattern>> = Vec::new();
    if lhs_profile.is_single_token() {
        // One family per dominant fixed-length signature: its prefix
        // splits, shortest (most general) first.
        if let Some(hist) = lhs_profile.histogram(PatternLevel::ClassExact) {
            let total: usize = hist.entries.iter().map(|(_, c)| c).sum();
            for (sig, count) in &hist.entries {
                if (*count as f64) < config.min_coverage * total as f64 {
                    continue; // this signature alone cannot reach γ
                }
                if !sig.is_fixed_length() {
                    continue;
                }
                let len = sig.min_len();
                let family: Vec<ConstrainedPattern> = (1..len)
                    .filter_map(|k| {
                        let (prefix, suffix) = split_fixed(sig, k)?;
                        ConstrainedPattern::new(vec![
                            Segment::constrained(prefix),
                            Segment::free(suffix),
                        ])
                        .ok()
                    })
                    .collect();
                if !family.is_empty() {
                    out.push(family);
                }
            }
        }
    } else {
        // Each token anchor is its own (singleton) family.
        out.extend(
            token_anchor_candidates(table, lhs)
                .into_iter()
                .map(|q| vec![q]),
        );
    }
    out
}

/// Split a fixed-length pattern at character position `k`.
fn split_fixed(sig: &Pattern, k: usize) -> Option<(Pattern, Pattern)> {
    let mut prefix: Vec<Element> = Vec::new();
    let mut suffix: Vec<Element> = Vec::new();
    let mut consumed = 0usize;
    for e in sig.elements() {
        let (min, max) = e.quant.interval();
        if max != Some(min) {
            return None; // not fixed-length
        }
        let n = min as usize;
        if consumed >= k {
            suffix.push(*e);
        } else if consumed + n <= k {
            prefix.push(*e);
        } else {
            // Split inside this element.
            let left = (k - consumed) as u32;
            let right = min - left;
            if left > 0 {
                prefix.push(Element::new(
                    e.class,
                    Quantifier::from_interval(left, Some(left)).ok()?,
                ));
            }
            if right > 0 {
                suffix.push(Element::new(
                    e.class,
                    Quantifier::from_interval(right, Some(right)).ok()?,
                ));
            }
        }
        consumed += n;
    }
    Some((Pattern::new(prefix), Pattern::new(suffix)))
}

/// Token-anchored candidates: constrain token `i`, anchor tokens before it
/// with their induced signatures, free tail.
fn token_anchor_candidates(table: &Table, lhs: usize) -> Vec<ConstrainedPattern> {
    const MAX_ANCHOR: usize = 3;
    // Collect per-position token samples.
    let mut samples: Vec<Vec<String>> = Vec::new();
    let mut min_tokens = usize::MAX;
    let mut rows_seen = 0usize;
    for (_, v) in table.iter_column(lhs) {
        let Some(s) = v.as_str() else { continue };
        rows_seen += 1;
        let mut tokens = 0;
        for_each_token(s, |token, index| {
            tokens += 1;
            if index >= MAX_ANCHOR {
                return;
            }
            if samples.len() <= index {
                samples.resize_with(index + 1, Vec::new);
            }
            if samples[index].len() < 64 {
                samples[index].push(token.to_string());
            }
        });
        min_tokens = min_tokens.min(tokens);
    }
    if rows_seen == 0 || min_tokens == usize::MAX || min_tokens == 0 {
        return Vec::new();
    }
    // Widen only variance-showing intervals; keep exact counts structural
    // (see `context::context_pattern` for the rationale).
    let sigs: Vec<Pattern> = samples
        .iter()
        .map(|toks| {
            let refs: Vec<&str> = toks.iter().map(String::as_str).collect();
            loosen(&induce(&refs), u32::MAX)
        })
        .collect();
    let space = Pattern::literal(" ");
    let tail = Pattern::any_string();
    let mut out = Vec::new();
    // Constrain token i for i = 0 .. min(min_tokens, MAX_ANCHOR); only
    // positions every row has can anchor.
    for i in 0..min_tokens.min(MAX_ANCHOR).min(sigs.len()) {
        let mut segments: Vec<Segment> = Vec::new();
        for sig in sigs.iter().take(i) {
            segments.push(Segment::free(sig.concat(&space)));
        }
        // The constrained token, including its trailing separator when more
        // tokens follow (the paper's Q1 constrains `\LU\LL*\ ` — first
        // name *with* the space, guaranteeing a whole-token match).
        if min_tokens > i + 1 {
            segments.push(Segment::constrained(sigs[i].concat(&space)));
            segments.push(Segment::free(tail.clone()));
        } else {
            // Last guaranteed token: rows may end here or continue.
            segments.push(Segment::constrained(sigs[i].clone()));
            segments.push(Segment::free(tail.clone()));
        }
        if let Ok(q) = ConstrainedPattern::new(segments) {
            out.push(q);
        }
    }
    out
}

/// Validate a candidate with blocking: coverage ≥ γ, violation ratio over
/// multi-row blocks ≤ the allowed ratio, and enough co-blocked rows for
/// the rule to assert anything.
fn evaluate(
    table: &Table,
    lhs: usize,
    rhs: usize,
    q: &ConstrainedPattern,
    config: &DiscoveryConfig,
) -> bool {
    let blocks = BlockingIndex::block(table, lhs, Some(q));
    let non_null = blocks.matched_rows() + blocks.unmatched.len();
    if non_null == 0 {
        return false;
    }
    let coverage = blocks.matched_rows() as f64 / non_null as f64;
    if coverage < config.min_coverage {
        return false;
    }
    let mut multi_rows = 0usize;
    let mut violations = 0usize;
    for (_, rows) in &blocks.blocks {
        if rows.len() < 2 {
            continue;
        }
        let mut counts: HashMap<&str, usize> = HashMap::new();
        let mut with_rhs = 0usize;
        for &row in rows {
            if let Some(v) = table.cell_str(row, rhs) {
                *counts.entry(v).or_insert(0) += 1;
                with_rhs += 1;
            }
        }
        if with_rhs < 2 {
            continue;
        }
        let mut sorted: Vec<usize> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let majority = sorted.first().copied().unwrap_or(0);
        let runner_up = sorted.get(1).copied().unwrap_or(0);
        // Ambiguity gate: isolated errors leave a *small* disagreeing
        // remainder; a large consistent runner-up group (e.g. area codes
        // 212/NY and 217/IL co-blocked under the prefix `21`) means the
        // pattern genuinely under-determines the RHS. Reject the whole
        // candidate rather than flag hundreds of clean rows as errors.
        if runner_up as f64 > (config.max_violation_ratio * with_rhs as f64).max(1.0) {
            return false;
        }
        multi_rows += with_rhs;
        violations += with_rhs - majority;
    }
    if multi_rows < config.min_support {
        return false; // no block ever pairs rows: the rule asserts nothing
    }
    (violations as f64) <= config.max_violation_ratio * multi_rows as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use anmat_table::Schema;

    fn cfg() -> DiscoveryConfig {
        DiscoveryConfig {
            min_support: 2,
            max_violation_ratio: 0.3,
            min_coverage: 0.5,
            ..DiscoveryConfig::default()
        }
    }

    fn mine(table: &Table, config: &DiscoveryConfig) -> Vec<Pfd> {
        let profile = TableProfile::profile(table);
        mine_variable(table, &profile, 0, 1, config)
    }

    #[test]
    fn paper_lambda4_first_name_determines_gender() {
        let t = Table::from_str_rows(
            Schema::new(["name", "gender"]).unwrap(),
            [
                ["John Charles", "M"],
                ["John Bosco", "M"],
                ["Susan Orlean", "F"],
                ["Susan Boyle", "F"],
                ["Alice May", "F"],
                ["Alice Stone", "F"],
            ],
        )
        .unwrap();
        let pfds = mine(&t, &cfg());
        assert_eq!(pfds.len(), 1, "{pfds:?}");
        let s = pfds[0].to_string();
        // First token constrained, tail free.
        assert!(s.contains("[\\LU\\LL+\\ ]"), "{s}");
    }

    #[test]
    fn paper_lambda5_zip_prefix_determines_city() {
        // Cities share 1- and 2-digit prefixes (90.0xx = LA, 90.8xx = Long
        // Beach), so the most general *passing* split is exactly k = 3.
        let t = Table::from_str_rows(
            Schema::new(["zip", "city"]).unwrap(),
            [
                ["90001", "Los Angeles"],
                ["90002", "Los Angeles"],
                ["90003", "Los Angeles"],
                ["90801", "Long Beach"],
                ["90802", "Long Beach"],
                ["60601", "Chicago"],
                ["60602", "Chicago"],
            ],
        )
        .unwrap();
        // 2 of 7 co-blocked rows clash at k ≤ 2 (LA vs Long Beach under
        // "9"/"90"): a tight ratio rejects those splits, leaving k = 3.
        let mut c = cfg();
        c.max_violation_ratio = 0.1;
        let pfds = mine(&t, &c);
        assert_eq!(pfds.len(), 1, "{pfds:?}");
        let s = pfds[0].to_string();
        assert!(s.contains("[\\D{3}]\\D{2}"), "{s}");
        assert!(!s.contains("[\\D{4}]\\D"), "{s}");
        assert!(!s.contains("[\\D]"), "{s}");
    }

    #[test]
    fn most_general_split_wins() {
        // First digit already determines the city → k = 1 wins.
        let t = Table::from_str_rows(
            Schema::new(["zip", "city"]).unwrap(),
            [
                ["90001", "Los Angeles"],
                ["90002", "Los Angeles"],
                ["60601", "Chicago"],
                ["60602", "Chicago"],
            ],
        )
        .unwrap();
        let pfds = mine(&t, &cfg());
        assert_eq!(pfds.len(), 1);
        let s = pfds[0].to_string();
        assert!(s.contains("[\\D]\\D{4}"), "{s}");
    }

    #[test]
    fn violation_tolerance_admits_dirty_data() {
        let t = Table::from_str_rows(
            Schema::new(["zip", "city"]).unwrap(),
            [
                ["90001", "Los Angeles"],
                ["90002", "Los Angeles"],
                ["90003", "Los Angeles"],
                ["90004", "New York"], // error
                ["60601", "Chicago"],
                ["60602", "Chicago"],
                ["60603", "Chicago"],
                ["60604", "Chicago"],
            ],
        )
        .unwrap();
        let mut c = cfg();
        c.max_violation_ratio = 0.2; // 1 bad of 8 co-blocked rows
        let pfds = mine(&t, &c);
        assert_eq!(pfds.len(), 1, "{pfds:?}");
        c.max_violation_ratio = 0.0;
        assert!(mine(&t, &c).is_empty());
    }

    #[test]
    fn no_rule_when_rhs_disagrees() {
        let t = Table::from_str_rows(
            Schema::new(["zip", "city"]).unwrap(),
            [
                ["90001", "Los Angeles"],
                ["90002", "New York"],
                ["90003", "Chicago"],
                ["90004", "Boston"],
            ],
        )
        .unwrap();
        assert!(mine(&t, &cfg()).is_empty());
    }

    #[test]
    fn split_fixed_positions() {
        let sig: Pattern = "\\D{5}".parse().unwrap();
        let (p, s) = split_fixed(&sig, 3).unwrap();
        assert_eq!(p.to_string(), "\\D{3}");
        assert_eq!(s.to_string(), "\\D{2}");
        let sig2: Pattern = "\\LU-\\D{3}".parse().unwrap();
        let (p, s) = split_fixed(&sig2, 2).unwrap();
        assert_eq!(p.to_string(), "\\LU-");
        assert_eq!(s.to_string(), "\\D{3}");
        assert!(split_fixed(&"\\D+".parse().unwrap(), 1).is_none());
    }

    #[test]
    fn singleton_blocks_assert_nothing() {
        // All-distinct keys: trivially consistent, but must not be reported.
        let t = Table::from_str_rows(
            Schema::new(["code", "v"]).unwrap(),
            [["11111", "a"], ["22222", "b"], ["33333", "c"]],
        )
        .unwrap();
        assert!(mine(&t, &cfg()).is_empty());
    }

    #[test]
    fn mixed_token_counts() {
        let t = Table::from_str_rows(
            Schema::new(["name", "gender"]).unwrap(),
            [
                ["John Charles Xavier", "M"],
                ["John Bosco", "M"],
                ["Susan Orlean", "F"],
                ["Susan Boyle Q.", "F"],
            ],
        )
        .unwrap();
        let pfds = mine(&t, &cfg());
        assert_eq!(pfds.len(), 1, "{pfds:?}");
    }
}
