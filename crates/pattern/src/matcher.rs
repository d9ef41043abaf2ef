//! Matching engine for the restricted pattern language.
//!
//! Because the language has no alternation and no nested repetition, a
//! pattern is a *chain* of counted character classes, and matching reduces
//! to dynamic programming over (element index, string position) pairs:
//! `O(|P| · |s| · r)` where `r` is bounded by the longest character run —
//! in practice linear in the attribute-value length.
//!
//! [`match_pattern`] answers the boolean question `s ⊨ P`.
//! [`match_spans`] additionally recovers *which* substring each element
//! consumed, under **leftmost-greedy** semantics (each element takes the
//! longest repetition that still lets the rest of the pattern match). The
//! spans are what [`ConstrainedPattern`](crate::ConstrainedPattern) uses to
//! extract constrained captures — e.g. pulling `John` out of
//! `John Charles` for `[\LU\LL*\ ]\A*`.
//!
//! This interpreter is the semantic oracle the compiled tiers
//! ([`crate::compile`]) are tested against. Every evaluation counts one
//! `pattern.interp_evals`, so a production path that reaches it shows up
//! in the metrics.

use crate::ast::Pattern;
use std::cell::RefCell;

thread_local! {
    /// Decoded-character scratch for the `&str` entry points; reused
    /// across evaluations so the interpreter only allocates on growth.
    static CHAR_BUF: RefCell<Vec<char>> = const { RefCell::new(Vec::new()) };
    /// `reachable` / `next` DP rows for [`match_chars`].
    static DP_BUF: RefCell<(Vec<bool>, Vec<bool>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
    /// Flattened `ok[j][i]` table for [`match_spans_chars`].
    static OK_BUF: RefCell<Vec<bool>> = const { RefCell::new(Vec::new()) };
}

/// The substring consumed by each pattern element in one concrete parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchSpans {
    /// Per element: `(start, end)` character (not byte) indices, half-open.
    ///
    /// `spans.len() == pattern.len()`; a zero-repetition element yields an
    /// empty span at its position.
    pub spans: Vec<(usize, usize)>,
}

impl MatchSpans {
    /// Extract the substring for element `idx` from the original string.
    ///
    /// `chars` must be the same character sequence the spans were computed
    /// from.
    #[must_use]
    pub fn slice<'s>(&self, chars: &'s [char], idx: usize) -> Option<&'s [char]> {
        let (a, b) = *self.spans.get(idx)?;
        chars.get(a..b)
    }
}

/// Does `s` match `pattern` in full? (Anchored at both ends.)
#[must_use]
pub fn match_pattern(pattern: &Pattern, s: &str) -> bool {
    CHAR_BUF.with(|buf| {
        let chars = &mut *buf.borrow_mut();
        chars.clear();
        chars.extend(s.chars());
        match_chars(pattern, chars)
    })
}

/// [`match_pattern`] over a pre-decoded character slice.
#[must_use]
pub fn match_chars(pattern: &Pattern, chars: &[char]) -> bool {
    anmat_obs::counter!("pattern.interp_evals").incr();
    let n = chars.len();
    // Quick length screen.
    if n < pattern.min_len() {
        return false;
    }
    if let Some(max) = pattern.max_len() {
        if n > max {
            return false;
        }
    }
    // reachable[i] = the first `j` processed elements can consume exactly i chars.
    DP_BUF.with(|buf| {
        let (reachable, next) = &mut *buf.borrow_mut();
        reachable.clear();
        reachable.resize(n + 1, false);
        reachable[0] = true;
        next.clear();
        next.resize(n + 1, false);
        for e in pattern.elements() {
            let (min, max) = e.quant.interval();
            let min = min as usize;
            next.iter_mut().for_each(|b| *b = false);
            let mut any = false;
            for i in 0..=n {
                if !reachable[i] {
                    continue;
                }
                // Extend the run of matching characters from i.
                let limit = match max {
                    Some(m) => (m as usize).min(n - i),
                    None => n - i,
                };
                let mut k = 0;
                if min == 0 {
                    next[i] = true;
                    any = true;
                }
                while k < limit {
                    if !e.class.matches(chars[i + k]) {
                        break;
                    }
                    k += 1;
                    if k >= min {
                        next[i + k] = true;
                        any = true;
                    }
                }
            }
            std::mem::swap(reachable, next);
            if !any {
                return false;
            }
        }
        reachable[n]
    })
}

/// Match and recover per-element spans under leftmost-greedy semantics.
///
/// Returns `None` if `s` does not match.
#[must_use]
pub fn match_spans(pattern: &Pattern, s: &str) -> Option<MatchSpans> {
    CHAR_BUF.with(|buf| {
        let chars = &mut *buf.borrow_mut();
        chars.clear();
        chars.extend(s.chars());
        match_spans_chars(pattern, chars)
    })
}

/// [`match_spans`] over a pre-decoded character slice.
#[must_use]
pub fn match_spans_chars(pattern: &Pattern, chars: &[char]) -> Option<MatchSpans> {
    anmat_obs::counter!("pattern.interp_evals").incr();
    let n = chars.len();
    let m = pattern.len();
    if n < pattern.min_len() {
        return None;
    }
    if let Some(max) = pattern.max_len() {
        if n > max {
            return None;
        }
    }
    // ok[j][i] = elements j.. can consume exactly chars[i..], flattened
    // into reused scratch as ok[j * (n + 1) + i]. Built backwards so the
    // forward greedy walk can consult it.
    let stride = n + 1;
    OK_BUF.with(|buf| {
        let ok = &mut *buf.borrow_mut();
        ok.clear();
        ok.resize((m + 1) * stride, false);
        ok[m * stride + n] = true;
        for j in (0..m).rev() {
            let e = pattern.elements()[j];
            let (min, max) = e.quant.interval();
            let min = min as usize;
            for i in (0..=n).rev() {
                let limit = match max {
                    Some(mx) => (mx as usize).min(n - i),
                    None => n - i,
                };
                let mut k = 0;
                if min == 0 && ok[(j + 1) * stride + i] {
                    ok[j * stride + i] = true;
                }
                while k < limit {
                    if !e.class.matches(chars[i + k]) {
                        break;
                    }
                    k += 1;
                    if k >= min && ok[(j + 1) * stride + i + k] {
                        ok[j * stride + i] = true;
                        // Greedy reconstruction scans separately; reachability
                        // just needs any witness.
                    }
                }
            }
        }
        if !ok[0] {
            return None;
        }
        // Forward greedy walk: each element takes the longest k that keeps the
        // suffix matchable.
        let mut spans = Vec::with_capacity(m);
        let mut i = 0usize;
        for (j, e) in pattern.elements().iter().enumerate() {
            let (min, max) = e.quant.interval();
            let min = min as usize;
            let limit = match max {
                Some(mx) => (mx as usize).min(n - i),
                None => n - i,
            };
            // Longest run of matching chars from i.
            let mut run = 0;
            while run < limit && e.class.matches(chars[i + run]) {
                run += 1;
            }
            let mut chosen = None;
            let mut k = run;
            loop {
                if k >= min && ok[(j + 1) * stride + i + k] {
                    chosen = Some(k);
                    break;
                }
                if k == 0 {
                    break;
                }
                k -= 1;
            }
            let k = chosen?; // ok[0][0] held, so a witness must exist
            spans.push((i, i + k));
            i += k;
        }
        debug_assert_eq!(i, n);
        Some(MatchSpans { spans })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Pattern;

    fn pat(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    #[test]
    fn literal_match() {
        let p = Pattern::literal("90001");
        assert!(match_pattern(&p, "90001"));
        assert!(!match_pattern(&p, "90002"));
        assert!(!match_pattern(&p, "9000"));
        assert!(!match_pattern(&p, "900010"));
    }

    #[test]
    fn paper_example1() {
        // 90001 ⊨ \D{5} and 90001 ⊨ \D*.
        assert!(match_pattern(&pat("\\D{5}"), "90001"));
        assert!(match_pattern(&pat("\\D*"), "90001"));
        assert!(match_pattern(&pat("\\D*"), ""));
        assert!(!match_pattern(&pat("\\D{5}"), "9000"));
    }

    #[test]
    fn zip_prefix_pattern() {
        let p = pat("900\\D{2}");
        assert!(match_pattern(&p, "90001"));
        assert!(match_pattern(&p, "90099"));
        assert!(!match_pattern(&p, "90100"));
        assert!(!match_pattern(&p, "900012"));
    }

    #[test]
    fn name_pattern() {
        let p = pat("\\LU\\LL*\\ \\A*");
        assert!(match_pattern(&p, "John Charles"));
        assert!(match_pattern(&p, "Susan Orlean"));
        assert!(match_pattern(&p, "A B"));
        assert!(!match_pattern(&p, "JOHN Charles")); // second char upper
        assert!(!match_pattern(&p, "John")); // no space
    }

    #[test]
    fn empty_pattern_matches_only_empty() {
        let p = Pattern::empty();
        assert!(match_pattern(&p, ""));
        assert!(!match_pattern(&p, "a"));
    }

    #[test]
    fn star_backoff_required() {
        // \A*a needs the star to stop before the final 'a'.
        let p = pat("\\A*a");
        assert!(match_pattern(&p, "bbba"));
        assert!(match_pattern(&p, "a"));
        assert!(match_pattern(&p, "aaa"));
        assert!(!match_pattern(&p, "ab"));
    }

    #[test]
    fn adjacent_overlapping_classes() {
        // \LL+\LL+ requires at least two lowercase letters.
        let p = pat("\\LL+\\LL+");
        assert!(!match_pattern(&p, "a"));
        assert!(match_pattern(&p, "ab"));
        assert!(match_pattern(&p, "abcdef"));
    }

    #[test]
    fn range_quantifier() {
        let p = pat("\\D{2,4}");
        assert!(!match_pattern(&p, "1"));
        assert!(match_pattern(&p, "12"));
        assert!(match_pattern(&p, "1234"));
        assert!(!match_pattern(&p, "12345"));
    }

    #[test]
    fn spans_greedy_star() {
        let p = pat("\\A*a");
        let spans = match_spans(&p, "bbba").unwrap();
        assert_eq!(spans.spans, vec![(0, 3), (3, 4)]);
        // Greedy: with "aaa", \A* takes the first two.
        let spans = match_spans(&p, "aaa").unwrap();
        assert_eq!(spans.spans, vec![(0, 2), (2, 3)]);
    }

    #[test]
    fn spans_first_name_capture() {
        // The λ4 LHS segmentation: \LU\LL*\  then \A*.
        let p = pat("\\LU\\LL*\\ \\A*");
        let s = "John Charles";
        let chars: Vec<char> = s.chars().collect();
        let spans = match_spans(&p, s).unwrap();
        // Elements: \LU, \LL*, ' ', \A*
        assert_eq!(spans.spans.len(), 4);
        let first: String = spans.slice(&chars, 0).unwrap().iter().collect();
        let rest: String = spans.slice(&chars, 1).unwrap().iter().collect();
        assert_eq!(first, "J");
        assert_eq!(rest, "ohn");
        let tail: String = spans.slice(&chars, 3).unwrap().iter().collect();
        assert_eq!(tail, "Charles");
    }

    #[test]
    fn spans_zero_width_elements() {
        let p = pat("a*b*c");
        let spans = match_spans(&p, "c").unwrap();
        assert_eq!(spans.spans, vec![(0, 0), (0, 0), (0, 1)]);
    }

    #[test]
    fn spans_none_on_mismatch() {
        assert!(match_spans(&pat("\\D+"), "12a").is_none());
    }

    #[test]
    fn spans_concat_is_partition() {
        let p = pat("\\LU+\\LL+\\D{2}");
        let s = "ABcd12";
        let spans = match_spans(&p, s).unwrap();
        let mut pos = 0;
        for (a, b) in &spans.spans {
            assert_eq!(*a, pos);
            pos = *b;
        }
        assert_eq!(pos, s.chars().count());
    }

    #[test]
    fn unicode_safe() {
        let p = pat("\\LU\\LL+");
        assert!(match_pattern(&p, "Étienne"));
        let spans = match_spans(&p, "Étienne").unwrap();
        assert_eq!(spans.spans, vec![(0, 1), (1, 7)]);
    }

    #[test]
    fn symbol_class_matches_punctuation() {
        let p = pat("\\D{3}\\S\\D{4}");
        assert!(match_pattern(&p, "555-1234"));
        assert!(match_pattern(&p, "555 1234"));
        assert!(!match_pattern(&p, "55511234"));
    }
}
