//! Building tableau LHS patterns from inverted-list keys and their
//! surrounding context.
//!
//! An entry that passes the decision function is a key (token / n-gram /
//! prefix) at a consistent position. The tableau needs a *pattern over the
//! whole cell*, so the key is wrapped with patterns for the text before
//! and after it — `Donald` in `Holloway, Donald E.` becomes
//! `\A*,\ Donald\A*` (paper style) or `\LU\LL+,\ Donald\ \LU.` (induced
//! style), depending on [`ContextStyle`].

use super::ContextStyle;
use anmat_pattern::{induce, loosen, Pattern};

/// The (before, after) character context of each supporting occurrence.
#[derive(Debug, Clone, Default)]
pub struct KeyContexts {
    /// Text before the key occurrence, per supporting value.
    pub befores: Vec<String>,
    /// Text after the key occurrence, per supporting value.
    pub afters: Vec<String>,
}

impl KeyContexts {
    /// Record one occurrence: `value = before ⧺ key ⧺ after`.
    pub fn push(&mut self, before: &str, after: &str) {
        self.befores.push(before.to_string());
        self.afters.push(after.to_string());
    }

    /// Number of recorded occurrences.
    #[must_use]
    pub fn len(&self) -> usize {
        self.befores.len()
    }

    /// No occurrences recorded?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.befores.is_empty()
    }
}

/// Build the LHS pattern `before-context ⧺ key ⧺ after-context`.
#[must_use]
pub fn build_lhs_pattern(key: &str, contexts: &KeyContexts, style: ContextStyle) -> Pattern {
    let before = context_pattern(&contexts.befores, style, Side::Before);
    let after = context_pattern(&contexts.afters, style, Side::After);
    before
        .concat(&Pattern::literal(key))
        .concat(&after)
        .normalized()
}

#[derive(Clone, Copy, PartialEq)]
enum Side {
    Before,
    After,
}

fn context_pattern(parts: &[String], style: ContextStyle, side: Side) -> Pattern {
    if parts.iter().all(String::is_empty) {
        return Pattern::empty();
    }
    match style {
        ContextStyle::Induced => {
            let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
            // Loosen only intervals that showed cross-string variance
            // (Range/AtLeast). Exact counts are structural — the `\D{2}`
            // of a zip suffix or the `\D{7}` of a phone tail must stay
            // exact, as in the paper's Table 3 patterns.
            loosen(&induce(&refs), u32::MAX)
        }
        ContextStyle::AnyString => {
            // Preserve the separator characters adjacent to the key; the
            // rest becomes \A*. "Adjacent" = the longest run of
            // non-alphanumeric characters shared by *all* occurrences on
            // the key side.
            match side {
                Side::Before => {
                    let sep = common_symbol_suffix(parts);
                    let all_sep = parts.iter().all(|p| p == &sep);
                    if all_sep {
                        Pattern::literal(&sep)
                    } else {
                        Pattern::any_string().concat(&Pattern::literal(&sep))
                    }
                }
                Side::After => {
                    let sep = common_symbol_prefix(parts);
                    let all_sep = parts.iter().all(|p| p == &sep);
                    if all_sep {
                        Pattern::literal(&sep)
                    } else {
                        Pattern::literal(&sep).concat(&Pattern::any_string())
                    }
                }
            }
        }
    }
}

/// Longest common suffix of all parts consisting only of non-alphanumeric
/// characters.
fn common_symbol_suffix(parts: &[String]) -> String {
    let mut suffix: Option<Vec<char>> = None;
    for p in parts {
        let tail: Vec<char> = p
            .chars()
            .rev()
            .take_while(|c| !c.is_alphanumeric())
            .collect();
        suffix = Some(match suffix {
            None => tail,
            Some(prev) => {
                // Compare reversed-order tails; keep the common prefix of
                // the reversed sequences (= common suffix of the strings).
                prev.iter()
                    .zip(tail.iter())
                    .take_while(|(a, b)| a == b)
                    .map(|(a, _)| *a)
                    .collect()
            }
        });
    }
    suffix.unwrap_or_default().into_iter().rev().collect()
}

/// Longest common prefix of all parts consisting only of non-alphanumeric
/// characters.
fn common_symbol_prefix(parts: &[String]) -> String {
    let mut prefix: Option<Vec<char>> = None;
    for p in parts {
        let head: Vec<char> = p.chars().take_while(|c| !c.is_alphanumeric()).collect();
        prefix = Some(match prefix {
            None => head,
            Some(prev) => prev
                .iter()
                .zip(head.iter())
                .take_while(|(a, b)| a == b)
                .map(|(a, _)| *a)
                .collect(),
        });
    }
    prefix.unwrap_or_default().into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(pairs: &[(&str, &str)]) -> KeyContexts {
        let mut c = KeyContexts::default();
        for (b, a) in pairs {
            c.push(b, a);
        }
        c
    }

    #[test]
    fn paper_style_full_name() {
        // "Holloway, Donald E." and "Kimbell, Donald" with key "Donald".
        let c = ctx(&[("Holloway, ", " E."), ("Kimbell, ", "")]);
        let p = build_lhs_pattern("Donald", &c, ContextStyle::AnyString);
        assert_eq!(p.to_string(), "\\A*,\\ Donald\\A*");
        assert!(p.matches("Holloway, Donald E."));
        assert!(p.matches("Kimbell, Donald"));
        assert!(!p.matches("Donald Kimbell"));
    }

    #[test]
    fn paper_style_zip_prefix() {
        // Key "900" as a prefix of 5-digit zips. (Suffix digits vary in
        // both positions, so the LGG generalizes both to \D.)
        let c = ctx(&[("", "01"), ("", "12"), ("", "93")]);
        let p = build_lhs_pattern("900", &c, ContextStyle::Induced);
        assert_eq!(p.to_string(), "900\\D{2}");
        assert!(p.matches("90004"));
        assert!(!p.matches("900045"));
    }

    #[test]
    fn induced_style_keeps_shape() {
        let c = ctx(&[("Holloway, ", ""), ("Kimbell, ", "")]);
        let p = build_lhs_pattern("Donald", &c, ContextStyle::Induced);
        assert!(p.matches("Holloway, Donald"));
        assert!(p.matches("Mallack, Donald"), "{p}");
        assert!(!p.matches("123, Donald"), "{p}");
    }

    #[test]
    fn anystring_with_empty_afters_mixed() {
        // Key at end for some values, middle for others.
        let c = ctx(&[("", " suffix"), ("", "")]);
        let p = build_lhs_pattern("KEY", &c, ContextStyle::AnyString);
        assert!(p.matches("KEY suffix"));
        assert!(p.matches("KEY"));
    }

    #[test]
    fn anystring_first_token() {
        // "John Charles", "John Bosco" with key "John".
        let c = ctx(&[("", " Charles"), ("", " Bosco")]);
        let p = build_lhs_pattern("John", &c, ContextStyle::AnyString);
        assert_eq!(p.to_string(), "John\\ \\A*");
        assert!(p.matches("John Albert"));
        assert!(!p.matches("Johnson Albert"));
    }

    #[test]
    fn pure_key_no_context() {
        let c = ctx(&[("", ""), ("", "")]);
        let p = build_lhs_pattern("FL", &c, ContextStyle::AnyString);
        assert_eq!(p.to_string(), "FL");
    }

    #[test]
    fn symbol_suffix_helpers() {
        assert_eq!(
            common_symbol_suffix(&["Holloway, ".into(), "Kimbell, ".into()]),
            ", "
        );
        assert_eq!(common_symbol_suffix(&["abc".into()]), "");
        assert_eq!(common_symbol_prefix(&[" E.".into(), " R.".into()]), " ");
        assert_eq!(common_symbol_prefix(&[String::new()]), "");
    }

    #[test]
    fn phone_digit_context_induced() {
        // Key "850" prefix of 10-digit phones → 850\D{7}.
        let c = ctx(&[("", "5467600"), ("", "1234567")]);
        let p = build_lhs_pattern("850", &c, ContextStyle::Induced);
        assert_eq!(p.to_string(), "850\\D{7}");
    }
}
