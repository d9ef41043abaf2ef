//! Pattern abstract syntax: quantified symbol classes.
//!
//! A [`Pattern`] is a concatenation of [`Element`]s, each a
//! [`SymbolClass`] with a [`Quantifier`]. The language
//! deliberately excludes alternation and nested repetition (`(α+)*`), per
//! §2 of the paper.

use crate::error::PatternError;
use crate::symbol::SymbolClass;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Repetition count attached to a pattern element.
///
/// `α{N}` is N repetitions, `α+` is one-or-more, `α*` (Kleene star) is
/// zero-or-more; a bare element means exactly one. Ranges `{N,M}` and
/// `{N,}` are accepted for completeness — discovery only ever produces
/// `One`, `Exactly`, `Plus` and `Star`, but the detector must be able to
/// evaluate hand-written rules too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Quantifier {
    /// Exactly one occurrence (no suffix).
    One,
    /// Exactly `N` occurrences: `{N}`.
    Exactly(u32),
    /// One or more occurrences: `+`.
    Plus,
    /// Zero or more occurrences: `*`.
    Star,
    /// At least `N` occurrences: `{N,}`.
    AtLeast(u32),
    /// Between `min` and `max` occurrences inclusive: `{min,max}`.
    Range(u32, u32),
}

impl Quantifier {
    /// The inclusive repetition interval `(min, max)`; `None` max = unbounded.
    #[must_use]
    pub fn interval(&self) -> (u32, Option<u32>) {
        match *self {
            Quantifier::One => (1, Some(1)),
            Quantifier::Exactly(n) => (n, Some(n)),
            Quantifier::Plus => (1, None),
            Quantifier::Star => (0, None),
            Quantifier::AtLeast(n) => (n, None),
            Quantifier::Range(a, b) => (a, Some(b)),
        }
    }

    /// Build the canonical quantifier for an interval.
    ///
    /// Returns [`PatternError::EmptyInterval`] if `min > max`.
    pub fn from_interval(min: u32, max: Option<u32>) -> Result<Quantifier, PatternError> {
        match max {
            Some(max) if min > max => Err(PatternError::EmptyInterval { min, max }),
            Some(max) if min == max => Ok(if min == 1 {
                Quantifier::One
            } else {
                Quantifier::Exactly(min)
            }),
            Some(max) => Ok(Quantifier::Range(min, max)),
            None => Ok(match min {
                0 => Quantifier::Star,
                1 => Quantifier::Plus,
                n => Quantifier::AtLeast(n),
            }),
        }
    }
}

impl fmt::Display for Quantifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Quantifier::One => Ok(()),
            Quantifier::Exactly(n) => write!(f, "{{{n}}}"),
            Quantifier::Plus => write!(f, "+"),
            Quantifier::Star => write!(f, "*"),
            Quantifier::AtLeast(n) => write!(f, "{{{n},}}"),
            Quantifier::Range(a, b) => write!(f, "{{{a},{b}}}"),
        }
    }
}

/// One quantified symbol class, e.g. `\D{2}` or `\LL*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Element {
    /// The symbol class being repeated.
    pub class: SymbolClass,
    /// How many times it repeats.
    pub quant: Quantifier,
}

impl Element {
    /// An element occurring exactly once.
    #[must_use]
    pub fn once(class: SymbolClass) -> Element {
        Element {
            class,
            quant: Quantifier::One,
        }
    }

    /// An element with an explicit quantifier.
    #[must_use]
    pub fn new(class: SymbolClass, quant: Quantifier) -> Element {
        Element { class, quant }
    }

    /// A literal character occurring exactly once.
    #[must_use]
    pub fn literal(c: char) -> Element {
        Element::once(SymbolClass::Literal(c))
    }

    /// Minimum number of characters this element can consume.
    #[must_use]
    pub fn min_len(&self) -> usize {
        self.quant.interval().0 as usize
    }

    /// Maximum number of characters this element can consume
    /// (`None` = unbounded).
    #[must_use]
    pub fn max_len(&self) -> Option<usize> {
        self.quant.interval().1.map(|m| m as usize)
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.class, self.quant)
    }
}

/// A pattern: a concatenation of quantified symbol classes.
///
/// Parse one from the paper's textual syntax with [`str::parse`], print it
/// with [`fmt::Display`]. Construction through [`Pattern::new`] normalizes
/// nothing; use [`Pattern::normalized`] to merge adjacent same-class
/// elements (useful before containment checks).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Pattern {
    elements: Vec<Element>,
}

impl Pattern {
    /// Build a pattern from elements.
    #[must_use]
    pub fn new(elements: Vec<Element>) -> Pattern {
        Pattern { elements }
    }

    /// The pattern that matches exactly the literal string `s`.
    #[must_use]
    pub fn literal(s: &str) -> Pattern {
        Pattern {
            elements: s.chars().map(Element::literal).collect(),
        }
    }

    /// The empty pattern (matches only `ϵ`).
    #[must_use]
    pub fn empty() -> Pattern {
        Pattern {
            elements: Vec::new(),
        }
    }

    /// The universal pattern `\A*`.
    #[must_use]
    pub fn any_string() -> Pattern {
        Pattern {
            elements: vec![Element::new(SymbolClass::Any, Quantifier::Star)],
        }
    }

    /// The elements in order.
    #[must_use]
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Number of elements (not characters).
    #[must_use]
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Does the pattern contain no elements?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Append an element.
    pub fn push(&mut self, e: Element) {
        self.elements.push(e);
    }

    /// Concatenate two patterns.
    #[must_use]
    pub fn concat(&self, other: &Pattern) -> Pattern {
        let mut elements = self.elements.clone();
        elements.extend_from_slice(&other.elements);
        Pattern { elements }
    }

    /// Minimum length of any matching string.
    #[must_use]
    pub fn min_len(&self) -> usize {
        self.elements.iter().map(Element::min_len).sum()
    }

    /// Maximum length of any matching string (`None` = unbounded).
    #[must_use]
    pub fn max_len(&self) -> Option<usize> {
        let mut total = 0usize;
        for e in &self.elements {
            total += e.max_len()?;
        }
        Some(total)
    }

    /// Does every matching string have the same length?
    #[must_use]
    pub fn is_fixed_length(&self) -> bool {
        self.max_len() == Some(self.min_len())
    }

    /// Is this a pure literal pattern (matches exactly one string)?
    #[must_use]
    pub fn is_literal(&self) -> bool {
        self.elements
            .iter()
            .all(|e| e.class.is_literal() && e.quant == Quantifier::One)
    }

    /// Does the string `s` match (satisfy) this pattern? (`s ⊨ P`.)
    #[must_use]
    pub fn matches(&self, s: &str) -> bool {
        crate::matcher::match_pattern(self, s)
    }

    /// Merge adjacent elements with identical classes by adding their
    /// repetition intervals.
    ///
    /// `\D\D{2}` becomes `\D{3}`; `\LL+\LL*` becomes `\LL+`. The language
    /// is unchanged; the element count shrinks, which speeds up matching
    /// and makes containment checks more precise in their fast paths.
    #[must_use]
    pub fn normalized(&self) -> Pattern {
        let mut out: Vec<Element> = Vec::with_capacity(self.elements.len());
        for e in &self.elements {
            // Drop elements that can only match the empty string ({0}).
            if e.quant.interval() == (0, Some(0)) {
                continue;
            }
            if let Some(last) = out.last_mut() {
                // Adjacent once-literals stay separate ("900" should print
                // as `900`, not `90{2}`); anything else merges.
                let both_plain_literals = last.class.is_literal()
                    && last.quant == Quantifier::One
                    && e.quant == Quantifier::One;
                if last.class == e.class && !both_plain_literals {
                    let (amin, amax) = last.quant.interval();
                    let (bmin, bmax) = e.quant.interval();
                    let min = amin.saturating_add(bmin);
                    let max = match (amax, bmax) {
                        (Some(x), Some(y)) => Some(x.saturating_add(y)),
                        _ => None,
                    };
                    last.quant = Quantifier::from_interval(min, max)
                        .expect("sum of valid intervals is valid");
                    continue;
                }
            }
            out.push(*e);
        }
        Pattern { elements: out }
    }

    /// A coarse specificity score: more literal/narrow patterns score
    /// higher. Used by discovery to prefer the most specific tableau
    /// pattern among candidates with equal support.
    #[must_use]
    pub fn specificity(&self) -> u32 {
        self.elements
            .iter()
            .map(|e| {
                let class_score = match e.class {
                    SymbolClass::Literal(_) => 4,
                    SymbolClass::Upper | SymbolClass::Lower | SymbolClass::Digit => 2,
                    SymbolClass::Symbol => 2,
                    SymbolClass::Any => 0,
                };
                let quant_score = match e.quant.interval() {
                    (_, Some(_)) => 1,
                    (_, None) => 0,
                };
                class_score + quant_score
            })
            .sum()
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.elements {
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Pattern {
    type Err = PatternError;

    fn from_str(s: &str) -> Result<Pattern, PatternError> {
        crate::parser::parse_pattern(s)
    }
}

impl FromIterator<Element> for Pattern {
    fn from_iter<I: IntoIterator<Item = Element>>(iter: I) -> Pattern {
        Pattern {
            elements: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantifier_intervals() {
        assert_eq!(Quantifier::One.interval(), (1, Some(1)));
        assert_eq!(Quantifier::Exactly(4).interval(), (4, Some(4)));
        assert_eq!(Quantifier::Plus.interval(), (1, None));
        assert_eq!(Quantifier::Star.interval(), (0, None));
        assert_eq!(Quantifier::AtLeast(3).interval(), (3, None));
        assert_eq!(Quantifier::Range(2, 5).interval(), (2, Some(5)));
    }

    #[test]
    fn quantifier_from_interval_roundtrip() {
        for q in [
            Quantifier::One,
            Quantifier::Exactly(4),
            Quantifier::Plus,
            Quantifier::Star,
            Quantifier::AtLeast(3),
            Quantifier::Range(2, 5),
        ] {
            let (min, max) = q.interval();
            let q2 = Quantifier::from_interval(min, max).unwrap();
            assert_eq!(q2.interval(), (min, max));
        }
    }

    #[test]
    fn from_interval_rejects_empty() {
        assert!(matches!(
            Quantifier::from_interval(3, Some(2)),
            Err(PatternError::EmptyInterval { min: 3, max: 2 })
        ));
    }

    #[test]
    fn literal_pattern_lengths() {
        let p = Pattern::literal("abc");
        assert_eq!(p.min_len(), 3);
        assert_eq!(p.max_len(), Some(3));
        assert!(p.is_fixed_length());
        assert!(p.is_literal());
    }

    #[test]
    fn unbounded_lengths() {
        let p = Pattern::any_string();
        assert_eq!(p.min_len(), 0);
        assert_eq!(p.max_len(), None);
        assert!(!p.is_fixed_length());
        assert!(!p.is_literal());
    }

    #[test]
    fn normalization_merges_adjacent() {
        let p = Pattern::new(vec![
            Element::once(SymbolClass::Digit),
            Element::new(SymbolClass::Digit, Quantifier::Exactly(2)),
            Element::once(SymbolClass::Lower),
        ]);
        let n = p.normalized();
        assert_eq!(n.len(), 2);
        assert_eq!(n.elements()[0].quant, Quantifier::Exactly(3));
    }

    #[test]
    fn normalization_merges_unbounded() {
        let p = Pattern::new(vec![
            Element::new(SymbolClass::Lower, Quantifier::Plus),
            Element::new(SymbolClass::Lower, Quantifier::Star),
        ]);
        let n = p.normalized();
        assert_eq!(n.len(), 1);
        assert_eq!(n.elements()[0].quant, Quantifier::Plus);
    }

    #[test]
    fn normalization_drops_zero_width() {
        let p = Pattern::new(vec![
            Element::new(SymbolClass::Digit, Quantifier::Exactly(0)),
            Element::once(SymbolClass::Lower),
        ]);
        assert_eq!(p.normalized().len(), 1);
    }

    #[test]
    fn specificity_orders_patterns() {
        let literal = Pattern::literal("900");
        let classed: Pattern = "\\D{3}".parse().unwrap();
        let any = Pattern::any_string();
        assert!(literal.specificity() > classed.specificity());
        assert!(classed.specificity() > any.specificity());
    }

    #[test]
    fn concat_preserves_order() {
        let a = Pattern::literal("90");
        let b: Pattern = "\\D{3}".parse().unwrap();
        let c = a.concat(&b);
        assert_eq!(c.to_string(), "90\\D{3}");
    }
}
