//! Pattern induction: learning the least-general pattern covering a sample
//! of strings.
//!
//! Discovery (Figure 2 of the paper) needs to turn the values that share an
//! inverted-list entry into a tableau pattern — e.g. the zip codes
//! `{90001, 90002, 90003}` into `900\D{2}`, or the names
//! `{John Charles, John Bosco}` into `John\ \A*`. This module implements
//! that bottom-up generalization over the tree of Figure 1:
//!
//! 1. each string starts as its literal pattern;
//! 2. strings are folded pairwise with
//!    [`generalize_patterns`](crate::containment::generalize_patterns),
//!    which joins aligned characters in the generalization tree and unions
//!    repetition intervals;
//! 3. the folded pattern is normalized (adjacent runs of one class
//!    merge).
//!
//! Loosening is the caller's step: [`loosen`] widens repetition ranges
//! that show cross-string variance into `+`/`*`, so the learned pattern
//! covers unseen values of the same shape. Discovery writes
//! `loosen(&induce(&values), u32::MAX)`.
//!
//! [`PatternLevel`] also exposes the fixed per-string generalization ladder
//! (literal → classed-exact → classed-unbounded → `\A*`) that the profiler
//! uses for pattern histograms (Figure 3 of the paper).

use crate::ast::{Element, Pattern, Quantifier};
use crate::containment::generalize_patterns_raw;
use crate::symbol::SymbolClass;
use serde::{Deserialize, Serialize};

/// The most distinct strings [`induce`] folds; a larger sample is
/// thinned to this many, evenly across its sorted order, to bound cost.
const MAX_SAMPLES: usize = 64;

/// A rung on the per-string generalization ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PatternLevel {
    /// The string itself, e.g. `John`.
    Literal,
    /// Classes with exact run lengths, e.g. `\LU\LL{3}`.
    ClassExact,
    /// Classes with `+` runs, e.g. `\LU\LL+`.
    ClassUnbounded,
    /// The universal pattern `\A*` (or `\A+` for non-empty strings).
    Any,
}

impl PatternLevel {
    /// All levels, most to least specific.
    pub const ALL: [PatternLevel; 4] = [
        PatternLevel::Literal,
        PatternLevel::ClassExact,
        PatternLevel::ClassUnbounded,
        PatternLevel::Any,
    ];
}

/// The fixed generalization of one string at the given level.
///
/// This is the "pattern signature" the profiler reports: all strings with
/// the same signature at a level are structurally identical at that level.
#[must_use]
pub fn signature(s: &str, level: PatternLevel) -> Pattern {
    match level {
        PatternLevel::Literal => Pattern::literal(s),
        PatternLevel::ClassExact => classed(s, false),
        PatternLevel::ClassUnbounded => classed(s, true),
        PatternLevel::Any => {
            if s.is_empty() {
                Pattern::empty()
            } else {
                Pattern::new(vec![Element::new(SymbolClass::Any, Quantifier::Plus)])
            }
        }
    }
}

fn classed(s: &str, unbounded: bool) -> Pattern {
    let mut out: Vec<Element> = Vec::new();
    for c in s.chars() {
        let class = SymbolClass::class_of(c);
        // Keep symbols literal even at class level: separators like '-', ','
        // carry structure (phone dashes, "Last, First"), and the paper's
        // discovered patterns preserve them.
        let class = if class == SymbolClass::Symbol {
            SymbolClass::Literal(c)
        } else {
            class
        };
        if let Some(last) = out.last_mut() {
            if last.class == class && !class.is_literal() {
                let (min, max) = last.quant.interval();
                last.quant = Quantifier::from_interval(min + 1, max.map(|m| m + 1))
                    .expect("incrementing a valid interval");
                continue;
            }
        }
        out.push(Element::once(class));
    }
    let p = Pattern::new(out);
    if unbounded {
        loosen(&p, 2)
    } else {
        p
    }
}

/// Induce the least-general pattern (within alignment) covering `strings`,
/// normalized.
///
/// Folds at most 64 distinct strings (`MAX_SAMPLES`). Returns
/// [`Pattern::empty`] for an empty sample. The fold order is
/// deterministic (sorted, deduplicated sample).
#[must_use]
pub fn induce(strings: &[&str]) -> Pattern {
    let mut sample: Vec<&str> = strings.to_vec();
    sample.sort_unstable();
    sample.dedup();
    // Cap the sample by striding evenly across the sorted list. A plain
    // prefix truncation would bias toward lexicographically small strings
    // (e.g. every sampled suffix of an id column starting `-1-…`), making
    // shared leading characters look constant when they are not.
    if sample.len() > MAX_SAMPLES {
        let stride = sample.len() as f64 / MAX_SAMPLES as f64;
        sample = (0..MAX_SAMPLES)
            .map(|i| sample[((i as f64 * stride) as usize).min(sample.len() - 1)])
            .collect();
    }
    let mut iter = sample.iter();
    let Some(first) = iter.next() else {
        return Pattern::empty();
    };
    // Fold with the *raw* (unnormalized) generalization so per-character
    // alignment granularity survives across iterations.
    let mut acc = Pattern::literal(first);
    for s in iter {
        acc = generalize_patterns_raw(&acc, &Pattern::literal(s));
    }
    // Normalized here, so a caller's `loosen` runs after merging:
    // merging happens on exact intervals (`\LL\LL\LL\LL{0,1}` → `\LL{3,4}`),
    // and only then do variance-showing ranges widen to `+`/`*`. The
    // reverse order would widen the trailing optional first and merge
    // into an ugly `\LL{3,}`.
    acc.normalized()
}

/// Widen repetition intervals that show variance into `+` / `*`.
///
/// * `Range(0, _)` → `*`; `Range(a>0, _)` → `+`;
/// * `Exactly(n)` with `n >= threshold` → `+` (only for non-literal
///   classes — literal runs stay exact);
/// * *optional literals* (minimum 0, produced by gap alignments like
///   `Charles ⊔ Bosco`) generalize to their interior class, so they merge
///   with neighbouring class runs instead of littering the pattern with
///   `h*a*`;
/// * everything else unchanged.
///
/// Runs to fixpoint (widening can expose new merges, e.g.
/// `\LL*\LL{4}` → `\LL{4,}` → `\LL+`).
#[must_use]
pub fn loosen(p: &Pattern, threshold: u32) -> Pattern {
    let mut current = p.clone();
    for _ in 0..4 {
        let next = loosen_once(&current, threshold);
        if next == current {
            break;
        }
        current = next;
    }
    current
}

fn loosen_once(p: &Pattern, threshold: u32) -> Pattern {
    let elements = p
        .elements()
        .iter()
        .map(|e| {
            // An optional literal came from a gap: some sample strings
            // lack the character entirely, so the literal identity is not
            // load-bearing — generalize it to its class.
            let class = match (e.class, e.quant.interval().0) {
                (SymbolClass::Literal(c), 0) => SymbolClass::class_of(c),
                (class, _) => class,
            };
            let quant = match e.quant {
                Quantifier::Range(0, _) => Quantifier::Star,
                Quantifier::Range(_, _) => Quantifier::Plus,
                Quantifier::AtLeast(0) => Quantifier::Star,
                Quantifier::AtLeast(_) => Quantifier::Plus,
                Quantifier::Exactly(n) if n >= threshold && !class.is_literal() => Quantifier::Plus,
                q => q,
            };
            Element::new(class, quant)
        })
        .collect();
    Pattern::new(elements).normalized()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_literal() {
        assert_eq!(
            signature("ab", PatternLevel::Literal),
            Pattern::literal("ab")
        );
    }

    #[test]
    fn signature_class_exact() {
        let p = signature("John", PatternLevel::ClassExact);
        assert_eq!(p.to_string(), "\\LU\\LL{3}");
        let p = signature("90001", PatternLevel::ClassExact);
        assert_eq!(p.to_string(), "\\D{5}");
    }

    #[test]
    fn signature_keeps_symbols_literal() {
        let p = signature("555-1234", PatternLevel::ClassExact);
        assert_eq!(p.to_string(), "\\D{3}-\\D{4}");
        let p = signature("Jones, Stacey", PatternLevel::ClassExact);
        assert_eq!(p.to_string(), "\\LU\\LL{4},\\ \\LU\\LL{5}");
    }

    #[test]
    fn signature_class_unbounded() {
        let p = signature("John", PatternLevel::ClassUnbounded);
        assert_eq!(p.to_string(), "\\LU\\LL+");
        // Single chars stay exact (below the loosen threshold).
        let p = signature("A1", PatternLevel::ClassUnbounded);
        assert_eq!(p.to_string(), "\\LU\\D");
    }

    #[test]
    fn signature_any() {
        assert_eq!(signature("abc", PatternLevel::Any).to_string(), "\\A+");
        assert!(signature("", PatternLevel::Any).is_empty());
    }

    #[test]
    fn signature_matches_own_string() {
        for s in ["John Charles", "90001", "F-9-107", "CHEMBL25"] {
            for level in PatternLevel::ALL {
                assert!(
                    signature(s, level).matches(s),
                    "signature({s}, {level:?}) must match {s}"
                );
            }
        }
    }

    #[test]
    fn induce_singleton_is_literal() {
        let p = induce(&["90001"]);
        assert_eq!(p, Pattern::literal("90001").normalized());
    }

    #[test]
    fn induce_zip_codes_paper_shape() {
        // Table 2: 90001–90003 share the 900 prefix.
        let p = induce(&["90001", "90002", "90003"]);
        assert!(p.matches("90001"));
        assert!(p.matches("90004")); // generalizes the varying suffix
        assert!(!p.matches("10001")); // keeps the literal prefix
        assert!(!p.matches("900012"));
    }

    #[test]
    fn induce_empty_sample() {
        assert!(induce(&[]).is_empty());
    }

    #[test]
    fn induce_covers_all_inputs() {
        let strings = ["John Charles", "John Bosco", "Susan Orlean", "Susan Boyle"];
        let p = induce(&strings);
        for s in strings {
            assert!(p.matches(s), "{p} should match {s}");
        }
    }

    #[test]
    fn induce_first_name_shared_prefix() {
        let p = induce(&["John Charles", "John Bosco"]);
        assert!(p.matches("John Charles"));
        assert!(p.matches("John Bosco"));
        assert!(!p.matches("Susan Boyle"), "{p} should keep the John prefix");
        // Covering *unseen* values of the same shape needs loosening.
        let l = loosen(&induce(&["John Charles", "John Bosco"]), 2);
        assert!(l.matches("John Albert"), "{l} should cover unseen names");
        assert!(!l.matches("Susan Boyle"), "{l} should keep the John prefix");
    }

    #[test]
    fn induce_dedups_and_is_deterministic() {
        let a = induce(&["90002", "90001", "90001", "90003"]);
        let b = induce(&["90001", "90003", "90002"]);
        assert_eq!(a, b);
    }

    #[test]
    fn loosen_widens_ranges() {
        let p: Pattern = "\\D{2,5}\\LL{4}x{3}".parse().unwrap();
        let l = loosen(&p, 2);
        assert_eq!(l.to_string(), "\\D+\\LL+x{3}");
    }

    #[test]
    fn induce_with_loosening() {
        let p = loosen(&induce(&["Holloway, Donald E.", "Kimbell, Donald"]), 2);
        assert!(p.matches("Holloway, Donald E."));
        assert!(p.matches("Kimbell, Donald"));
        // Should also cover a new last name with the same shape.
        assert!(p.matches("Mallack, Donald"), "{p}");
    }

    #[test]
    fn induce_respects_max_samples() {
        let strings: Vec<String> = (0..200).map(|i| format!("{i:05}")).collect();
        let refs: Vec<&str> = strings.iter().map(String::as_str).collect();
        assert!(refs.len() > MAX_SAMPLES);
        let p = induce(&refs);
        assert!(!p.is_empty());
    }
}
