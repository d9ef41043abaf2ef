//! The generalization tree (Figure 1 of the paper).
//!
//! The tree is defined over an alphabet `Σ`: each leaf is a character, each
//! intermediate node generalizes its children. The interior levels are
//! upper-case letters (`\LU`), lower-case letters (`\LL`), digits (`\D`) and
//! other symbols (`\S`); the root `\A` matches any character. The empty
//! string `ϵ` is represented at the [`crate::Quantifier`] level (a zero
//! minimum), not as a symbol class.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A node of the generalization tree.
///
/// `Literal(c)` is a leaf; `Upper`/`Lower`/`Digit`/`Symbol` are the four
/// interior classes; `Any` is the root. The partial order "is generalized
/// by" is exposed through [`SymbolClass::subsumes`] and least upper bounds
/// through [`SymbolClass::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SymbolClass {
    /// A concrete character (a leaf of the tree).
    Literal(char),
    /// Any upper-case letter, written `\LU`.
    Upper,
    /// Any lower-case letter, written `\LL`.
    Lower,
    /// Any decimal digit, written `\D`.
    Digit,
    /// Any non-alphanumeric character (punctuation, whitespace…), written `\S`.
    Symbol,
    /// Any character at all — the root of the tree, written `\A`.
    Any,
}

impl SymbolClass {
    /// The interior class a concrete character belongs to.
    ///
    /// This is the immediate parent of the leaf `Literal(c)` in the
    /// generalization tree.
    #[must_use]
    pub fn class_of(c: char) -> SymbolClass {
        if c.is_ascii_uppercase() || (c.is_alphabetic() && c.is_uppercase()) {
            SymbolClass::Upper
        } else if c.is_ascii_lowercase() || (c.is_alphabetic() && c.is_lowercase()) {
            SymbolClass::Lower
        } else if c.is_ascii_digit() {
            SymbolClass::Digit
        } else {
            SymbolClass::Symbol
        }
    }

    /// Does this class match the character `c`?
    #[must_use]
    pub fn matches(&self, c: char) -> bool {
        match self {
            SymbolClass::Literal(l) => *l == c,
            SymbolClass::Any => true,
            class => SymbolClass::class_of(c) == *class,
        }
    }

    /// The parent node in the generalization tree, or `None` for the root.
    #[must_use]
    pub fn parent(&self) -> Option<SymbolClass> {
        match self {
            SymbolClass::Literal(c) => Some(SymbolClass::class_of(*c)),
            SymbolClass::Any => None,
            _ => Some(SymbolClass::Any),
        }
    }

    /// Depth in the tree: root `\A` has depth 0, interior classes depth 1,
    /// literals depth 2.
    #[must_use]
    pub fn depth(&self) -> u8 {
        match self {
            SymbolClass::Any => 0,
            SymbolClass::Literal(_) => 2,
            _ => 1,
        }
    }

    /// Iterator over `self` and all its ancestors up to the root.
    pub fn ancestors(&self) -> impl Iterator<Item = SymbolClass> {
        let mut cur = Some(*self);
        std::iter::from_fn(move || {
            let out = cur;
            cur = cur.and_then(|c| c.parent());
            out
        })
    }

    /// Is every string matched by `other` also matched by `self`?
    ///
    /// I.e. `other` is a descendant-or-self of `self` in the tree.
    #[must_use]
    pub fn subsumes(&self, other: &SymbolClass) -> bool {
        if self == other {
            return true;
        }
        other.ancestors().any(|a| a == *self)
    }

    /// Least upper bound (least common ancestor) of two classes.
    #[must_use]
    pub fn join(&self, other: &SymbolClass) -> SymbolClass {
        if self.subsumes(other) {
            return *self;
        }
        if other.subsumes(self) {
            return *other;
        }
        // Walk up from `self` until we find an ancestor subsuming `other`.
        self.ancestors()
            .find(|a| a.subsumes(other))
            .unwrap_or(SymbolClass::Any)
    }

    /// Greatest lower bound, if the two classes are comparable.
    ///
    /// The tree has no non-trivial meets between siblings, so this returns
    /// `None` exactly when neither subsumes the other.
    #[must_use]
    pub fn meet(&self, other: &SymbolClass) -> Option<SymbolClass> {
        if self.subsumes(other) {
            Some(*other)
        } else if other.subsumes(self) {
            Some(*self)
        } else {
            None
        }
    }

    /// Is this a leaf (concrete character)?
    #[must_use]
    pub fn is_literal(&self) -> bool {
        matches!(self, SymbolClass::Literal(_))
    }
}

impl fmt::Display for SymbolClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymbolClass::Literal(c) => match c {
                '\\' => write!(f, "\\\\"),
                ' ' => write!(f, "\\ "),
                '{' => write!(f, "\\{{"),
                '}' => write!(f, "\\}}"),
                '*' => write!(f, "\\*"),
                '+' => write!(f, "\\+"),
                '[' => write!(f, "\\["),
                ']' => write!(f, "\\]"),
                c => write!(f, "{c}"),
            },
            SymbolClass::Upper => write!(f, "\\LU"),
            SymbolClass::Lower => write!(f, "\\LL"),
            SymbolClass::Digit => write!(f, "\\D"),
            SymbolClass::Symbol => write!(f, "\\S"),
            SymbolClass::Any => write!(f, "\\A"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_of_basic() {
        assert_eq!(SymbolClass::class_of('A'), SymbolClass::Upper);
        assert_eq!(SymbolClass::class_of('z'), SymbolClass::Lower);
        assert_eq!(SymbolClass::class_of('7'), SymbolClass::Digit);
        assert_eq!(SymbolClass::class_of('-'), SymbolClass::Symbol);
        assert_eq!(SymbolClass::class_of(' '), SymbolClass::Symbol);
        assert_eq!(SymbolClass::class_of(','), SymbolClass::Symbol);
    }

    #[test]
    fn class_of_unicode() {
        assert_eq!(SymbolClass::class_of('É'), SymbolClass::Upper);
        assert_eq!(SymbolClass::class_of('é'), SymbolClass::Lower);
    }

    #[test]
    fn matches_literal_and_classes() {
        assert!(SymbolClass::Literal('a').matches('a'));
        assert!(!SymbolClass::Literal('a').matches('b'));
        assert!(SymbolClass::Upper.matches('Q'));
        assert!(!SymbolClass::Upper.matches('q'));
        assert!(SymbolClass::Digit.matches('0'));
        assert!(SymbolClass::Symbol.matches('.'));
        assert!(SymbolClass::Any.matches('x'));
        assert!(SymbolClass::Any.matches('#'));
    }

    #[test]
    fn parent_chain() {
        assert_eq!(SymbolClass::Literal('a').parent(), Some(SymbolClass::Lower));
        assert_eq!(SymbolClass::Lower.parent(), Some(SymbolClass::Any));
        assert_eq!(SymbolClass::Any.parent(), None);
    }

    #[test]
    fn depth_levels() {
        assert_eq!(SymbolClass::Any.depth(), 0);
        assert_eq!(SymbolClass::Digit.depth(), 1);
        assert_eq!(SymbolClass::Literal('3').depth(), 2);
    }

    #[test]
    fn ancestors_of_literal() {
        let v: Vec<_> = SymbolClass::Literal('5').ancestors().collect();
        assert_eq!(
            v,
            vec![
                SymbolClass::Literal('5'),
                SymbolClass::Digit,
                SymbolClass::Any
            ]
        );
    }

    #[test]
    fn subsumption_reflexive_and_tree_order() {
        let digit5 = SymbolClass::Literal('5');
        assert!(digit5.subsumes(&digit5));
        assert!(SymbolClass::Digit.subsumes(&digit5));
        assert!(SymbolClass::Any.subsumes(&digit5));
        assert!(!digit5.subsumes(&SymbolClass::Digit));
        assert!(!SymbolClass::Upper.subsumes(&SymbolClass::Lower));
    }

    #[test]
    fn join_siblings_is_root() {
        assert_eq!(
            SymbolClass::Upper.join(&SymbolClass::Digit),
            SymbolClass::Any
        );
        assert_eq!(
            SymbolClass::Literal('a').join(&SymbolClass::Literal('b')),
            SymbolClass::Lower
        );
        assert_eq!(
            SymbolClass::Literal('a').join(&SymbolClass::Literal('A')),
            SymbolClass::Any
        );
        assert_eq!(
            SymbolClass::Literal('a').join(&SymbolClass::Literal('a')),
            SymbolClass::Literal('a')
        );
    }

    #[test]
    fn meet_comparable_only() {
        assert_eq!(
            SymbolClass::Digit.meet(&SymbolClass::Literal('3')),
            Some(SymbolClass::Literal('3'))
        );
        assert_eq!(SymbolClass::Upper.meet(&SymbolClass::Lower), None);
        assert_eq!(
            SymbolClass::Any.meet(&SymbolClass::Symbol),
            Some(SymbolClass::Symbol)
        );
    }

    #[test]
    fn display_escapes() {
        assert_eq!(SymbolClass::Upper.to_string(), "\\LU");
        assert_eq!(SymbolClass::Literal(' ').to_string(), "\\ ");
        assert_eq!(SymbolClass::Literal('x').to_string(), "x");
        assert_eq!(SymbolClass::Literal('*').to_string(), "\\*");
    }
}
