//! Pattern containment (`P ⊆ P'`) and least-general generalization.
//!
//! §2 of the paper defines containment as language inclusion: `P ⊆ P'` iff
//! every string matching `P` also matches `P'`. For general regexes this is
//! PSPACE-complete; for our restricted chain-shaped language the automata
//! are tiny, so the classical product construction is practical and exact:
//!
//! 1. compile both patterns to NFAs (counted repetitions unrolled, with a
//!    loop state for unbounded tails);
//! 2. partition the infinite alphabet into finitely many *atoms* — each
//!    literal character mentioned by either pattern, plus one fresh
//!    representative per interior class (`\LU`, `\LL`, `\D`, `\S`) — such
//!    that every transition predicate is a union of atoms;
//! 3. walk the product of `NFA(P)` with the on-the-fly determinization of
//!    `NFA(P')`; containment fails iff some reachable pair accepts in `P`
//!    but not in `P'`.
//!
//! [`generalize_patterns`] computes a *least-general generalization* under
//! element alignment: the result's language contains both inputs, and it is
//! the most specific such pattern reachable by per-element class joins and
//! interval unions along an optimal alignment. Discovery uses it to fold a
//! sample of value strings into one tableau pattern.

use crate::ast::{Element, Pattern, Quantifier};
use crate::symbol::SymbolClass;
use fxhash::FxHashSet;
use std::collections::{BTreeSet, VecDeque};

/// Is `L(p) ⊆ L(q)` — every string matching `p` also matches `q`?
///
/// Exact for the restricted language (no approximation).
#[must_use]
pub fn contains(q: &Pattern, p: &Pattern) -> bool {
    // Fast screens on lengths.
    if p.min_len() < q.min_len() {
        return false;
    }
    match (p.max_len(), q.max_len()) {
        (None, Some(_)) => return false,
        (Some(pm), Some(qm)) if pm > qm => return false,
        _ => {}
    }
    let p = p.normalized();
    let q = q.normalized();
    let np = Nfa::compile(&p);
    let nq = Nfa::compile(&q);
    let atoms = alphabet_atoms(&[&p, &q]);

    // BFS over (p-state, q-state-set).
    let start_p = np.eps_closure(&[np.start]);
    let start_q = nq.eps_closure(&[nq.start]);
    let mut seen: FxHashSet<(BTreeSet<usize>, BTreeSet<usize>)> = FxHashSet::default();
    let mut queue = VecDeque::new();
    queue.push_back((start_p, start_q));
    while let Some((ps, qs)) = queue.pop_front() {
        if seen.contains(&(ps.clone(), qs.clone())) {
            continue;
        }
        if np.accepts_set(&ps) && !nq.accepts_set(&qs) {
            return false;
        }
        for &c in &atoms {
            let ps2 = np.step(&ps, c);
            if ps2.is_empty() {
                continue; // p dies; nothing to contain
            }
            let qs2 = nq.step(&qs, c);
            if !seen.contains(&(ps2.clone(), qs2.clone())) {
                queue.push_back((ps2, qs2));
            }
        }
        seen.insert((ps, qs));
    }
    true
}

/// Are the two patterns language-equivalent?
#[must_use]
pub fn equivalent(a: &Pattern, b: &Pattern) -> bool {
    contains(a, b) && contains(b, a)
}

/// A chain-shaped NFA for one pattern.
struct Nfa {
    start: usize,
    accept: usize,
    /// `trans[s]` = list of `(class, target)` character transitions.
    trans: Vec<Vec<(SymbolClass, usize)>>,
    /// `eps[s]` = ε-transitions.
    eps: Vec<Vec<usize>>,
}

impl Nfa {
    fn compile(p: &Pattern) -> Nfa {
        let mut nfa = Nfa {
            start: 0,
            accept: 0,
            trans: vec![Vec::new()],
            eps: vec![Vec::new()],
        };
        let mut cur = 0usize;
        for e in p.elements() {
            let (min, max) = e.quant.interval();
            // Mandatory part: `min` chained copies.
            for _ in 0..min {
                let next = nfa.new_state();
                nfa.trans[cur].push((e.class, next));
                cur = next;
            }
            match max {
                Some(max) => {
                    // Optional part: (max - min) copies, each skippable to the end.
                    let mut optional_starts = vec![cur];
                    for _ in min..max {
                        let next = nfa.new_state();
                        nfa.trans[cur].push((e.class, next));
                        cur = next;
                        optional_starts.push(cur);
                    }
                    let end = cur;
                    for s in optional_starts {
                        if s != end {
                            nfa.eps[s].push(end);
                        }
                    }
                }
                None => {
                    // Unbounded tail: self-loop.
                    nfa.trans[cur].push((e.class, cur));
                }
            }
        }
        nfa.accept = cur;
        nfa
    }

    fn new_state(&mut self) -> usize {
        self.trans.push(Vec::new());
        self.eps.push(Vec::new());
        self.trans.len() - 1
    }

    fn eps_closure(&self, states: &[usize]) -> BTreeSet<usize> {
        let mut out: BTreeSet<usize> = states.iter().copied().collect();
        let mut stack: Vec<usize> = states.to_vec();
        while let Some(s) = stack.pop() {
            for &t in &self.eps[s] {
                if out.insert(t) {
                    stack.push(t);
                }
            }
        }
        out
    }

    fn step(&self, states: &BTreeSet<usize>, c: char) -> BTreeSet<usize> {
        let mut moved = Vec::new();
        for &s in states {
            for &(class, t) in &self.trans[s] {
                if class.matches(c) {
                    moved.push(t);
                }
            }
        }
        self.eps_closure(&moved)
    }

    fn accepts_set(&self, states: &BTreeSet<usize>) -> bool {
        states.contains(&self.accept)
    }
}

/// One representative character per alphabet atom induced by the patterns.
fn alphabet_atoms(patterns: &[&Pattern]) -> Vec<char> {
    let mut literals: BTreeSet<char> = BTreeSet::new();
    let mut classes: BTreeSet<SymbolClass> = BTreeSet::new();
    for p in patterns {
        for e in p.elements() {
            match e.class {
                SymbolClass::Literal(c) => {
                    literals.insert(c);
                }
                c => {
                    classes.insert(c);
                }
            }
        }
    }
    let mut atoms: Vec<char> = literals.iter().copied().collect();
    // A fresh (unmentioned) representative per interior class. `\A` needs one
    // representative from *some* class not fully covered; adding one per
    // interior class covers it.
    let pools: [(SymbolClass, &[char]); 4] = [
        (SymbolClass::Upper, &UPPER_POOL),
        (SymbolClass::Lower, &LOWER_POOL),
        (SymbolClass::Digit, &DIGIT_POOL),
        (SymbolClass::Symbol, &SYMBOL_POOL),
    ];
    for (_, pool) in pools {
        if let Some(&fresh) = pool.iter().find(|c| !literals.contains(c)) {
            atoms.push(fresh);
        }
    }
    atoms
}

const UPPER_POOL: [char; 27] = [
    'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J', 'K', 'L', 'M', 'N', 'O', 'P', 'Q', 'R', 'S',
    'T', 'U', 'V', 'W', 'X', 'Y', 'Z', 'À',
];
const LOWER_POOL: [char; 27] = [
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r', 's',
    't', 'u', 'v', 'w', 'x', 'y', 'z', 'à',
];
const DIGIT_POOL: [char; 10] = ['0', '1', '2', '3', '4', '5', '6', '7', '8', '9'];
const SYMBOL_POOL: [char; 18] = [
    '-', '_', '.', ',', ' ', ':', ';', '!', '?', '#', '@', '%', '&', '/', '(', ')', '\'', '"',
];

/// Least-general generalization of two patterns under element alignment.
///
/// The result's language is a superset of both inputs'. Alignment uses
/// Needleman–Wunsch over elements with a substitution cost derived from the
/// generalization-tree distance; aligned elements merge by class join and
/// repetition-interval union, and gap elements become optional
/// (minimum repetition 0).
#[must_use]
pub fn generalize_patterns(a: &Pattern, b: &Pattern) -> Pattern {
    generalize_patterns_raw(a, b).normalized()
}

/// [`generalize_patterns`] without the final normalization.
///
/// Induction folds many strings through repeated generalization; keeping
/// the intermediate accumulator *unnormalized* preserves per-character
/// granularity (normalization merges literal runs like `00` → `0{2}`, and
/// aligning a merged element against single characters forces noisy
/// interval unions). Normalize once after the fold completes.
#[must_use]
pub fn generalize_patterns_raw(a: &Pattern, b: &Pattern) -> Pattern {
    let ae = a.elements();
    let be = b.elements();
    let (n, m) = (ae.len(), be.len());
    // Strictly above the maximum substitution cost (6), so the alignment
    // only uses gaps to absorb length differences — never to "reuse" a
    // shared character across misaligned positions, which would produce
    // needlessly wide optional elements.
    const GAP: u32 = 7;
    // dp[i][j] = min cost aligning ae[..i] with be[..j].
    let mut dp = vec![vec![u32::MAX; m + 1]; n + 1];
    dp[0][0] = 0;
    for i in 0..=n {
        for j in 0..=m {
            let cur = dp[i][j];
            if cur == u32::MAX {
                continue;
            }
            if i < n && j < m {
                let cost = subst_cost(&ae[i], &be[j]);
                let c = cur + cost;
                if c < dp[i + 1][j + 1] {
                    dp[i + 1][j + 1] = c;
                }
            }
            if i < n {
                let c = cur + GAP;
                if c < dp[i + 1][j] {
                    dp[i + 1][j] = c;
                }
            }
            if j < m {
                let c = cur + GAP;
                if c < dp[i][j + 1] {
                    dp[i][j + 1] = c;
                }
            }
        }
    }
    // Trace back.
    let mut merged_rev: Vec<Element> = Vec::new();
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        let cur = dp[i][j];
        if i > 0 && j > 0 && dp[i - 1][j - 1] != u32::MAX {
            let cost = subst_cost(&ae[i - 1], &be[j - 1]);
            if dp[i - 1][j - 1] + cost == cur {
                merged_rev.push(merge_elements(&ae[i - 1], &be[j - 1]));
                i -= 1;
                j -= 1;
                continue;
            }
        }
        if i > 0 && dp[i - 1][j] != u32::MAX && dp[i - 1][j] + GAP == cur {
            merged_rev.push(optionalize(&ae[i - 1]));
            i -= 1;
            continue;
        }
        debug_assert!(j > 0);
        merged_rev.push(optionalize(&be[j - 1]));
        j -= 1;
    }
    merged_rev.reverse();
    Pattern::new(merged_rev)
}

fn subst_cost(a: &Element, b: &Element) -> u32 {
    // Graded by how far up the generalization tree the join lands: equal
    // classes align freely, joins within one interior class (two distinct
    // digits, two lowercase letters) are mild, and joins that balloon to
    // `\A` are last-resort — still cheaper than a gap, so alignments stay
    // positional, but expensive enough that the traceback prefers
    // class-preserving pairings when costs tie overall.
    let class_cost = if a.class == b.class {
        0
    } else if a.class.subsumes(&b.class) || b.class.subsumes(&a.class) {
        2
    } else if a.class.join(&b.class) != SymbolClass::Any {
        3
    } else {
        5
    };
    let quant_cost = u32::from(a.quant != b.quant);
    class_cost + quant_cost
}

fn merge_elements(a: &Element, b: &Element) -> Element {
    let class = a.class.join(&b.class);
    let (amin, amax) = a.quant.interval();
    let (bmin, bmax) = b.quant.interval();
    let min = amin.min(bmin);
    let max = match (amax, bmax) {
        (Some(x), Some(y)) => Some(x.max(y)),
        _ => None,
    };
    Element::new(
        class,
        Quantifier::from_interval(min, max).expect("min(mins) <= max(maxes)"),
    )
}

fn optionalize(e: &Element) -> Element {
    let (_, max) = e.quant.interval();
    Element::new(
        e.class,
        Quantifier::from_interval(0, max).expect("0 <= max"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    #[test]
    fn paper_example1_containment() {
        // P1 = \D{5}, P2 = \D*: P1 ⊆ P2.
        let p1 = pat("\\D{5}");
        let p2 = pat("\\D*");
        assert!(contains(&p2, &p1));
        assert!(!contains(&p1, &p2));
    }

    #[test]
    fn literal_contained_in_class() {
        let lit = Pattern::literal("900");
        let cls = pat("\\D{3}");
        assert!(contains(&cls, &lit));
        assert!(!contains(&lit, &cls));
    }

    #[test]
    fn everything_contained_in_any_star() {
        let top = Pattern::any_string();
        for s in ["900\\D{2}", "\\LU\\LL*\\ \\A*", "abc", "\\S+"] {
            assert!(contains(&top, &pat(s)), "{s} should be ⊆ \\A*");
        }
        assert!(!contains(&pat("abc"), &top));
    }

    #[test]
    fn containment_reflexive() {
        for s in ["900\\D{2}", "\\LU\\LL*\\ \\A*", "", "\\D+"] {
            let p = pat(s);
            assert!(contains(&p, &p), "{s} ⊆ itself");
        }
    }

    #[test]
    fn sibling_classes_incomparable() {
        assert!(!contains(&pat("\\LU+"), &pat("\\LL+")));
        assert!(!contains(&pat("\\LL+"), &pat("\\LU+")));
    }

    #[test]
    fn counted_vs_range() {
        assert!(contains(&pat("\\D{2,5}"), &pat("\\D{3}")));
        assert!(!contains(&pat("\\D{2,5}"), &pat("\\D{6}")));
        assert!(contains(&pat("\\D{2,}"), &pat("\\D{2,5}")));
    }

    #[test]
    fn chain_split_equivalence() {
        // \D\D{2} ≡ \D{3}.
        assert!(equivalent(&pat("\\D\\D{2}"), &pat("\\D{3}")));
        // \LL*\LL* ≡ \LL*.
        assert!(equivalent(&pat("\\LL*\\LL*"), &pat("\\LL*")));
        // \LL+\LL* ≡ \LL+.
        assert!(equivalent(&pat("\\LL+\\LL*"), &pat("\\LL+")));
    }

    #[test]
    fn subtle_non_containment() {
        // \D{2}a ⊄ \D{3}: 12a not all digits.
        assert!(!contains(&pat("\\D{3}"), &pat("\\D{2}a")));
        // a\A* ⊆ \A* but not vice versa.
        assert!(contains(&pat("\\A*"), &pat("a\\A*")));
        assert!(!contains(&pat("a\\A*"), &pat("\\A*")));
    }

    #[test]
    fn q2_contained_in_q1_from_example2() {
        // Embedded patterns of Q2 vs Q1 (Example 2): Q2 = \LU\LL*\ \A*\ \LU\LL*
        // is contained in Q1 = \LU\LL*\ \A*.
        let q1 = pat("\\LU\\LL*\\ \\A*");
        let q2 = pat("\\LU\\LL*\\ \\A*\\ \\LU\\LL*");
        assert!(contains(&q1, &q2));
        assert!(!contains(&q2, &q1));
    }

    #[test]
    fn generalize_identical_is_identity() {
        let p = pat("900\\D{2}");
        assert!(equivalent(&generalize_patterns(&p, &p), &p));
    }

    #[test]
    fn generalize_covers_both() {
        let a = Pattern::literal("90001");
        let b = Pattern::literal("90002");
        let g = generalize_patterns(&a, &b);
        assert!(contains(&g, &a));
        assert!(contains(&g, &b));
        // And it should not balloon to \A*.
        assert!(!contains(&g, &Pattern::literal("abcde")));
    }

    #[test]
    fn generalize_literals_to_digit_class() {
        let a = Pattern::literal("607");
        let b = Pattern::literal("850");
        let g = generalize_patterns(&a, &b);
        assert!(contains(&g, &a));
        assert!(contains(&g, &b));
        assert!(contains(&pat("\\D{3}"), &g));
    }

    #[test]
    fn containment_implies_intersection_when_nonempty() {
        let p = pat("900\\D{2}");
        let q = pat("\\D{5}");
        assert!(contains(&q, &p));
    }

    #[test]
    fn generalize_different_lengths() {
        let a = Pattern::literal("John");
        let b = Pattern::literal("Susan");
        let g = generalize_patterns(&a, &b);
        assert!(g.matches("John"));
        assert!(g.matches("Susan"));
    }
}
