//! Differential property test for the tableau memo: for every value, the
//! members whose compiled program accepts it, found by evaluating only
//! the members whose literal prefix the value starts with, must be
//! exactly the members a full scan of the tableau accepts.
//!
//! Tableaux hold 1–12 members: wildcards and patterns whose literal heads
//! are equal, nested (`9\D{4}` beside `900\D{2}`), disjoint or empty,
//! with repeated last literals (`ab+c`) and multibyte heads (`é`, `ǅ`,
//! `😀`). Values are null, empty, free strings, strings sampled from a
//! member's pattern, and strings built around a member's head: equal to
//! it, extending it, cut short inside it (so a longer head's probe length
//! ends mid-character), or one code point off its last char.
//!
//! Beyond the answer, the counters are the contract: a value's first
//! sighting (looked up or primed) costs one eval per candidate member,
//! and any later lookup of the same id costs none.
//!
//! Case count scales with `PROPTEST_CASES` (CI runs it at an elevated
//! count with the pattern tier differential).

use anmat_index::TableauMemo;
use anmat_pattern::{CompiledPattern, Element, Pattern, Quantifier, SymbolClass};
use anmat_table::{ValueId, ValuePool};
use proptest::prelude::*;
use std::collections::HashSet;

/// Characters for literals and generated values: ASCII, 2-byte `é`,
/// titlecase `ǅ`, and 4-byte `😀`.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        prop::char::ranges(vec!['a'..='c', 'A'..='B', '0'..='2', '9'..='9', '-'..='-'].into()),
        Just('é'),
        Just('ǅ'),
        Just('😀'),
    ]
}

fn any_string(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(any_char(), 0..max_len + 1).prop_map(|cs| cs.into_iter().collect())
}

/// Heads shared across members, so tableaux repeat them (equal
/// prefixes) and chain them (`9` ⊂ `90` ⊂ `900`, `é` ⊂ `éa`).
const HEADS: [&str; 11] = ["", "9", "90", "900", "a", "ab", "é", "éa", "ǅ", "😀", "😀ǅ"];

fn any_head() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..HEADS.len()).prop_map(|i| HEADS[i].to_string()),
        (0..HEADS.len()).prop_map(|i| HEADS[i].to_string()),
        any_string(3),
    ]
}

/// `{n}`, `{m,n}`, `+` and `*`.
fn any_quantifier() -> impl Strategy<Value = Quantifier> {
    prop_oneof![
        (1u32..4).prop_map(|n| (n, Some(n))),
        (0u32..3, 1u32..3).prop_map(|(m, extra)| (m, Some(m + extra))),
        Just((1, None)),
        Just((0, None)),
    ]
    .prop_map(|(min, max)| Quantifier::from_interval(min, max).expect("valid interval"))
}

fn any_tail_element() -> impl Strategy<Value = Element> {
    let class = prop_oneof![
        Just(SymbolClass::Digit),
        Just(SymbolClass::Upper),
        Just(SymbolClass::Lower),
        Just(SymbolClass::Symbol),
        Just(SymbolClass::Any),
        any_char().prop_map(SymbolClass::Literal),
    ];
    (class, any_quantifier()).prop_map(|(class, quant)| Element::new(class, quant))
}

/// A pattern member with its head: `head` once each, the last one under
/// `repeat` (if any), then the literal `next` (the `c` of `ab+c`), then
/// `tail`.
fn any_pattern() -> impl Strategy<Value = Option<(Pattern, String)>> {
    (
        any_head(),
        prop::option::of(any_quantifier()),
        prop::option::of(any_char()),
        prop::collection::vec(any_tail_element(), 0..4),
    )
        .prop_map(|(head, repeat, next, tail)| {
            let mut elements: Vec<Element> = head.chars().map(Element::literal).collect();
            if let (Some(last), Some(quant)) = (elements.last_mut(), repeat) {
                *last = Element::new(last.class, quant);
            }
            elements.extend(next.map(Element::literal));
            elements.extend(tail);
            Some((Pattern::new(elements), head))
        })
}

/// One tableau member: a wildcard (`None`) one time in five, else a
/// pattern.
fn any_member() -> impl Strategy<Value = Option<(Pattern, String)>> {
    prop_oneof![
        Just(None),
        any_pattern(),
        any_pattern(),
        any_pattern(),
        any_pattern(),
    ]
}

/// One value, as a recipe over member `m % members` (its head and
/// pattern; a wildcard member offers neither).
#[derive(Debug, Clone)]
enum Cell {
    Null,
    Empty,
    Free(String),
    /// The first `n` chars of the head, then a suffix: extends, equals
    /// or stops inside it.
    Head(usize, usize, String),
    /// The head with its last char moved by ±1 code point, then a
    /// suffix.
    Neighbour(usize, bool, String),
    /// A string drawn from the member's pattern, each repeat count and
    /// class member picked by the next choice byte.
    Sample(usize, Vec<u8>),
}

fn any_cell() -> impl Strategy<Value = Cell> {
    prop_oneof![
        Just(Cell::Null),
        Just(Cell::Empty),
        any_string(5).prop_map(Cell::Free),
        (any::<usize>(), 0usize..4, any_string(4)).prop_map(|(m, n, s)| Cell::Head(m, n, s)),
        (any::<usize>(), 0usize..4).prop_map(|(m, n)| Cell::Head(m, n, String::new())),
        (any::<usize>(), any::<bool>(), any_string(3))
            .prop_map(|(m, up, s)| Cell::Neighbour(m, up, s)),
        (any::<usize>(), prop::collection::vec(any::<u8>(), 1..24))
            .prop_map(|(m, choices)| Cell::Sample(m, choices)),
        (any::<usize>(), prop::collection::vec(any::<u8>(), 1..24))
            .prop_map(|(m, choices)| Cell::Sample(m, choices)),
    ]
}

/// A string the pattern is likely to match (the compiled program decides
/// whether it does); `choices` are consumed cyclically.
fn sample(pattern: &Pattern, choices: &[u8]) -> String {
    let mut next = choices.iter().cycle().map(|&b| usize::from(b));
    let mut out = String::new();
    for e in pattern.elements() {
        let (min, max) = e.quant.interval();
        let spread = max.map_or(3, |max| max - min) as usize;
        let count = min as usize + next.next().unwrap() % (spread + 1);
        let members: &[char] = match e.class {
            SymbolClass::Literal(ref c) => std::slice::from_ref(c),
            SymbolClass::Digit => &['0', '7', '9'],
            SymbolClass::Upper => &['A', 'Z', 'É'],
            SymbolClass::Lower => &['a', 'z', 'é'],
            SymbolClass::Symbol => &['-', ' ', '.'],
            SymbolClass::Any => &['a', '0', '-', 'ǅ', '😀'],
        };
        for _ in 0..count {
            out.push(members[next.next().unwrap() % members.len()]);
        }
    }
    out
}

/// The value a cell stands for (`None` = null).
fn render(cell: &Cell, members: &[Option<(Pattern, String)>]) -> Option<String> {
    let member = |m: usize| members[m % members.len()].as_ref();
    let head = |m: usize| member(m).map_or("", |(_, head)| head.as_str());
    Some(match cell {
        Cell::Null => return None,
        Cell::Empty => String::new(),
        Cell::Free(s) => s.clone(),
        Cell::Head(m, n, suffix) => head(*m).chars().take(*n).collect::<String>() + suffix,
        Cell::Neighbour(m, up, suffix) => {
            let mut chars: Vec<char> = head(*m).chars().collect();
            if let Some(last) = chars.last_mut() {
                let code = u32::from(*last);
                let moved = if *up {
                    code + 1
                } else {
                    code.saturating_sub(1)
                };
                *last = char::from_u32(moved).unwrap_or(*last);
            }
            chars.into_iter().collect::<String>() + suffix
        }
        Cell::Sample(m, choices) => {
            member(*m).map_or_else(String::new, |(p, _)| sample(p, choices))
        }
    })
}

/// The spec's literal prefix: the exactly-once literals that open the
/// pattern, plus the first copy of a repeated literal that must occur.
fn literal_prefix(p: &Pattern) -> String {
    let mut out = String::new();
    for e in p.elements() {
        let SymbolClass::Literal(c) = e.class else {
            break;
        };
        match e.quant.interval() {
            (1, Some(1)) => out.push(c),
            (min, _) => {
                if min >= 1 {
                    out.push(c);
                }
                break;
            }
        }
    }
    out
}

proptest! {
    #[test]
    fn matches_exactly_the_accepting_members(
        members in prop::collection::vec(any_member(), 1..13),
        cells in prop::collection::vec((any_cell(), any::<bool>()), 0..40),
    ) {
        let mut memo = TableauMemo::new(members.iter().map(|m| m.as_ref().map(|(p, _)| p)));
        // Member → (compiled program, literal prefix); `None` = wildcard.
        let oracle: Vec<Option<(CompiledPattern, String)>> = members
            .iter()
            .map(|m| m.as_ref().map(|(p, _)| (CompiledPattern::compile(p), literal_prefix(p))))
            .collect();
        let has_patterns = oracle.iter().any(Option::is_some);
        let mut seen: HashSet<ValueId> = HashSet::new();

        for (cell, prime) in &cells {
            let value = render(cell, &members);
            let id = value.as_deref().map_or(ValueId::NULL, ValuePool::intern);
            let expected: Vec<u32> = match value.as_deref() {
                None => Vec::new(),
                Some(s) => (0u32..)
                    .zip(&oracle)
                    .filter(|(_, m)| m.as_ref().is_none_or(|(program, _)| program.matches(s)))
                    .map(|(member, _)| member)
                    .collect(),
            };
            // A value's first sighting evaluates its candidates: the
            // members whose prefix it starts with, and those with none.
            let candidates = match value.as_deref() {
                Some(s) if has_patterns && seen.insert(id) => oracle
                    .iter()
                    .flatten()
                    .filter(|(_, prefix)| s.starts_with(prefix.as_str()))
                    .count(),
                _ => 0,
            };
            let lookup = usize::from(has_patterns && !id.is_null());

            let (evals, lookups) = (memo.evals(), memo.lookups());
            if *prime {
                memo.prime([id]);
                prop_assert_eq!(memo.evals() - evals, candidates, "primed {:?}", value);
                prop_assert_eq!(memo.lookups(), lookups, "priming is not a lookup");
            }
            let got = memo.matches(id).to_vec();
            prop_assert_eq!(&got, &expected, "value {:?} over {:?}", value, members);
            prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "tableau order, no duplicates");
            prop_assert_eq!(memo.evals() - evals, candidates, "value {:?}", value);
            prop_assert_eq!(memo.lookups() - lookups, lookup);

            // A repeated id answers from the memo.
            let again = memo.matches(id).to_vec();
            prop_assert_eq!(&again, &expected);
            prop_assert_eq!(memo.evals() - evals, candidates, "repeat of {:?}", value);
            prop_assert_eq!(memo.lookups() - lookups, 2 * lookup);
        }
    }
}
