//! Differential property test for the pattern index: a lookup narrows
//! the sorted distinct values to the pattern's literal-prefix range and
//! runs the compiled matcher there, and must return exactly the rows an
//! unpruned interpreter scan returns.
//!
//! Patterns open with a run of literals (multibyte ones included), whose
//! last copy may repeat (`ab+c`, `ab{2}c`, `ab*c`), followed by classes
//! under every quantifier shape. Columns hold nulls, empty strings,
//! strings sampled from the pattern, and values built around the
//! pattern's leading literals: equal to them, extending them, cut short
//! inside them, or one code point off at the range's edge, so both ends
//! of the prefix range are exercised.
//!
//! Case count scales with `PROPTEST_CASES` (CI runs it at an elevated
//! count with the pattern tier differential).

use anmat_index::PatternIndex;
use anmat_pattern::{match_pattern, Element, Pattern, Quantifier, SymbolClass};
use anmat_table::{Schema, Table, Value};
use proptest::prelude::*;
use std::collections::HashSet;

/// Characters for literals and generated values: ASCII, 2-byte `é`,
/// titlecase `ǅ`, and 4-byte `😀`.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        prop::char::ranges(vec!['a'..='c', 'A'..='B', '0'..='2', '-'..='-', ' '..=' '].into()),
        Just('é'),
        Just('ǅ'),
        Just('😀'),
    ]
}

fn any_string(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(any_char(), 0..max_len + 1).prop_map(|cs| cs.into_iter().collect())
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

/// A pattern and its leading literals: `head` once each, the last one
/// under `repeat` (if any), then the literal `next` (the `c` of `ab+c`),
/// then `tail`.
fn any_pattern() -> impl Strategy<Value = (Pattern, String)> {
    (
        prop::collection::vec(any_char(), 0..4),
        prop::option::of(any_quantifier()),
        prop::option::of(any_char()),
        prop::collection::vec(any_tail_element(), 0..4),
    )
        .prop_map(|(head, repeat, next, tail)| {
            let mut elements: Vec<Element> = head.iter().map(|&c| Element::literal(c)).collect();
            if let (Some(last), Some(quant)) = (elements.last_mut(), repeat) {
                *last = Element::new(last.class, quant);
            }
            elements.extend(next.map(Element::literal));
            elements.extend(tail);
            (Pattern::new(elements), head.into_iter().collect())
        })
}

/// One cell, as a recipe over the pattern's leading literals.
#[derive(Debug, Clone)]
enum Cell {
    Null,
    Empty,
    Free(String),
    /// The first `n` chars of the literals, then a suffix: shares,
    /// equals or stops inside them.
    Head(usize, String),
    /// The literals with the last char moved by ±1 code point, then a
    /// suffix: sorts just outside the prefix range.
    Neighbour(bool, String),
    /// A string drawn from the pattern itself, each repeat count and
    /// class member picked by the next choice byte.
    Sample(Vec<u8>),
}

fn any_cell() -> impl Strategy<Value = Cell> {
    prop_oneof![
        Just(Cell::Null),
        Just(Cell::Empty),
        any_string(5).prop_map(Cell::Free),
        (0usize..5, any_string(4)).prop_map(|(n, s)| Cell::Head(n, s)),
        (0usize..5).prop_map(|n| Cell::Head(n, String::new())),
        (any::<bool>(), any_string(3)).prop_map(|(up, s)| Cell::Neighbour(up, s)),
        prop::collection::vec(any::<u8>(), 1..24).prop_map(Cell::Sample),
    ]
}

/// A string the pattern is likely to match (the oracle decides whether
/// it does); `choices` are consumed cyclically.
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

fn render(cell: &Cell, pattern: &Pattern, head: &str) -> Value {
    match cell {
        Cell::Null => Value::Null,
        Cell::Empty => Value::text(""),
        Cell::Free(s) => Value::text(s.as_str()),
        Cell::Head(n, suffix) => {
            let cut: String = head.chars().take(*n).collect();
            Value::text(cut + suffix)
        }
        Cell::Neighbour(up, suffix) => {
            let mut chars: Vec<char> = head.chars().collect();
            if let Some(last) = chars.last_mut() {
                let code = u32::from(*last);
                let moved = if *up {
                    code + 1
                } else {
                    code.saturating_sub(1)
                };
                *last = char::from_u32(moved).unwrap_or(*last);
            }
            Value::text(chars.into_iter().collect::<String>() + suffix)
        }
        Cell::Sample(choices) => Value::text(sample(pattern, choices)),
    }
}

proptest! {
    #[test]
    fn lookup_matches_interpreter_scan(
        (pattern, head) in any_pattern(),
        cells in prop::collection::vec(any_cell(), 0..40),
    ) {
        let schema = Schema::new(["v"]).unwrap();
        let rows = cells.iter().map(|c| vec![render(c, &pattern, &head)]);
        let table = Table::from_rows(schema, rows).unwrap();
        let index = PatternIndex::build(&table, 0);

        let scan = index.lookup_scan(&pattern);
        prop_assert_eq!(index.lookup(&pattern), scan.clone(), "pattern {}", pattern);

        let oracle: Vec<_> = table
            .iter_live()
            .filter(|&r| table.cell_str(r, 0).is_some_and(|s| match_pattern(&pattern, s)))
            .collect();
        prop_assert_eq!(scan, oracle, "pattern {}", pattern);

        let ids = index.matching_ids(&pattern);
        let unique: HashSet<_> = ids.iter().copied().collect();
        prop_assert_eq!(unique.len(), ids.len(), "duplicate ids for {}", pattern);
    }
}
