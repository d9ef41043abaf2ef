//! Property-based tests for the pattern language invariants.

use anmat_pattern::{
    contains, generalize_patterns, induce, loosen, match_spans, signature, ConstrainedPattern,
    Element, Pattern, PatternLevel, Quantifier, SymbolClass,
};
use proptest::prelude::*;

/// Strategy: an arbitrary symbol class over a small printable alphabet.
fn any_class() -> impl Strategy<Value = SymbolClass> {
    prop_oneof![
        prop::char::ranges(vec!['a'..='z', 'A'..='Z', '0'..='9', '-'..='.'].into())
            .prop_map(SymbolClass::Literal),
        Just(SymbolClass::Upper),
        Just(SymbolClass::Lower),
        Just(SymbolClass::Digit),
        Just(SymbolClass::Symbol),
        Just(SymbolClass::Any),
    ]
}

fn any_quantifier() -> impl Strategy<Value = SymbolClass> {
    any_class()
}

/// Strategy: an arbitrary (small) pattern.
fn any_pattern() -> impl Strategy<Value = Pattern> {
    prop::collection::vec(
        (any_quantifier(), 0u32..4, prop::option::of(0u32..4)).prop_filter_map(
            "valid interval",
            |(class, min, extra)| {
                let max = extra.map(|e| min + e);
                Quantifier::from_interval(min, max)
                    .ok()
                    .map(|q| Element::new(class, q))
            },
        ),
        0..6,
    )
    .prop_map(Pattern::new)
}

/// Strategy: a short string over the same alphabet.
fn any_string() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::char::ranges(vec!['a'..='z', 'A'..='Z', '0'..='9', ' '..=' ', '-'..='-'].into()),
        0..12,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

/// Generate a string that the given pattern is guaranteed to match, by
/// expanding each element with an in-range repetition count.
fn string_matching(p: &Pattern, seed: u64) -> String {
    let mut out = String::new();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for e in p.elements() {
        let (min, max) = e.quant.interval();
        let span = match max {
            Some(m) => min + (next() as u32 % (m - min + 1)),
            None => min + (next() as u32 % 3),
        };
        for _ in 0..span {
            let c = match e.class {
                SymbolClass::Literal(c) => c,
                SymbolClass::Upper => char::from(b'A' + (next() % 26) as u8),
                SymbolClass::Lower => char::from(b'a' + (next() % 26) as u8),
                SymbolClass::Digit => char::from(b'0' + (next() % 10) as u8),
                SymbolClass::Symbol => ['-', '.', ' ', ','][(next() % 4) as usize],
                SymbolClass::Any => char::from(b'a' + (next() % 26) as u8),
            };
            out.push(c);
        }
    }
    out
}

proptest! {
    /// Printing then re-parsing yields the same pattern.
    #[test]
    fn display_parse_roundtrip(p in any_pattern()) {
        let printed = p.to_string();
        let reparsed: Pattern = printed.parse().expect("printed pattern must parse");
        // Canonical quantifiers may differ ({1,1} → One), so compare via
        // intervals after normalization of representation, i.e. reprint.
        prop_assert_eq!(reparsed.to_string(), printed);
    }

    /// Normalization preserves the language on generated witnesses.
    #[test]
    fn normalized_preserves_matching(p in any_pattern(), seed in any::<u64>()) {
        let n = p.normalized();
        let s = string_matching(&p, seed);
        prop_assert!(p.matches(&s), "witness must match original");
        prop_assert!(n.matches(&s), "witness must match normalized form");
    }

    /// Generated witnesses always match their source pattern.
    #[test]
    fn witness_matches(p in any_pattern(), seed in any::<u64>()) {
        let s = string_matching(&p, seed);
        prop_assert!(p.matches(&s));
    }

    /// Containment is consistent with matching: if P ⊆ Q then every
    /// witness of P matches Q.
    #[test]
    fn containment_sound_on_witnesses(p in any_pattern(), q in any_pattern(), seed in any::<u64>()) {
        if contains(&q, &p) {
            let s = string_matching(&p, seed);
            prop_assert!(q.matches(&s), "P ⊆ Q but witness {:?} of P={} fails Q={}", s, p, q);
        }
    }

    /// Containment is reflexive.
    #[test]
    fn containment_reflexive(p in any_pattern()) {
        prop_assert!(contains(&p, &p));
    }

    /// Everything is contained in \A*.
    #[test]
    fn containment_top(p in any_pattern()) {
        prop_assert!(contains(&Pattern::any_string(), &p));
    }

    /// Generalization covers both inputs (language superset).
    #[test]
    fn generalization_covers(a in any_pattern(), b in any_pattern()) {
        let g = generalize_patterns(&a, &b);
        prop_assert!(contains(&g, &a), "g={} must contain a={}", g, a);
        prop_assert!(contains(&g, &b), "g={} must contain b={}", g, b);
    }

    /// Generalization is commutative up to language equivalence.
    #[test]
    fn generalization_commutative(a in any_pattern(), b in any_pattern()) {
        let g1 = generalize_patterns(&a, &b);
        let g2 = generalize_patterns(&b, &a);
        prop_assert!(contains(&g1, &g2) && contains(&g2, &g1),
            "g(a,b)={} and g(b,a)={} must be equivalent", g1, g2);
    }

    /// match_spans agrees with match_pattern and partitions the string.
    #[test]
    fn spans_partition(p in any_pattern(), seed in any::<u64>()) {
        let s = string_matching(&p, seed);
        let spans = match_spans(&p, &s).expect("witness must match");
        let n = s.chars().count();
        let mut pos = 0;
        for (a, b) in &spans.spans {
            prop_assert_eq!(*a, pos);
            prop_assert!(b >= a);
            pos = *b;
        }
        prop_assert_eq!(pos, n);
    }

    /// Every signature level matches the string it was derived from, and
    /// levels are increasingly general.
    #[test]
    fn signature_ladder(s in any_string()) {
        let mut prev: Option<Pattern> = None;
        for level in PatternLevel::ALL {
            let sig = signature(&s, level);
            prop_assert!(sig.matches(&s), "signature({:?}) must match {:?}", level, s);
            if let Some(prev) = &prev {
                prop_assert!(contains(&sig, prev),
                    "level {:?} = {} must generalize previous = {}", level, sig, prev);
            }
            prev = Some(sig);
        }
    }

    /// Induction covers its whole sample.
    #[test]
    fn induction_covers_sample(strings in prop::collection::vec(any_string(), 1..8)) {
        let refs: Vec<&str> = strings.iter().map(String::as_str).collect();
        let p = induce(&refs);
        for s in &strings {
            prop_assert!(p.matches(s), "induced {} must match sample element {:?}", p, s);
        }
    }

    /// Induction with loosening still covers the sample.
    #[test]
    fn loosened_induction_covers_sample(strings in prop::collection::vec(any_string(), 1..8)) {
        let refs: Vec<&str> = strings.iter().map(String::as_str).collect();
        let p = loosen(&induce(&refs), 2);
        for s in &strings {
            prop_assert!(p.matches(s));
        }
    }

    /// Blocking keys implement ≡_Q: equal keys iff equivalent.
    #[test]
    fn key_iff_equivalent(s1 in any_string(), s2 in any_string()) {
        let q: ConstrainedPattern = "[\\A*]".parse().unwrap();
        // Whole-string constraint: equivalent iff equal.
        prop_assert_eq!(q.equivalent(&s1, &s2), s1 == s2);
    }

    /// Constrained captures concatenate to substrings of the input.
    #[test]
    fn captures_are_substrings(s in any_string()) {
        let q: ConstrainedPattern = "[\\LU\\LL*]\\A*".parse().unwrap();
        if let Some(caps) = q.captures(&s) {
            for cap in caps {
                prop_assert!(s.contains(&cap) || cap.is_empty());
            }
        }
    }
}

/// Pieces of pattern syntax: class escapes, escaped specials, brackets,
/// braces, quantifiers, and counts at and past `u32::MAX`.
const SYNTAX: &[&str] = &[
    "\\A",
    "\\LU",
    "\\LL",
    "\\D",
    "\\S",
    "\\",
    "\\\\",
    "\\{",
    "\\[",
    "\\ ",
    "[",
    "]",
    "{",
    "}",
    ",",
    "*",
    "+",
    "?",
    "0",
    "7",
    "{3}",
    "{2,}",
    "{1,4}",
    "{4,1}",
    "{0}",
    "4294967295",
    "4294967296",
    "18446744073709551616",
    " ",
    "é",
];

/// Text biased towards pattern syntax, mixed with any other character.
fn pattern_noise() -> impl Strategy<Value = String> {
    let token = prop_oneof![
        (0..SYNTAX.len()).prop_map(|i| SYNTAX[i].to_string()),
        any::<char>().prop_map(String::from),
    ];
    prop::collection::vec(token, 0..16).prop_map(|tokens| tokens.concat())
}

proptest! {
    /// Hostile text: both parsers return `Ok` or `Err`, never panic, and
    /// what either accepts prints to text that parses back to it.
    #[test]
    fn parsers_never_panic(text in pattern_noise()) {
        if let Ok(p) = text.parse::<Pattern>() {
            let printed = p.to_string();
            let reparsed = printed.parse::<Pattern>().map(|p| p.to_string());
            prop_assert_eq!(reparsed, Ok(printed), "text {:?}", text);
        }
        if let Ok(q) = text.parse::<ConstrainedPattern>() {
            let printed = q.to_string();
            let reparsed = printed.parse::<ConstrainedPattern>().map(|q| q.to_string());
            prop_assert_eq!(reparsed, Ok(printed), "text {:?}", text);
        }
    }
}
