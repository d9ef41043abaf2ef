//! Differential property tests: every compiled execution tier — the
//! backtracking bytecode VM and the fused single-pass matcher — must be
//! observationally identical to the AST interpreter (the semantic
//! oracle): match decisions, leftmost-greedy spans, and constrained
//! blocking keys, over generated patterns × strings. Since the VM went
//! full-UTF-8 there is no interpreter fallback left, so non-ASCII and
//! mixed corpora run through the exact same compiled code paths as
//! ASCII and must agree just the same.
//!
//! Case count scales with `PROPTEST_CASES` (CI runs a dedicated step so
//! the compiled tiers get elevated coverage on every push).

use anmat_pattern::{
    match_pattern, match_spans, CompiledConstrained, CompiledPattern, ConstrainedPattern, Element,
    Pattern, Quantifier, Segment, SymbolClass,
};
use proptest::prelude::*;

/// The compiled tiers under test, each checked against the interpreter:
/// the program as production compiles it (the single-pass matcher when
/// the pattern has a fuse plan, the VM otherwise) and the same program
/// without its fuse plan, which forces the VM.
fn compiled_tiers(p: &Pattern) -> [(&'static str, CompiledPattern); 2] {
    [
        ("vm", CompiledPattern::compile_unfused(p)),
        ("compiled", CompiledPattern::compile(p)),
    ]
}

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

/// Strategy: an arbitrary (small) pattern.
fn any_pattern() -> impl Strategy<Value = Pattern> {
    prop::collection::vec(
        (any_class(), 0u32..4, prop::option::of(0u32..4)).prop_filter_map(
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

/// Strategy: a short ASCII string over the pattern alphabet (the SWAR
/// fast path).
fn any_ascii_string() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::char::ranges(vec!['a'..='z', 'A'..='Z', '0'..='9', ' '..=' ', '-'..='-'].into()),
        0..12,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

/// Strategy: a short string mixing ASCII with multi-byte scalars — 2-,
/// 3-, and 4-byte encodings, titlecase, and non-ASCII digits — so the
/// UTF-8 paths of both compiled tiers (class spillover, char-boundary
/// backtracking, forced run lengths in chars) get direct coverage.
fn any_unicode_string() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            prop::char::ranges(vec!['a'..='z', 'A'..='Z', '0'..='9', '-'..='-'].into()),
            prop::char::ranges(
                vec![
                    'É'..='É',
                    'ß'..='ß',
                    'ñ'..='ñ',
                    'Ω'..='Ω',
                    'ǅ'..='ǅ',
                    '中'..='中',
                    '٣'..='٣',
                    '\u{1F600}'..='\u{1F600}',
                ]
                .into()
            ),
        ],
        0..10,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

/// Generate a string the pattern is guaranteed to match, by expanding
/// each element with an in-range repetition count (deterministic in
/// `seed`), so positive matches — where span parity matters — are
/// exercised as densely as negative ones. With `unicode` set, class
/// expansions draw non-ASCII members too, producing multibyte
/// witnesses.
fn string_matching(p: &Pattern, seed: u64, unicode: bool) -> String {
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
            let wide = unicode && next() % 3 == 0;
            let c = match e.class {
                SymbolClass::Literal(c) => c,
                SymbolClass::Upper if wide => ['É', 'Ω', 'Ǆ'][(next() % 3) as usize],
                SymbolClass::Upper => char::from(b'A' + (next() % 26) as u8),
                SymbolClass::Lower if wide => ['ß', 'ñ', 'é'][(next() % 3) as usize],
                SymbolClass::Lower => char::from(b'a' + (next() % 26) as u8),
                // `\D` is ASCII-only by the language definition, so its
                // witnesses stay ASCII even in unicode mode.
                SymbolClass::Digit => char::from(b'0' + (next() % 10) as u8),
                SymbolClass::Symbol if wide => ['中', '٣', 'ǅ', '\u{1F600}'][(next() % 4) as usize],
                SymbolClass::Symbol => ['-', '.', ' ', ','][(next() % 4) as usize],
                SymbolClass::Any if wide => ['中', 'é', '\u{1F600}'][(next() % 3) as usize],
                SymbolClass::Any => char::from(b'a' + (next() % 26) as u8),
            };
            out.push(c);
        }
    }
    out
}

/// Strategy: an arbitrary constrained pattern — 1..4 segments, each an
/// independently generated sub-pattern, with a random constrained mask.
fn any_constrained() -> impl Strategy<Value = ConstrainedPattern> {
    prop::collection::vec((any_pattern(), any::<bool>()), 1..4).prop_map(|parts| {
        let segments: Vec<Segment> = parts
            .into_iter()
            .map(|(p, constrained)| {
                if constrained {
                    Segment::constrained(p)
                } else {
                    Segment::free(p)
                }
            })
            .collect();
        ConstrainedPattern::new(segments).expect("non-empty segment list")
    })
}

/// Strategy: a pattern in which a run of two to four literal bytes
/// follows a variable-width element (the shape of `\LU\LL+,\ John\S*`,
/// where the VM's literal screen rejects before backtracking), with that
/// run. A VM program screens on its longest literal run; here that is
/// this run unless the generated head or tail holds a longer one.
fn any_screened_pattern() -> impl Strategy<Value = (Pattern, String)> {
    (
        any_pattern(),
        any_class(),
        0u32..3,
        "[a-z0-9-]{2,4}",
        any_pattern(),
    )
        .prop_map(|(head, class, min, run, tail)| {
            let variable = Quantifier::from_interval(min, None).expect("unbounded interval");
            let mut elements = head.elements().to_vec();
            elements.push(Element::new(class, variable));
            elements.extend_from_slice(Pattern::literal(&run).elements());
            elements.extend_from_slice(tail.elements());
            (Pattern::new(elements), run)
        })
}

/// `run` as the screen meets it: whole (0), without its last byte (1),
/// absent (2), or split by a multibyte scalar (3).
fn run_variant(run: &str, variant: usize) -> String {
    match variant {
        0 => run.to_string(),
        1 => run[..run.len() - 1].to_string(),
        2 => String::new(),
        _ => format!("{}é{}", &run[..1], &run[1..]),
    }
}

/// Assert match + span parity of every compiled tier against the
/// interpreter on one (pattern, string) pair.
fn assert_tiers_agree(p: &Pattern, s: &str) -> Result<(), String> {
    let expect_match = match_pattern(p, s);
    let expect_spans = match_spans(p, s);
    for (tier, c) in compiled_tiers(p) {
        prop_assert_eq!(
            c.matches(s),
            expect_match,
            "pattern {} on {:?} via {}",
            p,
            s,
            tier
        );
        prop_assert_eq!(
            c.spans(s),
            expect_spans.clone(),
            "pattern {} on {:?} via {}",
            p,
            s,
            tier
        );
    }
    Ok(())
}

/// Assert blocking-key parity of every compiled tier against the
/// interpreter on one (keyer, string) pair.
fn assert_keys_agree(q: &ConstrainedPattern, s: &str) -> Result<(), String> {
    let expect = q.key(s);
    let tiers = [
        ("vm", CompiledConstrained::compile_unfused(q)),
        ("compiled", CompiledConstrained::compile(q)),
    ];
    for (tier, c) in tiers {
        let mut buf = String::new();
        let got = c.key_into(s, &mut buf).then(|| buf.clone());
        prop_assert_eq!(got, expect.clone(), "keyer {} on {:?} via {}", q, s, tier);
    }
    Ok(())
}

proptest! {
    /// Match + span decisions agree on arbitrary ASCII strings (the
    /// SWAR fast path) for both compiled tiers.
    #[test]
    fn tiers_match_interpreter_on_ascii(p in any_pattern(), s in any_ascii_string()) {
        assert_tiers_agree(&p, &s)?;
    }

    /// Match + span decisions agree on multibyte strings — the full
    /// UTF-8 VM and the fused matcher, no interpreter fallback.
    #[test]
    fn tiers_match_interpreter_on_unicode(p in any_pattern(), s in any_unicode_string()) {
        assert_tiers_agree(&p, &s)?;
    }

    /// Positive-case parity: generated ASCII witnesses match through
    /// every tier, with identical leftmost-greedy spans.
    #[test]
    fn tier_spans_agree_on_witnesses(p in any_pattern(), seed in any::<u64>()) {
        let s = string_matching(&p, seed, false);
        prop_assert!(match_pattern(&p, &s), "witness {:?} must match {}", s, p);
        assert_tiers_agree(&p, &s)?;
    }

    /// Positive-case parity on *multibyte* witnesses: class expansions
    /// include 2-, 3-, and 4-byte scalars, so successful parses cross
    /// the spillover and char-counting paths in both compiled tiers.
    #[test]
    fn tier_spans_agree_on_unicode_witnesses(p in any_pattern(), seed in any::<u64>()) {
        let s = string_matching(&p, seed, true);
        prop_assert!(match_pattern(&p, &s), "witness {:?} must match {}", s, p);
        assert_tiers_agree(&p, &s)?;
    }

    /// The literal screen changes no decision: patterns whose literal run
    /// follows a variable-width element, on strings that hold the run,
    /// hold all of it but its last byte, lack it, or hold it split by a
    /// multibyte scalar, amid ASCII or multibyte text.
    #[test]
    fn screened_patterns_agree_around_their_run(
        (p, run) in any_screened_pattern(),
        before in any_unicode_string(),
        after in any_unicode_string(),
        variant in 0usize..4,
    ) {
        let s = format!("{before}{}{after}", run_variant(&run, variant));
        assert_tiers_agree(&p, &s)?;
    }

    /// Positive-case parity for screened patterns: witnesses always hold
    /// the run, on ASCII and multibyte expansions alike.
    #[test]
    fn screened_patterns_agree_on_witnesses(
        (p, _run) in any_screened_pattern(),
        seed in any::<u64>(),
        unicode in any::<bool>(),
    ) {
        let s = string_matching(&p, seed, unicode);
        prop_assert!(match_pattern(&p, &s), "witness {:?} must match {}", s, p);
        assert_tiers_agree(&p, &s)?;
    }

    /// Blocking keys agree: the capturing tiers derive the same `≡_Q`
    /// key as the interpreter for generated constrained patterns.
    #[test]
    fn compiled_key_agrees_on_ascii(q in any_constrained(), s in any_ascii_string()) {
        assert_keys_agree(&q, &s)?;
    }

    /// Blocking keys agree on multibyte strings (byte-span slicing on
    /// the compiled tiers vs char-indexed interpretation).
    #[test]
    fn compiled_key_agrees_on_unicode(q in any_constrained(), s in any_unicode_string()) {
        assert_keys_agree(&q, &s)?;
    }

    /// Key parity on multibyte witnesses of the embedded pattern, where
    /// the keyer is guaranteed to produce a key on every tier.
    #[test]
    fn compiled_key_agrees_on_witnesses(q in any_constrained(), seed in any::<u64>()) {
        let s = string_matching(q.embedded(), seed, true);
        prop_assert!(q.key(&s).is_some(), "witness {:?} must key under {}", s, q);
        assert_keys_agree(&q, &s)?;
    }
}
