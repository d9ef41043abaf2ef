//! Property-based tests for the table substrate.

use anmat_table::{csv, Schema, Table, Value, ValueId, ValuePool};
use proptest::prelude::*;

/// Arbitrary cell content, including CSV-hostile characters.
fn any_field() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            prop::char::ranges(vec!['a'..='z', 'A'..='Z', '0'..='9'].into()),
            Just(','),
            Just('"'),
            Just('\n'),
            Just(' '),
            Just('-'),
        ],
        0..12,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

fn any_table() -> impl Strategy<Value = Table> {
    (1usize..5).prop_flat_map(|arity| {
        let schema_names: Vec<String> = (0..arity).map(|i| format!("col{i}")).collect();
        prop::collection::vec(prop::collection::vec(any_field(), arity..=arity), 0..12).prop_map(
            move |rows| {
                let schema = Schema::new(schema_names.clone()).unwrap();
                Table::from_rows(
                    schema,
                    rows.into_iter().map(|r| {
                        r.into_iter()
                            .map(|f| {
                                // Direct construction (no null-token folding)
                                // so the round-trip comparison is exact up to
                                // empty ↔ null.
                                if f.is_empty() {
                                    Value::Null
                                } else {
                                    Value::Text(f)
                                }
                            })
                            .collect()
                    }),
                )
                .unwrap()
            },
        )
    })
}

proptest! {
    /// write → read is the identity for tables without null-folding
    /// ambiguity (cells equal to conventional null tokens are excluded by
    /// the alphabet above not generating "NULL" etc. — the generator can
    /// produce them by chance, so compare renderings instead of values).
    #[test]
    fn csv_roundtrip(t in any_table()) {
        let text = csv::write_str(&t);
        let t2 = csv::read_str(&text).expect("own output must parse");
        prop_assert_eq!(t.row_count(), t2.row_count());
        prop_assert_eq!(t.schema().names(), t2.schema().names());
        for r in 0..t.row_count() {
            for c in 0..t.column_count() {
                let a = t.cell_str(r, c).unwrap_or("");
                let b = t2.cell_str(r, c).unwrap_or("");
                // Null tokens fold to empty on re-read.
                let folded = match a {
                    "NULL" | "null" | "NA" | "N/A" | "\\N" => "",
                    other => other,
                };
                prop_assert_eq!(folded, b, "cell ({}, {})", r, c);
            }
        }
    }

    /// Parsing never panics on arbitrary input.
    #[test]
    fn csv_parse_total(s in "\\PC*") {
        let _ = csv::read_str(&s);
    }

    /// Tokens cover all non-whitespace characters, in order, numbered
    /// from 0.
    #[test]
    fn tokens_cover_non_whitespace(s in "[a-zA-Z0-9 .,-]*") {
        let mut joined = String::new();
        let mut count = 0;
        anmat_table::for_each_token(&s, |tok, index| {
            assert_eq!(index, count);
            count += 1;
            joined.push_str(tok);
        });
        let expected: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        prop_assert_eq!(joined, expected);
    }

    /// Each token is a maximal whitespace-free run of the cell: a slice
    /// of it with whitespace or a cell boundary on either side.
    #[test]
    fn tokens_are_maximal_runs(s in "[a-zé ]*") {
        let mut runs = Vec::new();
        anmat_table::for_each_token(&s, |tok, _| {
            let start = tok.as_ptr() as usize - s.as_ptr() as usize;
            runs.push((start, start + tok.len()));
        });
        for (start, end) in runs {
            let token = &s[start..end];
            prop_assert!(!token.is_empty() && !token.contains(char::is_whitespace));
            prop_assert!(s[..start].chars().next_back().is_none_or(char::is_whitespace));
            prop_assert!(s[end..].chars().next().is_none_or(char::is_whitespace));
        }
    }

    /// N-grams tile the string with stride 1.
    #[test]
    fn ngrams_tile(s in "[a-z0-9é]{3,20}", n in 1usize..5) {
        let chars: Vec<char> = s.chars().collect();
        let mut grams = Vec::new();
        anmat_table::for_each_ngram(&s, n, |gram, start| grams.push((gram.to_string(), start)));
        if chars.len() >= n {
            prop_assert_eq!(grams.len(), chars.len() - n + 1);
            for (i, (gram, start)) in grams.iter().enumerate() {
                prop_assert_eq!(*start, i);
                let expected: String = chars[i..i + n].iter().collect();
                prop_assert_eq!(gram, &expected);
            }
        }
    }

    /// Pool round-trip: `intern → resolve` is the identity on any string.
    #[test]
    fn pool_intern_resolve_identity(s in "\\PC*") {
        let id = ValuePool::intern(&s);
        prop_assert!(!id.is_null());
        prop_assert_eq!(ValuePool::resolve(id), s.as_str());
        prop_assert_eq!(id.as_str(), Some(s.as_str()));
    }

    /// Pool dedup: repeated ingest of the same strings never mints new
    /// ids, and equal cells share ids across independently built tables.
    /// (Dedup is asserted via id identity, not global pool size — the
    /// pool is process-global and other tests intern concurrently.)
    #[test]
    fn pool_dedup_under_repeated_ingest(fields in prop::collection::vec(any_field(), 1..20)) {
        let ids: Vec<ValueId> = fields.iter().map(|f| ValuePool::intern(f)).collect();
        let again: Vec<ValueId> = fields.iter().map(|f| ValuePool::intern(f)).collect();
        prop_assert_eq!(&ids, &again);
        // Same string ⇒ same id, even via lookup-only access.
        for (f, id) in fields.iter().zip(&ids) {
            prop_assert_eq!(ValuePool::lookup(f), Some(*id));
        }

        // Two tables built from the same rows are cell-for-cell id-equal.
        let schema = Schema::new(["f"]).unwrap();
        let rows = || fields.iter().map(|f| vec![Value::text(f.clone())]);
        let t1 = Table::from_rows(schema.clone(), rows()).unwrap();
        let t2 = Table::from_rows(schema, rows()).unwrap();
        prop_assert_eq!(&t1, &t2);
        for r in 0..t1.row_count() {
            prop_assert_eq!(t1.cell_id(r, 0), t2.cell_id(r, 0));
        }
    }
}
