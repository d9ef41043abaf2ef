//! No production path reaches the AST interpreter: discovery, batch
//! detection, the report views, coverage, and the stream engine all
//! match through compiled programs, on ASCII and multibyte input alike.
//!
//! In its own binary because the metrics recorder and its counters are
//! process-global: another recorder-enabled test running in parallel
//! would make the counter deltas ambiguous.

use anmat::datagen::{zipcity, GenConfig};
use anmat::obs;
use anmat::prelude::*;
use std::hint::black_box;

/// A full-name → gender table whose names carry 2-byte scalars, with a
/// few flipped genders for detection to find.
fn utf8_names() -> Table {
    const FIRST: &[(&str, &str)] = &[
        ("José", "M"),
        ("Jörg", "M"),
        ("Émile", "M"),
        ("Øyvind", "M"),
        ("María", "F"),
        ("Élodie", "F"),
        ("Zoë", "F"),
        ("Åsa", "F"),
    ];
    const LAST: &[&str] = &["García", "Müller", "Dubois", "Søreide", "Núñez", "Łukasz"];
    let mut table = Table::empty(Schema::new(["full_name", "gender"]).expect("static schema"));
    for i in 0..120 {
        let (first, gender) = FIRST[i % FIRST.len()];
        let last = LAST[(i / FIRST.len()) % LAST.len()];
        let gender = match (i % 17 == 5, gender) {
            (true, "M") => "F",
            (true, _) => "M",
            (false, g) => g,
        };
        table
            .push_row(vec![
                Value::text(format!("{last}, {first}")),
                Value::text(gender),
            ])
            .expect("arity 2");
    }
    table
}

fn tier_counts() -> (u64, u64, u64) {
    let snap = obs::MetricsSnapshot::capture();
    (
        snap.counter("pattern.fused_evals").unwrap_or(0),
        snap.counter("pattern.vm_evals").unwrap_or(0),
        snap.counter("pattern.interp_evals").unwrap_or(0),
    )
}

#[test]
fn production_paths_never_reach_the_interpreter() {
    let zips = zipcity::generate(
        &GenConfig {
            rows: 400,
            seed: 7,
            error_rate: 0.05,
        },
        zipcity::ZipTarget::City,
    )
    .table;
    let config = DiscoveryConfig {
        min_support: 3,
        min_coverage: 0.5,
        max_violation_ratio: 0.15,
        ..DiscoveryConfig::default()
    };
    obs::Recorder::enable();
    for (table, context) in [(zips, "ascii zips"), (utf8_names(), "utf-8 names")] {
        let before = tier_counts();
        let rules = discover(&table, &config);
        assert!(!rules.is_empty(), "discovery must find rules on {context}");
        let violations = detect_all(&table, &rules);
        assert!(
            !violations.is_empty(),
            "detection must flag rows on {context}"
        );
        for pfd in &rules {
            black_box(pfd.coverage(&table));
            black_box(report::tableau_view(&table, pfd));
        }
        let mut engine = StreamEngine::new(table.schema().clone(), rules);
        let last = table.row_count() - 1;
        let mut ops: Vec<RowOp> = (0..table.row_count())
            .map(|r| RowOp::Insert(table.row(r)))
            .collect();
        ops.extend([
            RowOp::Delete(0),
            RowOp::Update(1, table.row(last)),
            RowOp::Insert(table.row(2)),
        ]);
        let events = engine.apply(ops).expect("ops are valid");
        assert!(
            !events.is_empty(),
            "the stream must emit events on {context}"
        );
        let after = tier_counts();

        assert_eq!(
            after.2 - before.2,
            0,
            "pattern.interp_evals must stay 0 on {context}"
        );
        assert!(
            (after.0 - before.0) + (after.1 - before.1) > 0,
            "the compiled tiers must do the matching on {context}"
        );
    }
    obs::Recorder::disable();
}
