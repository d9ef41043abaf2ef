//! Memoization guarantee: a matcher invoked over a column performs at
//! most `distinct(column)` pattern evaluations per tableau pattern,
//! regardless of row count — asserted via the engine's call-counting
//! hooks ([`StreamEngine::pattern_evals`], `MatchMemo::evals`,
//! `KeyMemo::evals`, summed over the engine's key router).

use anmat_core::{PatternTuple, Pfd};
use anmat_pattern::ConstrainedPattern;
use anmat_stream::StreamEngine;
use anmat_table::Schema;

fn schema() -> Schema {
    Schema::new(["zip", "city"]).unwrap()
}

fn constant_rule() -> Pfd {
    Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::constant(
            ConstrainedPattern::unconstrained("900\\D{2}".parse().unwrap()),
            "Los Angeles",
        )],
    )
}

fn variable_rule() -> Pfd {
    Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::variable(
            "[\\D{3}]\\D{2}".parse::<ConstrainedPattern>().unwrap(),
        )],
    )
}

/// 10 000 rows over `DISTINCT` distinct zips: the constant tuple's
/// pattern must be evaluated exactly `DISTINCT` times, not 10 000.
#[test]
fn constant_pattern_evaluated_once_per_distinct_value() {
    const ROWS: usize = 10_000;
    const DISTINCT: usize = 37;
    let mut engine = StreamEngine::new(schema(), vec![constant_rule()]);
    for row in 0..ROWS {
        let zip = format!("90{:03}", row % DISTINCT);
        engine.push_str_row([zip.as_str(), "Los Angeles"]).unwrap();
    }
    assert_eq!(
        engine.pattern_evals(),
        DISTINCT,
        "constant-tuple matching must be memoized per distinct LHS value"
    );
}

/// Same bound for variable tuples: capture extraction (the pattern-
/// matching cost of blocking) runs once per distinct LHS value.
#[test]
fn variable_capture_extracted_once_per_distinct_value() {
    const ROWS: usize = 10_000;
    const DISTINCT: usize = 23;
    let mut engine = StreamEngine::new(schema(), vec![variable_rule()]);
    for row in 0..ROWS {
        let zip = format!("90{:03}", row % DISTINCT);
        engine.push_str_row([zip.as_str(), "Los Angeles"]).unwrap();
    }
    assert_eq!(
        engine.pattern_evals(),
        DISTINCT,
        "blocking-key extraction must be memoized per distinct LHS value"
    );
}

/// Mixed rule set: the bound is per (pattern, distinct value), summed
/// over tuples — never per row. Null LHS cells cost no evaluation.
#[test]
fn mixed_rules_bounded_by_distinct_times_tuples() {
    const ROWS: usize = 5_000;
    const DISTINCT: usize = 11;
    let mut engine = StreamEngine::new(schema(), vec![constant_rule(), variable_rule()]);
    for row in 0..ROWS {
        if row % 100 == 0 {
            engine.push_str_row(["", "Los Angeles"]).unwrap(); // null LHS
            continue;
        }
        let zip = format!("90{:03}", row % DISTINCT);
        engine.push_str_row([zip.as_str(), "Los Angeles"]).unwrap();
    }
    assert_eq!(
        engine.pattern_evals(),
        2 * DISTINCT,
        "two patterns over {DISTINCT} distinct values"
    );
}
