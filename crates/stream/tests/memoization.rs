//! Memoization guarantee: a matcher invoked over a column performs at
//! most `distinct(column)` pattern evaluations per tableau pattern,
//! regardless of row count — and a rule's constant tuples evaluate a new
//! value only against the tuples whose literal prefix it starts with, so
//! their cost does not grow with the tableau. Asserted via the engine's
//! call-counting hooks ([`StreamEngine::pattern_evals`] and
//! [`StreamEngine::pattern_lookups`]: each rule's `TableauMemo` plus the
//! `KeyMemo` of each of its variable tuples).

use anmat_core::{PatternTuple, Pfd};
use anmat_pattern::ConstrainedPattern;
use anmat_stream::StreamEngine;
use anmat_table::{Op, RowOp, Schema, Value, ValuePool};

fn schema() -> Schema {
    Schema::new(["zip", "city"]).unwrap()
}

/// Insert one row of raw strings (fields read as `Value::from_field`
/// reads them).
fn insert(engine: &mut StreamEngine, row: [&str; 2]) {
    engine
        .apply([RowOp::Insert(row.map(Value::from_field).to_vec())])
        .unwrap();
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
        insert(&mut engine, [zip.as_str(), "Los Angeles"]);
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
        insert(&mut engine, [zip.as_str(), "Los Angeles"]);
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
            insert(&mut engine, ["", "Los Angeles"]); // null LHS
            continue;
        }
        let zip = format!("90{:03}", row % DISTINCT);
        insert(&mut engine, [zip.as_str(), "Los Angeles"]);
    }
    assert_eq!(
        engine.pattern_evals(),
        2 * DISTINCT,
        "two patterns over {DISTINCT} distinct values"
    );
}

/// One constant rule of `k` tuples `{p}\D{6}`, one distinct 4-digit
/// prefix each: 2,000 fresh values, each starting with one of the
/// prefixes, cost one eval and one lookup apiece whatever `k` is — only
/// the tuple whose prefix a value starts with is a candidate.
#[test]
fn constant_tuple_cost_is_flat_in_tableau_size() {
    const VALUES: usize = 2_000;
    for k in [1usize, 10, 1_000] {
        let prefix = |i: usize| 1_000 + i;
        let tableau = (0..k)
            .map(|i| {
                let q = format!("{}\\D{{6}}", prefix(i));
                PatternTuple::constant(
                    ConstrainedPattern::unconstrained(q.parse().unwrap()),
                    format!("S{i}"),
                )
            })
            .collect();
        let rule = Pfd::new("Phone", "phone", "state", tableau);
        let schema = Schema::new(["phone", "state"]).unwrap();
        let mut engine = StreamEngine::new(schema, vec![rule]);
        let rows: Vec<_> = (0..VALUES)
            .map(|j| {
                let i = j * 7 % k;
                let phone = format!("{}{j:06}", prefix(i));
                vec![
                    ValuePool::intern(&phone),
                    ValuePool::intern(&format!("S{i}")),
                ]
            })
            .collect();
        for batch in rows.chunks(256) {
            engine.apply(batch.iter().cloned().map(Op::Insert)).unwrap();
        }
        assert_eq!(engine.pattern_evals(), VALUES, "evals at k = {k}");
        assert_eq!(engine.pattern_lookups(), VALUES, "lookups at k = {k}");
    }
}
