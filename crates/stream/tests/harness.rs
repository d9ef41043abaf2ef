//! One model-based harness for the stream engine's contracts.
//!
//! A case is a schema, its rules, the rows its ops draw cells from, the
//! engine's settings, and the tombstone ratio, if any, at which the
//! engine compacts after a batch. A seeded script of the engine's public
//! operations runs against it: op batches of inserts, deletes and updates
//! (some with one invalid op injected), `compact`, and taking and
//! dropping snapshots. After every step, [`check`] holds the engine to a
//! brute-force model:
//!
//! * the ledger, rendered with its witnesses and repairs, equals
//!   `detect_all` over a mirror `Table` that applies the same ops,
//!   compared sorted;
//! * `apply` leaves the epoch unchanged, and the step's events, described
//!   as soon as it returns and applied to the previous live set, give the
//!   new live set as a multiset of identities (a violation less its
//!   witnesses, which move without events), so a duplicated creation
//!   shows;
//! * a rejected batch leaves the table, ledger, health, drift and the
//!   eval/lookup counters untouched;
//! * every held snapshot equals the deep copy taken when it was captured,
//!   and no string is freed while one lives;
//! * a twin that never compacts, never reclaims and takes one op per call
//!   emitted the same events modulo the remap, with equal health, drift
//!   and ledger totals and, unless the case reclaims, equal eval and
//!   lookup counts.
//!
//! The pool is process-global, and a reclaiming engine frees every string
//! it displaced and no longer holds, whoever else holds it. So a
//! reclaiming case interns only strings of its own tag (cells, rule
//! constants, block keys) that no other test here produces, and the twin
//! runs its whole script before the engine under test, so none of its
//! memos can answer for a recycled id. The twin's events are described
//! as they are recorded, for the same reason.
//!
//! A failing case prints its schema, its rules as JSON and its op script
//! in op-log syntax, in the twin's id space, so it replays through
//! `anmat stream header.csv --rules rules.json --ops case.ops`. (The
//! vendored proptest does not shrink.)

use anmat_core::{
    detect_all, discover, DiscoveryConfig, LhsCell, PatternTuple, Pfd, RhsCell, Violation,
    ViolationKind, ViolationLedger,
};
use anmat_datagen::zipcity::{self, ZipTarget};
use anmat_datagen::{chembl, employee, names, phone, GenConfig};
use anmat_index::BlockingIndex;
use anmat_pattern::ConstrainedPattern;
use anmat_stream::{
    DriftReport, EngineSnapshot, LedgerEvent, StreamConfig, StreamEngine, TupleHealth,
};
use anmat_table::{oplog, Op, RowId, RowOp, Schema, Table, Value, ValuePool};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Local proptest case count, overridable by `PROPTEST_CASES` (CI
/// elevates it).
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One harness input.
struct Case {
    schema: Schema,
    rules: Vec<Pfd>,
    /// Inserts take these rows once each, in order; updates take one at
    /// random.
    rows: Vec<Vec<Value>>,
    config: StreamConfig,
    /// The tombstone ratio at which the engine under test compacts after
    /// each batch ([`StreamEngine::compact_if`]); `None` never triggers.
    compact_ratio: Option<f64>,
}

/// A datagen table under the rules discovery finds on it.
fn datagen(table: &Table) -> Case {
    let config = DiscoveryConfig {
        min_support: 3,
        min_coverage: 0.5,
        max_violation_ratio: 0.15,
        ..DiscoveryConfig::default()
    };
    case_of(table, discover(table, &config))
}

fn case_of(table: &Table, rules: Vec<Pfd>) -> Case {
    Case {
        schema: table.schema().clone(),
        rules,
        rows: table.iter_live().map(|r| table.row(r)).collect(),
        config: StreamConfig::default(),
        compact_ratio: None,
    }
}

/// Datagen dataset `i` of six: phone, names, zip/city twice (city and
/// state errors), employee, chembl.
fn dataset(i: usize, rows: usize, seed: u64) -> Table {
    let c = GenConfig {
        rows,
        seed,
        error_rate: 0.04,
    };
    match i {
        0 => phone::generate(&c).table,
        1 => names::generate(&c).table,
        2 => zipcity::generate(&c, ZipTarget::City).table,
        3 => zipcity::generate(&c, ZipTarget::State).table,
        4 => employee::generate(&c).table,
        _ => chembl::generate(&c).table,
    }
}

fn q(s: &str) -> ConstrainedPattern {
    s.parse().unwrap()
}

fn constant(pattern: &str, rhs: &str) -> PatternTuple {
    PatternTuple::constant(
        ConstrainedPattern::unconstrained(pattern.parse().unwrap()),
        rhs,
    )
}

const WILDCARD: PatternTuple = PatternTuple {
    lhs: LhsCell::Wildcard,
    rhs: RhsCell::Wildcard,
};

/// A zip/city/state table under hand-written rules that block coarsely:
/// the first zip digit, the first two, whole cities (a wildcard LHS,
/// which discovery never emits), and a mixed tableau of a constant and a
/// variable tuple.
fn zip_case(rows: usize, seed: u64) -> Case {
    let rules = vec![
        Pfd::new(
            "Zip",
            "zip",
            "state",
            vec![PatternTuple::variable(q("[\\D]\\D{4}"))],
        ),
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::variable(q("[\\D{2}]\\D{3}"))],
        ),
        Pfd::new("Zip", "city", "state", vec![WILDCARD]),
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![
                constant("900\\D{2}", "Los Angeles"),
                PatternTuple::variable(q("[\\D{3}]\\D{2}")),
            ],
        ),
    ];
    case_of(&dataset(2, rows, seed), rules)
}

/// A small-domain case whose blocks sit near a tie, so that removals flip
/// majorities. Keys `<tag><b><nn>` block by `<tag><b>` (four blocks) and
/// by `<tag><b><n>`, and whole keys form blocks of a row or two; values
/// are `<tag>-x` or `<tag>-y` evenly, a null, or a one-off. Most keys die
/// with their rows, so a reclaiming engine frees and recycles them. Every
/// string the case interns carries `tag`.
fn tie_case(tag: &str, seed: u64, rows: usize, reclaim: bool) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = (0..rows)
        .map(|i| {
            let key = format!(
                "{tag}{}{:02}",
                rng.random_range(0..4),
                rng.random_range(0..25)
            );
            let val = match rng.random_range(0..10) {
                0 => Value::Null,
                1 => Value::text(format!("{tag}-u{i}")),
                n => Value::text(format!("{tag}-{}", ["x", "y"][n % 2])),
            };
            vec![Value::text(key), val]
        })
        .collect();
    let tableau = vec![
        constant(&format!("{tag}0\\D{{2}}"), &format!("{tag}-x")),
        PatternTuple::variable(q(&format!("[{tag}\\D]\\D{{2}}"))),
        PatternTuple::variable(q(&format!("[{tag}\\D{{2}}]\\D"))),
    ];
    Case {
        schema: Schema::new(["key", "val"]).unwrap(),
        rules: vec![
            Pfd::new("Tie", "key", "val", tableau),
            Pfd::new("Tie", "key", "val", vec![WILDCARD]),
        ],
        rows,
        config: StreamConfig {
            min_support: 4,
            reclaim,
            ..StreamConfig::default()
        },
        compact_ratio: None,
    }
}

/// `case` with one of its rules repeated (chosen by `seed`): the copy
/// makes every assertion of the original again, so the ledger refcounts
/// them and batch detection must report each once.
fn overlap(mut case: Case, seed: u64) -> Case {
    if !case.rules.is_empty() {
        let rule = case.rules[seed as usize % case.rules.len()].clone();
        case.rules.push(rule);
    }
    case
}

/// One step of a script. Row ids are the twin's: it never compacts.
#[derive(Debug, Clone)]
enum Step {
    Batch(Vec<RowOp>),
    /// A batch with one invalid op injected: the engine must reject it.
    Rejected(Vec<RowOp>),
    Compact,
    Snapshot,
    /// Drop the oldest held snapshot.
    Release,
}

/// How a generated script churns. Each of its batches holds up to
/// `batch` inserts; every insert is chased, with chance `churn`
/// repeatedly, by a delete or an update of a random live row. One batch
/// in five comes first as a rejected copy with an invalid op injected,
/// and each is followed, with their chances, by a forced compaction and
/// a snapshot taken or dropped.
#[derive(Debug, Clone, Copy)]
struct Shape {
    batch: usize,
    churn: f64,
    compact: f64,
    snapshot: f64,
}

const REPLAY: Shape = Shape {
    batch: 40,
    churn: 0.0,
    compact: 0.0,
    snapshot: 0.0,
};

/// A seeded script that inserts each of the case's rows once. It drops
/// every snapshot it took and ends on a compaction if it compacts at all.
fn script(case: &Case, shape: Shape, seed: u64) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = &case.rows;
    let (mut live, mut slots, mut held) = (Vec::new(), 0, 0);
    let mut steps = Vec::new();
    let mut next = 0;
    while next < rows.len() {
        let mut ops = Vec::new();
        for _ in 0..rng.random_range(1..=shape.batch).min(rows.len() - next) {
            ops.push(RowOp::Insert(rows[next].clone()));
            live.push(slots);
            (next, slots) = (next + 1, slots + 1);
            while !live.is_empty() && rng.random_bool(shape.churn) {
                let pick = rng.random_range(0..live.len());
                ops.push(if rng.random_bool(0.5) {
                    RowOp::Delete(live.swap_remove(pick))
                } else {
                    RowOp::Update(live[pick], rows[rng.random_range(0..rows.len())].clone())
                });
            }
        }
        if rng.random_bool(0.2) {
            let mut bad = ops.clone();
            let arity = case.schema.arity();
            match rng.random_range(0..3) {
                0 => bad.insert(
                    rng.random_range(0..=ops.len()),
                    RowOp::Insert(vec![Value::Null; arity + 1]),
                ),
                1 => bad.insert(rng.random_range(0..=ops.len()), RowOp::Delete(slots + 1000)),
                // A second delete of a row the batch deleted, or a short
                // update.
                _ => bad.push(match ops.iter().find(|op| matches!(op, RowOp::Delete(_))) {
                    Some(delete) => delete.clone(),
                    None => RowOp::Update(slots - 1, Vec::new()),
                }),
            }
            steps.push(Step::Rejected(bad));
        }
        steps.push(Step::Batch(ops));
        if rng.random_bool(shape.compact) {
            steps.push(Step::Compact);
        }
        if rng.random_bool(shape.snapshot) {
            let release = held == 2 || (held > 0 && rng.random_bool(0.5));
            held = if release { held - 1 } else { held + 1 };
            steps.push(if release {
                Step::Release
            } else {
                Step::Snapshot
            });
        }
    }
    steps.extend((0..held).map(|_| Step::Release));
    if shape.compact > 0.0 {
        steps.push(Step::Compact);
    }
    steps
}

/// The ops of the script's accepted batches: what the twin applies.
fn twin_ops(script: &[Step]) -> impl Iterator<Item = &RowOp> {
    script.iter().flat_map(|step| match step {
        Step::Batch(ops) => ops.as_slice(),
        _ => &[],
    })
}

/// The case as the three files `anmat stream header.csv --rules
/// rules.json --ops case.ops` reads: the schema, the rules as JSON, and
/// the twin's ops in op-log syntax.
fn replay_files(case: &Case, script: &[Step]) -> [String; 3] {
    let field = |v: &Value| match v {
        Value::Null => String::new(),
        Value::Text(s) if s.contains([',', '"', '\n', '\r']) => {
            format!("\"{}\"", s.replace('"', "\"\""))
        }
        Value::Text(s) => s.clone(),
    };
    let cells = |cells: &[Value]| cells.iter().map(field).collect::<Vec<_>>().join(",");
    let ops = twin_ops(script)
        .map(|op| match op {
            RowOp::Insert(c) => format!("+,{}\n", cells(c)),
            RowOp::Delete(row) => format!("-,{row}\n"),
            RowOp::Update(row, c) => format!("~,{row},{}\n", cells(c)),
        })
        .collect();
    // No panic here: a panic while another unwinds aborts the process.
    let rules = serde_json::to_string(&case.rules).unwrap_or_default();
    [case.schema.names().join(","), rules, ops]
}

/// Prints the failing case's replay files while a panic unwinds.
struct PrintOnPanic<'a>(&'a Case, &'a [Step]);

impl Drop for PrintOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let [header, rules, ops] = replay_files(self.0, self.1);
            eprintln!("--- header.csv\n{header}\n--- rules.json\n{rules}\n--- case.ops\n{ops}");
        }
    }
}

/// What an engine shows after a step, beyond its table and ledger.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Each rule's tuple health.
    health: Vec<Vec<TupleHealth>>,
    drift: Vec<DriftReport>,
    /// The ledger's created and retracted totals.
    totals: (usize, usize),
    /// Pattern evaluations and memo lookups.
    counts: (usize, usize),
}

fn observe(engine: &StreamEngine) -> Observed {
    let ledger = engine.ledger();
    Observed {
        health: (0..engine.rules().count())
            .map(|r| engine.rule_health(r).to_vec())
            .collect(),
        drift: engine.drift_report(),
        totals: (ledger.created_total(), ledger.retracted_total()),
        counts: (engine.pattern_evals(), engine.pattern_lookups()),
    }
}

/// A deep copy of what a snapshot shows: its epoch, its live rows
/// resolved to strings, and its live violations.
type Frozen = (u64, Vec<(RowId, Vec<Option<String>>)>, Vec<Violation>);

fn freeze(epoch: u64, table: &Table, ledger: &ViolationLedger) -> Frozen {
    (epoch, resolved_rows(table), ledger.snapshot())
}

fn resolved_rows(table: &Table) -> Vec<(RowId, Vec<Option<String>>)> {
    let arity = table.schema().arity();
    table
        .iter_live()
        .map(|row| {
            let cells = (0..arity).map(|col| table.cell_str(row, col).map(str::to_owned));
            (row, cells.collect())
        })
        .collect()
}

/// `ops` in the engine's current id space. `twin_of` holds the twin's id
/// of each current slot, ascending; the batch's inserts extend it past
/// `twin_slots`, the twin's slot count. Ids no slot holds (an injected
/// delete out of range) pass through.
fn to_current(ops: &[RowOp], twin_of: &mut Vec<RowId>, twin_slots: &mut usize) -> Vec<Op> {
    let mut ops: Vec<RowOp> = ops.to_vec();
    for op in &mut ops {
        match op {
            RowOp::Insert(_) => {
                twin_of.push(*twin_slots);
                *twin_slots += 1;
            }
            RowOp::Delete(row) | RowOp::Update(row, _) => {
                *row = twin_of.binary_search(row).unwrap_or(*row);
            }
        }
    }
    ops.into_iter().map(Op::from).collect()
}

/// An event as described when it was emitted: whether it is a creation,
/// and the violation it names (no witnesses).
type Described = (bool, Violation);

/// `events`, described by the ledger that emitted them before anything
/// compacts.
fn describe(ledger: &ViolationLedger, events: &[LedgerEvent]) -> Vec<Described> {
    let describe = |e: &LedgerEvent| (e.is_created(), ledger.describe(e.assertion()));
    events.iter().map(describe).collect()
}

/// A described event with its row ids moved into the twin's space.
fn to_twin((created, v): &Described, twin_of: &[RowId]) -> Described {
    let mut v = v.clone();
    v.row = twin_of[v.row];
    if let Some(repair) = &mut v.repair {
        repair.row = twin_of[repair.row];
    }
    (*created, v)
}

/// A violation's identity, what an event names: everything but its
/// witnesses.
fn identity(mut v: Violation) -> Violation {
    if let ViolationKind::Variable { witnesses, .. } = &mut v.kind {
        witnesses.clear();
    }
    v
}

/// The identities of `live`, sorted.
fn identities(live: &[Violation]) -> Vec<Violation> {
    let mut out: Vec<Violation> = live.iter().cloned().map(identity).collect();
    out.sort();
    out
}

/// The identities of `live` with `events` applied, as a sorted multiset.
fn carry(live: &[Violation], events: &[Described]) -> Vec<Violation> {
    let mut bag: BTreeMap<Violation, usize> = BTreeMap::new();
    for v in identities(live) {
        *bag.entry(v).or_default() += 1;
    }
    for (created, v) in events {
        if *created {
            *bag.entry(v.clone()).or_default() += 1;
        } else {
            let n = bag.get_mut(v).filter(|n| **n > 0);
            *n.expect("a retraction names a live violation") -= 1;
        }
    }
    let bag = bag.into_iter();
    bag.flat_map(|(v, n)| std::iter::repeat_n(v, n)).collect()
}

/// `detect_all` over `table` (each violation once, however many rules
/// imply it), sorted.
fn model(table: &Table, rules: &[Pfd]) -> Vec<Violation> {
    let mut violations = detect_all(table, rules);
    violations.sort();
    violations
}

/// What the engine under test left behind.
struct Run {
    engine: StreamEngine,
    /// Every event it emitted, in order, described.
    events: Vec<Described>,
    /// Strings it had freed when the last snapshot was dropped.
    freed_at_release: usize,
}

/// Run `script` on the twin, then on the engine under test, checking the
/// model after every step (see the file's docs).
fn check(case: &Case, script: &[Step]) -> Run {
    let _print = PrintOnPanic(case, script);
    let (schema, rules) = (&case.schema, &case.rules);
    let config = StreamConfig {
        reclaim: false,
        ..case.config
    };
    let mut twin = StreamEngine::with_config(schema.clone(), rules.clone(), config);
    let expected: Vec<(Vec<Described>, Observed)> = script
        .iter()
        .map(|step| {
            let ops = match step {
                Step::Batch(ops) => ops.as_slice(),
                _ => &[],
            };
            let events = ops.iter().flat_map(|op| {
                let events = twin.apply([op.clone()]).expect("valid");
                describe(twin.ledger(), &events)
            });
            (events.collect(), observe(&twin))
        })
        .collect();

    let mut engine = StreamEngine::with_config(schema.clone(), rules.clone(), case.config);
    let mut mirror = Table::empty(schema.clone());
    let (mut live, mut twin_of, mut twin_slots) = (Vec::new(), Vec::new(), 0);
    let mut held: Vec<(EngineSnapshot, Frozen, usize)> = Vec::new();
    let (mut events, mut freed_at_release) = (Vec::new(), 0);
    for (step, (twin_events, twin)) in script.iter().zip(&expected) {
        let epoch = engine.epoch();
        let mut compacted = None;
        match step {
            Step::Rejected(ops) => {
                let ops = to_current(ops, &mut twin_of.clone(), &mut twin_slots.clone());
                let before = observe(&engine);
                engine
                    .apply(ops)
                    .expect_err("an injected op rejects the batch");
                assert_eq!(
                    observe(&engine),
                    before,
                    "a rejected batch moved the engine"
                );
                assert_eq!(engine.epoch(), epoch, "apply changed the epoch");
            }
            Step::Batch(ops) => {
                let ops = to_current(ops, &mut twin_of, &mut twin_slots);
                let got = engine
                    .apply(ops.clone())
                    .expect("the script's batches are valid");
                assert_eq!(engine.epoch(), epoch, "apply changed the epoch");
                let got = describe(engine.ledger(), &got);
                for op in ops {
                    mirror.apply(op).expect("the mirror takes every valid op");
                }
                let translated: Vec<_> = got.iter().map(|e| to_twin(e, &twin_of)).collect();
                assert_eq!(&translated, twin_events, "events diverged from the twin's");
                let carried = carry(&live, &got);
                live = model(&mirror, rules);
                assert_eq!(
                    carried,
                    identities(&live),
                    "the events do not carry the live set to the model"
                );
                events.extend(got);
                compacted = case.compact_ratio.and_then(|r| engine.compact_if(r));
            }
            Step::Compact => compacted = Some(engine.compact()),
            Step::Snapshot => {
                let frozen = freeze(engine.epoch(), engine.table(), engine.ledger());
                held.push((engine.snapshot(), frozen, engine.reclaim_stats().strings));
            }
            Step::Release => {
                held.remove(0);
                freed_at_release = engine.reclaim_stats().strings;
            }
        }
        assert_eq!(
            engine.epoch() - epoch,
            u64::from(compacted.is_some()),
            "the engine compacted outside `compact`"
        );
        if let Some(compacted) = compacted {
            let remap = mirror.compact();
            assert_eq!(compacted, remap, "the engine's remap is not its table's");
            twin_of = (0..remap.old_slots())
                .filter(|&slot| remap.new_id(slot).is_some())
                .map(|slot| twin_of[slot])
                .collect();
            live = model(&mirror, rules);
        }
        assert_eq!(
            engine.table(),
            &mirror,
            "the engine's table diverged from the mirror"
        );
        let mut ledger = engine.ledger().snapshot();
        ledger.sort();
        assert_eq!(ledger, live, "the ledger is not detect_all over the mirror");
        let mut now = observe(&engine);
        if case.config.reclaim {
            // A sweep purges memos, so evaluations that follow it repeat.
            now.counts = twin.counts;
        }
        assert_eq!(
            &now, twin,
            "health, drift or counters diverged from the twin's"
        );
        if case.compact_ratio.is_some() {
            assert!(
                engine.row_count() <= 2 * engine.live_rows().max(1),
                "slots past 2× live"
            );
        }
        for (snap, frozen, freed) in &held {
            assert_eq!(
                engine.reclaim_stats().strings,
                *freed,
                "a string was freed under a snapshot"
            );
            assert_eq!(
                &freeze(snap.epoch(), snap.table(), snap.ledger()),
                frozen,
                "a snapshot moved"
            );
        }
        engine.publish_metrics();
    }
    Run {
        engine,
        events,
        freed_at_release,
    }
}

#[test]
fn datagen_replay_equals_batch_at_any_batch_split() {
    // The twin takes one op per call, so every check against it is also
    // batch-size independence (and batch priming's neutrality).
    for i in 0..6 {
        let case = datagen(&dataset(i, 400, 0xA11CE));
        check(&case, &script(&case, REPLAY, i as u64));
    }
    let case = zip_case(300, 7);
    check(&case, &script(&case, REPLAY, 7));
}

#[test]
fn churn_on_survivors_keeps_the_health_of_a_survivors_replay() {
    let churn = |churn| Shape {
        batch: 12,
        churn,
        ..REPLAY
    };
    let mut cases: Vec<(Case, f64)> = (0..6)
        .map(|i| (datagen(&dataset(i, 250, 0xDE17A)), 0.2))
        .collect();
    // Heavy churn: blocks drain, majorities flip, most slots die.
    cases.push((datagen(&dataset(2, 200, 0xC0FFEE)), 0.45));
    for (seed, (case, rate)) in cases.iter().enumerate() {
        let run = check(case, &script(case, churn(*rate), seed as u64));
        let survivors = run.engine.table().filter_rows(|_| true);
        let mut replay = StreamEngine::new(case.schema.clone(), case.rules.clone());
        replay
            .apply(
                survivors
                    .iter_live()
                    .map(|r| Op::Insert(survivors.row_ids(r))),
            )
            .unwrap();
        assert_eq!(observe(&run.engine).health, observe(&replay).health);
    }
}

#[test]
fn drain_and_refill() {
    let case = datagen(&dataset(1, 120, 11));
    let n = case.rows.len();
    let inserts = Step::Batch(case.rows.iter().cloned().map(RowOp::Insert).collect());
    let deletes = Step::Batch((0..n).map(RowOp::Delete).collect());
    check(&case, &[inserts.clone(), deletes, inserts]);
}

#[test]
fn forced_and_ratio_triggered_compaction_are_invisible() {
    let forced = Shape {
        batch: 24,
        churn: 0.25,
        compact: 0.35,
        ..REPLAY
    };
    for i in [2, 1] {
        let case = datagen(&dataset(i, 220, 0xC0DA));
        let run = check(&case, &script(&case, forced, 17 + i as u64));
        assert!(run.engine.epoch() > 1);
    }
    // About half the churn ops delete; the harness bounds slots at 2×
    // live rows after every step.
    let case = Case {
        compact_ratio: Some(0.3),
        ..datagen(&dataset(2, 260, 0x3AC7))
    };
    let run = check(
        &case,
        &script(
            &case,
            Shape {
                batch: 24,
                churn: 0.45,
                ..REPLAY
            },
            19,
        ),
    );
    assert!(run.engine.epoch() > 1);
}

#[test]
fn compaction_of_a_drained_table_restarts_cleanly() {
    let case = datagen(&dataset(1, 90, 23));
    let n = case.rows.len();
    let inserts = Step::Batch(case.rows.iter().cloned().map(RowOp::Insert).collect());
    let deletes = Step::Batch((0..n).map(RowOp::Delete).collect());
    let run = check(&case, &[inserts.clone(), deletes, Step::Compact, inserts]);
    assert_eq!(run.engine.compaction_stats().reclaimed_slots, n);
    assert!(run.engine.ledger().live().all(|v| v.row < n));
}

#[test]
fn overlapping_rules_match_the_model() {
    // A constant rule, a variable rule flagging the same rows, and the
    // constant rule again: batch detection once reported the repeated
    // constant's violations twice, as the variable rule's sat between
    // the two copies in the `(row, dependency)` order.
    let zips = Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::variable(q("[\\D{3}]\\D{2}"))],
    );
    let la = Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![constant("900\\D{2}", "Los Angeles")],
    );
    let cities = [
        "Los Angeles",
        "Los Angeles",
        "New York",
        "Boston",
        "Los Angeles",
    ];
    let case = Case {
        schema: Schema::new(["zip", "city"]).unwrap(),
        rules: vec![la.clone(), zips, la],
        rows: (0..40)
            .map(|i| {
                let zip = format!("{}{:02}", ["900", "901"][i % 2], i);
                vec![Value::text(zip), Value::text(cities[i % cities.len()])]
            })
            .collect(),
        config: StreamConfig::default(),
        compact_ratio: None,
    };
    let shape = Shape {
        batch: 6,
        churn: 0.3,
        compact: 0.2,
        snapshot: 0.2,
    };
    let run = check(&case, &script(&case, shape, 29));
    assert!(!run.engine.ledger().is_empty());
}

#[test]
fn drift_reports_sort_by_rule_index() {
    // Three constant rules that every row violates.
    let rule = |expected| Pfd::new("Zip", "zip", "city", vec![constant("900\\D{2}", expected)]);
    let case = Case {
        schema: Schema::new(["zip", "city"]).unwrap(),
        rules: vec![rule("Alpha"), rule("Beta"), rule("Gamma")],
        rows: (0..12)
            .map(|i| vec![Value::text(format!("900{i:02}")), Value::text("Delta")])
            .collect(),
        config: StreamConfig::default(),
        compact_ratio: None,
    };
    let run = check(&case, &script(&case, REPLAY, 3));
    let order: Vec<usize> = run.engine.drift_report().iter().map(|d| d.rule).collect();
    assert_eq!(order, vec![0, 1, 2]);
}

#[test]
fn instrumented_run_is_bit_for_bit_identical() {
    // The recorder flag is process global; flipping it is harmless to the
    // tests running beside this one because of the contract it checks.
    use anmat_obs as obs;
    let case = datagen(&dataset(2, 160, 0xB0B5));
    let steps = script(
        &case,
        Shape {
            batch: 32,
            churn: 0.25,
            compact: 0.3,
            snapshot: 0.3,
        },
        41,
    );
    let run = || {
        let Run { engine, events, .. } = check(&case, &steps);
        (events, engine.ledger().snapshot(), observe(&engine))
    };
    let baseline = run();
    obs::Recorder::enable();
    let instrumented = run();
    obs::Recorder::disable();
    assert_eq!(
        baseline, instrumented,
        "an active recorder changed the engine"
    );
    let ops = obs::MetricsSnapshot::capture().counter("engine.ops");
    assert!(
        ops.unwrap_or(0) > 0,
        "the instrumented run recorded no engine.ops"
    );
}

/// Rows one `KeyBlock` run holds.
const RUN_CAP: usize = 1024;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(2)))]

    /// 6k zip rows with over 30% churn and a compaction mid-way: the
    /// first-digit block outgrows one run, so runs split, thin and
    /// merge, and updates move old row ids into the middle of full runs.
    #[test]
    fn blocks_past_the_run_cap_equal_batch(seed in any::<u64>()) {
        let case = zip_case(6000, seed);
        let mut steps = script(&case, Shape { batch: 1024, churn: 0.4, ..REPLAY }, seed);
        steps.insert(steps.len() / 2, Step::Compact);
        let churned = twin_ops(&steps).filter(|op| !matches!(op, RowOp::Insert(_))).count();
        prop_assert!(churned * 10 >= twin_ops(&steps).count() * 3, "churn under 30%");
        let run = check(&case, &steps);
        let blocks = BlockingIndex::block(run.engine.table(), 0, Some(&q("[\\D]\\D{4}")));
        let largest = blocks.blocks.iter().map(|(_, rows)| rows.len()).max().unwrap_or(0);
        prop_assert!(largest > RUN_CAP, "the largest block holds only {largest} rows");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// Reclamation is invisible: a reclaiming engine, compacting and
    /// holding snapshots, matches its never-reclaiming twin.
    #[test]
    fn reclaiming_engine_matches_its_twin(seed in 0u64..4096) {
        let case = tie_case("rtw", seed, 120, true);
        let shape = Shape { batch: 12, churn: 0.35, compact: 0.35, snapshot: 0.25 };
        let run = check(&case, &script(&case, shape, seed));
        prop_assert!(run.engine.reclaim_stats().strings > 0, "the churn freed no string");
    }

    /// Any script over any case: datagen tables under discovered rules,
    /// the zip rules, or near-tie tables with and without reclamation,
    /// compacting never, at random points, off the ratio, or both; a
    /// third of the cases repeat one of their rules.
    #[test]
    fn any_script_matches_the_model(seed in any::<u64>(), source in 0usize..9, flags in 0u8..8) {
        let rows = 80 + (seed % 150) as usize;
        let mut case = match source {
            0..=5 => datagen(&dataset(source, rows, seed)),
            6 => zip_case(rows, seed),
            _ => tie_case("any", seed, rows, flags & 1 == 1),
        };
        if seed % 3 == 0 {
            case = overlap(case, seed / 3);
        }
        case.compact_ratio = (flags & 2 == 2).then_some(0.3);
        let compact = if flags & 4 == 4 { 0.3 } else { 0.0 };
        let churn = 0.05 + (seed % 40) as f64 / 100.0;
        let shape = Shape { batch: 16, churn, compact, snapshot: 0.2 };
        check(&case, &script(&case, shape, seed));
    }
}

#[test]
fn snapshot_stays_frozen_while_ingest_mutates() {
    // One snapshot held across half the script's churn and compactions,
    // then dropped: the deferred sweep runs at the next barrier.
    let case = tie_case("snap", 7, 120, true);
    let shape = Shape {
        batch: 12,
        churn: 0.35,
        compact: 0.35,
        ..REPLAY
    };
    let mut steps = script(&case, shape, 7);
    steps.insert(steps.len() / 3, Step::Snapshot);
    steps.insert(steps.len() - 1, Step::Release);
    let run = check(&case, &steps);
    assert!(run.engine.reclaim_stats().strings > run.freed_at_release);
}

#[test]
fn failure_script_parses_back_to_the_twin_ops() {
    // Names hold commas, so fields get quoted.
    let case = datagen(&dataset(1, 120, 5));
    let shape = Shape {
        batch: 12,
        churn: 0.3,
        compact: 0.3,
        snapshot: 0.3,
    };
    let steps = script(&case, shape, 5);
    let [header, rules, ops] = replay_files(&case, &steps);
    assert_eq!(header, case.schema.names().join(","));
    assert_eq!(
        serde_json::from_str::<Vec<Pfd>>(&rules).unwrap(),
        case.rules
    );
    let want: Vec<Op> = twin_ops(&steps).cloned().map(Op::from).collect();
    assert!(want.iter().any(|op| matches!(op, Op::Update(..))));
    assert_eq!(oplog::parse(&ops).unwrap(), want);
}

/// λ5 (a shared zip prefix ⇒ a shared city) plus a constant rule
/// (`prefixes[0]xx ⇒ "<tag>-LA"`).
fn rules(tag: &str, prefixes: [&str; 5]) -> Vec<Pfd> {
    vec![
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::variable(q("[\\D{3}]\\D{2}"))],
        ),
        Pfd::new(
            "ZipConst",
            "zip",
            "city",
            vec![constant(
                &format!("{}\\D{{2}}", prefixes[0]),
                &format!("{tag}-LA"),
            )],
        ),
    ]
}

fn schema() -> Schema {
    Schema::new(["zip", "city"]).unwrap()
}

/// The sweep's mark, case by case: the strings the deletes and updates
/// displaced are freed exactly when no live cell and no rule state holds
/// them any more.
#[test]
fn mark_frees_exactly_the_strings_nothing_holds() {
    let tag = "rclC";
    let prefixes = ["610", "623", "637", "648", "659"];
    let config = StreamConfig {
        reclaim: true,
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::with_config(schema(), rules(tag, prefixes), config);
    let row = |zip: &str, city: &str| vec![Value::text(zip), Value::text(city)];
    engine
        .apply(vec![
            RowOp::Insert(row("61001", "rclC-self")),
            RowOp::Insert(row("62301", "rclC-shared")),
            RowOp::Insert(row("62302", "rclC-shared")),
            RowOp::Insert(row("63701", "rclC-again")),
            // The constant rule's expected RHS for `610xx`.
            RowOp::Insert(row("61002", "rclC-LA")),
            RowOp::Insert(row("64801", "rclC-city-648")),
            // A city spelled like the live block key of `64801`.
            RowOp::Insert(row("64802", "648")),
            RowOp::Insert(row("65901", "rclC-gone-1")),
            RowOp::Insert(row("65902", "rclC-gone-2")),
            RowOp::Insert(row("62303", "rclC-old")),
        ])
        .expect("valid ops");
    engine
        .apply(vec![
            // Rewritten to its own values.
            RowOp::Update(0, row("61001", "rclC-self")),
            // The other `rclC-shared` row stays.
            RowOp::Delete(1),
            // Deleted and re-inserted within the epoch.
            RowOp::Delete(3),
            RowOp::Insert(row("63702", "rclC-again")),
            // Only rule state holds `rclC-LA` and `648` afterwards.
            RowOp::Delete(4),
            RowOp::Delete(6),
            // Nothing holds these afterwards; block `659` drains.
            RowOp::Delete(7),
            RowOp::Delete(8),
            // An update displaces the value it overwrites.
            RowOp::Update(9, row("62303", "rclC-new")),
        ])
        .expect("valid ops");
    assert_eq!(
        engine.reclaim_stats().strings,
        0,
        "sweeps wait for the barrier"
    );
    engine.compact();

    let freed = [
        "62301",
        "63701",
        "61002",
        "64802",
        "65901",
        "65902",
        "rclC-gone-1",
        "rclC-gone-2",
        "rclC-old",
    ];
    let kept = [
        "61001",
        "rclC-self",
        "rclC-shared",
        "rclC-again",
        "rclC-LA",
        "648",
    ];
    assert_eq!(engine.reclaim_stats().strings, freed.len());
    for s in freed {
        assert_eq!(ValuePool::lookup(s), None, "`{s}` should be freed");
    }
    for s in kept {
        assert!(ValuePool::lookup(s).is_some(), "`{s}` should survive");
    }
    // Every live cell still resolves, to what was written.
    let want: Vec<(usize, Vec<Option<String>>)> = [
        ("61001", "rclC-self"),
        ("62302", "rclC-shared"),
        ("64801", "rclC-city-648"),
        ("62303", "rclC-new"),
        ("63702", "rclC-again"),
    ]
    .iter()
    .enumerate()
    .map(|(slot, (zip, city))| (slot, vec![Some(zip.to_string()), Some(city.to_string())]))
    .collect();
    assert_eq!(resolved_rows(engine.table()), want);
}
