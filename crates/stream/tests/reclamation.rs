//! Epoch-tied string reclamation is *observably free*: an engine that
//! sweeps the [`ValuePool`] at its compaction barriers must be
//! indistinguishable — events, ledger, resolved table content, per-rule
//! health, drift — from a never-reclaiming twin fed the identical op
//! stream. And copy-on-write snapshots must stay frozen while ingest (and
//! compaction, and deferred reclamation) continue underneath them. And
//! the sweep's mark frees exactly the strings the engine no longer
//! holds.
//!
//! The pool is process-global, and a sweep frees every string its own
//! engine no longer holds, whoever else still does. So every test works
//! in its own string universe: cities and constant-rule RHS carry a
//! `rcl`-seed tag, and each test function draws zips from a disjoint
//! 3-digit prefix bank. An id this file frees is therefore never
//! resolved by a concurrently-running test. Tables are compared by
//! *resolved content* (strings, not raw ids): a string freed and later
//! re-interned legitimately comes back under a recycled id, and id
//! identity was never part of the observable contract.

use anmat_core::{PatternTuple, Pfd, Violation};
use anmat_stream::{LedgerEvent, StreamConfig, StreamEngine};
use anmat_table::{RowOp, Schema, Table, Value, ValuePool};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::cases;

/// λ5-style variable rule (shared zip prefix ⇒ shared city) plus a
/// constant rule (`prefixes[0]xx ⇒ "<tag>-LA"`) so both tuple kinds
/// hold protected ids across sweeps.
fn rules(tag: &str, prefixes: [&str; 5]) -> Vec<Pfd> {
    vec![
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::variable("[\\D{3}]\\D{2}".parse().unwrap())],
        ),
        Pfd::new(
            "ZipConst",
            "zip",
            "city",
            vec![PatternTuple::constant(
                anmat_pattern::ConstrainedPattern::unconstrained(
                    format!("{}\\D{{2}}", prefixes[0]).parse().unwrap(),
                ),
                format!("{tag}-LA"),
            )],
        ),
    ]
}

fn schema() -> Schema {
    Schema::new(["zip", "city"]).unwrap()
}

/// One scripted step: an op batch, then optionally a compaction
/// barrier. Compaction renumbers live rows (sorted survivors → `0..n`),
/// so ops must be generated against the *post-remap* id space — the
/// script bakes the barriers in and the generator tracks the
/// renumbering, which is deterministic and identical across every
/// engine flavour.
struct Step {
    ops: Vec<RowOp>,
    compact: bool,
}

/// A churn-heavy script in the `tag`/`prefixes` universe: inserts with
/// shared and unique city strings, random deletes/updates, a compaction
/// barrier every third batch, and a final guaranteed purge of half the
/// survivors — so some unique strings *always* lose their last
/// reference before the last barrier.
fn churn_script(tag: &str, prefixes: [&str; 5], seed: u64, rows: usize) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut script = Vec::new();
    let mut live: Vec<usize> = Vec::new();
    let mut next_slot = 0usize;
    let cell = |rng: &mut StdRng, i: usize| -> Vec<Value> {
        // Five zip prefixes; prefixes[0] exercises the constant rule.
        let prefix = prefixes[rng.random_range(0..5usize)];
        let zip = format!("{prefix}{:02}", rng.random_range(0..100));
        let city = if rng.random_bool(0.6) {
            // Block-majority material: one shared city per prefix.
            format!("{tag}-city-{prefix}")
        } else {
            // Unique per row — exactly the strings churn strands.
            format!("{tag}-unique-{i}")
        };
        vec![Value::text(zip), Value::text(city)]
    };
    let batches = rows.div_ceil(12);
    for b in 0..batches {
        let mut ops = Vec::new();
        for i in 0..12 {
            let arrival = b * 12 + i;
            ops.push(RowOp::Insert(cell(&mut rng, arrival)));
            live.push(next_slot);
            next_slot += 1;
            if !live.is_empty() && rng.random_bool(0.35) {
                let pick = rng.random_range(0..live.len());
                if rng.random_bool(0.5) {
                    ops.push(RowOp::Delete(live.remove(pick)));
                } else {
                    ops.push(RowOp::Update(live[pick], cell(&mut rng, rows + arrival)));
                }
            }
        }
        let barrier = b % 3 == 2;
        script.push(Step {
            ops,
            compact: barrier,
        });
        if barrier {
            // Mirror the engine's remap: sorted survivors → 0..n.
            live.sort_unstable();
            live = (0..live.len()).collect();
            next_slot = live.len();
        }
    }
    // Deterministic tail churn: whatever the dice did, half the
    // survivors (unique cities among them) die before the last barrier.
    let ops = (0..live.len() / 2)
        .map(|_| RowOp::Delete(live.remove(0)))
        .collect();
    script.push(Step { ops, compact: true });
    script
}

/// The table's observable content: epoch plus every live row resolved
/// to strings. Raw `ValueId`s are deliberately absent — a reclaimed
/// string re-interned later rides a recycled id, and id identity was
/// never part of the engine's contract.
type ResolvedTable = (u64, Vec<(usize, Vec<Option<String>>)>);

fn resolved_rows(table: &Table) -> ResolvedTable {
    let rows = table
        .iter_live()
        .map(|row| {
            let cells = (0..table.schema().arity())
                .map(|col| table.cell_str(row, col).map(str::to_owned))
                .collect();
            (row, cells)
        })
        .collect();
    (table.epoch(), rows)
}

/// Everything two engines must agree on, as owned data (strings, not
/// ids — safe to hold across later sweeps).
#[derive(Debug, PartialEq)]
struct Observed {
    events: Vec<LedgerEvent>,
    live: Vec<Violation>,
    created: usize,
    retracted: usize,
    table: ResolvedTable,
    health: Vec<anmat_stream::RuleHealth>,
    drift: Vec<anmat_stream::DriftReport>,
}

fn observe(
    events: Vec<LedgerEvent>,
    table: &Table,
    ledger: &anmat_stream::ViolationLedger,
    health: Vec<anmat_stream::RuleHealth>,
    drift: Vec<anmat_stream::DriftReport>,
) -> Observed {
    Observed {
        events,
        live: ledger.snapshot(),
        created: ledger.created_total(),
        retracted: ledger.retracted_total(),
        table: resolved_rows(table),
        health,
        drift,
    }
}

/// Run the script — several explicit compaction barriers, each a sweep
/// opportunity — collecting the full observable record.
fn run(config: StreamConfig, rules: Vec<Pfd>, script: &[Step]) -> (Observed, usize) {
    let mut engine = StreamEngine::with_config(schema(), rules, config);
    let mut events = Vec::new();
    for step in script {
        events.extend(engine.apply(step.ops.clone()).expect("valid ops"));
        if step.compact {
            engine.compact();
        }
    }
    let health = (0..2).map(|i| engine.rule_health(i)).collect();
    let observed = observe(
        events,
        engine.table(),
        engine.ledger(),
        health,
        engine.drift_report(),
    );
    (observed, engine.reclaim_stats().strings)
}

/// Zip prefixes for the twin property. Disjoint from the other tests'
/// banks so a sweep here never frees a zip a concurrently running
/// engine still resolves.
const TWIN_PREFIXES: [&str; 5] = ["900", "104", "117", "235", "462"];

fn reclaim_twin_case(tag: &str, seed: u64) {
    let script = churn_script(tag, TWIN_PREFIXES, seed, 96);
    let base = StreamConfig {
        min_support: 4,
        ..StreamConfig::default()
    };

    // The twin runs FIRST and never reclaims, so its observables are
    // collected before any sweep can free a string it would still
    // resolve.
    let (twin, twin_freed) = run(base, rules(tag, TWIN_PREFIXES), &script);
    assert_eq!(twin_freed, 0, "twin must never reclaim");

    let reclaiming = StreamConfig {
        reclaim: true,
        ..base
    };
    let (swept, freed) = run(reclaiming, rules(tag, TWIN_PREFIXES), &script);
    assert!(
        freed > 0,
        "churn stranded unique strings, so the sweep must free some ({tag}, seed {seed})"
    );
    assert_eq!(
        swept, twin,
        "reclamation changed observable state ({tag}, seed {seed})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// The headline twin property: reclamation is observably invisible.
    #[test]
    fn churn_with_reclamation_matches_never_reclaiming_twin(seed in 0u64..4096) {
        reclaim_twin_case(&format!("rclA{seed}"), seed);
    }
}

/// A snapshot taken mid-stream equals an eager deep copy taken at the
/// same instant, no matter how much ingest, compaction, and (deferred)
/// reclamation happen afterwards — and the deferral itself is visible:
/// no string is freed while the snapshot lives, the queued candidates
/// sweep at the first barrier after it drops.
#[test]
fn snapshot_stays_frozen_while_ingest_mutates() {
    let tag = "rclB";
    let prefixes = ["500", "514", "527", "535", "542"];
    let script = churn_script(tag, prefixes, 7, 80);
    let config = StreamConfig {
        reclaim: true,
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::with_config(schema(), rules(tag, prefixes), config);
    let (head, tail) = script.split_at(script.len() / 2);
    for step in head {
        engine.apply(step.ops.clone()).expect("valid ops");
        if step.compact {
            engine.compact();
        }
    }

    let snap = engine.snapshot();
    let frozen_table = engine.table().clone();
    let frozen_live = engine.ledger().snapshot();
    let epoch_at_capture = engine.epoch();
    let freed_at_capture = engine.reclaim_stats().strings;

    for step in tail {
        engine.apply(step.ops.clone()).expect("valid ops");
        if step.compact {
            engine.compact();
        }
    }
    // Sweeps deferred while the snapshot pins the pool view…
    assert_eq!(
        engine.reclaim_stats().strings,
        freed_at_capture,
        "no string may be freed while a snapshot is alive"
    );
    // …and the frozen view is bit-for-bit the capture-time state.
    assert_eq!(snap.table(), &frozen_table);
    assert_eq!(snap.ledger().snapshot(), frozen_live);
    assert_eq!(snap.epoch(), epoch_at_capture);
    assert_ne!(
        engine.table(),
        &frozen_table,
        "tail churn must actually have mutated the live table"
    );

    // Dropping the snapshot releases the pin; the queued candidates
    // were preserved across the deferred barriers and sweep now.
    drop(snap);
    engine.compact();
    assert!(
        engine.reclaim_stats().strings > freed_at_capture,
        "deferred candidates must sweep at the first unpinned barrier"
    );
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
    assert_eq!(resolved_rows(engine.table()).1, want);
}
