//! Mutable-stream/batch equivalence — the tentpole property of the
//! delta pipeline: after *any* interleaving of insert/delete/update ops,
//! the `StreamEngine`'s ledger (active violations) must equal batch
//! `detect_all` over the surviving rows, and its per-rule drift health
//! (the confidence numerator and denominator) must equal what a fresh
//! engine computes when fed only the survivors.
//!
//! Ops are generated from a seed against each datagen dataset: the
//! dataset's rows arrive as inserts, interleaved with deletes and
//! updates of random live slots (update cells drawn from the dataset so
//! values stay in-domain). A mirror `Table` applies the identical ops,
//! so batch detection sees exactly the tombstoned state the engine
//! maintained incrementally — same `RowId`s, same survivors.

use anmat_core::{
    detect_all, discover, DiscoveryConfig, PatternTuple, Pfd, Violation, ViolationKind,
};
use anmat_datagen::{chembl, employee, names, phone, zipcity, GenConfig};
use anmat_pattern::ConstrainedPattern;
use anmat_stream::{StreamConfig, StreamEngine};
use anmat_table::{Op, RowId, RowOp, Schema, Table, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::cases;

fn discovery_config() -> DiscoveryConfig {
    DiscoveryConfig {
        min_support: 3,
        min_coverage: 0.5,
        max_violation_ratio: 0.15,
        ..DiscoveryConfig::default()
    }
}

fn canonical(mut violations: Vec<Violation>) -> Vec<String> {
    violations.sort_by_key(|v| (v.row, v.dependency.clone()));
    let mut keys: Vec<String> = violations
        .iter()
        .map(|v| serde_json::to_string(v).expect("violations serialize"))
        .collect();
    keys.sort();
    keys.dedup();
    keys
}

/// A random interleaving: every source row arrives as an insert; after
/// each arrival, with probability `churn` (repeatedly), a random live
/// slot is deleted or updated in place.
fn random_ops(source: &Table, seed: u64, churn: f64) -> Vec<RowOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    let mut live: Vec<RowId> = Vec::new();
    for r in 0..source.row_count() {
        // Inserts allocate slot ids densely in order, so the r-th
        // source row lands in slot r regardless of interleaved ops.
        ops.push(RowOp::Insert(source.row(r)));
        live.push(r);
        while !live.is_empty() && rng.random_bool(churn) {
            let pick = rng.random_range(0..live.len());
            let row = live[pick];
            if rng.random_bool(0.5) {
                live.remove(pick);
                ops.push(RowOp::Delete(row));
            } else {
                let donor = rng.random_range(0..source.row_count());
                ops.push(RowOp::Update(row, source.row(donor)));
            }
        }
    }
    ops
}

/// Split `ops` into batches whose sizes cycle through `batch_sizes`, so
/// one run exercises several batch granularities.
fn batches(ops: &[RowOp], batch_sizes: &[usize]) -> Vec<Vec<RowOp>> {
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut size_idx = 0usize;
    while i < ops.len() {
        let size = batch_sizes[size_idx % batch_sizes.len()].max(1);
        size_idx += 1;
        let end = (i + size).min(ops.len());
        out.push(ops[i..end].to_vec());
        i = end;
    }
    out
}

/// Apply `ops` to a fresh engine and to a mirror table, then assert the
/// three-way equivalence: ledger vs batch-over-survivors, engine table
/// vs mirror, and per-rule health vs a survivors-only replay.
fn assert_mutation_equivalent(source: &Table, rules: &[Pfd], ops: &[RowOp], context: &str) {
    let mut engine = StreamEngine::new(source.schema().clone(), rules.to_vec());
    engine.apply(ops.to_vec()).expect("ops are valid");

    let mut mirror = Table::empty(source.schema().clone());
    for op in ops {
        mirror.apply(op.clone().into()).expect("ops are valid");
    }
    assert_eq!(
        engine.table(),
        &mirror,
        "engine table diverged from mirror on {context}"
    );
    assert_eq!(engine.live_rows(), mirror.live_rows());

    let streamed = canonical(engine.ledger().snapshot());
    let batch = canonical(detect_all(&mirror, rules));
    assert_eq!(
        streamed,
        batch,
        "stream and batch disagree on {context} ({} ops, {} survivors)",
        ops.len(),
        mirror.live_rows()
    );

    // Ledger accounting stays consistent under retractions.
    let ledger = engine.ledger();
    assert_eq!(
        ledger.live_count(),
        ledger.created_total() - ledger.retracted_total(),
        "ledger accounting broken on {context}"
    );

    // Drift health under shrinking denominators: a fresh engine fed only
    // the survivors (compacted, in row order) must agree on matched-row
    // counts, live violation tallies, and hence confidence, per rule.
    let survivors = mirror.filter_rows(|_| true);
    let mut replay = StreamEngine::new(survivors.schema().clone(), rules.to_vec());
    replay
        .apply(
            survivors
                .iter_live()
                .map(|r| Op::Insert(survivors.row_ids(r))),
        )
        .expect("schema matches");
    for i in 0..rules.len() {
        let (mutated, replayed) = (engine.rule_health(i), replay.rule_health(i));
        assert_eq!(
            mutated,
            replayed,
            "rule {i} health diverged on {context}: confidence {} vs {}",
            mutated.confidence(),
            replayed.confidence()
        );
    }
}

fn check_dataset(table: &Table, seed: u64, churn: f64, context: &str) {
    let rules = discover(table, &discovery_config());
    let ops = random_ops(table, seed, churn);
    assert_mutation_equivalent(table, &rules, &ops, context);
}

#[test]
fn every_datagen_dataset_survives_churn() {
    let config = GenConfig {
        rows: 250,
        seed: 0xDE17A,
        error_rate: 0.04,
    };
    check_dataset(&phone::generate(&config).table, 1, 0.2, "phone");
    check_dataset(&names::generate(&config).table, 2, 0.2, "names");
    check_dataset(
        &zipcity::generate(&config, zipcity::ZipTarget::City).table,
        3,
        0.2,
        "zipcity/City",
    );
    check_dataset(
        &zipcity::generate(&config, zipcity::ZipTarget::State).table,
        4,
        0.2,
        "zipcity/State",
    );
    check_dataset(&employee::generate(&config).table, 5, 0.2, "employee");
    check_dataset(&chembl::generate(&config).table, 6, 0.2, "chembl");
}

#[test]
fn heavy_churn_deleting_most_of_the_table() {
    // Delete/update pressure high enough that blocks drain, majorities
    // flip repeatedly, and most slots end up tombstoned.
    let config = GenConfig {
        rows: 200,
        seed: 0xC0FFEE,
        error_rate: 0.06,
    };
    let data = zipcity::generate(&config, zipcity::ZipTarget::City);
    check_dataset(&data.table, 99, 0.45, "zipcity heavy churn");
}

#[test]
fn delete_everything_then_start_over() {
    let config = GenConfig {
        rows: 120,
        seed: 11,
        error_rate: 0.05,
    };
    let data = names::generate(&config);
    let rules = discover(&data.table, &discovery_config());
    let n = data.table.row_count();
    let mut ops: Vec<RowOp> = (0..n).map(|r| RowOp::Insert(data.table.row(r))).collect();
    ops.extend((0..n).map(RowOp::Delete));
    ops.extend((0..n).map(|r| RowOp::Insert(data.table.row(r))));
    assert_mutation_equivalent(&data.table, &rules, &ops, "drain and refill");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(6)))]

    /// The tentpole acceptance property: any seeded op interleaving over
    /// a seeded dataset converges to batch detection on the survivors —
    /// violations *and* per-rule confidence.
    #[test]
    fn random_interleavings_equal_batch_on_survivors(
        seed in 0u64..10_000,
        rows in 80usize..250,
        churn_pct in 5u32..40,
    ) {
        let config = GenConfig { rows, seed, error_rate: 0.04 };
        let churn = f64::from(churn_pct) / 100.0;
        check_dataset(
            &zipcity::generate(&config, zipcity::ZipTarget::City).table,
            seed ^ 0x5eed,
            churn,
            "zipcity (property)",
        );
        check_dataset(&names::generate(&config).table, seed ^ 0xabcd, churn, "names (property)");
    }
}

// ───────────────────────── compaction epochs ─────────────────────────
//
// The remap-protocol acceptance property: a run that compacts (forced at
// random points, or automatically off `compact_ratio`) must be
// observably identical to a run that never compacts — event streams
// (order included), live violation sets, per-rule health, and drift
// reports all agree once compacted row ids are translated back through
// the accumulated remap; `pattern_evals` must not move on compaction;
// and with `compact_ratio` 0.3 the slot count stays within 2× the live
// rows at every batch boundary.

/// Rewrite a compacted-run violation's row references into the
/// uncompacted run's id space. `cur_to_base` is maintained by the
/// paired driver: index = current slot id, value = the slot id the same
/// logical row has in the never-compacted twin. The mapping is strictly
/// increasing (both sides number rows by arrival), so sorted witness
/// lists stay sorted.
fn translate_violation(v: &Violation, cur_to_base: &[RowId]) -> Violation {
    let mut v = v.clone();
    v.row = cur_to_base[v.row];
    if let ViolationKind::Variable { witnesses, .. } = &mut v.kind {
        for w in witnesses {
            *w = cur_to_base[*w];
        }
    }
    if let Some(repair) = &mut v.repair {
        repair.row = cur_to_base[repair.row];
    }
    v
}

/// Drive a compacting engine and a never-compacting twin through the
/// same logical op stream and assert, batch by batch, that compaction
/// is observationally invisible modulo the id translation.
///
/// `auto_ratio > 0` enables the engine's own trigger
/// (`StreamConfig::compact_ratio`); `force_compaction` additionally
/// calls `compact()` between random batches. Ops are generated in
/// whatever id space the compacting engine currently speaks, with the
/// twin's ops translated on the fly.
fn check_compaction_invisible(
    source: &Table,
    seed: u64,
    churn: f64,
    auto_ratio: f64,
    force_compaction: bool,
    context: &str,
) {
    let rules = discover(source, &discovery_config());
    let mut plain = StreamEngine::new(source.schema().clone(), rules.clone());
    let config = StreamConfig {
        compact_ratio: auto_ratio,
        ..StreamConfig::default()
    };
    let mut compacted = StreamEngine::with_config(source.schema().clone(), rules.clone(), config);

    let mut rng = StdRng::seed_from_u64(seed);
    // Current-slot → twin-slot translation; entries for tombstoned slots
    // survive until a compaction drops them (events may still cite them
    // within the batch that deleted them).
    let mut cur_to_base: Vec<RowId> = Vec::new();
    let mut live_cur: Vec<RowId> = Vec::new();
    let mut next_source_row = 0usize;
    let mut epochs_seen = 0u64;

    while next_source_row < source.row_count() {
        // One batch: a handful of arrivals, each chased by churn.
        let mut cur_ops = Vec::new();
        let mut base_ops = Vec::new();
        let batch_rows = rng
            .random_range(1usize..24)
            .min(source.row_count() - next_source_row);
        for _ in 0..batch_rows {
            let cells = source.row(next_source_row);
            next_source_row += 1;
            live_cur.push(cur_to_base.len());
            cur_to_base.push(cur_to_base.len() + epochs_reclaimed(&plain, &compacted));
            cur_ops.push(RowOp::Insert(cells.clone()));
            base_ops.push(RowOp::Insert(cells));
            while !live_cur.is_empty() && rng.random_bool(churn) {
                let pick = rng.random_range(0..live_cur.len());
                let cur = live_cur[pick];
                if rng.random_bool(0.5) {
                    live_cur.remove(pick);
                    cur_ops.push(RowOp::Delete(cur));
                    base_ops.push(RowOp::Delete(cur_to_base[cur]));
                } else {
                    let donor = rng.random_range(0..source.row_count());
                    cur_ops.push(RowOp::Update(cur, source.row(donor)));
                    base_ops.push(RowOp::Update(cur_to_base[cur], source.row(donor)));
                }
            }
        }
        let epoch_at_start = compacted.epoch();
        let base_events = plain.apply(base_ops).expect("twin ops are valid");
        let cur_events = compacted.apply(cur_ops).expect("ops are valid");

        // Event streams: same length, same order, same content modulo
        // the id translation; epochs stamp the space each event's ids
        // live in.
        assert_eq!(
            base_events.len(),
            cur_events.len(),
            "event counts diverged on {context}"
        );
        for (base_ev, cur_ev) in base_events.iter().zip(&cur_events) {
            assert_eq!(base_ev.epoch, 0, "uncompacted run never leaves epoch 0");
            assert_eq!(
                cur_ev.epoch, epoch_at_start,
                "events carry the epoch they were emitted in on {context}"
            );
            assert_eq!(base_ev.is_created(), cur_ev.is_created());
            assert_eq!(
                base_ev.violation(),
                &translate_violation(cur_ev.violation(), &cur_to_base),
                "event diverged modulo remap on {context}"
            );
        }

        // Health and drift judge identically — no ids involved.
        for rule in 0..rules.len() {
            assert_eq!(
                plain.rule_health(rule),
                compacted.rule_health(rule),
                "rule {rule} health diverged on {context}"
            );
        }
        assert_eq!(
            plain.drift_report(),
            compacted.drift_report(),
            "drift reports diverged on {context}"
        );

        // Detect the engine's own compactions; optionally force one.
        let mut epoch = compacted.epoch();
        if epoch == epoch_at_start && force_compaction && rng.random_bool(0.35) {
            let evals_before = compacted.pattern_evals();
            compacted.compact();
            assert_eq!(
                compacted.pattern_evals(),
                evals_before,
                "compaction must not move pattern_evals on {context}"
            );
            epoch = compacted.epoch();
        }
        if epoch != epochs_seen {
            epochs_seen = epoch;
            // Rebuild the translation: survivors keep arrival order.
            live_cur.sort_unstable();
            cur_to_base = live_cur.iter().map(|&cur| cur_to_base[cur]).collect();
            live_cur = (0..cur_to_base.len()).collect();
            assert_eq!(compacted.row_count(), cur_to_base.len());
        }

        // The acceptance bound: slots within 2× live rows at every
        // batch boundary once auto-compaction is on.
        if auto_ratio > 0.0 {
            assert!(
                compacted.row_count() <= 2 * compacted.live_rows().max(1),
                "slots {} exceeded 2× live {} on {context}",
                compacted.row_count(),
                compacted.live_rows()
            );
        }

        // Live violation sets agree modulo translation.
        let translated: Vec<Violation> = compacted
            .ledger()
            .snapshot()
            .iter()
            .map(|v| translate_violation(v, &cur_to_base))
            .collect();
        assert_eq!(
            canonical(plain.ledger().snapshot()),
            canonical(translated),
            "ledger state diverged on {context}"
        );
        assert_eq!(
            plain.ledger().created_total(),
            compacted.ledger().created_total()
        );
        assert_eq!(
            plain.ledger().retracted_total(),
            compacted.ledger().retracted_total()
        );
    }

    // Terminal cross-check straight against batch detection: the
    // compacted table is dense, so its ids are exactly what `detect_all`
    // sees.
    assert_eq!(
        canonical(compacted.ledger().snapshot()),
        canonical(detect_all(compacted.table(), &rules)),
        "compacted engine diverged from batch detection on {context}"
    );
    // And the surviving row contents line up pairwise.
    let plain_rows: Vec<Vec<anmat_table::ValueId>> = plain
        .table()
        .iter_live()
        .map(|r| plain.table().row_ids(r))
        .collect();
    let compacted_rows: Vec<Vec<anmat_table::ValueId>> = compacted
        .table()
        .iter_live()
        .map(|r| compacted.table().row_ids(r))
        .collect();
    assert_eq!(
        plain_rows, compacted_rows,
        "survivors diverged on {context}"
    );
}

/// Slots the compacting engine dropped so far = how far its slot ids
/// lag the twin's. (Helper for assigning the twin id of a fresh
/// insert: twin ids never shrink.)
fn epochs_reclaimed(plain: &StreamEngine, compacted: &StreamEngine) -> usize {
    debug_assert!(plain.row_count() >= compacted.row_count());
    plain.row_count() - compacted.row_count()
}

#[test]
fn forced_compaction_at_random_points_is_invisible() {
    let config = GenConfig {
        rows: 220,
        seed: 0xC0DA,
        error_rate: 0.05,
    };
    let data = zipcity::generate(&config, zipcity::ZipTarget::City);
    check_compaction_invisible(
        &data.table,
        17,
        0.25,
        0.0,
        true,
        "zipcity forced compaction",
    );
    let data = names::generate(&config);
    check_compaction_invisible(&data.table, 18, 0.25, 0.0, true, "names forced compaction");
}

#[test]
fn ratio_triggered_compaction_bounds_slots_on_a_half_delete_workload() {
    // The acceptance workload: ~50% of churn ops are deletes, ratio 0.3.
    let config = GenConfig {
        rows: 260,
        seed: 0x3AC7,
        error_rate: 0.05,
    };
    let data = zipcity::generate(&config, zipcity::ZipTarget::City);
    check_compaction_invisible(&data.table, 19, 0.45, 0.3, false, "zipcity ratio 0.3");
}

#[test]
fn compaction_of_a_fully_drained_table_restarts_cleanly() {
    let config = GenConfig {
        rows: 90,
        seed: 23,
        error_rate: 0.05,
    };
    let data = names::generate(&config);
    let rules = discover(&data.table, &discovery_config());
    let mut engine = StreamEngine::new(data.table.schema().clone(), rules.clone());
    let n = data.table.row_count();
    let inserts: Vec<RowOp> = (0..n).map(|r| RowOp::Insert(data.table.row(r))).collect();
    engine.apply(inserts.clone()).expect("valid");
    engine.apply((0..n).map(RowOp::Delete)).expect("valid");
    let remap = engine.compact();
    assert_eq!(remap.new_slots(), 0);
    assert_eq!(engine.row_count(), 0);
    assert!(engine.ledger().is_empty());
    // Refill from slot 0 in the new epoch: equivalent to a fresh run.
    engine.apply(inserts).expect("valid");
    assert_eq!(
        canonical(engine.ledger().snapshot()),
        canonical(detect_all(engine.table(), &rules)),
    );
    assert!(engine.ledger().snapshot().iter().all(|v| v.row < n));
}

#[test]
fn drift_report_is_rule_index_sorted_across_engines() {
    // Three constant rules that all drift (every matching row violates):
    // the report must come back [0, 1, 2].
    let schema = Schema::new(["zip", "city"]).unwrap();
    let rule = |expected: &str| {
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::constant(
                ConstrainedPattern::unconstrained("900\\D{2}".parse().unwrap()),
                expected,
            )],
        )
    };
    let rules = vec![rule("Alpha"), rule("Beta"), rule("Gamma")];
    let rows = (0..12).map(|i| {
        RowOp::Insert(vec![
            Value::text(format!("900{i:02}")),
            Value::text("Delta"),
        ])
    });

    let mut engine = StreamEngine::new(schema, rules);
    engine.apply(rows).unwrap();
    assert_eq!(
        engine
            .drift_report()
            .iter()
            .map(|d| d.rule)
            .collect::<Vec<_>>(),
        vec![0, 1, 2],
        "drift report must be rule-index sorted"
    );
}

#[test]
fn instrumented_run_is_bit_for_bit_identical() {
    // The observability contract: turning the metrics recorder on must
    // not perturb anything observable — event streams, ledger, health,
    // drift. (The recorder flag is process global; flipping it here is
    // harmless to concurrently running tests precisely *because* of
    // this contract.)
    use anmat_obs as obs;

    let config = GenConfig {
        rows: 160,
        seed: 0xB0B5,
        error_rate: 0.05,
    };
    let data = zipcity::generate(&config, zipcity::ZipTarget::City);
    let rules = discover(&data.table, &discovery_config());
    let ops = random_ops(&data.table, 41, 0.25);
    let op_batches = batches(&ops, &[1, 9, 32]);

    let run = || {
        let mut engine = StreamEngine::new(data.table.schema().clone(), rules.clone());
        let events: Vec<_> = op_batches
            .iter()
            .map(|batch| engine.apply(batch.clone()).expect("ops are valid"))
            .collect();
        // Exercise the publish path too — reading gauges out of engine
        // state must be as inert as the inline counters.
        engine.publish_metrics();
        let healths: Vec<_> = (0..rules.len()).map(|r| engine.rule_health(r)).collect();
        (
            events,
            engine.ledger().snapshot(),
            healths,
            engine.drift_report(),
        )
    };

    let baseline = run();
    obs::Recorder::enable();
    let instrumented = run();
    obs::Recorder::disable();
    assert_eq!(
        baseline, instrumented,
        "an active recorder must not change any observable engine state"
    );
    // And the recorder really was live during the second run: the
    // engine-phase counters can only have moved while it was enabled.
    let snap = obs::MetricsSnapshot::capture();
    assert!(
        snap.counter("engine.ops").unwrap_or(0) > 0,
        "instrumented run must have recorded engine.ops"
    );
}

#[test]
fn batch_priming_is_observationally_neutral() {
    // Batch priming warms every rule's per-distinct-value caches for a
    // whole op batch before any op runs. It must change nothing
    // observable — events, ledger, health, drift — and not even the
    // eval/lookup counters: a twin engine that sees the same op stream
    // one op per `apply` call is the reference.
    let config = GenConfig {
        rows: 180,
        seed: 0xC0DE,
        error_rate: 0.05,
    };
    for (table, context) in [
        (
            zipcity::generate(&config, zipcity::ZipTarget::City).table,
            "zipcity",
        ),
        (names::generate(&config).table, "names"),
    ] {
        let rules = discover(&table, &discovery_config());
        let ops = random_ops(&table, 51, 0.2);
        let mut batched = StreamEngine::new(table.schema().clone(), rules.clone());
        let mut single = StreamEngine::new(table.schema().clone(), rules.clone());
        for (k, batch) in batches(&ops, &[1, 11, 40]).into_iter().enumerate() {
            let mut expected = Vec::new();
            for op in batch.iter().cloned() {
                expected.extend(single.apply([op]).expect("ops are valid"));
            }
            let got = batched.apply(batch).expect("ops are valid");
            assert_eq!(
                got, expected,
                "event stream diverged on {context} (batch {k})"
            );
        }
        assert_eq!(batched.ledger().snapshot(), single.ledger().snapshot());
        assert_eq!(
            batched.pattern_evals(),
            single.pattern_evals(),
            "batch priming must be eval-count-neutral on {context}"
        );
        assert_eq!(
            batched.pattern_lookups(),
            single.pattern_lookups(),
            "priming is not a lookup — per-row probe counts must agree on {context}"
        );
        for rule in 0..rules.len() {
            assert_eq!(batched.rule_health(rule), single.rule_health(rule));
        }
        assert_eq!(batched.drift_report(), single.drift_report());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(4)))]

    /// The compaction acceptance property: random interleavings with
    /// compaction forced at random points — and, in the ratio variant,
    /// triggered automatically — are observationally identical to an
    /// uncompacted run and to batch detection over the survivors.
    #[test]
    fn random_interleavings_with_compaction_equal_uncompacted_runs(
        seed in 0u64..10_000,
        rows in 80usize..220,
        churn_pct in 15u32..50,
        auto_bit in 0u32..2,
    ) {
        let config = GenConfig { rows, seed, error_rate: 0.04 };
        let churn = f64::from(churn_pct) / 100.0;
        let auto = auto_bit == 1;
        let ratio = if auto { 0.3 } else { 0.0 };
        check_compaction_invisible(
            &zipcity::generate(&config, zipcity::ZipTarget::City).table,
            seed ^ 0xC0DA,
            churn,
            ratio,
            !auto,
            "zipcity (compaction property)",
        );
        check_compaction_invisible(
            &names::generate(&config).table,
            seed ^ 0xFACE,
            churn,
            ratio,
            !auto,
            "names (compaction property)",
        );
    }
}
