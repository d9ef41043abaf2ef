//! Shard-equivalence — the determinism contract of the sharded engine:
//! for every datagen dataset and random op interleavings, a
//! [`ShardedEngine`] must produce the **same event stream, batch by
//! batch** (contents *and* order), the same final ledger state, the
//! same per-rule health, the same drift report, and the same pattern
//! eval/lookup counters as the single-threaded [`StreamEngine`] —
//! bit-for-bit, regardless of the sharding axis (rule- or
//! key-granular), shard count, run-ahead pipelining window, shard
//! completion order, or batch splits.
//!
//! Case count scales with `PROPTEST_CASES` (CI runs a dedicated
//! elevated-cases step so the concurrency path gets real coverage on
//! every push).

use anmat_core::{discover, DiscoveryConfig, Pfd};
use anmat_datagen::{chembl, employee, names, phone, zipcity, GenConfig};
use anmat_stream::{BatchEvents, ShardBy, ShardedEngine, StreamConfig, StreamEngine};
use anmat_table::{RowId, RowOp, Table};
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

/// A random interleaving: every source row arrives as an insert; after
/// each arrival, with probability `churn` (repeatedly), a random live
/// slot is deleted or updated in place (same generator as
/// `tests/mutations.rs`).
fn random_ops(source: &Table, seed: u64, churn: f64) -> Vec<RowOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    let mut live: Vec<RowId> = Vec::new();
    for r in 0..source.row_count() {
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
/// the sharded fan-out is exercised at several batch granularities in
/// one run.
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

/// How compaction epochs interleave with the batch stream: forced
/// barriers after given batch indices, and/or the engines' own
/// `compact_ratio` trigger. Ops must then be generated epoch-aware
/// ([`epoch_aware_batches`]), since compaction renumbers row ids.
#[derive(Default, Clone)]
struct CompactionPlan {
    /// Run a coordinated `compact()` on every engine after this batch.
    force_after: Option<usize>,
    /// `StreamConfig::compact_ratio` for every engine (0.0 = off).
    ratio: f64,
    /// Expected engine epoch after each batch (from
    /// [`epoch_aware_batches`]'s simulation) — pins the test's id-space
    /// bookkeeping to what the engines actually did.
    expected_epochs: Vec<u64>,
}

/// One sharded configuration under test: the sharding axis, worker
/// count, and pipelining window. The determinism contract quantifies
/// over all three.
#[derive(Clone, Copy)]
struct ShardSpec {
    shard_by: ShardBy,
    shards: usize,
    run_ahead: usize,
}

impl ShardSpec {
    const fn rule(shards: usize) -> Self {
        Self {
            shard_by: ShardBy::Rule,
            shards,
            run_ahead: 0,
        }
    }

    const fn key(shards: usize, run_ahead: usize) -> Self {
        Self {
            shard_by: ShardBy::Key,
            shards,
            run_ahead,
        }
    }

    const fn pipelined(self, run_ahead: usize) -> Self {
        Self {
            shard_by: self.shard_by,
            shards: self.shards,
            run_ahead,
        }
    }

    fn label(&self) -> String {
        format!(
            "{:?}×{} run-ahead {}",
            self.shard_by, self.shards, self.run_ahead
        )
    }
}

/// The classic matrix the original suite ran: rule-granular sharding,
/// 1/2/4 workers, no pipelining.
const RULE_SPECS: [ShardSpec; 3] = [ShardSpec::rule(1), ShardSpec::rule(2), ShardSpec::rule(4)];

/// The single-threaded reference run: per-batch event streams plus the
/// engine itself, kept for final-state comparisons.
fn reference_run(
    schema: &anmat_table::Schema,
    rules: &[Pfd],
    op_batches: &[Vec<RowOp>],
    config: StreamConfig,
    compaction: &CompactionPlan,
    context: &str,
) -> (StreamEngine, Vec<Vec<anmat_stream::LedgerEvent>>) {
    let mut single = StreamEngine::with_config(schema.clone(), rules.to_vec(), config);
    let reference: Vec<Vec<_>> = op_batches
        .iter()
        .enumerate()
        .map(|(k, batch)| {
            let events = single.apply(batch.clone()).expect("ops are valid");
            if compaction.force_after == Some(k) {
                single.compact();
            }
            if let Some(&expected) = compaction.expected_epochs.get(k) {
                assert_eq!(
                    single.epoch(),
                    expected,
                    "the test's epoch simulation diverged from the engine on {context} (batch {k})"
                );
            }
            events
        })
        .collect();
    (single, reference)
}

/// Run one sharded configuration over the batch stream and assert the
/// full determinism contract against the reference. `run_ahead == 0`
/// exercises the blocking `apply` path (per-batch comparison inline);
/// `run_ahead > 0` exercises the pipelined `submit`/`flush` path, where
/// completed batches surface later — sequence tags must still come back
/// in submission order with bit-identical per-batch event streams.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn check_spec(
    schema: &anmat_table::Schema,
    rules: &[Pfd],
    op_batches: &[Vec<RowOp>],
    compaction: &CompactionPlan,
    base: StreamConfig,
    single: &StreamEngine,
    reference: &[Vec<anmat_stream::LedgerEvent>],
    spec: ShardSpec,
    context: &str,
) {
    let label = spec.label();
    let config = StreamConfig {
        shard_by: spec.shard_by,
        shards: spec.shards,
        run_ahead: spec.run_ahead,
        ..base
    };
    let mut sharded = ShardedEngine::with_config(schema.clone(), rules.to_vec(), config);
    assert_eq!(sharded.shard_by(), spec.shard_by);
    assert_eq!(sharded.run_ahead(), spec.run_ahead);
    let mut completed: Vec<BatchEvents> = Vec::new();
    for (k, batch) in op_batches.iter().enumerate() {
        if spec.run_ahead == 0 {
            let events = sharded.apply(batch.clone()).expect("ops are valid");
            assert_eq!(
                events, reference[k],
                "event stream diverged on {context} ({label}, batch {k})"
            );
        } else {
            completed.extend(sharded.submit(batch.clone()).expect("ops are valid"));
        }
        if compaction.force_after == Some(k) {
            let evals_before = sharded.pattern_evals();
            sharded.compact();
            assert_eq!(
                sharded.pattern_evals(),
                evals_before,
                "the epoch barrier must not move pattern_evals on {context} ({label})"
            );
        }
    }
    if spec.run_ahead > 0 {
        completed.extend(sharded.flush());
        assert_eq!(
            completed.len(),
            op_batches.len(),
            "every submitted batch must surface exactly once on {context} ({label})"
        );
        for (k, batch_events) in completed.iter().enumerate() {
            assert_eq!(
                batch_events.seq as usize, k,
                "pipelined batches must complete in submission order on {context} ({label})"
            );
            assert_eq!(
                batch_events.events, reference[k],
                "pipelined event stream diverged on {context} ({label}, batch {k})"
            );
        }
        assert_eq!(
            sharded.pipeline_depth(),
            0,
            "flush must leave the pipeline empty on {context} ({label})"
        );
    }
    assert_eq!(
        sharded.epoch(),
        single.epoch(),
        "compaction epochs diverged on {context} ({label})"
    );
    assert_eq!(
        sharded.compaction_stats(),
        single.compaction_stats(),
        "compaction stats diverged on {context} ({label})"
    );
    assert_eq!(
        sharded.ledger().snapshot(),
        single.ledger().snapshot(),
        "ledger state diverged on {context} ({label})"
    );
    assert_eq!(sharded.ledger().live_count(), single.ledger().live_count());
    assert_eq!(
        sharded.ledger().created_total(),
        single.ledger().created_total(),
        "created totals diverged on {context} ({label})"
    );
    assert_eq!(
        sharded.ledger().retracted_total(),
        single.ledger().retracted_total(),
        "retracted totals diverged on {context} ({label})"
    );
    assert_eq!(
        sharded.table(),
        single.table(),
        "canonical table diverged on {context} ({label})"
    );
    for rule in 0..rules.len() {
        assert_eq!(
            sharded.rule_health(rule),
            single.rule_health(rule),
            "rule {rule} health diverged on {context} ({label})"
        );
    }
    assert_eq!(
        sharded.drift_report(),
        single.drift_report(),
        "drift report diverged on {context} ({label})"
    );
    assert_eq!(
        sharded.pattern_evals(),
        single.pattern_evals(),
        "pattern eval counts diverged on {context} ({label})"
    );
    assert_eq!(
        sharded.pattern_lookups(),
        single.pattern_lookups(),
        "pattern lookup counts diverged on {context} ({label})"
    );
}

/// Feed identical batch sequences to the single-threaded engine and to
/// every sharded configuration in `specs` (optionally compacting
/// mid-stream), asserting the full determinism contract.
fn assert_specs_equivalent(
    schema: &anmat_table::Schema,
    rules: &[Pfd],
    op_batches: &[Vec<RowOp>],
    compaction: &CompactionPlan,
    specs: &[ShardSpec],
    context: &str,
) {
    let config = StreamConfig {
        compact_ratio: compaction.ratio,
        ..StreamConfig::default()
    };
    let (single, reference) = reference_run(schema, rules, op_batches, config, compaction, context);
    for &spec in specs {
        check_spec(
            schema, rules, op_batches, compaction, config, &single, &reference, spec, context,
        );
    }
}

/// The original suite's entry point: rule-granular sharding at 1/2/4
/// workers, no pipelining.
fn assert_shard_equivalent(
    schema: &anmat_table::Schema,
    rules: &[Pfd],
    op_batches: &[Vec<RowOp>],
    compaction: &CompactionPlan,
    context: &str,
) {
    assert_specs_equivalent(schema, rules, op_batches, compaction, &RULE_SPECS, context);
}

/// Like [`random_ops`] + [`batches`], but epoch-aware: the op stream is
/// generated against the id space the engines will actually hold,
/// replicating the compaction plan (forced barriers after given
/// batches, and the `compact_ratio` trigger — which both engines check
/// at batch boundaries only). Returns the batches plus the expected
/// epoch after each batch, so the harness can cross-check its
/// simulation against the engines.
fn epoch_aware_batches(
    source: &Table,
    seed: u64,
    churn: f64,
    batch_sizes: &[usize],
    plan: CompactionPlan,
) -> (Vec<Vec<RowOp>>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batches = Vec::new();
    let mut epochs = Vec::new();
    let mut live: Vec<RowId> = Vec::new();
    let mut slots = 0usize;
    let mut epoch = 0u64;
    let mut next = 0usize;
    let mut size_idx = 0usize;
    while next < source.row_count() {
        let size = batch_sizes[size_idx % batch_sizes.len()].max(1);
        size_idx += 1;
        let mut ops = Vec::new();
        for _ in 0..size.min(source.row_count() - next) {
            ops.push(RowOp::Insert(source.row(next)));
            next += 1;
            live.push(slots);
            slots += 1;
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
        let k = batches.len();
        batches.push(ops);
        // Policy replica: the ratio trigger fires at the batch
        // boundary; a forced barrier runs right after it (both can fire
        // on one batch — two epochs, the second an identity pass).
        let dead = slots - live.len();
        if plan.ratio > 0.0 && dead > 0 && dead as f64 >= plan.ratio * slots as f64 {
            epoch += 1;
            live.sort_unstable();
            slots = live.len();
            live = (0..slots).collect();
        }
        if plan.force_after == Some(k) {
            epoch += 1;
            live.sort_unstable();
            slots = live.len();
            live = (0..slots).collect();
        }
        epochs.push(epoch);
    }
    (batches, epochs)
}

fn check_dataset(table: &Table, seed: u64, churn: f64, context: &str) {
    let rules = discover(table, &discovery_config());
    let ops = random_ops(table, seed, churn);
    let op_batches = batches(&ops, &[1, 7, 64, 3]);
    assert_shard_equivalent(
        table.schema(),
        &rules,
        &op_batches,
        &CompactionPlan::default(),
        context,
    );
}

/// The sharded half of the compaction acceptance criterion: with a
/// coordinated epoch barrier mid-stream — forced, or triggered by
/// `compact_ratio` — 1/2/4 shards stay bit-for-bit identical to the
/// single-threaded engine, epochs and reclaimed-slot counts included.
fn check_dataset_with_compaction(table: &Table, seed: u64, churn: f64, context: &str) {
    let rules = discover(table, &discovery_config());
    // Forced barrier roughly mid-stream.
    let probe = epoch_aware_batches(table, seed, churn, &[5, 17, 2], CompactionPlan::default());
    let mid = probe.0.len() / 2;
    let mut plan = CompactionPlan {
        force_after: Some(mid),
        ratio: 0.0,
        expected_epochs: Vec::new(),
    };
    let (op_batches, epochs) = epoch_aware_batches(table, seed, churn, &[5, 17, 2], plan.clone());
    plan.expected_epochs = epochs;
    assert_shard_equivalent(
        table.schema(),
        &rules,
        &op_batches,
        &plan,
        &format!("{context} + forced epoch barrier"),
    );
    // The engines' own ratio trigger (the acceptance ratio, 0.3).
    let mut plan = CompactionPlan {
        force_after: None,
        ratio: 0.3,
        expected_epochs: Vec::new(),
    };
    let (op_batches, epochs) =
        epoch_aware_batches(table, seed ^ 0xE90C, churn, &[9, 3, 33], plan.clone());
    plan.expected_epochs = epochs;
    assert_shard_equivalent(
        table.schema(),
        &rules,
        &op_batches,
        &plan,
        &format!("{context} + ratio 0.3 epochs"),
    );
}

#[test]
fn every_datagen_dataset_is_shard_equivalent() {
    let config = GenConfig {
        rows: 180,
        seed: 0x5AAD,
        error_rate: 0.04,
    };
    check_dataset(&phone::generate(&config).table, 1, 0.15, "phone");
    check_dataset(&names::generate(&config).table, 2, 0.15, "names");
    check_dataset(
        &zipcity::generate(&config, zipcity::ZipTarget::City).table,
        3,
        0.15,
        "zipcity/City",
    );
    check_dataset(
        &zipcity::generate(&config, zipcity::ZipTarget::State).table,
        4,
        0.15,
        "zipcity/State",
    );
    check_dataset(&employee::generate(&config).table, 5, 0.15, "employee");
    check_dataset(&chembl::generate(&config).table, 6, 0.15, "chembl");
}

#[test]
fn replay_table_is_shard_equivalent() {
    let config = GenConfig {
        rows: 300,
        seed: 0xBEE5,
        error_rate: 0.03,
    };
    let data = zipcity::generate(&config, zipcity::ZipTarget::City);
    let rules = discover(&data.table, &discovery_config());
    let mut single = StreamEngine::new(data.table.schema().clone(), rules.clone());
    let reference = single.replay_table(&data.table).expect("schema matches");
    for shards in [1usize, 2, 4] {
        let mut sharded = ShardedEngine::new(data.table.schema().clone(), rules.clone(), shards);
        let events = sharded.replay_table(&data.table).expect("schema matches");
        assert_eq!(
            events, reference,
            "replay events diverged (shards={shards})"
        );
        assert_eq!(sharded.ledger().snapshot(), single.ledger().snapshot());
        assert_eq!(sharded.pattern_evals(), single.pattern_evals());
    }
}

#[test]
fn mid_stream_compaction_is_shard_equivalent() {
    let config = GenConfig {
        rows: 200,
        seed: 0xE90C4,
        error_rate: 0.05,
    };
    check_dataset_with_compaction(
        &zipcity::generate(&config, zipcity::ZipTarget::City).table,
        21,
        0.3,
        "zipcity",
    );
    check_dataset_with_compaction(&names::generate(&config).table, 22, 0.3, "names");
}

/// The tentpole matrix: key-granular sharding (blocking keys hashed
/// over workers) crossed with the run-ahead pipelining window. Every
/// cell must be bit-for-bit indistinguishable from the single-threaded
/// engine — per-batch events (in submission order under pipelining),
/// ledger, health, drift, and the eval/lookup counters (the
/// coordinator's route derivation plus worker-side evals must add up
/// to exactly the single-threaded counts).
#[test]
fn key_sharding_and_pipelining_matrix_is_equivalent() {
    let config = GenConfig {
        rows: 180,
        seed: 0x4E15,
        error_rate: 0.05,
    };
    let data = zipcity::generate(&config, zipcity::ZipTarget::City);
    let rules = discover(&data.table, &discovery_config());
    let ops = random_ops(&data.table, 61, 0.2);
    let op_batches = batches(&ops, &[1, 13, 48, 5]);
    let mut specs = Vec::new();
    for shards in [1usize, 2, 4] {
        for run_ahead in [0usize, 1, 4] {
            specs.push(ShardSpec::key(shards, run_ahead));
        }
    }
    // Pipelining composes with the rule axis too.
    specs.push(ShardSpec::rule(2).pipelined(4));
    specs.push(ShardSpec::rule(4).pipelined(1));
    assert_specs_equivalent(
        data.table.schema(),
        &rules,
        &op_batches,
        &CompactionPlan::default(),
        &specs,
        "zipcity (key/pipeline matrix)",
    );
}

/// A single heavy variable rule — the workload rule-granular sharding
/// cannot spread (its clamp collapses to one worker). Key mode must
/// keep all four workers *and* stay bit-for-bit equivalent, pipelined
/// or not.
#[test]
fn single_heavy_rule_is_key_shard_equivalent() {
    use anmat_core::PatternTuple;

    let config = GenConfig {
        rows: 240,
        seed: 0x1EAF,
        error_rate: 0.05,
    };
    let data = zipcity::generate(&config, zipcity::ZipTarget::City);
    let rule = Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::variable("[\\D{3}]\\D{2}".parse().unwrap())],
    );
    let ops = random_ops(&data.table, 71, 0.25);
    let op_batches = batches(&ops, &[9, 31, 2]);
    assert_specs_equivalent(
        data.table.schema(),
        &[rule],
        &op_batches,
        &CompactionPlan::default(),
        &[ShardSpec::key(4, 0), ShardSpec::key(4, 4)],
        "zipcity single heavy rule",
    );
}

/// The coordinated epoch barrier under the key axis: a forced
/// compaction two thirds of the way through the stream, with pipelining
/// both off and on — the only forced barrier the key axis runs.
#[test]
fn key_mode_forced_epoch_barrier_is_equivalent() {
    let config = GenConfig {
        rows: 160,
        seed: 0x5107,
        error_rate: 0.05,
    };
    let data = zipcity::generate(&config, zipcity::ZipTarget::City);
    let rules = discover(&data.table, &discovery_config());
    let probe = epoch_aware_batches(&data.table, 81, 0.3, &[11], CompactionPlan::default());
    let barrier = (2 * probe.0.len()) / 3;
    let mut plan = CompactionPlan {
        force_after: Some(barrier),
        ratio: 0.0,
        expected_epochs: Vec::new(),
    };
    let (op_batches, epochs) = epoch_aware_batches(&data.table, 81, 0.3, &[11], plan.clone());
    plan.expected_epochs = epochs;
    assert_specs_equivalent(
        data.table.schema(),
        &rules,
        &op_batches,
        &plan,
        &[
            ShardSpec::key(2, 0),
            ShardSpec::key(4, 1),
            ShardSpec::key(4, 4),
        ],
        "zipcity + key-mode epoch barrier",
    );
}

/// Ratio-triggered compaction epochs under key-granular pipelined
/// sharding: the auto-compaction check runs against the coordinator's
/// canonical table at submit time, so the trigger fires at the same
/// batch boundary as the single-threaded engine even while workers run
/// ahead.
#[test]
fn key_mode_ratio_epochs_are_equivalent() {
    let config = GenConfig {
        rows: 150,
        seed: 0xA4C2,
        error_rate: 0.05,
    };
    let data = names::generate(&config);
    let rules = discover(&data.table, &discovery_config());
    let mut plan = CompactionPlan {
        force_after: None,
        ratio: 0.3,
        expected_epochs: Vec::new(),
    };
    let (op_batches, epochs) = epoch_aware_batches(&data.table, 91, 0.35, &[7, 23], plan.clone());
    plan.expected_epochs = epochs;
    assert_specs_equivalent(
        data.table.schema(),
        &rules,
        &op_batches,
        &plan,
        &[ShardSpec::key(2, 4), ShardSpec::key(4, 0)],
        "names + key-mode ratio epochs",
    );
}

#[test]
fn drift_report_is_rule_index_sorted_across_engines() {
    use anmat_core::PatternTuple;
    use anmat_table::{Schema, Value};

    // Three constant rules that all drift (every matching row violates),
    // seeded so different shards own different rules — the report must
    // come back [0, 1, 2] regardless of which shard judged which rule.
    let schema = Schema::new(["zip", "city"]).unwrap();
    let rule = |expected: &str| {
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::constant(
                anmat_pattern_unconstrained("900\\D{2}"),
                expected,
            )],
        )
    };
    let rules = vec![rule("Alpha"), rule("Beta"), rule("Gamma")];
    let rows: Vec<Vec<Value>> = (0..12)
        .map(|i| vec![Value::text(format!("900{i:02}")), Value::text("Delta")])
        .collect();

    let mut single = StreamEngine::new(schema.clone(), rules.clone());
    single.push_batch(rows.clone()).unwrap();
    let single_report = single.drift_report();
    assert_eq!(
        single_report.iter().map(|d| d.rule).collect::<Vec<_>>(),
        vec![0, 1, 2],
        "single-threaded drift report must be rule-index sorted"
    );

    for shards in [2usize, 3] {
        let mut sharded = ShardedEngine::new(schema.clone(), rules.clone(), shards);
        sharded.push_batch(rows.clone()).unwrap();
        let report = sharded.drift_report();
        assert_eq!(
            report.iter().map(|d| d.rule).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "sharded drift report must be rule-index sorted (shards={shards})"
        );
        assert_eq!(report, single_report);
    }
}

/// Helper: an unconstrained pattern wrapped the way rule constructors
/// expect (kept out of line to keep the test body readable).
fn anmat_pattern_unconstrained(p: &str) -> anmat_pattern::ConstrainedPattern {
    anmat_pattern::ConstrainedPattern::unconstrained(p.parse().unwrap())
}

#[test]
fn instrumented_run_is_bit_for_bit_identical() {
    // The observability contract: turning the metrics recorder on must
    // not perturb anything observable — event streams, ledger, health,
    // drift — in either engine flavour. (The recorder flag is process
    // global; flipping it here is harmless to concurrently running
    // tests precisely *because* of this contract.)
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
        let mut single = StreamEngine::new(data.table.schema().clone(), rules.clone());
        let mut sharded = ShardedEngine::new(data.table.schema().clone(), rules.clone(), 2);
        let events: Vec<_> = op_batches
            .iter()
            .map(|batch| {
                let a = single.apply(batch.clone()).expect("ops are valid");
                let b = sharded.apply(batch.clone()).expect("ops are valid");
                (a, b)
            })
            .collect();
        // Exercise the publish path too — reading gauges out of engine
        // state must be as inert as the inline counters.
        single.publish_metrics();
        sharded.publish_metrics();
        let healths: Vec<_> = (0..rules.len())
            .map(|r| (single.rule_health(r), sharded.rule_health(r)))
            .collect();
        (
            events,
            single.ledger().snapshot(),
            sharded.ledger().snapshot(),
            healths,
            single.drift_report(),
            sharded.drift_report(),
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

    /// The acceptance property: for random datasets, op interleavings,
    /// and batch splits, 1/2/4 shards are indistinguishable from the
    /// single-threaded engine.
    #[test]
    fn random_interleavings_are_shard_equivalent(
        seed in 0u64..10_000,
        rows in 60usize..160,
        churn_pct in 5u32..35,
        batch_a in 1usize..48,
        batch_b in 1usize..12,
    ) {
        let config = GenConfig { rows, seed, error_rate: 0.04 };
        let churn = f64::from(churn_pct) / 100.0;
        for (table, context) in [
            (zipcity::generate(&config, zipcity::ZipTarget::City).table, "zipcity (property)"),
            (names::generate(&config).table, "names (property)"),
        ] {
            let rules = discover(&table, &discovery_config());
            let ops = random_ops(&table, seed ^ 0x5eed, churn);
            let op_batches = batches(&ops, &[batch_a, batch_b]);
            assert_shard_equivalent(
                table.schema(),
                &rules,
                &op_batches,
                                &CompactionPlan::default(),
                context,
            );
        }
    }

    /// The key-granular/pipelined acceptance property: for random
    /// datasets, op interleavings, batch splits, shard counts, and
    /// run-ahead windows, key-mode sharding is indistinguishable from
    /// the single-threaded engine — events per batch (in submission
    /// order), ledger, health, drift, and eval/lookup counters.
    #[test]
    fn random_interleavings_are_key_shard_equivalent(
        seed in 0u64..10_000,
        rows in 60usize..150,
        churn_pct in 5u32..35,
        batch_a in 1usize..40,
        batch_b in 1usize..10,
        // shards 1..=4 × run-ahead 0..=4, folded into one knob (the
        // vendored proptest implements `Strategy` for ≤6-tuples).
        knob in 0usize..20,
    ) {
        let shards = knob / 5 + 1;
        let run_ahead = knob % 5;
        let config = GenConfig { rows, seed, error_rate: 0.04 };
        let churn = f64::from(churn_pct) / 100.0;
        let table = zipcity::generate(&config, zipcity::ZipTarget::City).table;
        let rules = discover(&table, &discovery_config());
        let ops = random_ops(&table, seed ^ 0x6E4, churn);
        let op_batches = batches(&ops, &[batch_a, batch_b]);
        assert_specs_equivalent(
            table.schema(),
            &rules,
            &op_batches,
                        &CompactionPlan::default(),
            &[ShardSpec::key(shards, run_ahead)],
            "zipcity (key property)",
        );
    }

    /// The sharded compaction acceptance property: random datasets, op
    /// interleavings, batch splits, and ratio-triggered epochs — every
    /// shard count produces the identical observable stream.
    #[test]
    fn ratio_triggered_epochs_are_shard_equivalent(
        seed in 0u64..10_000,
        rows in 60usize..150,
        churn_pct in 20u32..50,
        batch in 2usize..40,
    ) {
        let config = GenConfig { rows, seed, error_rate: 0.04 };
        let churn = f64::from(churn_pct) / 100.0;
        let table = zipcity::generate(&config, zipcity::ZipTarget::City).table;
        let rules = discover(&table, &discovery_config());
        let mut plan = CompactionPlan {
            force_after: None,
            ratio: 0.3,
            expected_epochs: Vec::new(),
        };
        let (op_batches, epochs) =
            epoch_aware_batches(&table, seed ^ 0xE90C, churn, &[batch, 3], plan.clone());
        plan.expected_epochs = epochs;
        assert_shard_equivalent(
            table.schema(),
            &rules,
            &op_batches,
                        &plan,
            "zipcity (ratio epochs property)",
        );
    }
}
