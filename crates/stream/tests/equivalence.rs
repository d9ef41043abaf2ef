//! Stream/batch equivalence: replaying any seeded `datagen` table
//! row-by-row through the `StreamEngine` must end in exactly the
//! violation set batch `detect_all` computes on the full table — for
//! constant, variable, and mixed PFDs, discovered or handcrafted.

use anmat_core::{detect_all, discover, DiscoveryConfig, PatternTuple, Pfd, Violation};
use anmat_datagen::{chembl, employee, names, phone, zipcity, GenConfig};
use anmat_stream::StreamEngine;
use anmat_table::{Op, RowOp, Table};
use proptest::prelude::*;

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

/// Insert `table`'s live rows, in row order, as one batch of interned
/// ids.
fn replay(engine: &mut StreamEngine, table: &Table) {
    engine
        .apply(table.iter_live().map(|r| Op::Insert(table.row_ids(r))))
        .expect("schema matches");
}

/// Replay `table` through a fresh engine and compare against batch.
fn assert_equivalent(table: &Table, rules: &[Pfd], context: &str) {
    let mut engine = StreamEngine::new(table.schema().clone(), rules.to_vec());
    replay(&mut engine, table);
    let streamed = canonical(engine.ledger().snapshot());
    let batch = canonical(detect_all(table, rules));
    assert_eq!(
        streamed,
        batch,
        "stream and batch disagree on {context} ({} rules)",
        rules.len()
    );
    // Ledger sanity: live = created − retracted.
    assert_eq!(
        engine.ledger().live_count(),
        engine.ledger().created_total() - engine.ledger().retracted_total(),
        "ledger accounting broken on {context}"
    );
}

/// Discover on the full table, then verify the replay reproduces batch
/// detection under those rules.
fn check_dataset(table: &Table, context: &str) {
    let rules = discover(table, &discovery_config());
    assert_equivalent(table, &rules, context);
}

#[test]
fn every_datagen_dataset_replays_to_batch() {
    let config = GenConfig {
        rows: 400,
        seed: 0xA11CE,
        error_rate: 0.03,
    };
    check_dataset(&phone::generate(&config).table, "phone");
    check_dataset(&names::generate(&config).table, "names");
    check_dataset(
        &zipcity::generate(&config, zipcity::ZipTarget::City).table,
        "zipcity/City",
    );
    check_dataset(
        &zipcity::generate(&config, zipcity::ZipTarget::State).table,
        "zipcity/State",
    );
    check_dataset(&employee::generate(&config).table, "employee");
    check_dataset(&chembl::generate(&config).table, "chembl");
}

#[test]
fn handcrafted_mixed_tableau_replays_to_batch() {
    // A mixed PFD (constant + variable tuples over the same pair)
    // exercises both incremental paths at once.
    let data = zipcity::generate(
        &GenConfig {
            rows: 300,
            seed: 7,
            error_rate: 0.05,
        },
        zipcity::ZipTarget::City,
    );
    let mixed = Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![
            PatternTuple::constant(
                anmat_pattern::ConstrainedPattern::unconstrained("900\\D{2}".parse().unwrap()),
                "Los Angeles",
            ),
            PatternTuple::variable("[\\D{3}]\\D{2}".parse().unwrap()),
        ],
    );
    assert_equivalent(&data.table, &[mixed], "handcrafted mixed tableau");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole acceptance property: any seeded table, replayed
    /// row-by-row, converges to the batch violation set under discovered
    /// rules (constant and variable PFDs alike).
    #[test]
    fn replay_equals_batch_on_any_seed(seed in 0u64..10_000, rows in 100usize..400) {
        let config = GenConfig { rows, seed, error_rate: 0.03 };
        check_dataset(&names::generate(&config).table, "names (property)");
        check_dataset(
            &zipcity::generate(&config, zipcity::ZipTarget::City).table,
            "zipcity (property)",
        );
    }

    /// Batch order independence: pushing in batches of `k` gives the
    /// same final state as row-by-row replay.
    #[test]
    fn batch_size_does_not_change_final_state(seed in 0u64..10_000, k in 1usize..50) {
        let config = GenConfig { rows: 200, seed, error_rate: 0.04 };
        let data = phone::generate(&config);
        let rules = discover(&data.table, &discovery_config());

        let mut row_by_row = StreamEngine::new(data.table.schema().clone(), rules.clone());
        replay(&mut row_by_row, &data.table);

        let mut batched = StreamEngine::new(data.table.schema().clone(), rules);
        let mut pending = Vec::new();
        for r in 0..data.table.row_count() {
            pending.push(RowOp::Insert(data.table.row(r)));
            if pending.len() == k {
                batched.apply(std::mem::take(&mut pending)).unwrap();
            }
        }
        batched.apply(pending).unwrap();

        prop_assert_eq!(
            canonical(row_by_row.ledger().snapshot()),
            canonical(batched.ledger().snapshot())
        );
    }
}
