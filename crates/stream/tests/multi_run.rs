//! Stream/batch equivalence on blocks that span several ascending runs.
//!
//! The other stream suites use tables of a few hundred rows, so no block
//! outgrows one run of its `KeyBlock` and the engine never splits or
//! merges runs. Here a zip table of 6k rows goes through the engine with
//! over 30% delete/update churn and one compaction in the middle. The
//! rules block coarsely, so the largest block holds well over a run's
//! worth of rows, and updates move old row ids between blocks: inserts
//! into the middle of full runs, and removals that thin runs. After
//! every phase the ledger must equal batch `detect_all` over the
//! surviving rows.

use anmat_core::{detect_all, LhsCell, PatternTuple, Pfd, RhsCell, Violation};
use anmat_datagen::zipcity::{self, ZipTarget};
use anmat_datagen::GenConfig;
use anmat_index::BlockingIndex;
use anmat_pattern::ConstrainedPattern;
use anmat_stream::StreamEngine;
use anmat_table::{RowId, RowOp, Table};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::cases;

const ROWS: usize = 6000;

/// More rows than one run holds (the `KeyBlock` run cap).
const RUN_CAP: usize = 1024;

fn q(s: &str) -> ConstrainedPattern {
    s.parse().unwrap()
}

/// Coarse blocking on purpose: the first zip digit (≈ 1/3 of the rows
/// share `9`), the first two digits, and whole-city blocks (wildcard
/// LHS), plus one constant rule.
fn rules() -> Vec<Pfd> {
    vec![
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
        Pfd::new(
            "Zip",
            "city",
            "state",
            vec![PatternTuple {
                lhs: LhsCell::Wildcard,
                rhs: RhsCell::Wildcard,
            }],
        ),
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::constant(
                ConstrainedPattern::unconstrained("900\\D{2}".parse().unwrap()),
                "Los Angeles",
            )],
        ),
    ]
}

fn canonical(violations: Vec<Violation>) -> Vec<String> {
    let mut keys: Vec<String> = violations
        .iter()
        .map(|v| serde_json::to_string(v).expect("violations serialize"))
        .collect();
    keys.sort();
    keys.dedup();
    keys
}

/// An op generator that tracks the live slots of one id space.
struct Ops {
    rng: StdRng,
    live: Vec<RowId>,
    slots: usize,
    /// Source rows whose zip starts with `9`: the largest first-digit
    /// block.
    nines: Vec<RowId>,
    churn_ops: usize,
    total_ops: usize,
}

impl Ops {
    fn new(source: &Table, seed: u64) -> Ops {
        let nines = (0..source.row_count())
            .filter(|&r| source.cell_str(r, 0).is_some_and(|z| z.starts_with('9')))
            .collect();
        Ops {
            rng: StdRng::seed_from_u64(seed),
            live: Vec::new(),
            slots: 0,
            nines,
            churn_ops: 0,
            total_ops: 0,
        }
    }

    /// Each source row in `rows` arrives as an insert; after each, with
    /// probability `churn` (repeatedly), a random live slot is deleted or
    /// updated in place with another source row's cells. Updates favour
    /// `9` zips, so old row ids keep moving into the `9` block — inserts
    /// into the middle of its runs, which split them once full — and
    /// out again, which thins runs until they merge.
    fn phase(&mut self, source: &Table, rows: std::ops::Range<usize>, churn: f64) -> Vec<RowOp> {
        let mut ops = Vec::new();
        for r in rows {
            ops.push(RowOp::Insert(source.row(r)));
            self.live.push(self.slots);
            self.slots += 1;
            while !self.live.is_empty() && self.rng.random_bool(churn) {
                let pick = self.rng.random_range(0..self.live.len());
                let row = self.live[pick];
                if self.rng.random_bool(0.3) {
                    self.live.remove(pick);
                    ops.push(RowOp::Delete(row));
                } else {
                    let donor = if self.rng.random_bool(0.5) {
                        self.nines[self.rng.random_range(0..self.nines.len())]
                    } else {
                        self.rng.random_range(0..source.row_count())
                    };
                    ops.push(RowOp::Update(row, source.row(donor)));
                }
                self.churn_ops += 1;
            }
        }
        self.total_ops += ops.len();
        ops
    }

    /// Compaction renumbers the survivors densely, in order.
    fn compacted(&mut self) {
        self.slots = self.live.len();
        self.live = (0..self.slots).collect();
    }
}

fn run(engine: &mut StreamEngine, mirror: &mut Table, ops: Vec<RowOp>) {
    for op in &ops {
        mirror.apply(op.clone().into()).expect("ops are valid");
    }
    for batch in ops.chunks(256) {
        engine.apply(batch.to_vec()).expect("ops are valid");
    }
}

fn assert_equivalent(engine: &StreamEngine, mirror: &Table, rules: &[Pfd], context: &str) {
    assert_eq!(engine.table(), mirror, "engine table diverged {context}");
    assert_eq!(
        canonical(engine.ledger().snapshot()),
        canonical(detect_all(mirror, rules)),
        "stream and batch disagree {context} ({} survivors)",
        mirror.live_rows()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(2)))]

    #[test]
    fn multi_run_blocks_equal_batch_under_churn_and_compaction(seed in any::<u64>()) {
        let config = GenConfig { rows: ROWS, seed, error_rate: 0.03 };
        let source = zipcity::generate(&config, ZipTarget::City).table;
        let rules = rules();
        let mut engine = StreamEngine::new(source.schema().clone(), rules.clone());
        let mut mirror = Table::empty(source.schema().clone());
        let mut ops = Ops::new(&source, seed);

        let first = ops.phase(&source, 0..ROWS / 2, 0.4);
        run(&mut engine, &mut mirror, first);
        assert_equivalent(&engine, &mirror, &rules, "before compaction");

        let remap = engine.compact();
        prop_assert_eq!(&remap, &mirror.compact());
        ops.compacted();
        assert_equivalent(&engine, &mirror, &rules, "after compaction");

        let second = ops.phase(&source, ROWS / 2..ROWS, 0.4);
        run(&mut engine, &mut mirror, second);
        assert_equivalent(&engine, &mirror, &rules, "at the end");

        prop_assert!(
            ops.churn_ops * 10 >= ops.total_ops * 3,
            "churn {} of {} ops is under 30%",
            ops.churn_ops,
            ops.total_ops
        );
        // The first-digit block outgrew one run.
        let largest = BlockingIndex::block(&mirror, 0, &q("[\\D]\\D{4}"))
            .blocks
            .iter()
            .map(|(_, rows)| rows.len())
            .max()
            .unwrap_or(0);
        prop_assert!(largest > RUN_CAP, "largest block holds only {largest} rows");
    }
}
