//! Property tests for [`ViolationLedger`] retraction semantics: under
//! any interleaving of create/retract calls over a small violation
//! universe, the lifetime counters stay monotone and consistent, double
//! retracts never fire events, and live violations are exactly those
//! with a positive reference count.
//!
//! A differential holds the ledger to a reference that keys each live
//! violation by its JSON text, the way the ledger once did: random
//! scripts of creates, retracts, compaction remaps and freezes must
//! produce the same events, counters and snapshots from both.

use anmat_core::detect::{Repair, Violation, ViolationKind};
use anmat_core::{LedgerChange, LedgerEvent, LedgerSnapshot, ViolationLedger};
use anmat_table::{RowId, RowIdRemap, Schema, Table, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn violation(row: usize, expected: u8) -> Violation {
    Violation {
        dependency: "zip → city".into(),
        lhs_attr: "zip".into(),
        rhs_attr: "city".into(),
        row,
        lhs_value: format!("9000{row}"),
        kind: ViolationKind::Constant {
            pattern: "900\\D{2}".into(),
            expected: format!("city-{expected}"),
            found: Some("elsewhere".into()),
        },
        repair: None,
    }
}

proptest! {
    /// `retracted_total` is monotone, never exceeds `created_total`, and
    /// `live = created − retracted` holds at every step of any
    /// create/retract interleaving (retracts of never-created or
    /// already-dead violations included).
    #[test]
    fn counters_stay_consistent_under_any_interleaving(
        script in prop::collection::vec((0usize..4, 0u8..3, any::<bool>()), 0..120)
    ) {
        let mut ledger = ViolationLedger::new();
        // Shadow refcounts to predict event emission exactly.
        let mut refs = std::collections::HashMap::<(usize, u8), usize>::new();
        let mut last_retracted = 0usize;
        for (row, expected, is_create) in script {
            let v = violation(row, expected);
            let key = (row, expected);
            if is_create {
                let emitted = ledger.create(v).is_some();
                let r = refs.entry(key).or_insert(0);
                *r += 1;
                prop_assert_eq!(emitted, *r == 1, "Created fires only on 0→1");
            } else {
                let emitted = ledger.retract(&v).is_some();
                let r = refs.entry(key).or_insert(0);
                let expected_event = *r == 1;
                *r = r.saturating_sub(1);
                prop_assert_eq!(emitted, expected_event, "Retracted fires only on 1→0");
            }
            // Monotonicity of the lifetime counter.
            prop_assert!(ledger.retracted_total() >= last_retracted);
            last_retracted = ledger.retracted_total();
            // Accounting invariants.
            prop_assert!(ledger.retracted_total() <= ledger.created_total());
            prop_assert_eq!(
                ledger.live_count(),
                ledger.created_total() - ledger.retracted_total()
            );
            let live_refs = refs.values().filter(|&&r| r > 0).count();
            prop_assert_eq!(ledger.live_count(), live_refs);
        }
    }

    /// Retract-then-recreate always yields a fresh `Created` event, and
    /// a retraction storm (more retracts than creates) bottoms out as a
    /// no-op instead of corrupting state.
    #[test]
    fn retraction_storms_bottom_out(extra_retracts in 1usize..10) {
        let mut ledger = ViolationLedger::new();
        let v = violation(1, 0);
        ledger.create(v.clone());
        assert!(ledger.retract(&v).is_some());
        for _ in 0..extra_retracts {
            prop_assert!(ledger.retract(&v).is_none());
        }
        prop_assert_eq!(ledger.retracted_total(), 1);
        let ev = ledger.create(v.clone());
        prop_assert!(ev.is_some_and(|e| e.is_created()), "recreate is a fresh event");
        prop_assert_eq!(ledger.created_total(), 2);
        prop_assert_eq!(ledger.live_count(), 1);
    }
}

/// The JSON text of a violation: the reference ledger's key.
fn json(v: &Violation) -> String {
    serde_json::to_string(v).expect("violations serialize")
}

/// The ledger keyed by JSON text, as it was before it was keyed by the
/// violation itself: the reference model for the differential.
#[derive(Debug, Default)]
struct JsonLedger {
    live: BTreeMap<String, (usize, Violation)>,
    created_total: usize,
    retracted_total: usize,
    epoch: u64,
}

impl JsonLedger {
    fn create(&mut self, violation: Violation) -> Option<LedgerEvent> {
        let entry = self
            .live
            .entry(json(&violation))
            .or_insert_with(|| (0, violation.clone()));
        entry.0 += 1;
        if entry.0 > 1 {
            return None;
        }
        self.created_total += 1;
        Some(LedgerEvent {
            epoch: self.epoch,
            change: LedgerChange::Created(violation),
        })
    }

    fn retract(&mut self, violation: &Violation) -> Option<LedgerEvent> {
        let key = json(violation);
        let entry = self.live.get_mut(&key)?;
        entry.0 -= 1;
        if entry.0 > 0 {
            return None;
        }
        let (_, v) = self.live.remove(&key).expect("entry exists");
        self.retracted_total += 1;
        Some(LedgerEvent {
            epoch: self.epoch,
            change: LedgerChange::Retracted(v),
        })
    }

    fn remap(&mut self, remap: &RowIdRemap) {
        self.epoch = remap.epoch();
        for (_, (refcount, mut v)) in std::mem::take(&mut self.live) {
            v.remap(remap);
            self.live.insert(json(&v), (refcount, v));
        }
    }

    fn snapshot(&self) -> Vec<Violation> {
        let mut out: Vec<(&String, &Violation)> =
            self.live.iter().map(|(k, (_, v))| (k, v)).collect();
        out.sort_by(|(ka, a), (kb, b)| {
            a.row
                .cmp(&b.row)
                .then_with(|| a.dependency.cmp(&b.dependency))
                .then_with(|| ka.cmp(kb))
        });
        out.into_iter().map(|(_, v)| v.clone()).collect()
    }
}

fn constant_at(row: RowId, dependency: &str, lhs_value: &str, expected: &str) -> Violation {
    Violation {
        dependency: dependency.into(),
        lhs_attr: "zip".into(),
        rhs_attr: "city".into(),
        row,
        lhs_value: lhs_value.into(),
        kind: ViolationKind::Constant {
            pattern: "900\\D{2}".into(),
            expected: expected.into(),
            found: Some("New York".into()),
        },
        repair: None,
    }
}

fn variable_at(row: RowId, witnesses: Vec<RowId>) -> Violation {
    Violation {
        dependency: "zip → city".into(),
        lhs_attr: "zip".into(),
        rhs_attr: "city".into(),
        row,
        lhs_value: "90004".into(),
        kind: ViolationKind::Variable {
            pattern: "[\\D{3}]\\D{2}".into(),
            key: "900".into(),
            majority: "Los Angeles".into(),
            found: Some("New York".into()),
            witnesses,
        },
        repair: Some(Repair {
            row,
            attr: "city".into(),
            from: Some("New York".into()),
            to: "Los Angeles".into(),
        }),
    }
}

/// The differential's violation universe over seven ascending anchor
/// rows. It holds a constant and a variable violation on the same row
/// and dependency (0 and 2), ties whose JSON order differs from the
/// derived order (witnesses `[a3]` and `[a4]` once they straddle 9 and
/// 10; lhs values `9000` and `9000!`), and a last entry the scripts
/// retract but never create.
fn universe(a: &[RowId; 7]) -> Vec<Violation> {
    vec![
        constant_at(a[2], "zip → city", "90004", "Los Angeles"),
        constant_at(a[2], "zip → city", "90004", "San Diego"),
        variable_at(a[2], vec![a[3]]),
        variable_at(a[2], vec![a[4]]),
        variable_at(a[5], vec![a[0], a[1], a[3]]),
        constant_at(a[3], "zip → state", "90004", "CA"),
        constant_at(a[4], "zip → city", "9000", "Los Angeles"),
        constant_at(a[4], "zip → city", "9000!", "Los Angeles"),
        variable_at(a[6], vec![a[2]]),
    ]
}

/// Violations a script may create: every one but the last.
const CREATABLE: usize = 8;

/// What a frozen view saw when it was captured.
struct Frozen {
    view: LedgerSnapshot,
    snapshot: Vec<Violation>,
    counts: (usize, usize, usize, u64),
}

fn counts(ledger: &ViolationLedger) -> (usize, usize, usize, u64) {
    (
        ledger.live_count(),
        ledger.created_total(),
        ledger.retracted_total(),
        ledger.epoch(),
    )
}

proptest! {
    /// Every step of a random script of creates, retracts, compaction
    /// remaps (from a real `Table::compact`) and freezes yields the same
    /// event, counters and `snapshot()` from the ledger as from the
    /// JSON-keyed reference; `live()` is the same set in derived order;
    /// and every frozen view still shows what it captured.
    #[test]
    fn ledger_matches_json_keyed_reference(
        script in prop::collection::vec((0u8..10, 0usize..9, any::<u16>()), 0..160)
    ) {
        // Anchors sit among filler rows that compactions delete, so a
        // remap moves them down, across 10 to 9 and below.
        let mut anchors: [RowId; 7] = [1, 3, 4, 9, 10, 13, 15];
        let mut table = Table::empty(Schema::new(["slot"]).expect("schema"));
        for i in 0..16 {
            table.push_row(vec![Value::text(format!("s{i}"))]).expect("arity");
        }
        let mut ledger = ViolationLedger::new();
        let mut reference = JsonLedger::default();
        let mut frozen: Vec<Frozen> = Vec::new();
        for (op, pick, mask) in script {
            let pool = universe(&anchors);
            let (got, want) = match op {
                0..=3 => {
                    let v = &pool[pick % CREATABLE];
                    (ledger.create(v.clone()), reference.create(v.clone()))
                }
                4..=7 => (ledger.retract(&pool[pick]), reference.retract(&pool[pick])),
                8 => {
                    // Delete the filler rows `mask` picks, add one, compact.
                    let fillers: Vec<RowId> = table
                        .iter_live()
                        .filter(|r| !anchors.contains(r))
                        .collect();
                    for (bit, &row) in fillers.iter().enumerate() {
                        if (mask >> (bit % 16)) & 1 == 1 {
                            table.delete_row(row).expect("live filler");
                        }
                    }
                    table.push_row(vec![Value::text("filler")]).expect("arity");
                    let remap = table.compact();
                    ledger.remap(&remap);
                    reference.remap(&remap);
                    remap.remap_sorted_in_place(&mut anchors);
                    (None, None)
                }
                _ => {
                    // Hold at most three views; the oldest is dropped.
                    if frozen.len() == 3 {
                        frozen.remove(0);
                    }
                    frozen.push(Frozen {
                        view: ledger.freeze(),
                        snapshot: ledger.snapshot(),
                        counts: counts(&ledger),
                    });
                    (None, None)
                }
            };
            prop_assert_eq!(got, want);
            prop_assert_eq!(
                counts(&ledger),
                (
                    reference.live.len(),
                    reference.created_total,
                    reference.retracted_total,
                    reference.epoch,
                )
            );
            let snapshot = ledger.snapshot();
            prop_assert_eq!(&snapshot, &reference.snapshot());
            // `live()` is the same set, in the derived order.
            let mut sorted: Vec<&Violation> = snapshot.iter().collect();
            sorted.sort();
            prop_assert_eq!(ledger.live().collect::<Vec<_>>(), sorted);
            for f in &frozen {
                prop_assert_eq!(counts(&f.view), f.counts);
                prop_assert_eq!(f.view.snapshot(), f.snapshot.clone());
            }
        }
    }
}
