//! Live violation bookkeeping with retraction support.
//!
//! Batch detection recomputes the full violation set per call; an
//! append-only stream instead maintains a *ledger* of live violations.
//! New rows can both **create** violations and **retract** earlier ones —
//! a late burst of agreeing rows can flip a block's majority RHS, turning
//! yesterday's "error" into today's consensus — so the ledger tracks
//! every live violation with a reference count (two rules can imply the
//! same violation; it stays live until the last implier retracts it) and
//! running created/retracted totals for monitoring.
//!
//! Identity is *structural equality*: two violations are the same ledger
//! entry iff they are equal field for field (dependency, row, evidence,
//! witnesses, repair — everything). The live map is keyed by the
//! [`Violation`] itself under its derived `Ord`, so nothing is serialized
//! on a write path: a create or a retract is one ordered lookup (a create
//! clones the violation only when it is new), and each live violation is
//! held once. The incremental engine retracts exactly the objects it
//! previously created, so structural identity is both precise and cheap.
//!
//! Two orders are visible. [`ViolationLedger::live`] iterates in the
//! derived `Ord` order of the map. [`ViolationLedger::snapshot`] sorts
//! like [`crate::detect_all`] output, by `(row, dependency)`, and breaks
//! the remaining ties by the violations' JSON text. That order is part of
//! what `anmat stream --checkpoint` writes, so it does not follow the
//! derived `Ord`.
//!
//! The ledger also participates in the **compaction remap protocol**:
//! when the backing table compacts (renumbering `RowId`s),
//! [`ViolationLedger::remap`] rewrites every live violation's row
//! references in place and adopts the remap's epoch. Event *history* is
//! never rewritten — each [`LedgerEvent`] carries the
//! [`epoch`](LedgerEvent::epoch) it was emitted in, so a consumer
//! replaying an event log knows which id space every row reference
//! lives in, and replay stays bit-exact across compactions.

use crate::detect::Violation;
use anmat_obs as obs;
use anmat_table::RowIdRemap;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What happened to a violation's liveness.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerChange {
    /// A violation became live.
    Created(Violation),
    /// A previously live violation was withdrawn (e.g. the block majority
    /// flipped, or its witnesses changed).
    Retracted(Violation),
}

/// A change to the set of live violations, stamped with the compaction
/// epoch it was emitted in.
///
/// Row ids inside the change are meaningful relative to `epoch`: a
/// compaction renumbers rows, remaps the *live* set silently (no
/// events), and bumps the ledger's epoch — so already-emitted events
/// keep their original ids and their original epoch stamp, verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEvent {
    /// The ledger's compaction epoch at emission time (0 before any
    /// compaction).
    pub epoch: u64,
    /// The liveness change itself.
    pub change: LedgerChange,
}

impl LedgerEvent {
    /// The violation the event concerns.
    #[must_use]
    pub fn violation(&self) -> &Violation {
        match &self.change {
            LedgerChange::Created(v) | LedgerChange::Retracted(v) => v,
        }
    }

    /// Is this a creation?
    #[must_use]
    pub fn is_created(&self) -> bool {
        matches!(self.change, LedgerChange::Created(_))
    }
}

/// The set of currently live violations, keyed by the violation itself,
/// with reference counts and lifetime counters.
///
/// The live map sits behind an [`Arc`], so [`ViolationLedger::freeze`]
/// captures a consistent snapshot in `O(1)`; the first mutation after a
/// capture copies the map once (map-granular copy-on-write) and every
/// further mutation is back to in-place cost.
#[derive(Debug, Default, Clone)]
pub struct ViolationLedger {
    /// Violation → refcount. A `BTreeMap` keeps iteration deterministic.
    live: Arc<BTreeMap<Violation, usize>>,
    created_total: usize,
    retracted_total: usize,
    /// Compaction epoch stamped onto emitted events; follows the backing
    /// table's epoch via [`ViolationLedger::remap`].
    epoch: u64,
}

/// A frozen, read-only view of a [`ViolationLedger`] captured by
/// [`ViolationLedger::freeze`] — shares the live map with the ledger
/// until the ledger next mutates. Derefs to [`ViolationLedger`], so the
/// whole read API (`live`, `snapshot`, counters) works on it.
#[derive(Debug, Clone)]
pub struct LedgerSnapshot {
    inner: ViolationLedger,
}

impl LedgerSnapshot {
    /// The frozen view, as a `&ViolationLedger`.
    #[must_use]
    pub fn ledger(&self) -> &ViolationLedger {
        &self.inner
    }
}

impl std::ops::Deref for LedgerSnapshot {
    type Target = ViolationLedger;

    fn deref(&self) -> &ViolationLedger {
        &self.inner
    }
}

/// The JSON text of a violation: [`ViolationLedger::snapshot`]'s last
/// tie-break, and nothing else.
fn canonical_key(v: &Violation) -> String {
    serde_json::to_string(v).expect("violations serialize infallibly")
}

impl ViolationLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> ViolationLedger {
        ViolationLedger::default()
    }

    /// Capture a copy-on-write snapshot: `O(1)` — the handle shares the
    /// live map until this ledger next mutates (which pays one map
    /// copy, counted as `snapshot.map_copies`).
    #[must_use]
    pub fn freeze(&self) -> LedgerSnapshot {
        obs::counter!("snapshot.ledger_captures").incr();
        LedgerSnapshot {
            inner: self.clone(),
        }
    }

    /// The live map, for mutation — copies it first if a snapshot still
    /// shares it.
    fn live_mut(&mut self) -> &mut BTreeMap<Violation, usize> {
        if Arc::strong_count(&self.live) > 1 {
            obs::counter!("snapshot.map_copies").incr();
        }
        Arc::make_mut(&mut self.live)
    }

    /// Record a violation. Returns the `Created` event if it was not
    /// already live (otherwise only the reference count grows).
    pub fn create(&mut self, violation: Violation) -> Option<LedgerEvent> {
        let violation = match self.live_mut().entry(violation) {
            Entry::Occupied(mut refcount) => {
                *refcount.get_mut() += 1;
                return None;
            }
            Entry::Vacant(slot) => {
                let violation = slot.key().clone();
                slot.insert(1);
                violation
            }
        };
        self.created_total += 1;
        obs::counter!("ledger.created").incr();
        Some(LedgerEvent {
            epoch: self.epoch,
            change: LedgerChange::Created(violation),
        })
    }

    /// Withdraw a violation. Returns the `Retracted` event once the last
    /// reference is gone; `None` if other rules still imply it (or it was
    /// never live).
    pub fn retract(&mut self, violation: &Violation) -> Option<LedgerEvent> {
        // Peek before touching the map so a retract of a never-live
        // violation doesn't force a COW copy under a snapshot.
        if !self.live.contains_key(violation) {
            return None;
        }
        let live = self.live_mut();
        let refcount = live.get_mut(violation)?;
        *refcount -= 1;
        if *refcount > 0 {
            return None;
        }
        let (v, _) = live.remove_entry(violation).expect("entry exists");
        self.retracted_total += 1;
        obs::counter!("ledger.retracted").incr();
        Some(LedgerEvent {
            epoch: self.epoch,
            change: LedgerChange::Retracted(v),
        })
    }

    /// The ledger's current compaction epoch (0 before any
    /// [`ViolationLedger::remap`]).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Apply a compaction [`RowIdRemap`]: rewrite every *live*
    /// violation's row references (flagged row, witnesses, repair
    /// target) into the new id space and adopt the remap's epoch.
    ///
    /// Deliberately silent — no `Created`/`Retracted` events are
    /// emitted and the lifetime counters do not move, because no
    /// violation's liveness changed; only its coordinates did. Event
    /// history stays verbatim (see [`LedgerEvent::epoch`]). Reference
    /// counts survive: the remap is injective on live rows and touches
    /// nothing else, so distinct entries stay distinct. It is also
    /// monotone, so the remapped keys keep their order: `collect` finds
    /// them already sorted and bulk-loads the new tree.
    pub fn remap(&mut self, remap: &RowIdRemap) {
        self.epoch = remap.epoch();
        let live = self.live_mut();
        let count = live.len();
        *live = std::mem::take(live)
            .into_iter()
            .map(|(mut v, refcount)| {
                v.remap(remap);
                (v, refcount)
            })
            .collect();
        debug_assert_eq!(live.len(), count, "remap is injective on live violations");
    }

    /// The live violations, in the derived `Ord` order of [`Violation`]
    /// (dependency, attributes, row, …). For `detect_all`'s order use
    /// [`ViolationLedger::snapshot`].
    pub fn live(&self) -> impl Iterator<Item = &Violation> {
        self.live.keys()
    }

    /// The live violations sorted like [`crate::detect_all`] output:
    /// `(row, dependency)` first, then the violations' JSON text for a
    /// total order. The JSON tie-break is the only serialization the
    /// ledger does, and only on ties.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Violation> {
        let mut out: Vec<&Violation> = self.live.keys().collect();
        out.sort_by(|a, b| {
            a.row
                .cmp(&b.row)
                .then_with(|| a.dependency.cmp(&b.dependency))
                .then_with(|| canonical_key(a).cmp(&canonical_key(b)))
        });
        out.into_iter().cloned().collect()
    }

    /// Number of currently live violations.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Is the ledger empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Violations ever created (distinct live transitions).
    #[must_use]
    pub fn created_total(&self) -> usize {
        self.created_total
    }

    /// Violations ever retracted.
    #[must_use]
    pub fn retracted_total(&self) -> usize {
        self.retracted_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{Violation, ViolationKind};

    fn violation(row: usize, expected: &str) -> Violation {
        Violation {
            dependency: "zip → city".into(),
            lhs_attr: "zip".into(),
            rhs_attr: "city".into(),
            row,
            lhs_value: "90004".into(),
            kind: ViolationKind::Constant {
                pattern: "900\\D{2}".into(),
                expected: expected.into(),
                found: Some("New York".into()),
            },
            repair: None,
        }
    }

    #[test]
    fn create_and_retract_roundtrip() {
        let mut ledger = ViolationLedger::new();
        let v = violation(3, "Los Angeles");
        let created = ledger.create(v.clone()).expect("fresh violation");
        assert!(created.is_created());
        assert_eq!(created.epoch, 0, "pre-compaction events carry epoch 0");
        assert_eq!(ledger.live_count(), 1);
        let retracted = ledger.retract(&v).expect("was live");
        assert!(!retracted.is_created());
        assert!(matches!(retracted.change, LedgerChange::Retracted(_)));
        assert!(ledger.is_empty());
        assert_eq!(ledger.created_total(), 1);
        assert_eq!(ledger.retracted_total(), 1);
    }

    #[test]
    fn refcount_suppresses_duplicate_events() {
        let mut ledger = ViolationLedger::new();
        let v = violation(3, "Los Angeles");
        assert!(ledger.create(v.clone()).is_some());
        // A second rule implying the identical violation: no new event.
        assert!(ledger.create(v.clone()).is_none());
        assert_eq!(ledger.live_count(), 1);
        // First retraction leaves it live; the second removes it.
        assert!(ledger.retract(&v).is_none());
        assert_eq!(ledger.live_count(), 1);
        assert!(ledger.retract(&v).is_some());
        assert!(ledger.is_empty());
    }

    #[test]
    fn retract_unknown_is_noop() {
        let mut ledger = ViolationLedger::new();
        assert!(ledger.retract(&violation(9, "X")).is_none());
        assert_eq!(ledger.retracted_total(), 0);
    }

    #[test]
    fn double_retract_is_a_noop() {
        let mut ledger = ViolationLedger::new();
        let v = violation(3, "Los Angeles");
        ledger.create(v.clone());
        assert!(ledger.retract(&v).is_some());
        // A second retraction of the same violation must change nothing:
        // no event, no counter movement, no underflow.
        assert!(ledger.retract(&v).is_none());
        assert!(ledger.retract(&v).is_none());
        assert_eq!(ledger.retracted_total(), 1);
        assert_eq!(ledger.created_total(), 1);
        assert!(ledger.is_empty());
    }

    #[test]
    fn retract_then_recreate_yields_a_fresh_event() {
        let mut ledger = ViolationLedger::new();
        let v = violation(3, "Los Angeles");
        assert!(ledger.create(v.clone()).is_some_and(|e| e.is_created()));
        ledger.retract(&v).unwrap();
        // Re-creating after a full retraction is a new lifecycle: a
        // fresh Created event, and both lifetime counters advance.
        assert!(ledger.create(v.clone()).is_some_and(|e| e.is_created()));
        assert_eq!(ledger.created_total(), 2);
        assert_eq!(ledger.retracted_total(), 1);
        assert_eq!(ledger.live_count(), 1);
    }

    #[test]
    fn snapshot_sorted_by_row_then_dependency() {
        let mut ledger = ViolationLedger::new();
        ledger.create(violation(5, "A"));
        ledger.create(violation(1, "B"));
        ledger.create(violation(1, "A"));
        let rows: Vec<usize> = ledger.snapshot().iter().map(|v| v.row).collect();
        assert_eq!(rows, vec![1, 1, 5]);
    }

    #[test]
    fn snapshot_breaks_row_and_dependency_ties_by_json_text() {
        // One row, one dependency: a constant violation and two variable
        // ones whose witness lists order one way as numbers ([9] < [10])
        // and the other way as JSON text ("[10]" < "[9]").
        let constant = violation(4, "Los Angeles");
        let nine = variable_violation(4, vec![9]);
        let ten = variable_violation(4, vec![10]);
        let mut ledger = ViolationLedger::new();
        for v in [&nine, &constant, &ten] {
            ledger.create(v.clone());
        }
        assert_eq!(
            ledger.snapshot(),
            vec![constant.clone(), ten.clone(), nine.clone()]
        );
        // `live()` follows the derived order instead.
        let live: Vec<&Violation> = ledger.live().collect();
        assert_eq!(live, vec![&constant, &nine, &ten]);
    }

    #[test]
    fn distinct_violations_tracked_separately() {
        let mut ledger = ViolationLedger::new();
        ledger.create(violation(3, "Los Angeles"));
        ledger.create(violation(3, "San Diego"));
        assert_eq!(ledger.live_count(), 2);
    }

    /// A remap built from a real table compaction: slots 0 and 2 die, so
    /// survivors 1, 3, 4 become 0, 1, 2.
    fn sample_remap() -> anmat_table::RowIdRemap {
        use anmat_table::{Schema, Table, Value};
        let mut t = Table::empty(Schema::new(["a"]).unwrap());
        for i in 0..5 {
            t.push_row(vec![Value::text(format!("r{i}"))]).unwrap();
        }
        t.delete_row(0).unwrap();
        t.delete_row(2).unwrap();
        t.compact()
    }

    fn variable_violation(row: usize, witnesses: Vec<usize>) -> Violation {
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
            repair: Some(crate::detect::Repair {
                row,
                attr: "city".into(),
                from: Some("New York".into()),
                to: "Los Angeles".into(),
            }),
        }
    }

    #[test]
    fn remap_rewrites_live_rows_witnesses_and_repairs() {
        let mut ledger = ViolationLedger::new();
        ledger.create(variable_violation(4, vec![1, 3]));
        ledger.create(violation(3, "Los Angeles"));
        ledger.remap(&sample_remap());
        assert_eq!(ledger.epoch(), 1);
        let snap = ledger.snapshot();
        assert_eq!(snap.len(), 2);
        // Constant violation on old row 3 → new row 1.
        assert_eq!(snap[0].row, 1);
        // Variable violation on old row 4 → new row 2, witnesses 1,3 →
        // 0,1, repair follows the flagged row.
        assert_eq!(snap[1].row, 2);
        match &snap[1].kind {
            ViolationKind::Variable { witnesses, .. } => assert_eq!(witnesses, &vec![0, 1]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(snap[1].repair.as_ref().unwrap().row, 2);
        // Liveness bookkeeping untouched: remap is silent.
        assert_eq!(ledger.created_total(), 2);
        assert_eq!(ledger.retracted_total(), 0);
        assert_eq!(ledger.live_count(), 2);
    }

    #[test]
    fn remap_preserves_refcounts_and_stamps_later_events() {
        let mut ledger = ViolationLedger::new();
        let v = violation(3, "Los Angeles");
        ledger.create(v.clone());
        ledger.create(v.clone()); // second implier: refcount 2
        ledger.remap(&sample_remap());
        // Retracting once keeps it live (refcount survived the remap) …
        let mut moved = violation(1, "Los Angeles");
        moved.repair = v.repair.clone();
        assert!(ledger.retract(&moved).is_none());
        assert_eq!(ledger.live_count(), 1);
        // … and the final retraction's event carries the new epoch.
        let ev = ledger.retract(&moved).expect("last refcount");
        assert_eq!(ev.epoch, 1);
        assert!(!ev.is_created());
        // New creations are stamped with the adopted epoch too.
        let ev = ledger.create(violation(0, "X")).expect("fresh");
        assert_eq!(ev.epoch, 1);
    }

    #[test]
    fn freeze_is_isolated_from_later_mutation() {
        let mut ledger = ViolationLedger::new();
        ledger.create(violation(1, "A"));
        let snap = ledger.freeze();
        assert_eq!(snap.live_count(), 1);
        // Mutate the live ledger every way it can move: create, retract,
        // remap. The frozen view must not see any of it.
        ledger.create(violation(3, "B"));
        ledger.retract(&violation(1, "A"));
        ledger.remap(&sample_remap());
        assert_eq!(snap.live_count(), 1);
        assert_eq!(snap.ledger().snapshot()[0].row, 1);
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.created_total(), 1);
        assert_eq!(snap.retracted_total(), 0);
        // The live ledger moved on.
        assert_eq!(ledger.live_count(), 1);
        assert_eq!(ledger.epoch(), 1);
        assert_eq!(ledger.snapshot()[0].row, 1, "old row 3 compacts to 1");
        assert_eq!(ledger.retracted_total(), 1);
    }
}
