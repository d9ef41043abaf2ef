//! Live violation bookkeeping with retraction support.
//!
//! Batch detection recomputes the full violation set per call; an
//! append-only stream instead maintains a *ledger* of live violations.
//! New rows can both **create** violations and **retract** earlier ones —
//! a late burst of agreeing rows can flip a block's majority RHS, turning
//! yesterday's "error" into today's consensus — so the ledger tracks
//! every live violation with a reference count (two rules can make the
//! same assertion; it stays live until the last one retracts it) and
//! running created/retracted totals for monitoring.
//!
//! # Identity is the assertion
//!
//! A violation flags one cell (§3 of the paper): the flagged row's RHS,
//! which should hold the constant tuple's `tp[B]` or the block majority.
//! Its identity is what it asserts, held as ids in an [`Assertion`]: the
//! tuple's [`TupleSignature`] (attributes, kind, pattern display; an
//! index into the ledger's deduplicated signature table), the block key,
//! the value the cell should hold, the flagged row, and the row's LHS
//! and found values. The live set holds a packed 24-byte form of it, so a
//! create or a retract is a lookup in an ordered set and allocates
//! nothing but the event; only an assertion more than one tuple makes
//! (overlapping rules) also keeps a reference count beside it.
//!
//! Witnesses and the repair are *evidence*, not identity. The repair
//! follows from the assertion (set the flagged cell to the value it
//! should hold), and the witnesses — the block's first
//! [`MAX_WITNESSES`] majority rows — are kept once per block, only while
//! a live violation cites the block, and kept current by
//! [`ViolationLedger::refresh_witnesses`] without any event. So a
//! witness leaving (a retention window expiring a block's oldest rows)
//! changes no violation's liveness. A full [`Violation`] is built only
//! where one is shown: [`ViolationLedger::render`] and
//! [`ViolationLedger::snapshot`]. An event is the assertion it creates
//! or retracts, and [`ViolationLedger::describe`] renders it where it is
//! shown, so a create or a retract allocates nothing for it.
//!
//! Two orders are visible. [`ViolationLedger::live`] iterates in the
//! derived `Ord` order of [`Assertion`] (signature, block, expected
//! value, row, …). [`ViolationLedger::snapshot`] sorts like
//! [`crate::detect_all`] output, by `(row, dependency)`, and breaks the
//! remaining ties by the violations' JSON text. That order is part of
//! what `anmat stream --checkpoint` writes.
//!
//! The ledger also participates in the **compaction remap protocol**:
//! when the backing table compacts (renumbering `RowId`s),
//! [`ViolationLedger::remap`] rewrites every live assertion's row and
//! every block's witnesses in place. Events already emitted are not
//! rewritten: their rows stay in the id space they were emitted in, and
//! their ids may be reclaimed at the compaction, so a consumer that
//! keeps events past one describes them first.

use crate::detect::variable::MAX_WITNESSES;
use crate::detect::{Repair, Violation, ViolationKind};
use crate::pfd::{PatternTuple, Pfd, RhsCell};
use anmat_obs as obs;
use anmat_table::{RowId, RowIdRemap, ValueId};
use fxhash::FxHashMap;
use std::collections::{btree_map, hash_map, BTreeMap, BTreeSet};
use std::sync::Arc;

/// A change to the set of live violations: the assertion that became
/// live or stopped being live.
///
/// [`ViolationLedger::describe`] renders it. Describe it before the next
/// compaction, which renumbers its row and may reclaim the values it
/// names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerEvent {
    /// A violation became live.
    Created(Assertion),
    /// A previously live violation was withdrawn (e.g. the block majority
    /// flipped, or the flagged row left).
    Retracted(Assertion),
}

impl LedgerEvent {
    /// The assertion the event creates or retracts.
    #[must_use]
    pub fn assertion(&self) -> &Assertion {
        match self {
            LedgerEvent::Created(a) | LedgerEvent::Retracted(a) => a,
        }
    }

    /// Is this a creation?
    #[must_use]
    pub fn is_created(&self) -> bool {
        matches!(self, LedgerEvent::Created(_))
    }
}

/// What a tableau tuple contributes to every violation it asserts: its
/// rule's attributes, its kind and its LHS pattern's display form.
/// Tuples with equal signatures over the same rows assert equal
/// violations, which is how two rules share a ledger entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleSignature {
    dependency: String,
    lhs_attr: String,
    rhs_attr: String,
    pattern: String,
    variable: bool,
}

impl TupleSignature {
    /// The signature of `tuple`, one of `pfd`'s tableau tuples.
    #[must_use]
    pub fn of(pfd: &Pfd, tuple: &PatternTuple) -> TupleSignature {
        TupleSignature {
            dependency: pfd.embedded_fd(),
            lhs_attr: pfd.lhs_attr.clone(),
            rhs_attr: pfd.rhs_attr.clone(),
            pattern: tuple.lhs.to_string(),
            variable: matches!(tuple.rhs, RhsCell::Wildcard),
        }
    }
}

/// Index of a [`TupleSignature`] in one ledger's signature table
/// ([`ViolationLedger::signature`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignatureId(u32);

/// What one violation asserts, as ids: the identity the ledger keys on.
///
/// Every id names a value the engine keeps alive while the violation is
/// live — the flagged row's own cells, the rule's constant, the block's
/// key and majority — so an assertion in the ledger always renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Assertion {
    /// The asserting tuple's signature.
    pub signature: SignatureId,
    /// The block key of a variable tuple; [`ValueId::NULL`] for a
    /// constant tuple.
    pub key: ValueId,
    /// The value the flagged cell should hold: the constant tuple's
    /// `tp[B]`, or the block majority.
    pub expected: ValueId,
    /// The flagged row.
    pub row: RowId,
    /// The flagged row's LHS value.
    pub lhs: ValueId,
    /// The flagged row's RHS value ([`ValueId::NULL`] for a null cell).
    pub found: ValueId,
}

/// An [`Assertion`] as the live map keys it: 24 bytes, with the row id
/// narrowed to `u32` like the blocking partitions' runs. Field order
/// keeps the derived order of [`Assertion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Packed {
    signature: u32,
    key: ValueId,
    expected: ValueId,
    row: u32,
    lhs: ValueId,
    found: ValueId,
}

fn narrow(row: RowId) -> u32 {
    u32::try_from(row).expect("row ids fit in u32")
}

impl From<&Assertion> for Packed {
    fn from(a: &Assertion) -> Packed {
        Packed {
            signature: a.signature.0,
            key: a.key,
            expected: a.expected,
            row: narrow(a.row),
            lhs: a.lhs,
            found: a.found,
        }
    }
}

impl Packed {
    fn unpack(&self) -> Assertion {
        Assertion {
            signature: SignatureId(self.signature),
            key: self.key,
            expected: self.expected,
            row: self.row as RowId,
            lhs: self.lhs,
            found: self.found,
        }
    }

    /// The block this assertion cites evidence from.
    fn block(&self) -> Block {
        (self.signature, self.key, self.expected)
    }
}

/// A block as evidence is keyed: signature, block key, majority. The
/// majority is part of it because the witnesses are the majority's rows.
type Block = (u32, ValueId, ValueId);

/// A block's evidence: its first [`MAX_WITNESSES`] majority rows, and how
/// many live violations cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Evidence {
    witnesses: [u32; MAX_WITNESSES],
    len: u8,
    cited: u32,
}

impl Evidence {
    fn new(rows: impl IntoIterator<Item = RowId>) -> Evidence {
        let mut evidence = Evidence {
            witnesses: [0; MAX_WITNESSES],
            len: 0,
            cited: 0,
        };
        evidence.set(rows);
        evidence
    }

    /// Replace the witnesses with the first [`MAX_WITNESSES`] of `rows`.
    fn set(&mut self, rows: impl IntoIterator<Item = RowId>) {
        self.len = 0;
        for (slot, row) in self.witnesses.iter_mut().zip(rows) {
            *slot = narrow(row);
            self.len += 1;
        }
    }

    fn rows(&self) -> impl Iterator<Item = RowId> + '_ {
        self.witnesses[..usize::from(self.len)]
            .iter()
            .map(|&r| r as RowId)
    }
}

/// The ledger's mutable state, shared with frozen views until the next
/// write: the live assertions with their reference counts, and the
/// evidence of every block a live violation cites.
#[derive(Debug, Default, Clone)]
struct Live {
    /// Every live assertion.
    assertions: BTreeSet<Packed>,
    /// References beyond the first, for the assertions more than one
    /// tuple makes (overlapping rules); the rest, nearly all, have no
    /// entry and cost the set's 24 bytes alone.
    extra_refs: FxHashMap<Packed, u32>,
    evidence: BTreeMap<Block, Evidence>,
}

/// The set of currently live violations, keyed by what each asserts,
/// with reference counts, per-block evidence and lifetime counters.
///
/// The live state sits behind an [`Arc`], so [`ViolationLedger::freeze`]
/// captures a consistent snapshot in `O(1)`; the first mutation after a
/// capture copies it once (copy-on-write) and every further mutation is
/// back to in-place cost.
#[derive(Debug, Default, Clone)]
pub struct ViolationLedger {
    /// The deduplicated tuple signatures assertions name.
    signatures: Arc<Vec<TupleSignature>>,
    live: Arc<Live>,
    created_total: usize,
    retracted_total: usize,
}

/// A frozen, read-only view of a [`ViolationLedger`] captured by
/// [`ViolationLedger::freeze`] — shares the live state with the ledger
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

    /// The id assertions use to name `signature`: an existing entry of
    /// the signature table if an equal signature was registered before,
    /// a new one otherwise.
    pub fn signature(&mut self, signature: TupleSignature) -> SignatureId {
        let position = self.signatures.iter().position(|s| *s == signature);
        let index = position.unwrap_or_else(|| {
            let signatures = Arc::make_mut(&mut self.signatures);
            signatures.push(signature);
            signatures.len() - 1
        });
        SignatureId(u32::try_from(index).expect("signature ids fit in u32"))
    }

    fn signature_of(&self, id: SignatureId) -> &TupleSignature {
        &self.signatures[id.0 as usize]
    }

    /// Capture a copy-on-write snapshot: `O(1)` — the handle shares the
    /// live state until this ledger next mutates (which pays one copy,
    /// counted as `snapshot.map_copies`).
    ///
    /// The snapshot renders its assertions through the value pool, so it
    /// must not outlive a reclamation sweep that frees their strings:
    /// take it through `anmat_stream::StreamEngine::snapshot`, which
    /// defers sweeps while the snapshot lives.
    #[must_use]
    pub fn freeze(&self) -> LedgerSnapshot {
        obs::counter!("snapshot.ledger_captures").incr();
        LedgerSnapshot {
            inner: self.clone(),
        }
    }

    /// The live state, for mutation — copies it first if a snapshot
    /// still shares it.
    fn live_mut(&mut self) -> &mut Live {
        if Arc::strong_count(&self.live) > 1 {
            obs::counter!("snapshot.map_copies").incr();
        }
        Arc::make_mut(&mut self.live)
    }

    /// Record an assertion. Returns the `Created` event if it was not
    /// already live (otherwise only the reference count grows).
    ///
    /// `witnesses` yields the block's majority rows in row order; it is
    /// called only when a variable assertion is the first live violation
    /// to cite its block, and only its first [`MAX_WITNESSES`] rows are
    /// kept.
    pub fn create<I>(
        &mut self,
        assertion: Assertion,
        witnesses: impl FnOnce() -> I,
    ) -> Option<LedgerEvent>
    where
        I: IntoIterator<Item = RowId>,
    {
        let packed = Packed::from(&assertion);
        let variable = self.signature_of(assertion.signature).variable;
        let live = self.live_mut();
        if !live.assertions.insert(packed) {
            *live.extra_refs.entry(packed).or_default() += 1;
            return None;
        }
        if variable {
            let evidence = live.evidence.entry(packed.block());
            evidence.or_insert_with(|| Evidence::new(witnesses())).cited += 1;
        }
        self.created_total += 1;
        obs::counter!("ledger.created").incr();
        Some(LedgerEvent::Created(assertion))
    }

    /// Withdraw an assertion. Returns the `Retracted` event once the last
    /// reference is gone; `None` if other rules still make it (or it was
    /// never live).
    pub fn retract(&mut self, assertion: &Assertion) -> Option<LedgerEvent> {
        let packed = Packed::from(assertion);
        // Peek before touching the map so a retract of a never-live
        // assertion doesn't force a copy under a snapshot.
        if !self.live.assertions.contains(&packed) {
            return None;
        }
        let variable = self.signature_of(assertion.signature).variable;
        let live = self.live_mut();
        if let hash_map::Entry::Occupied(mut extra) = live.extra_refs.entry(packed) {
            *extra.get_mut() -= 1;
            if *extra.get() == 0 {
                extra.remove();
            }
            return None;
        }
        live.assertions.remove(&packed);
        if variable {
            let btree_map::Entry::Occupied(mut evidence) = live.evidence.entry(packed.block())
            else {
                unreachable!("a live variable assertion cites its block's evidence");
            };
            evidence.get_mut().cited -= 1;
            if evidence.get().cited == 0 {
                evidence.remove();
            }
        }
        self.retracted_total += 1;
        obs::counter!("ledger.retracted").incr();
        Some(LedgerEvent::Retracted(*assertion))
    }

    /// Bring a block's witnesses up to date after a majority row came or
    /// went: if a live violation cites the block of `signature`, `key`
    /// and `majority`, its witnesses become the first [`MAX_WITNESSES`]
    /// rows `witnesses` yields (which is not called otherwise). Emits no
    /// event — witnesses are evidence, not identity — and writes only
    /// when they changed.
    pub fn refresh_witnesses<I>(
        &mut self,
        signature: SignatureId,
        key: ValueId,
        majority: ValueId,
        witnesses: impl FnOnce() -> I,
    ) where
        I: IntoIterator<Item = RowId>,
    {
        let block = (signature.0, key, majority);
        let Some(current) = self.live.evidence.get(&block) else {
            return;
        };
        let mut fresh = *current;
        fresh.set(witnesses());
        if fresh != *current {
            self.live_mut().evidence.insert(block, fresh);
        }
    }

    /// Apply a compaction [`RowIdRemap`]: rewrite every live assertion's
    /// row and every block's witnesses into the new id space.
    ///
    /// Deliberately silent — no `Created`/`Retracted` events are
    /// emitted and the lifetime counters do not move, because no
    /// violation's liveness changed; only its coordinates did. Events
    /// already emitted keep their rows. Reference counts survive: the
    /// remap is injective on live rows and touches nothing else, so
    /// distinct entries stay distinct. It is also monotone, so the
    /// remapped keys keep their order: `collect` finds them already
    /// sorted and bulk-loads the new tree.
    pub fn remap(&mut self, remap: &RowIdRemap) {
        let live = self.live_mut();
        let moved = |mut key: Packed| {
            key.row = narrow(remap.live_id(key.row as RowId));
            key
        };
        let count = live.assertions.len();
        live.assertions = std::mem::take(&mut live.assertions)
            .into_iter()
            .map(moved)
            .collect();
        debug_assert_eq!(
            live.assertions.len(),
            count,
            "remap is injective on live rows"
        );
        live.extra_refs = std::mem::take(&mut live.extra_refs)
            .into_iter()
            .map(|(key, refs)| (moved(key), refs))
            .collect();
        for evidence in live.evidence.values_mut() {
            let rows: Vec<RowId> = evidence.rows().map(|r| remap.live_id(r)).collect();
            evidence.set(rows);
        }
    }

    /// The live assertions, in their derived `Ord` order (signature,
    /// block key, expected value, row, …). Nothing is rendered; for
    /// violations use [`ViolationLedger::snapshot`] or
    /// [`ViolationLedger::render`].
    pub fn live(&self) -> impl Iterator<Item = Assertion> + '_ {
        self.live.assertions.iter().map(Packed::unpack)
    }

    /// The violation `assertion` stands for, as batch detection reports
    /// it: witnesses (the cited block's current evidence) and repair
    /// included.
    #[must_use]
    pub fn render(&self, assertion: &Assertion) -> Violation {
        let mut v = self.describe(assertion);
        if let ViolationKind::Variable { witnesses, .. } = &mut v.kind {
            let block = Packed::from(assertion).block();
            if let Some(evidence) = self.live.evidence.get(&block) {
                witnesses.extend(evidence.rows());
            }
        }
        v
    }

    /// The violation `a` stands for, with an empty witness list: its
    /// identity, as an event line shows it. `a` need not be live, but
    /// its ids must still resolve: describe an event before the
    /// compaction after it, which may reclaim them.
    #[must_use]
    pub fn describe(&self, a: &Assertion) -> Violation {
        let signature = self.signature_of(a.signature);
        let found = a.found.as_str().map(str::to_string);
        let expected = a.expected.render().to_string();
        let pattern = signature.pattern.clone();
        let kind = if signature.variable {
            ViolationKind::Variable {
                pattern,
                key: a.key.render().to_string(),
                majority: expected.clone(),
                found: found.clone(),
                witnesses: Vec::new(),
            }
        } else {
            ViolationKind::Constant {
                pattern,
                expected: expected.clone(),
                found: found.clone(),
            }
        };
        Violation {
            dependency: signature.dependency.clone(),
            lhs_attr: signature.lhs_attr.clone(),
            rhs_attr: signature.rhs_attr.clone(),
            row: a.row,
            lhs_value: a.lhs.render().to_string(),
            kind,
            repair: Some(Repair {
                row: a.row,
                attr: signature.rhs_attr.clone(),
                from: found,
                to: expected,
            }),
        }
    }

    /// The live violations, rendered ([`ViolationLedger::render`]) and
    /// sorted like [`crate::detect_all`] output: `(row, dependency)`
    /// first, then the violations' JSON text for a total order. The JSON
    /// tie-break is the only serialization the ledger does, and only on
    /// ties.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Violation> {
        let mut out: Vec<Violation> = self.live().map(|a| self.render(&a)).collect();
        out.sort_by(|a, b| {
            a.row
                .cmp(&b.row)
                .then_with(|| a.dependency.cmp(&b.dependency))
                .then_with(|| canonical_key(a).cmp(&canonical_key(b)))
        });
        out
    }

    /// Number of currently live violations.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live.assertions.len()
    }

    /// Is the ledger empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live.assertions.is_empty()
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
    use crate::pfd::PatternTuple;
    use anmat_pattern::ConstrainedPattern;
    use anmat_table::ValuePool;

    fn zip_pfd(tableau: Vec<PatternTuple>) -> Pfd {
        Pfd::new("Zip", "zip", "city", tableau)
    }

    fn constant_signature() -> TupleSignature {
        let tuple = PatternTuple::constant(
            ConstrainedPattern::unconstrained("900\\D{2}".parse().unwrap()),
            "Los Angeles",
        );
        TupleSignature::of(&zip_pfd(vec![tuple.clone()]), &tuple)
    }

    fn variable_signature() -> TupleSignature {
        let tuple = PatternTuple::variable("[\\D{3}]\\D{2}".parse().unwrap());
        TupleSignature::of(&zip_pfd(vec![tuple.clone()]), &tuple)
    }

    /// A ledger with the constant (id 0) and variable (id 1) zip
    /// signatures registered.
    fn ledger() -> (ViolationLedger, SignatureId, SignatureId) {
        let mut ledger = ViolationLedger::new();
        let constant = ledger.signature(constant_signature());
        let variable = ledger.signature(variable_signature());
        (ledger, constant, variable)
    }

    fn id(s: &str) -> ValueId {
        ValuePool::intern(s)
    }

    fn constant(signature: SignatureId, row: RowId, expected: &str) -> Assertion {
        Assertion {
            signature,
            key: ValueId::NULL,
            expected: id(expected),
            row,
            lhs: id("90004"),
            found: id("New York"),
        }
    }

    fn variable(signature: SignatureId, row: RowId) -> Assertion {
        Assertion {
            signature,
            key: id("900"),
            expected: id("Los Angeles"),
            row,
            lhs: id("90004"),
            found: id("New York"),
        }
    }

    fn no_witnesses() -> Vec<RowId> {
        Vec::new()
    }

    #[test]
    fn create_and_retract_roundtrip() {
        let (mut ledger, c, _) = ledger();
        let a = constant(c, 3, "Los Angeles");
        let created = ledger.create(a, no_witnesses).expect("fresh violation");
        assert_eq!(created, LedgerEvent::Created(a));
        assert!(created.is_created());
        assert_eq!(ledger.live_count(), 1);
        let retracted = ledger.retract(&a).expect("was live");
        assert!(!retracted.is_created());
        assert_eq!(retracted.assertion(), created.assertion());
        assert!(ledger.is_empty());
        assert_eq!(ledger.created_total(), 1);
        assert_eq!(ledger.retracted_total(), 1);
    }

    #[test]
    fn equal_signatures_share_an_id() {
        let (mut ledger, c, v) = ledger();
        assert_ne!(c, v);
        assert_eq!(ledger.signature(constant_signature()), c);
        assert_eq!(ledger.signature(variable_signature()), v);
    }

    #[test]
    fn refcount_suppresses_duplicate_events() {
        let (mut ledger, c, _) = ledger();
        let a = constant(c, 3, "Los Angeles");
        assert!(ledger.create(a, no_witnesses).is_some());
        // A second rule making the identical assertion: no new event.
        assert!(ledger.create(a, no_witnesses).is_none());
        assert_eq!(ledger.live_count(), 1);
        // First retraction leaves it live; the second removes it.
        assert!(ledger.retract(&a).is_none());
        assert_eq!(ledger.live_count(), 1);
        assert!(ledger.retract(&a).is_some());
        assert!(ledger.is_empty());
    }

    #[test]
    fn retract_unknown_is_noop() {
        let (mut ledger, c, _) = ledger();
        assert!(ledger.retract(&constant(c, 9, "X")).is_none());
        assert_eq!(ledger.retracted_total(), 0);
    }

    #[test]
    fn double_retract_is_a_noop() {
        let (mut ledger, c, _) = ledger();
        let a = constant(c, 3, "Los Angeles");
        ledger.create(a, no_witnesses);
        assert!(ledger.retract(&a).is_some());
        // A second retraction of the same assertion must change nothing:
        // no event, no counter movement, no underflow.
        assert!(ledger.retract(&a).is_none());
        assert!(ledger.retract(&a).is_none());
        assert_eq!(ledger.retracted_total(), 1);
        assert_eq!(ledger.created_total(), 1);
        assert!(ledger.is_empty());
    }

    #[test]
    fn retract_then_recreate_yields_a_fresh_event() {
        let (mut ledger, c, _) = ledger();
        let a = constant(c, 3, "Los Angeles");
        assert!(ledger
            .create(a, no_witnesses)
            .is_some_and(|e| e.is_created()));
        ledger.retract(&a).unwrap();
        // Re-creating after a full retraction is a new lifecycle: a
        // fresh Created event, and both lifetime counters advance.
        assert!(ledger
            .create(a, no_witnesses)
            .is_some_and(|e| e.is_created()));
        assert_eq!(ledger.created_total(), 2);
        assert_eq!(ledger.retracted_total(), 1);
        assert_eq!(ledger.live_count(), 1);
    }

    #[test]
    fn render_builds_the_violation_batch_detection_reports() {
        let (mut ledger, c, v) = ledger();
        let event = ledger.create(variable(v, 4), || [0, 1, 2, 3, 5]).unwrap();
        ledger.create(constant(c, 4, "Los Angeles"), no_witnesses);
        let want = Violation {
            dependency: "zip → city".into(),
            lhs_attr: "zip".into(),
            rhs_attr: "city".into(),
            row: 4,
            lhs_value: "90004".into(),
            kind: ViolationKind::Variable {
                pattern: "[\\D{3}]\\D{2}".into(),
                key: "900".into(),
                majority: "Los Angeles".into(),
                found: Some("New York".into()),
                witnesses: vec![0, 1, 2, 3],
            },
            repair: Some(Repair {
                row: 4,
                attr: "city".into(),
                from: Some("New York".into()),
                to: "Los Angeles".into(),
            }),
        };
        assert_eq!(ledger.render(&variable(v, 4)), want);
        // The event describes as the identity: everything but the
        // witnesses.
        let mut identity = want.clone();
        if let ViolationKind::Variable { witnesses, .. } = &mut identity.kind {
            witnesses.clear();
        }
        assert_eq!(ledger.describe(event.assertion()), identity);
        let constant = ledger.render(&constant(c, 4, "Los Angeles"));
        assert!(matches!(
            constant.kind,
            ViolationKind::Constant { ref expected, .. } if expected == "Los Angeles"
        ));
        assert_eq!(constant.repair.unwrap().to, "Los Angeles");
    }

    #[test]
    fn witnesses_are_evidence_not_identity() {
        let (mut ledger, _, v) = ledger();
        ledger.create(variable(v, 4), || [0, 1]);
        // The first citing violation fixed the evidence; later ones reuse
        // it without calling their closure.
        ledger.create(variable(v, 6), || -> Vec<RowId> { unreachable!() });
        let (created, retracted) = (ledger.created_total(), ledger.retracted_total());
        // A witness leaves: the block's evidence moves, silently.
        let (key, majority) = (id("900"), id("Los Angeles"));
        ledger.refresh_witnesses(v, key, majority, || [1, 2]);
        let witnesses = |ledger: &ViolationLedger| {
            ledger
                .snapshot()
                .into_iter()
                .map(|v| match v.kind {
                    ViolationKind::Variable { witnesses, .. } => witnesses,
                    other => panic!("unexpected {other:?}"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(witnesses(&ledger), vec![vec![1, 2], vec![1, 2]]);
        assert_eq!(
            (ledger.created_total(), ledger.retracted_total()),
            (created, retracted)
        );
        // Once no violation cites the block, its evidence goes: a refresh
        // finds nothing to update, and the next violation supplies anew.
        ledger.retract(&variable(v, 4));
        ledger.retract(&variable(v, 6));
        ledger.refresh_witnesses(v, key, majority, || -> Vec<RowId> { unreachable!() });
        ledger.create(variable(v, 4), || [7]);
        assert_eq!(witnesses(&ledger), vec![vec![7]]);
    }

    #[test]
    fn snapshot_sorted_by_row_then_dependency() {
        let (mut ledger, c, _) = ledger();
        ledger.create(constant(c, 5, "A"), no_witnesses);
        ledger.create(constant(c, 1, "B"), no_witnesses);
        ledger.create(constant(c, 1, "A"), no_witnesses);
        let rows: Vec<usize> = ledger.snapshot().iter().map(|v| v.row).collect();
        assert_eq!(rows, vec![1, 1, 5]);
    }

    #[test]
    fn snapshot_breaks_row_and_dependency_ties_by_json_text() {
        // One row, one dependency: a variable violation and two constant
        // ones whose expected values order one way as ids (interned
        // first, `zeta…` is smaller) and the other way as JSON text.
        let zeta = "zeta-snapshot-tie";
        let alpha = "alpha-snapshot-tie";
        id(zeta);
        id(alpha);
        let (mut ledger, c, v) = ledger();
        let (z, a, var) = (constant(c, 4, zeta), constant(c, 4, alpha), variable(v, 4));
        for assertion in [var, z, a] {
            ledger.create(assertion, || [1]);
        }
        let snapshot = ledger.snapshot();
        let rendered = [a, z, var].map(|x| ledger.render(&x));
        assert_eq!(snapshot, rendered);
        // `live()` follows the derived order instead.
        assert_eq!(ledger.live().collect::<Vec<_>>(), vec![z, a, var]);
    }

    #[test]
    fn distinct_violations_tracked_separately() {
        let (mut ledger, c, _) = ledger();
        ledger.create(constant(c, 3, "Los Angeles"), no_witnesses);
        ledger.create(constant(c, 3, "San Diego"), no_witnesses);
        assert_eq!(ledger.live_count(), 2);
    }

    /// A remap built from a real table compaction: slots 0 and 2 die, so
    /// survivors 1, 3, 4 become 0, 1, 2.
    fn sample_remap() -> RowIdRemap {
        use anmat_table::{Schema, Table, Value};
        let mut t = Table::empty(Schema::new(["a"]).unwrap());
        for i in 0..5 {
            t.push_row(vec![Value::text(format!("r{i}"))]).unwrap();
        }
        t.delete_row(0).unwrap();
        t.delete_row(2).unwrap();
        t.compact()
    }

    #[test]
    fn remap_rewrites_live_rows_witnesses_and_repairs() {
        let (mut ledger, c, v) = ledger();
        ledger.create(variable(v, 4), || [1, 3]);
        ledger.create(constant(c, 3, "Los Angeles"), no_witnesses);
        ledger.remap(&sample_remap());
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
    fn remap_preserves_refcounts() {
        let (mut ledger, c, _) = ledger();
        let a = constant(c, 3, "Los Angeles");
        ledger.create(a, no_witnesses);
        ledger.create(a, no_witnesses); // second implier: refcount 2
        ledger.remap(&sample_remap());
        // Retracting once keeps it live (refcount survived the remap) …
        let moved = constant(c, 1, "Los Angeles");
        assert!(ledger.retract(&moved).is_none());
        assert_eq!(ledger.live_count(), 1);
        // … and the final retraction names the new row.
        let ev = ledger.retract(&moved).expect("last refcount");
        assert_eq!(ev, LedgerEvent::Retracted(moved));
        assert!(ledger.is_empty());
    }

    #[test]
    fn freeze_is_isolated_from_later_mutation() {
        let (mut ledger, c, v) = ledger();
        ledger.create(constant(c, 1, "A"), no_witnesses);
        ledger.create(variable(v, 4), || [1]);
        let snap = ledger.freeze();
        let frozen = snap.snapshot();
        assert_eq!(snap.live_count(), 2);
        // Mutate the live ledger every way it can move: create, retract,
        // refresh, remap. The frozen view must not see any of it.
        ledger.create(constant(c, 3, "B"), no_witnesses);
        ledger.retract(&constant(c, 1, "A"));
        ledger.refresh_witnesses(v, id("900"), id("Los Angeles"), || [3]);
        ledger.remap(&sample_remap());
        assert_eq!(snap.snapshot(), frozen);
        assert_eq!(snap.created_total(), 2);
        assert_eq!(snap.retracted_total(), 0);
        // The live ledger moved on.
        assert_eq!(ledger.live_count(), 2);
        assert_eq!(ledger.snapshot()[0].row, 1, "old row 3 compacts to 1");
        assert_eq!(ledger.retracted_total(), 1);
    }
}
