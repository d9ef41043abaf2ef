//! Property tests for [`ViolationLedger`] retraction semantics: under
//! any interleaving of create/retract calls over a small assertion
//! universe, the lifetime counters stay monotone and consistent, double
//! retracts never fire events, and live violations are exactly those
//! with a positive reference count.
//!
//! A differential holds the ledger to a reference that keys each live
//! violation by the JSON text of its identity (the violation less its
//! witnesses) and each block's witnesses by the JSON text of the block:
//! random scripts of creates, retracts, witness refreshes, compaction
//! remaps and freezes must produce the same events (as the ledger
//! describes them), counters and snapshots from both.

use anmat_core::detect::{Repair, Violation, ViolationKind};
use anmat_core::{
    Assertion, LedgerSnapshot, PatternTuple, Pfd, SignatureId, TupleSignature, ViolationLedger,
};
use anmat_pattern::ConstrainedPattern;
use anmat_table::{RowId, RowIdRemap, Schema, Table, Value, ValueId, ValuePool};
use proptest::prelude::*;
use std::collections::BTreeMap;

const ZIP: &str = "900\\D{2}";
const PREFIX: &str = "[\\D{3}]\\D{2}";

fn constant_tuple() -> PatternTuple {
    PatternTuple::constant(
        ConstrainedPattern::unconstrained(ZIP.parse().unwrap()),
        "unused",
    )
}

fn variable_tuple() -> PatternTuple {
    PatternTuple::variable(PREFIX.parse().unwrap())
}

/// The three tuple signatures the tests use: constant and variable
/// `zip → city`, and constant `zip → state`.
struct Signatures {
    city: SignatureId,
    block: SignatureId,
    state: SignatureId,
}

fn register(ledger: &mut ViolationLedger) -> Signatures {
    let pfd = |rhs: &str, t: PatternTuple| Pfd::new("Zip", "zip", rhs, vec![t]);
    let of = |p: &Pfd| TupleSignature::of(p, &p.tableau[0]);
    Signatures {
        city: ledger.signature(of(&pfd("city", constant_tuple()))),
        block: ledger.signature(of(&pfd("city", variable_tuple()))),
        state: ledger.signature(of(&pfd("state", constant_tuple()))),
    }
}

fn id(s: &str) -> ValueId {
    ValuePool::intern(s)
}

/// One member of a universe: an assertion and, written out by hand, the
/// identity violation it stands for.
#[derive(Clone)]
struct Member {
    assertion: Assertion,
    identity: Violation,
}

fn constant_member(
    signature: SignatureId,
    rhs_attr: &str,
    row: RowId,
    lhs: &str,
    expected: &str,
) -> Member {
    Member {
        assertion: Assertion {
            signature,
            key: ValueId::NULL,
            expected: id(expected),
            row,
            lhs: id(lhs),
            found: id("New York"),
        },
        identity: Violation {
            dependency: format!("zip → {rhs_attr}"),
            lhs_attr: "zip".into(),
            rhs_attr: rhs_attr.into(),
            row,
            lhs_value: lhs.into(),
            kind: ViolationKind::Constant {
                pattern: ZIP.into(),
                expected: expected.into(),
                found: Some("New York".into()),
            },
            repair: Some(Repair {
                row,
                attr: rhs_attr.into(),
                from: Some("New York".into()),
                to: expected.into(),
            }),
        },
    }
}

fn variable_member(signature: SignatureId, row: RowId, key: &str, majority: &str) -> Member {
    Member {
        assertion: Assertion {
            signature,
            key: id(key),
            expected: id(majority),
            row,
            lhs: id("90004"),
            found: ValueId::NULL,
        },
        identity: Violation {
            dependency: "zip → city".into(),
            lhs_attr: "zip".into(),
            rhs_attr: "city".into(),
            row,
            lhs_value: "90004".into(),
            kind: ViolationKind::Variable {
                pattern: PREFIX.into(),
                key: key.into(),
                majority: majority.into(),
                found: None,
                witnesses: Vec::new(),
            },
            repair: Some(Repair {
                row,
                attr: "city".into(),
                from: None,
                to: majority.into(),
            }),
        },
    }
}

proptest! {
    /// `retracted_total` is monotone, never exceeds `created_total`, and
    /// `live = created − retracted` holds at every step of any
    /// create/retract interleaving (retracts of never-created or
    /// already-dead assertions included).
    #[test]
    fn counters_stay_consistent_under_any_interleaving(
        script in prop::collection::vec((0usize..4, 0u8..3, any::<bool>()), 0..120)
    ) {
        let mut ledger = ViolationLedger::new();
        let signatures = register(&mut ledger);
        // Shadow refcounts to predict event emission exactly.
        let mut refs = std::collections::HashMap::<(usize, u8), usize>::new();
        let mut last_retracted = 0usize;
        for (row, expected, is_create) in script {
            let a = constant_member(signatures.city, "city", row, "90004", &format!("city-{expected}"))
                .assertion;
            let key = (row, expected);
            if is_create {
                let emitted = ledger.create(a, Vec::new).is_some();
                let r = refs.entry(key).or_insert(0);
                *r += 1;
                prop_assert_eq!(emitted, *r == 1, "Created fires only on 0→1");
            } else {
                let emitted = ledger.retract(&a).is_some();
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
        let signatures = register(&mut ledger);
        let a = constant_member(signatures.city, "city", 1, "90004", "city-0").assertion;
        ledger.create(a, Vec::new);
        assert!(ledger.retract(&a).is_some());
        for _ in 0..extra_retracts {
            prop_assert!(ledger.retract(&a).is_none());
        }
        prop_assert_eq!(ledger.retracted_total(), 1);
        let ev = ledger.create(a, Vec::new);
        prop_assert!(ev.is_some_and(|e| e.is_created()), "recreate is a fresh event");
        prop_assert_eq!(ledger.created_total(), 2);
        prop_assert_eq!(ledger.live_count(), 1);
    }
}

/// The JSON text of a value: the reference ledger's keys.
fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

/// The block a variable violation cites, as the reference keys it.
fn block_of(v: &Violation) -> Option<String> {
    match &v.kind {
        ViolationKind::Variable {
            pattern,
            key,
            majority,
            ..
        } => Some(json(&(&v.dependency, pattern, key, majority))),
        ViolationKind::Constant { .. } => None,
    }
}

/// The first four of `rows`: a block's witnesses.
fn first_four(rows: &[RowId]) -> Vec<RowId> {
    rows.iter().copied().take(4).collect()
}

/// The ledger keyed by the JSON text of each violation's identity, with
/// each block's witnesses keyed by the JSON text of the block: the
/// reference model for the differential.
#[derive(Debug, Default)]
struct JsonLedger {
    /// Identity JSON → (refcount, assertion, identity).
    live: BTreeMap<String, (usize, Assertion, Violation)>,
    /// Block JSON → (citing live violations, witnesses).
    evidence: BTreeMap<String, (usize, Vec<RowId>)>,
    created_total: usize,
    retracted_total: usize,
}

/// An event as the reference emits it: whether it is a creation, and the
/// identity it names.
type Event = (bool, Violation);

impl JsonLedger {
    fn create(&mut self, m: &Member, witnesses: &[RowId]) -> Option<Event> {
        let entry = self
            .live
            .entry(json(&m.identity))
            .or_insert_with(|| (0, m.assertion, m.identity.clone()));
        entry.0 += 1;
        if entry.0 > 1 {
            return None;
        }
        if let Some(block) = block_of(&m.identity) {
            let cited = self
                .evidence
                .entry(block)
                .or_insert_with(|| (0, first_four(witnesses)));
            cited.0 += 1;
        }
        self.created_total += 1;
        Some((true, m.identity.clone()))
    }

    fn retract(&mut self, m: &Member) -> Option<Event> {
        let key = json(&m.identity);
        let entry = self.live.get_mut(&key)?;
        entry.0 -= 1;
        if entry.0 > 0 {
            return None;
        }
        let (_, _, v) = self.live.remove(&key).expect("entry exists");
        if let Some(block) = block_of(&v) {
            let cited = self.evidence.get_mut(&block).expect("cited block");
            cited.0 -= 1;
            if cited.0 == 0 {
                self.evidence.remove(&block);
            }
        }
        self.retracted_total += 1;
        Some((false, v))
    }

    fn refresh(&mut self, block: &Violation, witnesses: &[RowId]) {
        let key = block_of(block).expect("a variable violation");
        if let Some((_, rows)) = self.evidence.get_mut(&key) {
            *rows = first_four(witnesses);
        }
    }

    fn remap(&mut self, remap: &RowIdRemap) {
        for (_, (refcount, mut a, mut v)) in std::mem::take(&mut self.live) {
            a.row = remap.live_id(a.row);
            v.row = a.row;
            if let Some(repair) = &mut v.repair {
                repair.row = a.row;
            }
            self.live.insert(json(&v), (refcount, a, v));
        }
        for (_, rows) in self.evidence.values_mut() {
            remap.remap_sorted_in_place(rows);
        }
    }

    fn snapshot(&self) -> Vec<Violation> {
        let mut out: Vec<Violation> = self
            .live
            .values()
            .map(|(_, _, v)| {
                let mut v = v.clone();
                let rows = block_of(&v).map(|block| self.evidence[&block].1.clone());
                if let ViolationKind::Variable { witnesses, .. } = &mut v.kind {
                    *witnesses = rows.expect("a variable violation cites a block");
                }
                v
            })
            .collect();
        out.sort_by(|a, b| {
            a.row
                .cmp(&b.row)
                .then_with(|| a.dependency.cmp(&b.dependency))
                .then_with(|| json(a).cmp(&json(b)))
        });
        out
    }

    /// The live assertions, in their derived order.
    fn live(&self) -> Vec<Assertion> {
        let mut out: Vec<Assertion> = self.live.values().map(|(_, a, _)| *a).collect();
        out.sort();
        out
    }
}

/// The differential's universe over seven ascending anchor rows. It
/// holds a constant and a variable violation on the same row and
/// dependency (0 and 2), the same row in two blocks of one key (2 and 3,
/// majorities Los Angeles and Pasadena), expected values whose id order
/// differs from their text order (0 and 1: `San Diego` is interned
/// first), lhs values `9000` and `9000!` (6 and 7), and a last entry the
/// scripts retract but never create.
fn universe(s: &Signatures, a: &[RowId; 7]) -> Vec<Member> {
    vec![
        constant_member(s.city, "city", a[2], "90004", "Los Angeles"),
        constant_member(s.city, "city", a[2], "90004", "San Diego"),
        variable_member(s.block, a[2], "900", "Los Angeles"),
        variable_member(s.block, a[2], "900", "Pasadena"),
        variable_member(s.block, a[5], "900", "Los Angeles"),
        constant_member(s.state, "state", a[3], "90004", "CA"),
        constant_member(s.city, "city", a[4], "9000", "Los Angeles"),
        constant_member(s.city, "city", a[4], "9000!", "Los Angeles"),
        variable_member(s.block, a[6], "901", "Los Angeles"),
    ]
}

/// Violations a script may create: every one but the last.
const CREATABLE: usize = 8;

/// What a frozen view saw when it was captured.
struct Frozen {
    view: LedgerSnapshot,
    snapshot: Vec<Violation>,
    counts: (usize, usize, usize),
}

fn counts(ledger: &ViolationLedger) -> (usize, usize, usize) {
    (
        ledger.live_count(),
        ledger.created_total(),
        ledger.retracted_total(),
    )
}

proptest! {
    /// Every step of a random script of creates, retracts, witness
    /// refreshes, compaction remaps (from a real `Table::compact`) and
    /// freezes yields the same event, counters and `snapshot()` from the
    /// ledger as from the JSON-keyed reference; `live()` is the same set
    /// in derived order; and every frozen view still shows what it
    /// captured.
    #[test]
    fn ledger_matches_json_keyed_reference(
        script in prop::collection::vec((0u8..12, 0usize..9, any::<u16>()), 0..160)
    ) {
        // `San Diego` before `Los Angeles`: ids and text order disagree.
        id("San Diego");
        id("Los Angeles");
        // Anchors sit among filler rows that compactions delete, so a
        // remap moves them down, across 10 to 9 and below.
        let mut anchors: [RowId; 7] = [1, 3, 4, 9, 10, 13, 15];
        let mut table = Table::empty(Schema::new(["slot"]).expect("schema"));
        for i in 0..16 {
            table.push_row(vec![Value::text(format!("s{i}"))]).expect("arity");
        }
        let mut ledger = ViolationLedger::new();
        let signatures = register(&mut ledger);
        let mut reference = JsonLedger::default();
        let mut frozen: Vec<Frozen> = Vec::new();
        for (op, pick, mask) in script {
            let pool = universe(&signatures, &anchors);
            // Witnesses: the anchors `mask` picks, ascending.
            let witnesses: Vec<RowId> = anchors
                .iter()
                .enumerate()
                .filter(|(bit, _)| (mask >> bit) & 1 == 1)
                .map(|(_, &row)| row)
                .collect();
            let (got, want) = match op {
                0..=3 => {
                    let m = &pool[pick % CREATABLE];
                    let rows = witnesses.clone();
                    (ledger.create(m.assertion, || rows), reference.create(m, &witnesses))
                }
                4..=7 => (ledger.retract(&pool[pick].assertion), reference.retract(&pool[pick])),
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
                9 | 10 => {
                    // Refresh one of the three blocks' witnesses.
                    let m = &pool[[2, 3, 8][pick % 3]];
                    let a = m.assertion;
                    let rows = witnesses.clone();
                    ledger.refresh_witnesses(a.signature, a.key, a.expected, || rows);
                    reference.refresh(&m.identity, &witnesses);
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
            let got = got.map(|e| (e.is_created(), ledger.describe(e.assertion())));
            prop_assert_eq!(got, want);
            prop_assert_eq!(
                counts(&ledger),
                (
                    reference.live.len(),
                    reference.created_total,
                    reference.retracted_total,
                )
            );
            prop_assert_eq!(ledger.snapshot(), reference.snapshot());
            prop_assert_eq!(ledger.live().collect::<Vec<_>>(), reference.live());
            for f in &frozen {
                prop_assert_eq!(counts(&f.view), f.counts);
                prop_assert_eq!(f.view.snapshot(), f.snapshot.clone());
            }
        }
    }
}
