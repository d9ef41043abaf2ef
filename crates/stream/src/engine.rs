//! The incremental violation engine.
//!
//! Ingest is *interned end-to-end*: [`StreamEngine::apply`] takes
//! [`Op`]s whose cells are already interned `ValueId`s (the op-log
//! reader and the CSV reader intern each cell once; a [`RowOp`] is
//! interned as the batch is collected), after which every per-rule
//! check operates on `Copy` ids — agreement checks are id comparisons
//! and pattern matching is memoized per distinct value, so per-row
//! marginal cost depends on the column's *distinct-value* profile, not
//! its row count.
//!
//! Per-rule state mirrors the batch detector's dispatch, and what it
//! asserts goes into the [`ViolationLedger`] as [`Assertion`]s — ids,
//! never strings:
//!
//! * the **constant** tableau tuples share one [`TableauMemo`] per
//!   rule, which maps each distinct LHS value to the tuples it matches
//!   (usually none or one) and fills an entry on first sighting by
//!   evaluating only the tuples whose literal prefix the value starts
//!   with; each tuple keeps its expected RHS as an interned id, and a
//!   matched row violates it when its RHS id differs;
//! * each **variable** tableau tuple keeps an incremental
//!   [`BlockingPartition`] keyed by the constrained captures, which it
//!   derives through its own [`KeyMemo`] (so capture extraction runs at
//!   most once per distinct LHS value). A block holds its row ids, a
//!   tally of their RHS values and the majority of that tally; the RHS
//!   cells stay in the table. A row's own RHS is read from its cell as
//!   it arrives and, before the slot is tombstoned or overwritten, as it
//!   leaves; other rows' RHS cells are read only by a majority flip's
//!   re-derivation and by the witness scan. A block asserts exactly its
//!   rows whose RHS differs from the majority, so a new row joins one
//!   block and moves one assertion — its own — unless it flips the
//!   majority, when the block is re-derived in `O(block)`. A majority row
//!   coming or going moves no assertion, only, if a live violation cites
//!   the block, its witnesses, which the ledger keeps once per block as
//!   evidence.
//!
//! No op costs `O(table)`, and no op visits a constant tuple its row
//! does not match. A batch is validated in `O(batch)` (`validate_ops`).
//! Per op, a rule's constant tuples cost one memo probe plus the tuples
//! matched, and a new distinct LHS value one pattern evaluation per
//! candidate tuple; a variable tuple places or withdraws the row in
//! `O(1)` for an append and `O(log block + run cap)` otherwise (blocks
//! keep their rows as short ascending runs), plus a majority flip's
//! `O(block)`.
//!
//! The engine holds one `RuleState` per rule and runs every op phase
//! (the removal before a delete or update, the insert after an insert or
//! update) rule by rule in index order on the calling thread. Each rule
//! writes its creations and retractions straight into the one ledger, in
//! tableau order, and each tuple tallies its own for the drift monitor.

use crate::drift::{DriftMonitor, DriftReport, TupleHealth};
use anmat_core::discovery::DiscoveryConfig;
use anmat_core::{
    Assertion, LedgerEvent, LedgerSnapshot, LhsCell, Pfd, RhsCell, SignatureId, TupleSignature,
    ViolationLedger,
};
use anmat_index::{BlockingPartition, KeyBlock, KeyMemo, TableauMemo};
use anmat_obs as obs;
use anmat_pattern::CompiledConstrained;
use anmat_table::{
    Op, ReclaimStats, RowId, RowIdRemap, RowOp, Schema, Table, TableError, TableSnapshot, ValueId,
    ValuePool,
};
use fxhash::FxHashSet;
use std::sync::Arc;

/// Engine thresholds: the drift monitor's discovery-style knobs, the
/// compaction trigger, and string reclamation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Rows a tableau tuple must match before its drift is judged.
    pub min_support: usize,
    /// Allowed violation ratio before a tuple counts as drifted (mirrors
    /// `DiscoveryConfig::max_violation_ratio`).
    pub max_violation_ratio: f64,
    /// Read by nothing: the engine runs every rule on the calling
    /// thread. Kept, with [`StreamConfig::shard_by`] and
    /// [`StreamConfig::run_ahead`], only because the benchmark harness
    /// (`perfbench/harness/src/measure.rs`) sets it; the next change to
    /// the benchmark drops all three.
    pub shards: usize,
    /// Tombstone ratio (`dead slots / total slots`) above which the
    /// engine compacts automatically at the end of an
    /// [`StreamEngine::apply`] batch (never mid-batch: a batch is
    /// validated against one id space). `<= 0.0` (the default) disables
    /// auto-compaction;
    /// [`StreamEngine::compact`] stays available manually either way.
    pub compact_ratio: f64,
    /// Read by nothing, like [`StreamConfig::shards`], and kept for the
    /// same reason.
    pub shard_by: ShardBy,
    /// Read by nothing, like [`StreamConfig::shards`], and kept for the
    /// same reason.
    pub run_ahead: usize,
    /// Tie string reclamation to the compaction epochs: the engine
    /// records the cell ids each delete or update displaces and, at the
    /// end of every compaction barrier, frees those that no live cell
    /// and no rule state (constant RHS, block key) still holds. `false`
    /// (the default) keeps the classic append-only pool behaviour —
    /// nothing is ever freed. Reclamation is deferred (never skipped)
    /// while an [`EngineSnapshot`] is alive, since snapshots resolve ids
    /// against the shared pool.
    pub reclaim: bool,
}

/// The type of [`StreamConfig::shard_by`], which nothing reads. Kept only
/// because the benchmark harness (`perfbench/harness/src/measure.rs`)
/// names it; the next change to the benchmark drops both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardBy {
    /// The one value.
    #[default]
    Key,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            min_support: 8,
            max_violation_ratio: 0.3,
            shards: 1,
            compact_ratio: 0.0,
            shard_by: ShardBy::Key,
            run_ahead: 0,
            reclaim: false,
        }
    }
}

impl StreamConfig {
    /// Adopt the thresholds the rules were discovered with.
    #[must_use]
    pub fn from_discovery(config: &DiscoveryConfig) -> StreamConfig {
        StreamConfig {
            min_support: config.min_support,
            max_violation_ratio: config.max_violation_ratio,
            ..StreamConfig::default()
        }
    }
}

/// Lifetime compaction counters — what the CLI summary reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Compaction epochs run (manual and automatic).
    pub epochs: usize,
    /// Tombstoned slots reclaimed across all epochs.
    pub reclaimed_slots: usize,
}

/// The events of one batch, as [`StreamEngine::submit`] returns them.
/// Kept, with `submit` and [`StreamEngine::flush`], only because the
/// benchmark harness (`perfbench/harness/src/measure.rs`) still calls
/// them; the next change to the benchmark (ROADMAP item 5) drops all
/// three.
#[derive(Debug)]
pub struct BatchEvents {
    /// The batch's violation events, in rule/tableau order.
    pub events: Vec<LedgerEvent>,
}

/// Where one tuple's row phase writes: each creation and retraction goes
/// straight into the engine's ledger (which refcounts across rules, so
/// only liveness changes come back as events), while the tuple's own
/// assertion counts accumulate for its drift health.
struct Sink<'a> {
    ledger: &'a mut ViolationLedger,
    events: &'a mut Vec<LedgerEvent>,
    created: usize,
    retracted: usize,
}

impl<'a> Sink<'a> {
    fn new(ledger: &'a mut ViolationLedger, events: &'a mut Vec<LedgerEvent>) -> Sink<'a> {
        Sink {
            ledger,
            events,
            created: 0,
            retracted: 0,
        }
    }

    /// Assert `a`; `witnesses` yields its block's majority rows, in case
    /// `a` is the first live violation to cite the block.
    fn create<I>(&mut self, a: Assertion, witnesses: impl FnOnce() -> I)
    where
        I: IntoIterator<Item = RowId>,
    {
        self.created += 1;
        self.events.extend(self.ledger.create(a, witnesses));
    }

    fn retract(&mut self, a: &Assertion) {
        self.retracted += 1;
        self.events.extend(self.ledger.retract(a));
    }

    /// Close the phase: the row matched the tuple, so it counts in the
    /// tuple's health together with what the phase asserted.
    fn finish(self, health: &mut TupleHealth, removal: bool) {
        health.record(removal, self.created, self.retracted);
    }
}

/// Validate a whole op batch against `table`'s live set as the batch
/// itself evolves it (arity of every insert/update, liveness of every
/// addressed row *at its point in the sequence*) before any op executes
/// — the engine's atomicity guarantee: a malformed op-log leaves it
/// untouched.
///
/// `O(batch)`: only the batch's own effect is tracked (how many slots it
/// appended, which slots it deleted); every other slot answers from
/// [`Table::is_live`].
fn validate_ops(table: &Table, ops: &[Op]) -> Result<(), TableError> {
    let arity = table.schema().arity();
    let check_arity = |row: RowId, cells: &[ValueId]| {
        if cells.len() == arity {
            Ok(())
        } else {
            Err(TableError::ArityMismatch {
                row,
                found: cells.len(),
                expected: arity,
            })
        }
    };
    // The batch's own effect so far: it appended slots `base..next_slot`
    // and deleted the slots in `deleted`. Every other slot answers from
    // the table.
    let base = table.row_count();
    let mut next_slot = base;
    let mut deleted: FxHashSet<RowId> = FxHashSet::default();
    let require_live = |next_slot: usize, deleted: &FxHashSet<RowId>, row: RowId| {
        let live = if row < base {
            table.is_live(row)
        } else {
            row < next_slot
        };
        if live && !deleted.contains(&row) {
            Ok(())
        } else {
            Err(TableError::NoSuchRow { row })
        }
    };
    for op in ops {
        match op {
            Op::Insert(cells) => {
                check_arity(next_slot, cells)?;
                next_slot += 1;
            }
            &Op::Delete(row) => {
                require_live(next_slot, &deleted, row)?;
                deleted.insert(row);
            }
            Op::Update(row, cells) => {
                check_arity(*row, cells)?;
                require_live(next_slot, &deleted, *row)?;
            }
        }
    }
    Ok(())
}

/// One constant tableau tuple: what a matched row is checked against.
/// Which rows match is the rule's [`TableauMemo`]'s answer, so the tuple
/// holds no pattern state of its own.
#[derive(Debug)]
struct ConstantTuple {
    /// Tableau index (orders it among the rule's variable tuples).
    tuple: usize,
    /// What its violations share, as the ledger names it.
    signature: SignatureId,
    /// The expected RHS constant, interned (agreement checks are id
    /// comparisons).
    expected: ValueId,
}

impl ConstantTuple {
    /// One row whose (non-null) LHS matched this tuple: a RHS other than
    /// the expected constant is a violation, created on arrival and
    /// retracted on removal. Drift counts this tuple's own assertion even
    /// when another rule already made it (the ledger refcounts those).
    fn process(&self, row: RowId, lhs: ValueId, rhs: ValueId, removal: bool, sink: &mut Sink) {
        if rhs == self.expected {
            return;
        }
        let a = Assertion {
            signature: self.signature,
            key: ValueId::NULL,
            expected: self.expected,
            row,
            lhs,
            found: rhs,
        };
        if removal {
            sink.retract(&a);
        } else {
            sink.create(a, Vec::new);
        }
    }
}

/// Incremental state for one variable tableau tuple.
///
/// Invariant: each block asserts exactly its rows whose RHS differs from
/// the block's majority (null RHS rows included), which is what batch
/// detection's `flag_block_minority` flags; an all-null block has no
/// majority and asserts nothing. The blocks keep only row ids and their
/// RHS tally, so a member's RHS is read from the table.
#[derive(Debug)]
struct VariableTuple {
    /// Tableau index (orders it among the rule's constant tuples).
    tuple: usize,
    /// What its violations share, as the ledger names it.
    signature: SignatureId,
    /// Each distinct LHS value's blocking key, derived once.
    keys: KeyMemo,
    /// Blocks keyed by constrained capture (whole value for wildcard
    /// LHS), as `keys` derived them.
    partition: BlockingPartition,
}

impl VariableTuple {
    /// `row` (LHS `lhs`, RHS `rhs`) joins `key`'s block, or with
    /// `removal` leaves it: move it, and bring the block's assertions up
    /// to date. Arrivals and departures are symmetric:
    ///
    /// 1. **majority flip** (the first non-null RHS, a new leader, a
    ///    drained block): every assertion names the majority, so the
    ///    block is re-derived: the old majority's assertions retracted,
    ///    the new one's created (`O(block)`, rare after warm-up);
    /// 2. **minority row**: exactly its own violation is created or
    ///    retracted (`O(log live)` — the hot path);
    /// 3. **majority row**: no assertion moves; if a live violation
    ///    cites the block, its witnesses are refreshed.
    ///
    /// A departing row is still in the table, so every member's cells,
    /// its own included, are read there.
    #[allow(clippy::too_many_arguments)]
    fn transition(
        &mut self,
        table: &Table,
        (lhs_col, rhs_col): (usize, usize),
        key: ValueId,
        row: RowId,
        lhs: ValueId,
        rhs: ValueId,
        removal: bool,
        sink: &mut Sink,
    ) {
        let old = self.partition.block(key).and_then(KeyBlock::majority_id);
        if removal {
            self.partition.remove(row, key, rhs);
        } else {
            self.partition.insert(row, key, rhs);
        }
        let block = self.partition.block(key);
        let majority = block.and_then(KeyBlock::majority_id);
        let rows = block.into_iter().flat_map(KeyBlock::rows);
        let rhs_of = |r: RowId| table.cell_id(r, rhs_col);
        // The block's rows holding `m`, in row order: its witnesses are the
        // first `MAX_WITNESSES`.
        let majority_rows = |m: ValueId| rows.clone().filter(move |&r| rhs_of(r) == m);
        let assertion = |row, lhs, found, expected| Assertion {
            signature: self.signature,
            key,
            expected,
            row,
            lhs,
            found,
        };
        if majority != old {
            // Retract what the old majority asserted over the block as it
            // was before this op, in row order …
            if let Some(old) = old {
                let members = (rows.clone().take_while(|&r| r < row))
                    .chain(removal.then_some(row))
                    .chain(rows.clone().skip_while(|&r| r <= row));
                for r in members {
                    let found = rhs_of(r);
                    if found != old {
                        sink.retract(&assertion(r, table.cell_id(r, lhs_col), found, old));
                    }
                }
            }
            // … and assert what the new one does.
            if let Some(new) = majority {
                for r in rows.clone() {
                    let found = rhs_of(r);
                    if found != new {
                        let a = assertion(r, table.cell_id(r, lhs_col), found, new);
                        sink.create(a, || majority_rows(new));
                    }
                }
            }
            return;
        }
        let Some(majority) = majority else {
            return; // an all-null block asserts nothing
        };
        if rhs != majority {
            let a = assertion(row, lhs, rhs, majority);
            if removal {
                sink.retract(&a);
            } else {
                sink.create(a, || majority_rows(majority));
            }
        } else {
            sink.ledger
                .refresh_witnesses(self.signature, key, majority, || majority_rows(majority));
        }
    }
}

/// One seeded rule with its resolved columns and per-tuple state.
///
/// Rule state holds no ledger: [`RuleState::process`] reads the table and
/// writes into the engine's ledger, and keeps each tuple's drift health.
#[derive(Debug)]
struct RuleState {
    pfd: Pfd,
    /// `(lhs, rhs)` column indexes; `None` if the schema lacks either
    /// attribute (the rule is inert, exactly like batch detection).
    cols: Option<(usize, usize)>,
    /// Which constant tuples each distinct LHS value matches; member `m`
    /// is `constants[m]`.
    memo: TableauMemo,
    /// The constant tuples, in tableau order.
    constants: Vec<ConstantTuple>,
    /// The variable tuples, in tableau order.
    variables: Vec<VariableTuple>,
    /// Each tableau tuple's drift health, in tableau order.
    health: Vec<TupleHealth>,
}

impl RuleState {
    /// Seed a rule over the columns it names in `schema`, registering
    /// each tuple's signature with `ledger` and compiling each constant
    /// tuple's LHS pattern once into the rule's [`TableauMemo`] and each
    /// variable tuple's keyer once into its [`KeyMemo`].
    fn seed(pfd: Pfd, schema: &Schema, ledger: &mut ViolationLedger) -> RuleState {
        let cols = match (
            schema.index_of(&pfd.lhs_attr),
            schema.index_of(&pfd.rhs_attr),
        ) {
            (Some(lhs), Some(rhs)) => Some((lhs, rhs)),
            _ => None,
        };
        let mut constants = Vec::new();
        let mut variables = Vec::new();
        for (tuple, t) in pfd.tableau.iter().enumerate() {
            let signature = ledger.signature(TupleSignature::of(&pfd, t));
            match &t.rhs {
                RhsCell::Constant(expected) => constants.push(ConstantTuple {
                    tuple,
                    signature,
                    expected: ValuePool::intern(expected),
                }),
                RhsCell::Wildcard => variables.push(VariableTuple {
                    tuple,
                    signature,
                    keys: KeyMemo::new(match &t.lhs {
                        LhsCell::Pattern(q) => Some(Arc::new(CompiledConstrained::compile(q))),
                        LhsCell::Wildcard => None,
                    }),
                    partition: BlockingPartition::default(),
                }),
            }
        }
        let memo = TableauMemo::new(pfd.tableau.iter().filter_map(|t| match (&t.rhs, &t.lhs) {
            (RhsCell::Constant(_), LhsCell::Pattern(q)) => Some(Some(q.embedded())),
            (RhsCell::Constant(_), LhsCell::Wildcard) => Some(None),
            (RhsCell::Wildcard, _) => None,
        }));
        RuleState {
            health: vec![TupleHealth::default(); pfd.tableau.len()],
            pfd,
            cols,
            memo,
            constants,
            variables,
        }
    }

    /// Batch-classify: fill every variable tuple's key memo, then the
    /// rule's tableau memo, for the LHS cells of a batch's insert/update
    /// rows in one pass each, before any per-row work runs. Each *new*
    /// distinct id costs exactly the evaluations the lazy path would have
    /// paid on first sighting, so [`RuleState::pattern_evals`] is
    /// invariant — priming is a locality optimization (the batch's
    /// evaluations run together, ahead of the per-row dispatch), never
    /// extra work.
    fn prime_batch(&mut self, ops: &[Op]) {
        let Some((lhs, _)) = self.cols else {
            return;
        };
        let lhs_ids = || {
            ops.iter().filter_map(|op| match op {
                Op::Insert(cells) | Op::Update(_, cells) => Some(cells[lhs]),
                Op::Delete(_) => None,
            })
        };
        for vt in &mut self.variables {
            vt.keys.prime(lhs_ids());
        }
        self.memo.prime(lhs_ids());
    }

    /// Incorporate one row's arrival or, with `removal`, its departure,
    /// writing the resulting creations and retractions into `ledger` (and
    /// their events into `events`) in tableau order, and tallying each
    /// tuple the row matches in its health. A removal must run *before*
    /// the table slot is tombstoned (or overwritten), so the row's pre-op
    /// cells are the ones read. Inert rules (missing columns) emit
    /// nothing.
    ///
    /// Constant tuples cost one memo probe for the whole rule: only the
    /// tuples the row's LHS matches are visited, merged with the
    /// variable tuples in tableau order. A variable tuple whose key memo
    /// finds no key (null or non-matching LHS) forms no block and is
    /// skipped.
    fn process(
        &mut self,
        table: &Table,
        row: RowId,
        removal: bool,
        ledger: &mut ViolationLedger,
        events: &mut Vec<LedgerEvent>,
    ) {
        let Some(cols @ (lhs_col, rhs_col)) = self.cols else {
            return;
        };
        let RuleState {
            memo,
            constants,
            variables,
            health,
            ..
        } = self;
        let lhs = table.cell_id(row, lhs_col);
        let rhs = table.cell_id(row, rhs_col);
        let mut matched = memo
            .matches(lhs)
            .iter()
            .map(|&member| &constants[member as usize])
            .peekable();
        let constant = |ct: &ConstantTuple,
                        ledger: &mut ViolationLedger,
                        events: &mut Vec<LedgerEvent>,
                        health: &mut [TupleHealth]| {
            let mut sink = Sink::new(ledger, events);
            ct.process(row, lhs, rhs, removal, &mut sink);
            sink.finish(&mut health[ct.tuple], removal);
        };
        for vt in variables.iter_mut() {
            while let Some(ct) = matched.next_if(|ct| ct.tuple < vt.tuple) {
                constant(ct, ledger, events, health);
            }
            let Some(key) = vt.keys.key(lhs) else {
                continue;
            };
            let mut sink = Sink::new(ledger, events);
            vt.transition(table, cols, key, row, lhs, rhs, removal, &mut sink);
            sink.finish(&mut health[vt.tuple], removal);
        }
        for ct in matched {
            constant(ct, ledger, events, health);
        }
    }

    /// Apply a compaction [`RowIdRemap`] to this rule's incremental
    /// state — the rule's side of the remap protocol.
    ///
    /// Only the variable tuples' partitions hold row ids: their row
    /// lists are rewritten in place. Nothing is re-derived and no
    /// pattern or capture evaluation runs, so
    /// [`RuleState::pattern_evals`] is invariant under remap — the
    /// protocol's cheapness guarantee, pinned by tests.
    fn apply_remap(&mut self, remap: &RowIdRemap) {
        for vt in &mut self.variables {
            vt.partition.apply_remap(remap);
        }
    }

    /// Collect every [`ValueId`] this rule's incremental state holds
    /// *beyond* the table's live cells — ids that must survive a pool
    /// sweep even when no live cell references them:
    ///
    /// * constant tuples' interned `expected` RHS (rule metadata — it
    ///   may never appear in the data at all, or only in since-deleted
    ///   rows);
    /// * variable tuples' block keys (derived captures: `"90001" →
    ///   "900"` interns a string no cell holds) and block majorities
    ///   (each held by a live row of its block, listed belt-and-braces
    ///   so the invariant doesn't depend on it).
    ///
    /// Together with the live cells these are every id a live assertion
    /// in the ledger names, so the ledger always renders.
    ///
    /// Memoized entries for values that since left (the tableau memo's,
    /// the key memos') are deliberately not protected — they are caches,
    /// purged instead ([`RuleState::purge_values`]).
    fn collect_protected(&self, out: &mut FxHashSet<ValueId>) {
        for ct in &self.constants {
            out.insert(ct.expected);
        }
        for (key, block) in self.variables.iter().flat_map(|vt| vt.partition.blocks()) {
            out.insert(key);
            out.extend(block.majority_id());
        }
    }

    /// Drop every tableau-memo and key-memo entry keyed on (or caching)
    /// an id in `dead`, ahead of the pool recycling those ids for
    /// different strings (see [`TableauMemo::purge`] and
    /// [`KeyMemo::purge`] for why a stale entry would otherwise answer
    /// for the wrong value). Counters stay put — a purge performs no
    /// pattern work.
    fn purge_values(&mut self, dead: &FxHashSet<ValueId>) {
        let is_dead = |id: ValueId| dead.contains(&id);
        self.memo.purge(is_dead);
        for vt in &mut self.variables {
            vt.keys.purge(is_dead);
        }
    }

    /// Pattern evaluations this rule performed: its tableau memo's
    /// candidate matches plus its key memos' capture extractions.
    fn pattern_evals(&self) -> usize {
        self.memo.evals()
            + self
                .variables
                .iter()
                .map(|vt| vt.keys.evals())
                .sum::<usize>()
    }

    /// Memo consultations (hits + misses): one per row phase with a
    /// non-null LHS for the tableau memo (if the rule has constant
    /// tuples) and for each variable tuple's key memo — the denominator
    /// that turns [`RuleState::pattern_evals`] into the hit rate the
    /// observability layer reports.
    fn pattern_lookups(&self) -> usize {
        self.memo.lookups()
            + self
                .variables
                .iter()
                .map(|vt| vt.keys.lookups())
                .sum::<usize>()
    }

    /// Blocks this rule currently maintains.
    fn block_count(&self) -> usize {
        self.variables
            .iter()
            .map(|vt| vt.partition.block_count())
            .sum()
    }
}

/// A consistent copy-on-write view of a stream engine's observable
/// state, frozen at a batch boundary (see [`StreamEngine::snapshot`]).
///
/// The table view shares storage chunks with the live engine (copied
/// lazily, per chunk, on the engine's next write — never by the reader)
/// and the ledger view shares its live-violation map the same way, so
/// drift analysis, `detect_all` cross-checks, and serde checkpoints can
/// read a stable state while ingest continues on the live engine.
///
/// Holding a snapshot *pins string reclamation*: sweeps on the source
/// engine defer until every snapshot from it is dropped, so ids resolve
/// for the snapshot's whole lifetime. Compaction itself still runs —
/// the snapshot keeps pre-compaction coordinates, which is why it
/// carries the [`epoch`](EngineSnapshot::epoch) it was taken in.
#[derive(Debug)]
pub struct EngineSnapshot {
    table: TableSnapshot,
    ledger: LedgerSnapshot,
    epoch: u64,
    _pin: Arc<()>,
}

impl EngineSnapshot {
    /// The frozen table view.
    #[must_use]
    pub fn table(&self) -> &Table {
        self.table.table()
    }

    /// The frozen violation ledger.
    #[must_use]
    pub fn ledger(&self) -> &ViolationLedger {
        self.ledger.ledger()
    }

    /// The compaction epoch the snapshot was taken in — its `RowId`s
    /// are coordinates of this epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// The incremental PFD violation engine (see the crate docs). Its rules
/// run on the calling thread.
#[derive(Debug)]
pub struct StreamEngine {
    table: Table,
    /// The seeded rules' state, in index order.
    rules: Vec<RuleState>,
    ledger: ViolationLedger,
    drift: DriftMonitor,
    /// Auto-compaction threshold (see [`StreamConfig::compact_ratio`]).
    compact_ratio: f64,
    compaction: CompactionStats,
    /// Epoch-tied string reclamation (see [`StreamConfig::reclaim`]).
    reclaim: bool,
    /// The cell ids deletes and updates removed from the table since the
    /// last sweep (recorded only while `reclaim` is on): the only ids a
    /// sweep may free.
    displaced: Vec<ValueId>,
    /// Lifetime pool reclamation by this engine's sweeps.
    reclaim_stats: ReclaimStats,
    /// Snapshot pin: every live [`EngineSnapshot`] clones this `Arc`, so
    /// `strong_count > 1` ⇔ a snapshot may still resolve ids — sweeps
    /// defer (`displaced` stays queued) until it drops.
    snap_pin: Arc<()>,
}

impl StreamEngine {
    /// An engine over `schema`, seeded with `rules`, default thresholds.
    #[must_use]
    pub fn new(schema: Schema, rules: Vec<Pfd>) -> StreamEngine {
        StreamEngine::with_config(schema, rules, StreamConfig::default())
    }

    /// An engine with explicit thresholds.
    #[must_use]
    pub fn with_config(schema: Schema, rules: Vec<Pfd>, config: StreamConfig) -> StreamEngine {
        let mut ledger = ViolationLedger::new();
        let rules = rules
            .into_iter()
            .map(|pfd| RuleState::seed(pfd, &schema, &mut ledger))
            .collect();
        StreamEngine {
            table: Table::empty(schema),
            rules,
            ledger,
            drift: DriftMonitor::new(config.min_support, config.max_violation_ratio),
            compact_ratio: config.compact_ratio,
            compaction: CompactionStats::default(),
            reclaim: config.reclaim,
            displaced: Vec::new(),
            reclaim_stats: ReclaimStats::default(),
            snap_pin: Arc::new(()),
        }
    }

    /// Compact the engine's table and thread the resulting
    /// [`RowIdRemap`] through every consumer — the remap protocol,
    /// end to end:
    ///
    /// 1. [`Table::compact`] drops tombstoned slots and opens a new
    ///    epoch;
    /// 2. every rule's blocking partitions translate in place
    ///    (`RuleState::apply_remap` — no pattern re-evaluation,
    ///    [`StreamEngine::pattern_evals`] is invariant; the memos and the
    ///    block majorities hold no row ids);
    /// 3. the ledger rewrites its live assertions and block witnesses
    ///    and adopts the epoch (event history stays verbatim; see
    ///    [`LedgerEvent::epoch`](anmat_core::LedgerEvent)).
    ///
    /// Silent by design: no events are emitted, no drift counter moves —
    /// only coordinates change. Callers holding pre-compaction `RowId`s
    /// must translate them through the returned remap.
    pub fn compact(&mut self) -> RowIdRemap {
        let remap = self.table.compact();
        for rule in &mut self.rules {
            rule.apply_remap(&remap);
        }
        self.ledger.remap(&remap);
        self.compaction.epochs += 1;
        self.compaction.reclaimed_slots += remap.reclaimed();
        self.sweep_reclaimable();
        remap
    }

    /// The string-reclamation half of the compaction barrier (no-op
    /// unless [`StreamConfig::reclaim`]): free every string the table
    /// lost since the previous sweep, unless the engine still holds it.
    ///
    /// The candidates are the cell ids deletes and updates displaced.
    /// The table was just compacted, so it holds only live rows; a mark
    /// over its cells keeps every candidate that is still (or again) in
    /// use, and [`RuleState::collect_protected`] keeps the ids rule
    /// state holds beyond the cells (constant RHS values, derived block
    /// keys). Each epoch costs `O(displaced ids + live cells)`, and no
    /// write pays for it.
    ///
    /// What is left is purged from every tableau memo and key memo
    /// *before* [`ValuePool::reclaim`] queues it for recycling, so no
    /// cache can answer for a recycled id. While an [`EngineSnapshot`]
    /// is alive the whole sweep defers — the displaced ids simply stay
    /// queued for the next barrier.
    fn sweep_reclaimable(&mut self) {
        if !self.reclaim {
            return;
        }
        if Arc::strong_count(&self.snap_pin) > 1 {
            obs::counter!("pool.sweeps_deferred").incr();
            return;
        }
        let mut dead: FxHashSet<ValueId> = self.displaced.drain(..).collect();
        if dead.is_empty() {
            return;
        }
        debug_assert_eq!(self.table.live_rows(), self.table.row_count());
        for col in 0..self.table.column_count() {
            for id in self.table.column(col) {
                dead.remove(&id);
            }
        }
        let mut protected = FxHashSet::default();
        for rule in &self.rules {
            rule.collect_protected(&mut protected);
        }
        dead.retain(|id| !protected.contains(id));
        if dead.is_empty() {
            return;
        }
        for rule in &mut self.rules {
            rule.purge_values(&dead);
        }
        let stats = ValuePool::reclaim(dead);
        self.reclaim_stats.strings += stats.strings;
        self.reclaim_stats.bytes += stats.bytes;
    }

    /// Lifetime pool reclamation this engine's sweeps performed.
    #[must_use]
    pub fn reclaim_stats(&self) -> ReclaimStats {
        self.reclaim_stats
    }

    /// Freeze a consistent copy-on-write view of the engine's observable
    /// state — table and ledger — that stays valid while ingest
    /// continues. Capture is `O(chunks)` handle clones (no cell is
    /// copied); subsequent engine mutations pay one chunk copy per
    /// first-touched chunk (`snapshot.cow_copies`) and one copy of the
    /// ledger's live state (`snapshot.map_copies`).
    ///
    /// While the snapshot is alive, reclamation sweeps defer (the
    /// snapshot resolves ids against the shared pool), so every id it
    /// holds stays resolvable for its whole lifetime.
    #[must_use]
    pub fn snapshot(&self) -> EngineSnapshot {
        obs::counter!("snapshot.engine_captures").incr();
        EngineSnapshot {
            table: self.table.snapshot(),
            ledger: self.ledger.freeze(),
            epoch: self.table.epoch(),
            _pin: Arc::clone(&self.snap_pin),
        }
    }

    /// Auto-compaction hook, checked after every batch — never
    /// mid-batch, since a validated op batch addresses one id space.
    /// Fires when the tombstone ratio reaches
    /// [`StreamConfig::compact_ratio`].
    fn maybe_compact(&mut self) {
        let slots = self.table.row_count();
        let dead = slots - self.table.live_rows();
        let ratio = self.compact_ratio;
        if ratio > 0.0 && dead > 0 && dead as f64 >= ratio * slots as f64 {
            self.compact();
        }
    }

    /// The engine's compaction epoch (0 until the first compaction).
    /// Callers that cache `RowId`s can watch this to know when to
    /// refresh them.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.table.epoch()
    }

    /// Lifetime compaction counters (epochs run, slots reclaimed).
    #[must_use]
    pub fn compaction_stats(&self) -> CompactionStats {
        self.compaction
    }

    /// Apply a batch of ops — the engine's one write entry. Returns the
    /// batch's violation events (creations and retractions, each naming
    /// its violation's identity): op by op, and within each op phase in
    /// rule/tableau order, retractions first within each affected block.
    /// Witnesses moving is not an event; the ledger renders the current
    /// ones ([`ViolationLedger::snapshot`]).
    ///
    /// `ops` are [`Op`]s, whose cells are already interned (what the
    /// op-log reader yields), or anything that converts into one: a
    /// [`RowOp`] is interned one pool batch per record as the batch is
    /// collected. Everything downstream (blocking, memoized matching,
    /// agreement checks) operates on `Copy` ids.
    ///
    /// Atomic with respect to errors: the whole batch is validated (in
    /// `O(batch)`, `validate_ops`) against the engine's live set as the
    /// batch evolves it — arity of every insert/update, liveness of
    /// every addressed row *at its point in the sequence* — before any
    /// op executes, so a malformed batch leaves the engine untouched and
    /// no emitted event is ever lost to an `Err`.
    ///
    /// A delete tombstones its slot and an update is delete + insert
    /// *fused on one slot*, so every other `RowId` stays valid. No op
    /// costs `O(table)`: one memo probe plus the matched tuples for
    /// constant tuples, `O(log block + run cap)` for variable tuples,
    /// plus `O(block)` only where an op flips a block's majority. The
    /// whole batch addresses one id space, so the auto-compaction check
    /// ([`StreamConfig::compact_ratio`]) waits until after it; a
    /// compaction renumbers the slots, so watch [`StreamEngine::epoch`].
    pub fn apply(
        &mut self,
        ops: impl IntoIterator<Item = impl Into<Op>>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        let _batch = obs::span!("engine.batch_ns");
        let ops: Vec<Op> = ops.into_iter().map(Into::into).collect();
        {
            let _validate = obs::span!("engine.validate_ns");
            validate_ops(&self.table, &ops)?;
        }
        obs::counter!("engine.ops").add(ops.len() as u64);
        let events = self.run(ops);
        obs::counter!("engine.events").add(events.len() as u64);
        self.maybe_compact();
        Ok(events)
    }

    /// [`StreamEngine::apply`] over inserts of already-interned rows.
    /// Kept only because the benchmark harness
    /// (`perfbench/harness/src/measure.rs`) calls it; the next change to
    /// the benchmark (ROADMAP item 5) deletes it.
    pub fn push_id_batch(
        &mut self,
        rows: impl IntoIterator<Item = Vec<ValueId>>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        self.apply(rows.into_iter().map(Op::Insert))
    }

    /// [`StreamEngine::apply`], with the events wrapped in the one
    /// [`BatchEvents`] returned. Kept only because the benchmark harness
    /// (`perfbench/harness/src/measure.rs`) calls it; the next change to
    /// the benchmark (ROADMAP item 5) deletes it.
    pub fn submit(
        &mut self,
        ops: impl IntoIterator<Item = RowOp>,
    ) -> Result<Vec<BatchEvents>, TableError> {
        Ok(vec![BatchEvents {
            events: self.apply(ops)?,
        }])
    }

    /// Returns nothing: every batch completes when it is applied. Kept
    /// only because the benchmark harness
    /// (`perfbench/harness/src/measure.rs`) calls it; the next change to
    /// the benchmark (ROADMAP item 5) deletes it.
    #[must_use]
    pub fn flush(&self) -> Vec<BatchEvents> {
        Vec::new()
    }

    /// Run a validated batch: prime every rule over the batch's arriving
    /// LHS values (count-neutral by construction), then execute each op
    /// on the table between its two phases: the removal phase before a
    /// delete or an update overwrites the row, while its cells are still
    /// the ones its assertions were built from (so every retraction names
    /// exactly the assertion it cancels), and the insert phase once an
    /// insert or update has landed.
    fn run(&mut self, ops: Vec<Op>) -> Vec<LedgerEvent> {
        let _apply = obs::span!("engine.apply_ns");
        for rule in &mut self.rules {
            rule.prime_batch(&ops);
        }
        let mut events = Vec::new();
        for op in ops {
            let (removed, arrives) = match op {
                Op::Insert(_) => (None, true),
                Op::Delete(row) => (Some(row), false),
                Op::Update(row, _) => (Some(row), true),
            };
            if let Some(row) = removed {
                self.phase(row, true, &mut events);
            }
            let row = self.table.apply(op).expect("ops pre-validated");
            if arrives {
                self.phase(row, false, &mut events);
            }
        }
        events
    }

    /// One op phase of `row` — its departure (`removal`) or its arrival —
    /// through every rule in index order.
    fn phase(&mut self, row: RowId, removal: bool, events: &mut Vec<LedgerEvent>) {
        let table = &self.table;
        if removal && self.reclaim {
            // The row's cells are about to leave the table: the next
            // sweep's candidates.
            self.displaced
                .extend((0..table.column_count()).map(|col| table.cell_id(row, col)));
        }
        for rule in &mut self.rules {
            rule.process(table, row, removal, &mut self.ledger, events);
        }
    }

    /// The ledger of live violations.
    #[must_use]
    pub fn ledger(&self) -> &ViolationLedger {
        &self.ledger
    }

    /// The accumulated table.
    #[must_use]
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Row *slots* ingested so far (tombstoned ones included).
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.table.row_count()
    }

    /// Rows currently live (ingested minus deleted) — what summaries
    /// should report.
    #[must_use]
    pub fn live_rows(&self) -> usize {
        self.table.live_rows()
    }

    /// The seeded rules, in index order.
    pub fn rules(&self) -> impl Iterator<Item = &Pfd> {
        self.rules.iter().map(|rule| &rule.pfd)
    }

    /// Total pattern evaluations performed across all rules — the
    /// tableau memos' candidate matches plus the key memos' capture
    /// extractions.
    /// Bounded by `Σ_tuple distinct(LHS column)` regardless of row
    /// count, and for constant tuples by the candidates each distinct
    /// value's literal prefix selects: the call-counting hook behind the
    /// "at most one evaluation per (pattern, distinct value)" guarantee.
    #[must_use]
    pub fn pattern_evals(&self) -> usize {
        self.rules.iter().map(RuleState::pattern_evals).sum()
    }

    /// Total memo consultations (hits + misses) across all rules — one
    /// per rule with constant tuples and one per variable tuple for each
    /// row phase with a non-null LHS; the denominator for the
    /// memoization hit rate: `1 − pattern_evals / pattern_lookups`.
    #[must_use]
    pub fn pattern_lookups(&self) -> usize {
        self.rules.iter().map(RuleState::pattern_lookups).sum()
    }

    /// Publish the engine's derived state into the global metrics
    /// registry as gauges: table slots/live/bytes, pool bytes/strings,
    /// memo lookup/eval totals, block counts, ledger totals, and
    /// compaction counters.
    ///
    /// Pull-based by design: per-row hot paths never touch these — the
    /// caller (CLI summary, `--stats-every` ticks, benches) decides the
    /// refresh cadence. A no-op while the recorder is disabled.
    pub fn publish_metrics(&self) {
        if !obs::enabled() {
            return;
        }
        let table = self.table.mem_footprint();
        obs::gauge!("table.slots").set(table.total_slots as i64);
        obs::gauge!("table.live").set(table.live_slots as i64);
        obs::gauge!("table.bytes").set(table.bytes as i64);
        let pool = ValuePool::mem_footprint();
        obs::gauge!("pool.bytes").set(pool.bytes as i64);
        obs::gauge!("pool.strings").set(pool.strings as i64);
        obs::gauge!("pool.string_bytes").set(pool.string_bytes as i64);
        obs::gauge!("engine.rules").set(self.rules.len() as i64);
        let blocks: usize = self.rules.iter().map(RuleState::block_count).sum();
        obs::gauge!("engine.blocks").set(blocks as i64);
        obs::gauge!("memo.evals").set(self.pattern_evals() as i64);
        obs::gauge!("memo.lookups").set(self.pattern_lookups() as i64);
        obs::gauge!("ledger.live").set(self.ledger.live_count() as i64);
        obs::gauge!("ledger.created_total").set(self.ledger.created_total() as i64);
        obs::gauge!("ledger.retracted_total").set(self.ledger.retracted_total() as i64);
        obs::gauge!("engine.compaction_epochs").set(self.compaction.epochs as i64);
        obs::gauge!("engine.reclaimed_slots").set(self.compaction.reclaimed_slots as i64);
        // Reclamation: live vs cumulatively-freed pool state (gauges —
        // the matching `pool.reclaims`/`pool.reclaimed_*` *counters*
        // move inside `ValuePool::reclaim` itself), plus what this
        // engine's sweeps freed.
        obs::gauge!("pool.live_strings").set(ValuePool::live_strings() as i64);
        let (freed_strings, freed_bytes) = ValuePool::reclaimed();
        obs::gauge!("pool.freed_strings").set(freed_strings as i64);
        obs::gauge!("pool.freed_bytes").set(freed_bytes as i64);
        obs::gauge!("engine.reclaimed_strings").set(self.reclaim_stats.strings as i64);
        obs::gauge!("engine.reclaimed_bytes").set(self.reclaim_stats.bytes as i64);
    }

    /// Streaming health counters for each tableau tuple of one rule, in
    /// tableau order.
    #[must_use]
    pub fn rule_health(&self, rule: usize) -> &[TupleHealth] {
        &self.rules[rule].health
    }

    /// Tableau tuples whose live confidence decayed below the discovery
    /// threshold — their rules are candidates for demotion to
    /// `RuleStatus::Pending`. A rule with several decayed tuples has a
    /// report for each.
    ///
    /// `(rule, tuple)` order is part of the API contract (consumers key
    /// the `anmat rules` listing off the rule index), so it is enforced
    /// with an explicit sort rather than left as a side effect of how
    /// the reports happen to be gathered.
    #[must_use]
    pub fn drift_report(&self) -> Vec<DriftReport> {
        let mut reports: Vec<DriftReport> = self
            .rules
            .iter()
            .enumerate()
            .flat_map(|(i, rule)| {
                let judge =
                    move |(t, h): (usize, &TupleHealth)| self.drift.judge(i, &rule.pfd, t, *h);
                rule.health.iter().enumerate().filter_map(judge)
            })
            .collect();
        reports.sort_by_key(|r| (r.rule, r.tuple));
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anmat_core::{detect_all, PatternTuple, Violation, ViolationKind};
    use anmat_pattern::ConstrainedPattern;
    use anmat_table::Value;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn q(s: &str) -> ConstrainedPattern {
        s.parse().unwrap()
    }

    fn zip_variable_pfd() -> Pfd {
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::variable(q("[\\D{3}]\\D{2}"))],
        )
    }

    fn zip_constant_pfd() -> Pfd {
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::constant(
                ConstrainedPattern::unconstrained("900\\D{2}".parse().unwrap()),
                "Los Angeles",
            )],
        )
    }

    fn schema() -> Schema {
        Schema::new(["zip", "city"]).unwrap()
    }

    /// Insert one row of raw strings (fields read as `Value::from_field`
    /// reads them); returns its events.
    fn insert(engine: &mut StreamEngine, row: [&str; 2]) -> Vec<LedgerEvent> {
        engine
            .apply([RowOp::Insert(row.map(Value::from_field).to_vec())])
            .unwrap()
    }

    #[test]
    fn constant_violation_on_arrival() {
        let mut engine = StreamEngine::new(schema(), vec![zip_constant_pfd()]);
        assert!(insert(&mut engine, ["90001", "Los Angeles"]).is_empty());
        let events = insert(&mut engine, ["90004", "New York"]);
        assert_eq!(events.len(), 1);
        assert!(events[0].is_created());
        assert_eq!(events[0].violation().row, 1);
        // Non-matching zips are ignored.
        assert!(insert(&mut engine, ["10001", "New York"]).is_empty());
        assert_eq!(engine.ledger().live_count(), 1);
    }

    #[test]
    fn variable_violation_needs_a_block_peer() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        assert!(insert(&mut engine, ["90001", "Los Angeles"]).is_empty());
        // Second row disagrees: 1–1 tie, lexicographic majority wins and
        // the other row is flagged.
        let events = insert(&mut engine, ["90002", "New York"]);
        assert_eq!(events.len(), 1);
        assert!(events[0].is_created());
    }

    #[test]
    fn majority_flip_retracts_and_reflags() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        insert(&mut engine, ["90001", "Los Angeles"]);
        insert(&mut engine, ["90002", "New York"]);
        // Tie broken lexicographically: majority "Los Angeles", row 1
        // flagged.
        assert_eq!(engine.ledger().snapshot()[0].row, 1);
        // Two more New York rows flip the majority: row 1's violation is
        // retracted, row 0 becomes the minority.
        let events = insert(&mut engine, ["90003", "New York"]);
        let retractions: Vec<_> = events.iter().filter(|e| !e.is_created()).collect();
        assert_eq!(retractions.len(), 1);
        assert_eq!(retractions[0].violation().row, 1);
        let live = engine.ledger().snapshot();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].row, 0);
        match &live[0].kind {
            ViolationKind::Variable { majority, .. } => assert_eq!(majority, "New York"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(engine.ledger().retracted_total() >= 1);
    }

    #[test]
    fn final_state_matches_batch_detection() {
        let rules = vec![zip_constant_pfd(), zip_variable_pfd()];
        let rows = [
            ["90001", "Los Angeles"],
            ["90002", "Los Angeles"],
            ["90003", "Los Angeles"],
            ["90004", "New York"],
            ["10001", "New York"],
            ["10002", "Boston"],
        ];
        let mut engine = StreamEngine::new(schema(), rules.clone());
        for row in rows {
            insert(&mut engine, row);
        }
        let batch = detect_all(engine.table(), &rules);
        let mut streamed = engine.ledger().snapshot();
        let mut batch = batch;
        let key = |v: &Violation| serde_json::to_string(v).unwrap();
        streamed.sort_by_key(|v| key(v));
        batch.sort_by_key(|v| key(v));
        batch.dedup();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn missing_columns_leave_rule_inert() {
        let pfd = Pfd::new(
            "R",
            "nope",
            "city",
            vec![PatternTuple::variable(q("[\\A*]"))],
        );
        let mut engine = StreamEngine::new(schema(), vec![pfd]);
        assert!(insert(&mut engine, ["90001", "LA"]).is_empty());
        assert_eq!(engine.rule_health(0)[0].matched_rows, 0);
    }

    #[test]
    fn config_adopts_discovery_thresholds() {
        let discovery = anmat_core::DiscoveryConfig {
            min_support: 5,
            max_violation_ratio: 0.05,
            ..anmat_core::DiscoveryConfig::default()
        };
        let config = StreamConfig::from_discovery(&discovery);
        assert_eq!(config.min_support, 5);
        assert!((config.max_violation_ratio - 0.05).abs() < 1e-12);
    }

    #[test]
    fn drift_flags_decayed_rule() {
        let config = StreamConfig {
            min_support: 4,
            max_violation_ratio: 0.3,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::with_config(schema(), vec![zip_constant_pfd()], config);
        for i in 0..10 {
            let zip = format!("900{i:02}");
            insert(&mut engine, [zip.as_str(), "San Diego"]);
        }
        let report = engine.drift_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].dependency, "zip → city");
        assert_eq!(report[0].live_violations, 10);
        assert!(report[0].confidence < report[0].min_confidence);
    }

    #[test]
    fn duplicate_rules_keep_symmetric_drift_health() {
        // Two identical rules make the same assertions; the ledger
        // refcounts them to one live copy, but each rule's tuples must
        // count their own assertions — and stay balanced when a majority
        // flip retracts them.
        let rules = vec![zip_variable_pfd(), zip_variable_pfd()];
        let mut engine = StreamEngine::new(schema(), rules);
        insert(&mut engine, ["90001", "Los Angeles"]);
        insert(&mut engine, ["90002", "New York"]);
        insert(&mut engine, ["90003", "New York"]);
        insert(&mut engine, ["90004", "New York"]);
        assert_eq!(engine.ledger().live_count(), 1);
        let (h0, h1) = (engine.rule_health(0), engine.rule_health(1));
        assert_eq!(h0, h1, "identical rules must report identical health");
        assert_eq!(h0[0].live_violations, 1);
        assert!(h0[0].confidence() > 0.7);
    }

    #[test]
    fn insert_batch_is_atomic_on_arity_error() {
        let mut engine = StreamEngine::new(schema(), vec![zip_constant_pfd()]);
        let bad_batch = vec![
            RowOp::Insert(vec![Value::text("90001"), Value::text("New York")]),
            RowOp::Insert(vec![Value::text("oops")]), // wrong arity
        ];
        assert!(engine.apply(bad_batch).is_err());
        // Nothing from the batch was ingested: no rows, no silent events.
        assert_eq!(engine.row_count(), 0);
        assert!(engine.ledger().is_empty());
    }

    #[test]
    fn insert_batch_concatenates_events() {
        let mut engine = StreamEngine::new(schema(), vec![zip_constant_pfd()]);
        let rows = [["90001", "New York"], ["90002", "Boston"]]
            .map(|r| RowOp::Insert(r.map(Value::text).to_vec()));
        let events = engine.apply(rows).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(engine.row_count(), 2);
    }

    #[test]
    fn delete_retracts_constant_violation() {
        let mut engine = StreamEngine::new(schema(), vec![zip_constant_pfd()]);
        insert(&mut engine, ["90001", "Los Angeles"]);
        insert(&mut engine, ["90004", "New York"]);
        assert_eq!(engine.ledger().live_count(), 1);
        let events = engine.apply([Op::Delete(1)]).unwrap();
        assert_eq!(events.len(), 1);
        assert!(!events[0].is_created());
        assert_eq!(events[0].violation().row, 1);
        assert!(engine.ledger().is_empty());
        assert_eq!(engine.live_rows(), 1);
        assert_eq!(engine.row_count(), 2);
        // The rule's drift health shrank with the stream.
        assert_eq!(engine.rule_health(0)[0].matched_rows, 1);
        assert_eq!(engine.rule_health(0)[0].live_violations, 0);
    }

    #[test]
    fn delete_of_majority_rows_flips_the_block() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        insert(&mut engine, ["90001", "Los Angeles"]);
        insert(&mut engine, ["90002", "New York"]);
        insert(&mut engine, ["90003", "New York"]);
        // Majority "New York"; row 0 is the minority.
        assert_eq!(engine.ledger().snapshot()[0].row, 0);
        // Deleting both New York rows flips the majority to Los
        // Angeles: row 0's violation retracts, nothing remains to flag.
        engine.apply([Op::Delete(1)]).unwrap();
        let events = engine.apply([Op::Delete(2)]).unwrap();
        assert!(events.iter().any(|e| !e.is_created()));
        assert!(engine.ledger().is_empty());
        assert_eq!(engine.live_rows(), 1);
    }

    #[test]
    fn delete_errors_are_safe() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        insert(&mut engine, ["90001", "Los Angeles"]);
        assert!(matches!(
            engine.apply([Op::Delete(7)]),
            Err(TableError::NoSuchRow { row: 7 })
        ));
        engine.apply([Op::Delete(0)]).unwrap();
        assert!(matches!(
            engine.apply([Op::Delete(0)]),
            Err(TableError::NoSuchRow { row: 0 })
        ));
        assert!(matches!(
            engine.apply([RowOp::Update(0, vec![Value::text("x"), Value::text("y")])]),
            Err(TableError::NoSuchRow { row: 0 })
        ));
    }

    #[test]
    fn update_fuses_delete_and_insert_on_one_slot() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        insert(&mut engine, ["90001", "Los Angeles"]);
        insert(&mut engine, ["90002", "Los Angeles"]);
        insert(&mut engine, ["90003", "New York"]);
        // Row 2 is the minority.
        assert_eq!(engine.ledger().snapshot()[0].row, 2);
        // Correcting it in place retracts the violation in the same
        // event batch; the slot keeps its id.
        let events = engine
            .apply([RowOp::Update(
                2,
                vec![Value::text("90003"), Value::text("Los Angeles")],
            )])
            .unwrap();
        assert!(events.iter().any(|e| !e.is_created()));
        assert!(engine.ledger().is_empty());
        assert_eq!(engine.row_count(), 3);
        assert_eq!(engine.live_rows(), 3);
        assert_eq!(engine.table().cell_str(2, 1), Some("Los Angeles"));
        // And making it wrong again re-creates a fresh violation.
        let events = engine
            .apply([RowOp::Update(
                2,
                vec![Value::text("90003"), Value::text("Boston")],
            )])
            .unwrap();
        assert!(events.iter().any(LedgerEvent::is_created));
        assert_eq!(engine.ledger().live_count(), 1);
    }

    #[test]
    fn apply_replays_an_op_log() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        let ops = vec![
            RowOp::Insert(vec![Value::text("90001"), Value::text("Los Angeles")]),
            RowOp::Insert(vec![Value::text("90002"), Value::text("Los Angeles")]),
            RowOp::Insert(vec![Value::text("90003"), Value::text("New York")]),
            RowOp::Update(2, vec![Value::text("90003"), Value::text("Los Angeles")]),
            RowOp::Delete(0),
        ];
        let events = engine.apply(ops).unwrap();
        // Row 2 was flagged on arrival and cleared by the update.
        assert!(events.iter().any(LedgerEvent::is_created));
        assert!(events.iter().any(|e| !e.is_created()));
        assert!(engine.ledger().is_empty());
        assert_eq!(engine.live_rows(), 2);
        assert_eq!(engine.row_count(), 3);
    }

    #[test]
    fn apply_is_atomic_on_invalid_ops() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        insert(&mut engine, ["90001", "Los Angeles"]);
        // The second op deletes a row the first op already deleted.
        let bad = vec![RowOp::Delete(0), RowOp::Delete(0)];
        assert!(matches!(
            engine.apply(bad),
            Err(TableError::NoSuchRow { row: 0 })
        ));
        assert_eq!(engine.live_rows(), 1, "nothing applied");
        // An insert makes a later delete of the fresh slot valid.
        let good = vec![
            RowOp::Insert(vec![Value::text("90002"), Value::text("Los Angeles")]),
            RowOp::Delete(1),
        ];
        engine.apply(good).unwrap();
        assert_eq!(engine.live_rows(), 1);
        // Arity of an update is validated before anything runs.
        let bad_arity = vec![
            RowOp::Delete(0),
            RowOp::Update(0, vec![Value::text("just-one")]),
        ];
        assert!(matches!(
            engine.apply(bad_arity),
            Err(TableError::ArityMismatch { .. })
        ));
        assert_eq!(engine.live_rows(), 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        assert!(engine.apply(Vec::<Op>::new()).unwrap().is_empty());
        assert_eq!(engine.row_count(), 0);
        assert_eq!(engine.pattern_lookups(), 0);
    }

    #[test]
    fn submit_wraps_one_apply_and_flush_returns_nothing() {
        let ops = || {
            vec![
                RowOp::Insert(vec![Value::text("90001"), Value::text("Los Angeles")]),
                RowOp::Insert(vec![Value::text("90002"), Value::text("New York")]),
                RowOp::Insert(vec![Value::text("90003"), Value::text("New York")]),
                RowOp::Delete(1),
            ]
        };
        let rules = || vec![zip_variable_pfd(), zip_constant_pfd()];
        let mut twin = StreamEngine::new(schema(), rules());
        let expected = twin.apply(ops()).unwrap();
        assert!(expected.iter().any(|e| !e.is_created()), "{expected:?}");
        let mut engine = StreamEngine::new(schema(), rules());
        let batches = engine.submit(ops()).unwrap();
        assert_eq!(batches.len(), 1, "one batch in, one batch out");
        assert_eq!(batches[0].events, expected);
        assert!(engine.flush().is_empty(), "nothing is ever in flight");
        assert_eq!(engine.ledger().snapshot(), twin.ledger().snapshot());
    }

    #[test]
    fn compact_remaps_live_violations_and_keeps_detection_exact() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd(), zip_constant_pfd()]);
        for (zip, city) in [
            ("90001", "Los Angeles"),
            ("90002", "Los Angeles"),
            ("90003", "Los Angeles"),
            ("90004", "New York"), // flagged by both rules
        ] {
            insert(&mut engine, [zip, city]);
        }
        engine.apply([Op::Delete(0)]).unwrap();
        engine.apply([Op::Delete(2)]).unwrap();
        let evals_before = engine.pattern_evals();
        let remap = engine.compact();
        // Survivors 1, 3 → 0, 1; no pattern work was repeated.
        assert_eq!(remap.reclaimed(), 2);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.ledger().epoch(), 1);
        assert_eq!(
            engine.pattern_evals(),
            evals_before,
            "compaction must not re-evaluate patterns"
        );
        assert_eq!(engine.compaction_stats().epochs, 1);
        assert_eq!(engine.compaction_stats().reclaimed_slots, 2);
        let snap = engine.ledger().snapshot();
        assert!(snap.iter().all(|v| v.row == 1), "flagged row remapped");
        // The remapped ledger equals batch detection over the compacted
        // table — the protocol's correctness contract.
        let rules: Vec<Pfd> = engine.rules().cloned().collect();
        let mut batch = detect_all(engine.table(), &rules);
        let key = |v: &Violation| serde_json::to_string(v).unwrap();
        batch.sort_by_key(|v| key(v));
        batch.dedup();
        let mut streamed = snap;
        streamed.sort_by_key(|v| key(v));
        assert_eq!(streamed, batch);
        // The engine keeps working in the new id space: deleting the
        // remapped minority row retracts both rules' violations.
        let events = engine.apply([Op::Delete(1)]).unwrap();
        assert!(events.iter().all(|e| !e.is_created()));
        assert_eq!(events.iter().map(|e| e.epoch).max(), Some(1));
        assert!(engine.ledger().is_empty());
        assert_eq!(engine.live_rows(), 1);
    }

    #[test]
    fn auto_compaction_triggers_on_the_configured_ratio() {
        let config = StreamConfig {
            compact_ratio: 0.5,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::with_config(schema(), vec![zip_variable_pfd()], config);
        for i in 0..8 {
            let zip = format!("900{i:02}");
            insert(&mut engine, [zip.as_str(), "Los Angeles"]);
        }
        // Three deletes: 3/8 < 0.5, no compaction yet.
        for row in 0..3 {
            engine.apply([Op::Delete(row)]).unwrap();
        }
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.row_count(), 8);
        // Fourth delete crosses 4/8 >= 0.5: compaction runs at the end
        // of the call, slots shrink to the live rows.
        engine.apply([Op::Delete(3)]).unwrap();
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.row_count(), 4);
        assert_eq!(engine.live_rows(), 4);
        assert_eq!(engine.compaction_stats().reclaimed_slots, 4);
        // Slots stay bounded by live rows for the rest of the run.
        assert!(engine.row_count() <= 2 * engine.live_rows());
    }

    #[test]
    fn auto_compaction_waits_for_the_batch_boundary() {
        let config = StreamConfig {
            compact_ratio: 0.3,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::with_config(schema(), vec![zip_variable_pfd()], config);
        let mut ops: Vec<RowOp> = (0..6)
            .map(|i| RowOp::Insert(vec![Value::text(format!("900{i:02}")), Value::text("LA")]))
            .collect();
        // Deletes address pre-batch id space even though the ratio
        // crosses the threshold partway through.
        ops.extend([RowOp::Delete(0), RowOp::Delete(2), RowOp::Delete(4)]);
        engine.apply(ops).unwrap();
        // One compaction, after the whole batch.
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.compaction_stats().epochs, 1);
        assert_eq!(engine.row_count(), 3);
        assert_eq!(engine.live_rows(), 3);
        assert_eq!(
            engine.table().cell_str(0, 0),
            Some("90001"),
            "survivors renumbered densely"
        );
    }

    #[test]
    fn deleted_witness_is_replaced_in_evidence_without_events() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        for (zip, city) in [
            ("90001", "Los Angeles"),
            ("90002", "Los Angeles"),
            ("90003", "New York"),
        ] {
            insert(&mut engine, [zip, city]);
        }
        let before = engine.ledger().snapshot();
        match &before[0].kind {
            ViolationKind::Variable { witnesses, .. } => assert_eq!(witnesses, &vec![0, 1]),
            other => panic!("unexpected {other:?}"),
        }
        // Deleting witness row 0 must rewrite the evidence, not dangle —
        // and, witnesses being evidence rather than identity, without
        // retracting the violation that cites them.
        let events = engine.apply([Op::Delete(0)]).unwrap();
        assert!(events.is_empty(), "{events:?}");
        assert_eq!(engine.ledger().created_total(), 1);
        let after = engine.ledger().snapshot();
        assert_eq!(after.len(), 1);
        match &after[0].kind {
            ViolationKind::Variable { witnesses, .. } => assert_eq!(witnesses, &vec![1]),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The reference validator [`validate_ops`] replaced: it copies the
    /// liveness of every slot of the table, then simulates the batch on
    /// the copy — `O(table)` per call.
    fn validate_ops_full_copy(table: &Table, ops: &[Op]) -> Result<(), TableError> {
        let arity = table.schema().arity();
        let mut live: Vec<bool> = (0..table.row_count()).map(|r| table.is_live(r)).collect();
        for op in ops {
            match op {
                Op::Insert(cells) => {
                    if cells.len() != arity {
                        return Err(TableError::ArityMismatch {
                            row: live.len(),
                            found: cells.len(),
                            expected: arity,
                        });
                    }
                    live.push(true);
                }
                &Op::Delete(row) => {
                    if !live.get(row).copied().unwrap_or(false) {
                        return Err(TableError::NoSuchRow { row });
                    }
                    live[row] = false;
                }
                Op::Update(row, cells) => {
                    if cells.len() != arity {
                        return Err(TableError::ArityMismatch {
                            row: *row,
                            found: cells.len(),
                            expected: arity,
                        });
                    }
                    if !live.get(*row).copied().unwrap_or(false) {
                        return Err(TableError::NoSuchRow { row: *row });
                    }
                }
            }
        }
        Ok(())
    }

    /// A random op batch against `table`, biased towards the cases the
    /// overlay must get right: rows this batch already deleted (double
    /// deletes, update-after-delete), slots it inserted earlier, ids at
    /// and past the end of the table, and the occasional wrong arity.
    fn random_batch(rng: &mut StdRng, table: &Table) -> Vec<Op> {
        let cells = |rng: &mut StdRng| {
            let arity = if rng.random_bool(0.05) { 1 } else { 2 };
            vec![ValuePool::intern("validator-cell"); arity]
        };
        let mut slots = table.row_count();
        let mut touched: Vec<RowId> = Vec::new();
        let mut ops = Vec::new();
        for _ in 0..rng.random_range(1..24) {
            let row = if !touched.is_empty() && rng.random_bool(0.4) {
                touched[rng.random_range(0..touched.len())]
            } else {
                rng.random_range(0..slots + 3)
            };
            match rng.random_range(0..3) {
                0 => {
                    ops.push(Op::Insert(cells(rng)));
                    touched.push(slots);
                    slots += 1;
                }
                1 => {
                    ops.push(Op::Delete(row));
                    touched.push(row);
                }
                _ => ops.push(Op::Update(row, cells(rng))),
            }
        }
        ops
    }

    proptest! {
        /// The `O(batch)` overlay validator returns exactly the full-copy
        /// reference's `Result` — same variant, same row, same arities —
        /// on random batches over a table that already has tombstones.
        /// Valid batches are applied, so the table keeps growing and
        /// accruing tombstones between batches.
        #[test]
        fn overlay_validator_matches_full_copy(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut table = Table::empty(schema());
            let cell = ValuePool::intern("validator-cell");
            for row in 0..rng.random_range(0..40) {
                table.push_id_row(vec![cell, cell]).unwrap();
                if rng.random_bool(0.3) {
                    table.delete_row(row).unwrap();
                }
            }
            let mut outcomes = [0usize; 2];
            for _ in 0..64 {
                let ops = random_batch(&mut rng, &table);
                let overlay = validate_ops(&table, &ops);
                let reference = validate_ops_full_copy(&table, &ops);
                prop_assert_eq!(format!("{overlay:?}"), format!("{reference:?}"));
                outcomes[usize::from(overlay.is_ok())] += 1;
                if overlay.is_ok() {
                    for op in ops {
                        table.apply(op).unwrap();
                    }
                }
            }
            prop_assert!(outcomes[0] > 0, "no batch was rejected");
            prop_assert!(outcomes[1] > 0, "no batch was accepted");
        }
    }
}
