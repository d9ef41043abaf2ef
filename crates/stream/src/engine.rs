//! The incremental violation engine.
//!
//! Ingest is *interned end-to-end*: [`StreamEngine::push_row`] interns
//! each cell once into the global `ValuePool` (and
//! [`StreamEngine::push_id_row`] skips even that), after which every
//! per-rule check operates on `Copy` `ValueId`s — agreement checks are
//! id comparisons and pattern matching is memoized per distinct value,
//! so per-row marginal cost depends on the column's *distinct-value*
//! profile, not its row count.
//!
//! Per-rule state mirrors the batch detector's dispatch:
//!
//! * the **constant** tableau tuples share one [`TableauMemo`] per
//!   rule, which maps each distinct LHS value to the tuples it matches
//!   (usually none or one) and fills an entry on first sighting by
//!   evaluating only the tuples whose literal prefix the value starts
//!   with; each tuple keeps its expected RHS as an interned id, and a
//!   matched row is checked with the same [`violation_at`] primitive the
//!   batch scan uses;
//! * each **variable** tableau tuple keeps an incremental
//!   [`BlockingPartition`] keyed by the constrained captures, which it
//!   derives through its own [`KeyMemo`] (so capture extraction runs at
//!   most once per distinct LHS value). A new row joins exactly one
//!   block, and the block's asserted violations are updated along one of
//!   three transition paths (see the private `BlockState`): `O(1)` for
//!   the common arrivals, `O(block)` only on a majority flip, with
//!   retractions flowing through the [`ViolationLedger`].
//!
//! No op costs `O(table)`, and no op visits a constant tuple its row
//! does not match. A batch is validated in `O(batch)` (`validate_ops`).
//! Per op, a rule's constant tuples cost one memo probe plus the tuples
//! matched, and a new distinct LHS value one pattern evaluation per
//! candidate tuple; a variable tuple places or withdraws the row in
//! `O(1)` for an append and `O(log block + run cap)` otherwise (blocks
//! keep their rows as short ascending runs), plus the transition path
//! above.
//!
//! The engine holds one `RuleState` per rule and runs every op phase
//! (the removal before a delete or update, the insert after an insert or
//! update) rule by rule in index order on the calling thread. Each rule
//! writes its creations and retractions straight into the one ledger, in
//! tableau order, and the drift monitor then takes that rule's totals
//! for the phase.

use crate::drift::{DriftMonitor, DriftReport, RuleHealth};
use anmat_core::detect::constant::violation_at;
use anmat_core::detect::variable::{flag_block_minority, minority_violation, MAX_WITNESSES};
use anmat_core::discovery::DiscoveryConfig;
use anmat_core::{
    LedgerEvent, LedgerSnapshot, LhsCell, Pfd, RhsCell, Violation, ViolationKind, ViolationLedger,
};
use anmat_index::{BlockingPartition, KeyBlock, KeyMemo, TableauMemo};
use anmat_obs as obs;
use anmat_pattern::CompiledConstrained;
use anmat_table::{
    ReclaimStats, RowId, RowIdRemap, RowOp, Schema, Table, TableError, TableSnapshot, Value,
    ValueId, ValuePool,
};
use fxhash::{FxHashMap, FxHashSet};
use std::sync::Arc;

/// Engine thresholds: the drift monitor's discovery-style knobs, the
/// compaction trigger, and string reclamation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Rows a rule must match before drift is judged.
    pub min_support: usize,
    /// Allowed violation ratio before a rule counts as drifted (mirrors
    /// `DiscoveryConfig::max_violation_ratio`).
    pub max_violation_ratio: f64,
    /// Read by nothing: the engine runs every rule on the calling
    /// thread. Kept, with [`StreamConfig::shard_by`] and
    /// [`StreamConfig::run_ahead`], only because the benchmark harness
    /// (`perfbench/harness/src/measure.rs`) sets it; the next change to
    /// the benchmark drops all three.
    pub shards: usize,
    /// Tombstone ratio (`dead slots / total slots`) above which the
    /// engine compacts automatically at the end of a mutation entry
    /// point (never mid-batch: op batches are validated against one id
    /// space). `<= 0.0` (the default) disables auto-compaction;
    /// [`StreamEngine::compact`] stays available manually either way.
    pub compact_ratio: f64,
    /// Read by nothing, like [`StreamConfig::shards`], and kept for the
    /// same reason.
    pub shard_by: ShardBy,
    /// Read by nothing, like [`StreamConfig::shards`], and kept for the
    /// same reason.
    pub run_ahead: usize,
    /// Tie string reclamation to the compaction epochs: the engine
    /// enables batch-granular [`ValuePool`] refcounting on its table and,
    /// at the end of every compaction barrier, frees interned strings no
    /// longer referenced by any live cell, blocking key, memo, or rule
    /// state. `false` (the default) keeps the classic append-only pool
    /// behaviour — nothing is ever freed. Reclamation is deferred (never
    /// skipped) while an [`EngineSnapshot`] is alive, since snapshots
    /// resolve ids against the shared pool.
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
/// them; the next change to the benchmark drops all three.
#[derive(Debug)]
pub struct BatchEvents {
    /// The batch's violation events, in rule/tableau order.
    pub events: Vec<LedgerEvent>,
}

/// Where one rule's op phase writes: each creation and retraction goes
/// straight into the engine's ledger (which refcounts across rules, so
/// only liveness changes come back as events), while the rule's own
/// assertion counts accumulate for the drift monitor.
struct Sink<'a> {
    ledger: &'a mut ViolationLedger,
    events: &'a mut Vec<LedgerEvent>,
    created: usize,
    retracted: usize,
}

impl Sink<'_> {
    fn create(&mut self, v: Violation) {
        self.created += 1;
        self.events.extend(self.ledger.create(v));
    }

    fn retract(&mut self, v: &Violation) {
        self.retracted += 1;
        self.events.extend(self.ledger.retract(v));
    }
}

/// A [`RowOp`] with its cells interned: what the engine validates,
/// primes, and executes.
#[derive(Debug)]
enum IdOp {
    Insert(Vec<ValueId>),
    Delete(RowId),
    Update(RowId, Vec<ValueId>),
}

impl IdOp {
    /// Intern one op's cells (one pool lock acquisition per record).
    fn intern(op: RowOp) -> IdOp {
        match op {
            RowOp::Insert(cells) => IdOp::Insert(ValuePool::intern_value_batch(&cells)),
            RowOp::Delete(row) => IdOp::Delete(row),
            RowOp::Update(row, cells) => IdOp::Update(row, ValuePool::intern_value_batch(&cells)),
        }
    }

    /// The cells an insert or update brings in (`None` for a delete).
    fn arriving(&self) -> Option<&[ValueId]> {
        match self {
            IdOp::Insert(cells) | IdOp::Update(_, cells) => Some(cells),
            IdOp::Delete(_) => None,
        }
    }

    /// Apply this (validated) op to `table`, calling
    /// `phase(table, row, removal)` around it: the removal phase before
    /// a delete or an update overwrites the row, while its cells are
    /// still the ones its violations were built from (so every
    /// retraction is structurally identical to the violation it
    /// cancels), and the insert phase once an insert or update has
    /// landed.
    fn run(self, table: &mut Table, mut phase: impl FnMut(&Table, RowId, bool)) {
        match self {
            IdOp::Insert(cells) => {
                let row = table.push_id_row(cells).expect("ops pre-validated");
                phase(table, row, false);
            }
            IdOp::Delete(row) => {
                phase(table, row, true);
                table.delete_row(row).expect("ops pre-validated");
            }
            IdOp::Update(row, cells) => {
                phase(table, row, true);
                table.update_id_row(row, cells).expect("ops pre-validated");
                phase(table, row, false);
            }
        }
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
fn validate_ops(table: &Table, ops: &[IdOp]) -> Result<(), TableError> {
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
            IdOp::Insert(cells) => {
                check_arity(next_slot, cells)?;
                next_slot += 1;
            }
            &IdOp::Delete(row) => {
                require_live(next_slot, &deleted, row)?;
                deleted.insert(row);
            }
            IdOp::Update(row, cells) => {
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
    /// Display form for violation evidence (matches batch output).
    display: String,
    /// The expected RHS constant, interned (agreement checks are id
    /// comparisons).
    expected: ValueId,
}

/// Incremental state for one variable tableau tuple.
#[derive(Debug)]
struct VariableTuple {
    /// Tableau index (orders it among the rule's constant tuples).
    tuple: usize,
    /// Each distinct LHS value's blocking key, derived once.
    keys: KeyMemo,
    /// Blocks keyed by constrained capture (whole value for wildcard
    /// LHS), as `keys` derived them.
    partition: BlockingPartition,
    /// Display form for violation evidence.
    display: String,
    /// Per key: what this tuple currently asserts about the block.
    blocks: FxHashMap<ValueId, BlockState>,
}

/// The violations a variable tuple currently asserts for one block, plus
/// the majority/witness context they were built under.
///
/// Invariant: `violations` always equals what `flag_block_minority` would
/// return for the block — maintained by symmetric transition paths for
/// inserts and removals:
///
/// 1. **majority flip** (or first non-null RHS): every violation embeds
///    the majority value, so none survives — retract all, re-derive,
///    re-create ([`BlockState::rederive`], `O(block)`, rare after
///    warm-up);
/// 2. **witness churn** (a majority row enters the first-`MAX_WITNESSES`
///    window, or a witness is deleted): every violation's witness list
///    changes — rewrite each ([`BlockState::rewrite_witnesses`],
///    `O(live violations)`);
/// 3. **minority arrival**: append one violation (`O(1)` — the hot
///    path); **minority departure**: retract exactly that row's
///    violation (`O(live violations)` lookup);
/// 4. **off-window majority churn**: a majority row beyond the witness
///    window arrives or leaves — nothing moves (`O(1)`).
#[derive(Debug, Default)]
struct BlockState {
    majority: Option<ValueId>,
    witnesses: Vec<RowId>,
    violations: Vec<Violation>,
}

impl BlockState {
    /// Retract every asserted violation and re-derive the block from
    /// scratch via the shared batch primitive — the `O(block)` path for
    /// transitions that invalidate all context (majority flips, drained
    /// blocks, deleted witnesses).
    #[allow(clippy::too_many_arguments)]
    fn rederive(
        &mut self,
        table: &Table,
        pfd: &Pfd,
        lhs: usize,
        rhs: usize,
        display: &str,
        key: ValueId,
        block: &KeyBlock,
        sink: &mut Sink,
    ) {
        for v in self.violations.drain(..) {
            sink.retract(&v);
        }
        self.majority = block.majority_id();
        self.witnesses = match self.majority {
            Some(m) => block
                .rows_with_rhs_ids()
                .filter(|&(_, v)| v == m)
                .map(|(r, _)| r)
                .take(MAX_WITNESSES)
                .collect(),
            None => Vec::new(),
        };
        if block.len() >= 2 {
            self.violations =
                flag_block_minority(table, pfd, lhs, rhs, display, key.render(), block.rows());
            for v in &self.violations {
                sink.create(v.clone());
            }
        }
    }

    /// Swap in a new witness list, rewriting every asserted violation
    /// (each is retracted and re-created, since witnesses are part of
    /// its identity).
    fn rewrite_witnesses(&mut self, witnesses: Vec<RowId>, sink: &mut Sink) {
        self.witnesses = witnesses;
        for v in &mut self.violations {
            sink.retract(v);
            if let ViolationKind::Variable { witnesses, .. } = &mut v.kind {
                witnesses.clone_from(&self.witnesses);
            }
            sink.create(v.clone());
        }
    }

    /// Retract the single violation asserted for `row`, if any — the
    /// minority-departure fast path.
    fn retract_row(&mut self, row: RowId, sink: &mut Sink) {
        if let Some(pos) = self.violations.iter().position(|v| v.row == row) {
            let v = self.violations.swap_remove(pos);
            sink.retract(&v);
        }
    }

    /// Retract everything (the block drained to empty).
    fn drain(&mut self, sink: &mut Sink) {
        for v in self.violations.drain(..) {
            sink.retract(&v);
        }
    }

    /// Rewrite the asserted context into a new id space — witnesses and
    /// every asserted violation translate together, silently (nothing
    /// reaches the ledger: nothing changed liveness). The majority value
    /// is row-id-free and stays put.
    fn apply_remap(&mut self, remap: &RowIdRemap) {
        remap.remap_sorted_in_place(&mut self.witnesses);
        for v in &mut self.violations {
            v.remap(remap);
        }
    }
}

impl ConstantTuple {
    /// One row whose LHS matched this tuple, through the same
    /// `violation_at` primitive batch detection uses: a disagreeing RHS
    /// creates the violation (arrivals) or retracts it (removals). Drift
    /// counts this rule's own assertion even when another rule already
    /// implied the same violation (the ledger refcounts those).
    #[allow(clippy::too_many_arguments)]
    fn process(
        &self,
        table: &Table,
        pfd: &Pfd,
        lhs: usize,
        rhs: usize,
        row: RowId,
        removal: bool,
        sink: &mut Sink,
    ) {
        if let Some(v) = violation_at(table, pfd, &self.display, self.expected, lhs, rhs, row) {
            if removal {
                sink.retract(&v);
            } else {
                sink.create(v);
            }
        }
    }
}

impl VariableTuple {
    /// Post-placement insert transition: `row` has just joined `key`'s
    /// block; update the block's asserted majority/witness/violation
    /// context.
    #[allow(clippy::too_many_arguments)]
    fn insert_transition(
        &mut self,
        table: &Table,
        pfd: &Pfd,
        lhs: usize,
        rhs: usize,
        rhs_id: ValueId,
        key: ValueId,
        row: RowId,
        sink: &mut Sink,
    ) {
        let block = self.partition.block(key).expect("row just joined");
        let new_majority = block.majority_id();
        let state = self.blocks.entry(key).or_default();
        if new_majority != state.majority {
            // Majority flip (or first non-null RHS): every asserted
            // violation embeds the old majority, so none survives.
            state.rederive(table, pfd, lhs, rhs, &self.display, key, block, sink);
        } else if let Some(majority) = state.majority {
            if rhs_id == majority {
                // New majority row: does it enter the
                // first-`MAX_WITNESSES` window? Appends only grow a
                // non-full list, but an update can re-insert a *smaller*
                // row id that displaces the window's tail.
                let enters = state.witnesses.len() < MAX_WITNESSES
                    || state.witnesses.last().is_some_and(|&last| row < last);
                if enters {
                    let mut witnesses = state.witnesses.clone();
                    let pos = witnesses.partition_point(|&r| r < row);
                    witnesses.insert(pos, row);
                    witnesses.truncate(MAX_WITNESSES);
                    state.rewrite_witnesses(witnesses, sink);
                }
            } else if block.len() >= 2 {
                // Minority arrival — the hot path: one new violation,
                // nothing else moves.
                let v = minority_violation(
                    table,
                    pfd,
                    lhs,
                    rhs,
                    &self.display,
                    key.render(),
                    majority.render(),
                    &state.witnesses,
                    row,
                );
                sink.create(v.clone());
                state.violations.push(v);
            }
        }
        // new majority == old == None: all-null block, nothing to assert.
    }

    /// Post-placement removal transition: `row` has just left `key`'s
    /// block — the exact inverse of
    /// [`VariableTuple::insert_transition`].
    #[allow(clippy::too_many_arguments)]
    fn removal_transition(
        &mut self,
        table: &Table,
        pfd: &Pfd,
        lhs: usize,
        rhs: usize,
        rhs_id: ValueId,
        key: ValueId,
        row: RowId,
        sink: &mut Sink,
    ) {
        let Some(state) = self.blocks.get_mut(&key) else {
            return; // row never asserted into this block
        };
        match self.partition.block(key) {
            None => {
                // The block drained: nothing left to flag, forget its
                // state entirely.
                state.drain(sink);
                self.blocks.remove(&key);
            }
            Some(block) => {
                let new_majority = block.majority_id();
                if new_majority != state.majority {
                    // Majority flip (or last non-null RHS gone): full
                    // re-derive, exactly like the insert-side flip.
                    state.rederive(table, pfd, lhs, rhs, &self.display, key, block, sink);
                } else if let Some(majority) = state.majority {
                    if state.witnesses.binary_search(&row).is_ok() {
                        // A witness left: the next majority row in block
                        // order (if any) takes its slot.
                        let witnesses = block
                            .rows_with_rhs_ids()
                            .filter(|&(_, v)| v == majority)
                            .map(|(r, _)| r)
                            .take(MAX_WITNESSES)
                            .collect();
                        state.rewrite_witnesses(witnesses, sink);
                    } else if rhs_id != majority {
                        // Minority departure — the fast path: exactly the
                        // row's own violation goes.
                        state.retract_row(row, sink);
                    }
                    // Majority row beyond the witness window: nothing
                    // moves.
                }
                // Both majorities None: all-null block, nothing was
                // asserted.
            }
        }
    }
}

/// One seeded rule with its resolved columns and per-tuple state.
///
/// Rule state holds no ledger and no drift counters:
/// [`RuleState::process`] reads the table and writes into a `Sink`,
/// and the engine owns the shared bookkeeping.
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
}

impl RuleState {
    /// Seed a rule over the columns it names in `schema`, compiling each
    /// constant tuple's LHS pattern once into the rule's [`TableauMemo`]
    /// and each variable tuple's keyer once into its [`KeyMemo`].
    fn seed(pfd: Pfd, schema: &Schema) -> RuleState {
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
            let display = match &t.lhs {
                LhsCell::Pattern(q) => q.to_string(),
                LhsCell::Wildcard => "⊥".to_string(),
            };
            match &t.rhs {
                RhsCell::Constant(expected) => constants.push(ConstantTuple {
                    tuple,
                    display,
                    expected: ValuePool::intern(expected),
                }),
                RhsCell::Wildcard => variables.push(VariableTuple {
                    tuple,
                    keys: KeyMemo::new(match &t.lhs {
                        LhsCell::Pattern(q) => Some(Arc::new(CompiledConstrained::compile(q))),
                        LhsCell::Wildcard => None,
                    }),
                    partition: BlockingPartition::default(),
                    display,
                    blocks: FxHashMap::default(),
                }),
            }
        }
        let memo = TableauMemo::new(pfd.tableau.iter().filter_map(|t| match (&t.rhs, &t.lhs) {
            (RhsCell::Constant(_), LhsCell::Pattern(q)) => Some(Some(q.embedded())),
            (RhsCell::Constant(_), LhsCell::Wildcard) => Some(None),
            (RhsCell::Wildcard, _) => None,
        }));
        RuleState {
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
    fn prime_batch(&mut self, ops: &[IdOp]) {
        let Some((lhs, _)) = self.cols else {
            return;
        };
        let lhs_ids = || {
            ops.iter()
                .filter_map(IdOp::arriving)
                .map(|cells| cells[lhs])
        };
        for vt in &mut self.variables {
            vt.keys.prime(lhs_ids());
        }
        self.memo.prime(lhs_ids());
    }

    /// Incorporate one row's arrival or, with `removal`, its departure,
    /// writing the resulting creations and retractions into `sink` in
    /// tableau order. A removal must run *before* the table slot is
    /// tombstoned (or overwritten), so the row's pre-op cells are the
    /// ones read. Inert rules (missing columns) emit nothing.
    ///
    /// Constant tuples cost one memo probe for the whole rule: only the
    /// tuples the row's LHS matches are visited, merged with the
    /// variable tuples in tableau order. A variable tuple whose key memo
    /// finds no key (null or non-matching LHS) forms no block and is
    /// skipped.
    ///
    /// Returns whether the row's LHS matched any tuple of the rule (what
    /// the drift monitor counts as a matched row).
    fn process(&mut self, table: &Table, row: RowId, removal: bool, sink: &mut Sink) -> bool {
        let Some((lhs, rhs)) = self.cols else {
            return false;
        };
        let RuleState {
            pfd,
            memo,
            constants,
            variables,
            ..
        } = self;
        let lhs_id = table.cell_id(row, lhs);
        let rhs_id = table.cell_id(row, rhs);
        let mut matched = memo
            .matches(lhs_id)
            .iter()
            .map(|&member| &constants[member as usize])
            .peekable();
        let mut any = matched.peek().is_some();
        // On removal this rebuilds the violation the arrival created (the
        // check is the same id comparison; the memo makes the pattern
        // free) and retracts it.
        for vt in variables.iter_mut() {
            while let Some(ct) = matched.next_if(|ct| ct.tuple < vt.tuple) {
                ct.process(table, pfd, lhs, rhs, row, removal, sink);
            }
            let Some(key) = vt.keys.key(lhs_id) else {
                continue;
            };
            any = true;
            if removal {
                vt.partition.remove(row, key);
                vt.removal_transition(table, pfd, lhs, rhs, rhs_id, key, row, sink);
            } else {
                vt.partition.insert(row, key, rhs_id);
                vt.insert_transition(table, pfd, lhs, rhs, rhs_id, key, row, sink);
            }
        }
        for ct in matched {
            ct.process(table, pfd, lhs, rhs, row, removal, sink);
        }
        any
    }

    /// Apply a compaction [`RowIdRemap`] to this rule's incremental
    /// state — the rule's side of the remap protocol.
    ///
    /// Constant tuples hold no row references (the tableau memo is keyed
    /// by value id) and are untouched, as are the key memos. Variable
    /// tuples remap their partition's row lists and every block's
    /// asserted witnesses/violations in place. Nothing is re-derived and
    /// no pattern or capture evaluation runs, so
    /// [`RuleState::pattern_evals`] is invariant under remap — the
    /// protocol's cheapness guarantee, pinned by tests.
    fn apply_remap(&mut self, remap: &RowIdRemap) {
        for vt in &mut self.variables {
            vt.partition.apply_remap(remap);
            for state in vt.blocks.values_mut() {
                state.apply_remap(remap);
            }
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
    ///   "900"` interns a string no cell holds) and asserted majority
    ///   ids (transitively live via block rows today, listed
    ///   belt-and-braces so the invariant doesn't depend on it).
    ///
    /// Memoized entries for values that since left (the tableau memo's,
    /// the key memos') are deliberately not protected — they are caches,
    /// purged instead ([`RuleState::purge_values`]).
    fn collect_protected(&self, out: &mut FxHashSet<u32>) {
        for ct in &self.constants {
            out.insert(ct.expected.raw());
        }
        for vt in &self.variables {
            for key in vt.partition.block_keys() {
                out.insert(key.raw());
            }
            for state in vt.blocks.values() {
                if let Some(majority) = state.majority {
                    out.insert(majority.raw());
                }
            }
        }
    }

    /// Drop every tableau-memo and key-memo entry keyed on (or caching)
    /// an id in `dead`, ahead of the pool recycling those ids for
    /// different strings (see [`TableauMemo::purge`] and
    /// [`KeyMemo::purge`] for why a stale entry would otherwise answer
    /// for the wrong value). Counters stay put — a purge performs no
    /// pattern work.
    fn purge_values(&mut self, dead: &FxHashSet<u32>) {
        let is_dead = |id: ValueId| dead.contains(&id.raw());
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
    /// Lifetime pool reclamation by this engine's sweeps.
    reclaim_stats: ReclaimStats,
    /// Snapshot pin: every live [`EngineSnapshot`] clones this `Arc`, so
    /// `strong_count > 1` ⇔ a snapshot may still resolve ids — sweeps
    /// defer (candidates stay queued in the table) until it drops.
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
        let drift = DriftMonitor::new(rules.len(), config.min_support, config.max_violation_ratio);
        let rules = rules
            .into_iter()
            .map(|pfd| RuleState::seed(pfd, &schema))
            .collect();
        let mut table = Table::empty(schema);
        if config.reclaim {
            // Batch-granular refcounting: the table retains each cell id
            // on insert and releases on delete/overwrite, recording ids
            // whose count hit zero as sweep candidates for the next
            // compaction barrier.
            table.enable_refcounts();
        }
        StreamEngine {
            table,
            rules,
            ledger: ViolationLedger::new(),
            drift,
            compact_ratio: config.compact_ratio,
            compaction: CompactionStats::default(),
            reclaim: config.reclaim,
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
    /// 2. every rule's blocking partitions and asserted block context
    ///    translate in place (`RuleState::apply_remap` — no pattern
    ///    re-evaluation, [`StreamEngine::pattern_evals`] is invariant;
    ///    the memos hold no row ids);
    /// 3. the ledger rewrites its live violations and adopts the epoch
    ///    (event history stays verbatim; see
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
    /// unless [`StreamConfig::reclaim`]): free every interned string
    /// whose last table reference died since the previous sweep, unless
    /// rule state still needs it.
    ///
    /// The candidate set is exactly the ids the refcounting table
    /// recorded at their last release, filtered twice at the barrier:
    ///
    /// 1. **refcount recheck** — the string may have been re-inserted
    ///    (same id: interning is idempotent) after the release that
    ///    queued it;
    /// 2. **protection** — rule state holds ids beyond live cells
    ///    (constant RHS constants, derived block keys); see
    ///    [`RuleState::collect_protected`].
    ///
    /// Survivors are purged from every tableau memo and key memo
    /// *before* [`ValuePool::reclaim`] queues them for recycling, so no
    /// cache can answer for a recycled id. While an [`EngineSnapshot`]
    /// is alive the whole sweep defers — candidates simply stay queued
    /// in the table for the next barrier.
    fn sweep_reclaimable(&mut self) {
        if !self.reclaim {
            return;
        }
        if Arc::strong_count(&self.snap_pin) > 1 {
            obs::counter!("pool.sweeps_deferred").incr();
            return;
        }
        let candidates: Vec<ValueId> = self
            .table
            .take_reclaim_candidates()
            .into_iter()
            .filter(|id| ValuePool::refcount(*id) == 0)
            .collect();
        if candidates.is_empty() {
            return;
        }
        let mut protected = FxHashSet::default();
        for rule in &self.rules {
            rule.collect_protected(&mut protected);
        }
        let doomed: Vec<ValueId> = candidates
            .into_iter()
            .filter(|id| !protected.contains(&id.raw()))
            .collect();
        if doomed.is_empty() {
            return;
        }
        let dead: FxHashSet<u32> = doomed.iter().map(|id| id.raw()).collect();
        for rule in &mut self.rules {
            rule.purge_values(&dead);
        }
        let stats = ValuePool::reclaim(doomed);
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
    /// continues. Capture is `O(chunks + live violations)` handle clones
    /// (no cell is copied); subsequent engine mutations pay one chunk
    /// copy per first-touched chunk (`snapshot.cow_copies`).
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

    /// Ingest one row; returns the violation events it caused (creations
    /// and retractions), in rule/tableau order with retractions first
    /// within each affected block. Like every row-level entry point,
    /// this is a one-op [`StreamEngine::apply`].
    ///
    /// Each cell is interned exactly once here; everything downstream
    /// (blocking, memoized matching, agreement checks) operates on `Copy`
    /// ids.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<Vec<LedgerEvent>, TableError> {
        self.apply([RowOp::Insert(row)])
    }

    /// Ingest one row of already-interned ids — the clone-free ingest
    /// path (no string is copied, hashed, or even read).
    pub fn push_id_row(&mut self, row: Vec<ValueId>) -> Result<Vec<LedgerEvent>, TableError> {
        self.run_ops([IdOp::Insert(row)])
    }

    /// Ingest one row of raw strings (fields go through
    /// [`Value::from_field`]).
    pub fn push_str_row<'a>(
        &mut self,
        row: impl IntoIterator<Item = &'a str>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        self.push_row(row.into_iter().map(Value::from_field).collect())
    }

    /// Ingest a batch of rows; returns the concatenated events.
    ///
    /// Atomic with respect to errors: every row's arity is validated
    /// before any row is ingested, so a malformed batch leaves the
    /// engine untouched and no emitted event is ever lost to an `Err`.
    pub fn push_batch(
        &mut self,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        self.run_ops(
            rows.into_iter()
                .map(|r| IdOp::Insert(ValuePool::intern_value_batch(&r))),
        )
    }

    /// Ingest a batch of already-interned rows; returns the concatenated
    /// events. Atomic with respect to errors like
    /// [`StreamEngine::push_batch`].
    pub fn push_id_batch(
        &mut self,
        rows: impl IntoIterator<Item = Vec<ValueId>>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        self.run_ops(rows.into_iter().map(IdOp::Insert))
    }

    /// [`StreamEngine::apply`], with the events wrapped in the one
    /// [`BatchEvents`] returned. Kept only for the benchmark harness;
    /// see [`BatchEvents`].
    pub fn submit(
        &mut self,
        ops: impl IntoIterator<Item = RowOp>,
    ) -> Result<Vec<BatchEvents>, TableError> {
        Ok(vec![BatchEvents {
            events: self.apply(ops)?,
        }])
    }

    /// Returns nothing: every batch completes when it is submitted. Kept
    /// only for the benchmark harness; see [`BatchEvents`].
    #[must_use]
    pub fn flush(&self) -> Vec<BatchEvents> {
        Vec::new()
    }

    /// The path every entry point lowers to. Intern (lazily, as `ops` is
    /// collected) and validate one batch (`validate_ops`, the only
    /// validator), run it, and return its events. The whole batch
    /// addresses one id space, so the auto-compaction check waits until
    /// after it.
    fn run_ops(
        &mut self,
        ops: impl IntoIterator<Item = IdOp>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        let _batch = obs::span!("engine.batch_ns");
        let ops: Vec<IdOp> = ops.into_iter().collect();
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

    /// Run a validated batch: prime every rule over the batch's arriving
    /// LHS values (count-neutral by construction), then run each op's
    /// phases through every rule in index order, with one drift call per
    /// rule per phase carrying that phase's totals.
    fn run(&mut self, ops: Vec<IdOp>) -> Vec<LedgerEvent> {
        let _apply = obs::span!("engine.apply_ns");
        for rule in &mut self.rules {
            rule.prime_batch(&ops);
        }
        let StreamEngine {
            table,
            rules,
            ledger,
            drift,
            ..
        } = self;
        let mut events = Vec::new();
        for op in ops {
            op.run(table, |table, row, removal| {
                for (index, rule) in rules.iter_mut().enumerate() {
                    let mut sink = Sink {
                        ledger: &mut *ledger,
                        events: &mut events,
                        created: 0,
                        retracted: 0,
                    };
                    let matched = rule.process(table, row, removal, &mut sink);
                    let (created, retracted) = (sink.created, sink.retracted);
                    if removal {
                        drift.retire(index, matched, created, retracted);
                    } else {
                        drift.observe(index, matched, created, retracted);
                    }
                }
            });
        }
        events
    }

    /// Replay an existing table's *live* rows in row order, as one
    /// batch (the table's schema must match the engine's; tombstoned
    /// slots are skipped, so the replayed state matches batch detection
    /// on the survivors — note the engine assigns fresh, dense slot
    /// ids). Clone-free: rows are carried over as interned ids.
    pub fn replay_table(&mut self, table: &Table) -> Result<Vec<LedgerEvent>, TableError> {
        self.run_ops(table.iter_live().map(|r| IdOp::Insert(table.row_ids(r))))
    }

    /// Delete one live row; returns the retractions it causes (plus any
    /// creations where a block's majority flipped). Cost is one memo
    /// probe plus the matched tuples for constant tuples and
    /// `O(log block + run cap)` for
    /// variable tuples, plus `O(block)` only where the delete flips a
    /// block's majority — never `O(table)`. The slot is tombstoned, so
    /// every other `RowId` stays valid — until auto-compaction (if
    /// enabled) crosses its threshold at the end of this call and
    /// renumbers; watch [`StreamEngine::epoch`].
    pub fn delete_row(&mut self, row: RowId) -> Result<Vec<LedgerEvent>, TableError> {
        self.run_ops([IdOp::Delete(row)])
    }

    /// Update one live row in place — delete + insert *fused on one
    /// slot*, so the caller gets a single event batch (old assertions
    /// retracted, new ones created) and the row keeps its `RowId`.
    pub fn update_row(
        &mut self,
        row: RowId,
        cells: Vec<Value>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        self.apply([RowOp::Update(row, cells)])
    }

    /// Update one live row with already-interned ids (the clone-free
    /// counterpart of [`StreamEngine::update_row`]).
    pub fn update_id_row(
        &mut self,
        row: RowId,
        cells: Vec<ValueId>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        self.run_ops([IdOp::Update(row, cells)])
    }

    /// Apply a batch of [`RowOp`]s; returns the concatenated events.
    ///
    /// Each record is interned once. Atomic with respect to errors, like
    /// the push-batch entry points: the whole batch is validated (in
    /// `O(batch)`) against the engine's live set as the batch evolves it
    /// — arity of every insert/update, liveness of every addressed row
    /// *at its point in the sequence* — before any op executes, so a
    /// malformed op-log leaves the engine untouched.
    pub fn apply(
        &mut self,
        ops: impl IntoIterator<Item = RowOp>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        self.run_ops(ops.into_iter().map(IdOp::intern))
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

    /// Streaming health counters for one rule.
    #[must_use]
    pub fn rule_health(&self, rule: usize) -> RuleHealth {
        self.drift.health(rule)
    }

    /// Rules whose live confidence decayed below the discovery threshold
    /// — candidates for demotion to `RuleStatus::Pending`.
    ///
    /// Rule-index order is part of the API contract (consumers key the
    /// `anmat rules` listing off it), so it is enforced with an explicit
    /// sort rather than left as a side effect of how the reports happen
    /// to be gathered.
    #[must_use]
    pub fn drift_report(&self) -> Vec<DriftReport> {
        let mut reports: Vec<DriftReport> = self
            .rules()
            .enumerate()
            .filter_map(|(i, pfd)| self.drift.judge(i, pfd.embedded_fd()))
            .collect();
        reports.sort_by_key(|r| r.rule);
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anmat_core::{detect_all, PatternTuple, ViolationKind};
    use anmat_pattern::ConstrainedPattern;
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

    #[test]
    fn constant_violation_on_arrival() {
        let mut engine = StreamEngine::new(schema(), vec![zip_constant_pfd()]);
        assert!(engine
            .push_str_row(["90001", "Los Angeles"])
            .unwrap()
            .is_empty());
        let events = engine.push_str_row(["90004", "New York"]).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].is_created());
        assert_eq!(events[0].violation().row, 1);
        // Non-matching zips are ignored.
        assert!(engine
            .push_str_row(["10001", "New York"])
            .unwrap()
            .is_empty());
        assert_eq!(engine.ledger().live_count(), 1);
    }

    #[test]
    fn variable_violation_needs_a_block_peer() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        assert!(engine
            .push_str_row(["90001", "Los Angeles"])
            .unwrap()
            .is_empty());
        // Second row disagrees: 1–1 tie, lexicographic majority wins and
        // the other row is flagged.
        let events = engine.push_str_row(["90002", "New York"]).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].is_created());
    }

    #[test]
    fn majority_flip_retracts_and_reflags() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        engine.push_str_row(["90001", "Los Angeles"]).unwrap();
        engine.push_str_row(["90002", "New York"]).unwrap();
        // Tie broken lexicographically: majority "Los Angeles", row 1
        // flagged.
        assert_eq!(engine.ledger().snapshot()[0].row, 1);
        // Two more New York rows flip the majority: row 1's violation is
        // retracted, row 0 becomes the minority.
        let events = engine.push_str_row(["90003", "New York"]).unwrap();
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
            engine.push_str_row(row).unwrap();
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
        assert!(engine.push_str_row(["90001", "LA"]).unwrap().is_empty());
        assert_eq!(engine.rule_health(0).matched_rows, 0);
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
            engine.push_str_row([zip.as_str(), "San Diego"]).unwrap();
        }
        let report = engine.drift_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].dependency, "zip → city");
        assert_eq!(report[0].live_violations, 10);
        assert!(report[0].confidence < report[0].min_confidence);
    }

    #[test]
    fn duplicate_rules_keep_symmetric_drift_health() {
        // Two identical rules imply the same violations; the ledger
        // refcounts them to one live copy, but each rule's drift health
        // must count its own assertions — and stay balanced when a
        // majority flip retracts them.
        let rules = vec![zip_variable_pfd(), zip_variable_pfd()];
        let mut engine = StreamEngine::new(schema(), rules);
        engine.push_str_row(["90001", "Los Angeles"]).unwrap();
        engine.push_str_row(["90002", "New York"]).unwrap();
        engine.push_str_row(["90003", "New York"]).unwrap();
        engine.push_str_row(["90004", "New York"]).unwrap();
        assert_eq!(engine.ledger().live_count(), 1);
        let (h0, h1) = (engine.rule_health(0), engine.rule_health(1));
        assert_eq!(h0, h1, "identical rules must report identical health");
        assert_eq!(h0.live_violations, 1);
        assert!(h0.confidence() > 0.7);
    }

    #[test]
    fn push_batch_is_atomic_on_arity_error() {
        let mut engine = StreamEngine::new(schema(), vec![zip_constant_pfd()]);
        let bad_batch = vec![
            vec![Value::from_field("90001"), Value::from_field("New York")],
            vec![Value::from_field("oops")], // wrong arity
        ];
        assert!(engine.push_batch(bad_batch).is_err());
        // Nothing from the batch was ingested: no rows, no silent events.
        assert_eq!(engine.row_count(), 0);
        assert!(engine.ledger().is_empty());
    }

    #[test]
    fn push_batch_concatenates_events() {
        let mut engine = StreamEngine::new(schema(), vec![zip_constant_pfd()]);
        let rows: Vec<Vec<Value>> = [["90001", "New York"], ["90002", "Boston"]]
            .iter()
            .map(|r| r.iter().map(|s| Value::from_field(s)).collect())
            .collect();
        let events = engine.push_batch(rows).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(engine.row_count(), 2);
    }

    #[test]
    fn delete_retracts_constant_violation() {
        let mut engine = StreamEngine::new(schema(), vec![zip_constant_pfd()]);
        engine.push_str_row(["90001", "Los Angeles"]).unwrap();
        engine.push_str_row(["90004", "New York"]).unwrap();
        assert_eq!(engine.ledger().live_count(), 1);
        let events = engine.delete_row(1).unwrap();
        assert_eq!(events.len(), 1);
        assert!(!events[0].is_created());
        assert_eq!(events[0].violation().row, 1);
        assert!(engine.ledger().is_empty());
        assert_eq!(engine.live_rows(), 1);
        assert_eq!(engine.row_count(), 2);
        // The rule's drift health shrank with the stream.
        assert_eq!(engine.rule_health(0).matched_rows, 1);
        assert_eq!(engine.rule_health(0).live_violations, 0);
    }

    #[test]
    fn delete_of_majority_rows_flips_the_block() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        engine.push_str_row(["90001", "Los Angeles"]).unwrap();
        engine.push_str_row(["90002", "New York"]).unwrap();
        engine.push_str_row(["90003", "New York"]).unwrap();
        // Majority "New York"; row 0 is the minority.
        assert_eq!(engine.ledger().snapshot()[0].row, 0);
        // Deleting both New York rows flips the majority to Los
        // Angeles: row 0's violation retracts, nothing remains to flag.
        engine.delete_row(1).unwrap();
        let events = engine.delete_row(2).unwrap();
        assert!(events.iter().any(|e| !e.is_created()));
        assert!(engine.ledger().is_empty());
        assert_eq!(engine.live_rows(), 1);
    }

    #[test]
    fn delete_errors_are_safe() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        engine.push_str_row(["90001", "Los Angeles"]).unwrap();
        assert!(matches!(
            engine.delete_row(7),
            Err(TableError::NoSuchRow { row: 7 })
        ));
        engine.delete_row(0).unwrap();
        assert!(matches!(
            engine.delete_row(0),
            Err(TableError::NoSuchRow { row: 0 })
        ));
        assert!(matches!(
            engine.update_row(0, vec![Value::text("x"), Value::text("y")]),
            Err(TableError::NoSuchRow { row: 0 })
        ));
    }

    #[test]
    fn update_fuses_delete_and_insert_on_one_slot() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        engine.push_str_row(["90001", "Los Angeles"]).unwrap();
        engine.push_str_row(["90002", "Los Angeles"]).unwrap();
        engine.push_str_row(["90003", "New York"]).unwrap();
        // Row 2 is the minority.
        assert_eq!(engine.ledger().snapshot()[0].row, 2);
        // Correcting it in place retracts the violation in the same
        // event batch; the slot keeps its id.
        let events = engine
            .update_row(2, vec![Value::text("90003"), Value::text("Los Angeles")])
            .unwrap();
        assert!(events.iter().any(|e| !e.is_created()));
        assert!(engine.ledger().is_empty());
        assert_eq!(engine.row_count(), 3);
        assert_eq!(engine.live_rows(), 3);
        assert_eq!(engine.table().cell_str(2, 1), Some("Los Angeles"));
        // And making it wrong again re-creates a fresh violation.
        let events = engine
            .update_row(2, vec![Value::text("90003"), Value::text("Boston")])
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
        engine.push_str_row(["90001", "Los Angeles"]).unwrap();
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
        assert!(engine.apply([]).unwrap().is_empty());
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
            engine.push_str_row([zip, city]).unwrap();
        }
        engine.delete_row(0).unwrap();
        engine.delete_row(2).unwrap();
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
        let events = engine.delete_row(1).unwrap();
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
            engine.push_str_row([zip.as_str(), "Los Angeles"]).unwrap();
        }
        // Three deletes: 3/8 < 0.5, no compaction yet.
        for row in 0..3 {
            engine.delete_row(row).unwrap();
        }
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.row_count(), 8);
        // Fourth delete crosses 4/8 >= 0.5: compaction runs at the end
        // of the call, slots shrink to the live rows.
        engine.delete_row(3).unwrap();
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
    fn deleted_witness_is_replaced_in_evidence() {
        let mut engine = StreamEngine::new(schema(), vec![zip_variable_pfd()]);
        for (zip, city) in [
            ("90001", "Los Angeles"),
            ("90002", "Los Angeles"),
            ("90003", "New York"),
        ] {
            engine.push_str_row([zip, city]).unwrap();
        }
        let before = engine.ledger().snapshot();
        match &before[0].kind {
            ViolationKind::Variable { witnesses, .. } => assert_eq!(witnesses, &vec![0, 1]),
            other => panic!("unexpected {other:?}"),
        }
        // Deleting witness row 0 must rewrite the evidence, not dangle.
        let events = engine.delete_row(0).unwrap();
        assert_eq!(events.len(), 2, "retract + re-create with new witnesses");
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
    fn validate_ops_full_copy(table: &Table, ops: &[IdOp]) -> Result<(), TableError> {
        let arity = table.schema().arity();
        let mut live: Vec<bool> = (0..table.row_count()).map(|r| table.is_live(r)).collect();
        for op in ops {
            match op {
                IdOp::Insert(cells) => {
                    if cells.len() != arity {
                        return Err(TableError::ArityMismatch {
                            row: live.len(),
                            found: cells.len(),
                            expected: arity,
                        });
                    }
                    live.push(true);
                }
                &IdOp::Delete(row) => {
                    if !live.get(row).copied().unwrap_or(false) {
                        return Err(TableError::NoSuchRow { row });
                    }
                    live[row] = false;
                }
                IdOp::Update(row, cells) => {
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
    fn random_batch(rng: &mut StdRng, table: &Table) -> Vec<IdOp> {
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
                    ops.push(IdOp::Insert(cells(rng)));
                    touched.push(slots);
                    slots += 1;
                }
                1 => {
                    ops.push(IdOp::Delete(row));
                    touched.push(row);
                }
                _ => ops.push(IdOp::Update(row, cells(rng))),
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
                        match op {
                            IdOp::Insert(cells) => drop(table.push_id_row(cells).unwrap()),
                            IdOp::Delete(row) => table.delete_row(row).unwrap(),
                            IdOp::Update(row, cells) => table.update_id_row(row, cells).unwrap(),
                        }
                    }
                }
            }
            prop_assert!(outcomes[0] > 0, "no batch was rejected");
            prop_assert!(outcomes[1] > 0, "no batch was accepted");
        }
    }
}
