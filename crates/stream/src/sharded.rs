//! Sharded execution of the incremental engine: rule (or key-range)
//! state spread across worker threads, one deterministic merged event
//! stream, with optional cross-batch pipelining.
//!
//! # Two sharding axes
//!
//! **Rule-granular** ([`ShardBy::Rule`], the default): every rule's
//! incremental state (match memos, blocking partition, per-block
//! assertions) is independent of every other rule's — the only
//! cross-rule structures are the [`ViolationLedger`] (which refcounts
//! identical violations asserted by different rules) and the
//! [`DriftMonitor`]. Each worker owns a disjoint subset of the seeded
//! rules and processes every op for exactly those rules. Zero routing
//! cost, but one heavy rule is capped at one core.
//!
//! **Key-granular** ([`ShardBy::Key`]): every worker holds every rule,
//! but only the tuples whose *blocking key* hashes into one of the
//! worker's slots. The key space is split into [`KEY_SLOTS`] hash slots
//! and slot `s` belongs to worker `s % shards`, so each worker owns a
//! disjoint set of keys and a single rule's blocks spread over all
//! cores. The coordinator derives every blocking key exactly once
//! (memoized per distinct LHS value, so pattern work is still paid once
//! per distinct value) and ships the routes with the batch; workers
//! insert/remove by the pre-derived key and run the identical
//! block-transition code. Because each worker owns whole blocks,
//! block-majority re-derivation stays local — no cross-worker votes,
//! only per-`(rule, tuple)` delta merging on the coordinator.
//!
//! # The shard/merge protocol
//!
//! A batch of [`RowOp`]s is interned and validated **once** by the
//! coordinator (one `ValuePool` lock acquisition per record via
//! `intern_value_batch`), then fanned out over bounded channels as one
//! shared `Arc` of id-ops (plus, in key mode, the per-op route table).
//! Each worker applies the ops *in order* to its own id-table replica
//! (4-byte cells; the string bytes live once, in the process-global
//! pool, whose `resolve` is lock-free) and runs its share of the
//! `process_insert`/`process_removal` delta core against it — the exact
//! code the single-threaded engine runs, against an identical table
//! state at every op. Workers return, per op and per phase (removal,
//! then insert), the deltas they produced, tagged `(rule, tuple)`.
//!
//! The coordinator merges: for each op, phase by phase, deltas are
//! ordered by **(global rule index, tableau tuple index)**, each rule's
//! partial drift tallies are folded into one [`DriftDelta`]
//! (`matched` ORs, counts add) and applied once, then the rule's deltas
//! replay into the one ledger. That is the same ledger/drift call
//! sequence `StreamEngine` performs, so cross-rule refcount dedup,
//! event contents, and event *order* are bit-for-bit identical — the
//! determinism contract `tests/shard_equivalence.rs` pins down for
//! 1/2/4 shards on both axes against the single-threaded engine.
//!
//! # Cross-batch pipelining
//!
//! With `StreamConfig::run_ahead = N`, [`ShardedEngine::submit`] fans a
//! batch out and returns without waiting: up to `N` batches may be in
//! flight (fanned out but unmerged) while workers chew. Every batch is
//! tagged with a monotone **epoch sequence number** at submission;
//! replies carry it back, and the coordinator merges strictly in
//! submission order ([`BatchEvents`] is the per-batch unit), so the
//! event stream is byte-identical to `run_ahead = 0` — pipelining
//! changes *when* the merge happens, never its order. Barriers
//! (compaction, stats gathering) drain the window first.
//! [`ShardedEngine::apply`] remains the synchronous path: submit, drain,
//! concatenate.
//!
//! # Placement
//!
//! Placement is fixed when the engine is built and never changes, so no
//! state ever moves between workers. In rule mode,
//! [`ShardedEngine::with_config`] deals the rules round-robin in
//! descending order of an a-priori weight. In key mode a key belongs to
//! the worker `owner_of` names: its hash slot modulo the worker count.
//! Workers filter their share with that function and the coordinator
//! builds its routing bitmasks with it, so the two always agree.
//!
//! # The epoch barrier
//!
//! Tombstone compaction is the one maneuver that rewrites `RowId`s, so
//! it runs as a coordinated barrier ([`ShardedEngine::compact`]): the
//! pipeline drains, the coordinator compacts its canonical table,
//! broadcasts the resulting `RowIdRemap`, and every worker compacts its
//! own replica (bit-identical, asserted in debug builds) and remaps its
//! rules' partitions and asserted violations in place before
//! acknowledging. No op batch ever straddles two id spaces — the
//! auto-trigger (`StreamConfig::compact_ratio`) is checked after every
//! *submitted* batch against the canonical table (which the coordinator
//! advances at submission), the same boundaries the single-threaded
//! engine uses, which is what keeps the equivalence contract alive
//! across compactions.

use crate::drift::{DriftDelta, DriftMonitor, DriftReport, RuleHealth};
use crate::engine::{
    apply_deltas, should_compact, validate_ops, CompactionStats, CompiledRule, Delta, DeltaSink,
    EngineSnapshot, IdOp, RuleState, ShardBy, StreamConfig, TupleDeltas,
};
use anmat_core::{LedgerEvent, Pfd, RhsCell, ViolationLedger};
use anmat_index::BlockingPartition;
use anmat_obs as obs;
use anmat_table::{
    ReclaimStats, RowId, RowIdRemap, RowOp, Schema, Table, TableError, Value, ValueId, ValuePool,
};
use fxhash::FxHashSet;
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Number of hash slots the key space is split into under
/// [`ShardBy::Key`]. Slots are the unit of ownership: slot `s` belongs
/// to worker `s % shards` for the engine's whole lifetime (see
/// `owner_of`), which is also why key mode clamps the worker count to
/// this figure.
pub const KEY_SLOTS: usize = 128;

/// The hash slot a key (`ValueId::raw`) falls into: a Fibonacci
/// multiplicative hash taking the top 7 bits. Interned ids are dense
/// sequential integers, so taking the *high* bits of the product
/// scatters adjacent ids across slots.
fn slot_of_raw(raw: u32) -> usize {
    (raw.wrapping_mul(0x9E37_79B9) >> 25) as usize
}

/// The worker that owns a key (`ValueId::raw`) under [`ShardBy::Key`]
/// with `shards` workers — the one place key ownership is decided.
fn owner_of(raw: u32, shards: usize) -> usize {
    slot_of_raw(raw) % shards
}

/// One fanned-out batch: the interned ops plus (in key mode) the
/// coordinator-derived blocking-key routes, shared as one `Arc` across
/// workers.
///
/// Routes are one `Option<ValueId>` per variable tuple of every rule
/// (tableau order, rule-major — sliced per rule via the shared layout),
/// flattened across ops at a fixed `stride` so the whole batch routes
/// in two allocations: op `k`'s routes for a phase occupy
/// `[k * stride, (k + 1) * stride)`. `None` means the op's LHS was null
/// or did not match the tuple's key extractor: no block forms, every
/// worker skips it. Phases an op never runs (the removal half of an
/// insert, the insert half of a delete) hold `None` padding no worker
/// reads. Both vectors are empty in rule mode.
#[derive(Debug)]
struct RoutedBatch {
    ops: Vec<IdOp>,
    /// The tableau-wide variable-tuple count (`0` in rule mode).
    stride: usize,
    /// Removal-phase routes, derived from each row's *pre-op* cells
    /// (deletes and the first half of updates).
    removal: Vec<Option<ValueId>>,
    /// Insert-phase routes, derived from the arriving cells.
    insert: Vec<Option<ValueId>>,
    /// Per-`(op, worker)` rule bitmasks (`masks[op * shards + worker]`,
    /// bit `r` = worker has owned work for rule `r` this phase): the
    /// coordinator already hashes every route key, so it decides each
    /// worker's rule visits up front and workers iterate set bits
    /// instead of screening every rule per op. Exact, not conservative —
    /// a set bit is precisely "some per-tuple ownership check inside
    /// `process_*_key` will pass". Empty when more than 64 rules are
    /// live (workers fall back to screening) and in rule mode.
    removal_masks: Vec<u64>,
    insert_masks: Vec<u64>,
}

/// Deltas one rule produced for one phase of one op, tagged with the
/// emitting tableau tuple (always 0 in rule mode, where a rule's whole
/// phase runs on one worker).
struct RuleDeltas {
    rule: usize,
    tuple: usize,
    matched: bool,
    created: usize,
    retracted: usize,
    deltas: Vec<Delta>,
}

/// What one shard produced for one op: the removal phase (deletes and
/// the first half of updates), then the insert phase.
#[derive(Default)]
struct OpOutcome {
    removal: Vec<RuleDeltas>,
    insert: Vec<RuleDeltas>,
}

/// Per-rule load/observability figures a worker reports on request.
struct RuleStats {
    blocks: usize,
    pattern_evals: usize,
    pattern_lookups: usize,
}

enum WorkerMsg {
    Batch {
        /// The batch's epoch sequence number; echoed back in the reply
        /// so the coordinator can assert in-order merging.
        seq: u64,
        batch: Arc<RoutedBatch>,
    },
    Stats,
    /// The epoch barrier: compact the replica and remap rule state with
    /// the coordinator's broadcast remap, then acknowledge.
    Compact(Arc<RowIdRemap>),
    /// Reclamation phase 1: report which of these candidate ids this
    /// worker's rule state still needs (constant RHS constants, block
    /// keys — see `RuleState::collect_protected`).
    ReclaimScan(Arc<Vec<ValueId>>),
    /// Reclamation phase 2: these ids are about to be freed — purge
    /// every memo/key-cache entry keyed on (or caching) one, then
    /// acknowledge.
    ReclaimApply(Arc<FxHashSet<u32>>),
}

enum WorkerReply {
    Batch {
        seq: u64,
        outcomes: Vec<OpOutcome>,
    },
    Stats(Vec<RuleStats>),
    Compacted,
    /// The subset of a `ReclaimScan`'s candidates this worker vetoes.
    ReclaimVeto(Vec<u32>),
    /// `ReclaimApply` done — caches purged, safe to free the ids.
    Reclaimed,
}

/// One worker thread's state: its table replica and its rule states
/// (a disjoint subset in rule mode; every rule in key mode, restricted
/// to the owned key slots). Kept sorted by global rule index so per-op
/// outcomes come out pre-ordered.
struct Worker {
    table: Table,
    rules: Vec<(usize, RuleState)>,
    shard: usize,
    /// Worker count: with `shard`, fixes the keys this worker owns in
    /// key mode (`owner_of`) and indexes the per-op rule bitmasks.
    shards: usize,
    mode: ShardBy,
    /// Rule → `(offset, len)` into each op's flat route vector (shared,
    /// immutable — the tableau never changes after seeding).
    layout: Arc<Vec<(usize, usize)>>,
    /// Per-shard occupancy of the inbound bounded channel — the
    /// coordinator raises it on send, this worker lowers it on dequeue.
    queue_depth: &'static obs::Gauge,
    /// Per-shard batches processed and time spent processing them.
    batches: &'static obs::Counter,
    busy_ns: &'static obs::Histogram,
}

impl Worker {
    fn run(mut self, rx: &Receiver<WorkerMsg>, tx: &SyncSender<WorkerReply>) {
        while let Ok(msg) = rx.recv() {
            self.queue_depth.sub(1);
            let reply = match msg {
                WorkerMsg::Batch { seq, batch } => {
                    self.batches.incr();
                    let _busy = obs::Span::start(self.busy_ns);
                    WorkerReply::Batch {
                        seq,
                        outcomes: self.process_batch(&batch),
                    }
                }
                WorkerMsg::Stats => WorkerReply::Stats(
                    self.rules
                        .iter()
                        .map(|(_, state)| RuleStats {
                            blocks: state.block_count(),
                            pattern_evals: state.pattern_evals(),
                            pattern_lookups: state.pattern_lookups(),
                        })
                        .collect(),
                ),
                WorkerMsg::Compact(remap) => {
                    // The replica is op-for-op identical to the
                    // coordinator's table, so compacting it locally
                    // reproduces the broadcast remap exactly — asserted
                    // in debug builds, which the equivalence proptests
                    // run under.
                    let local = self.table.compact();
                    debug_assert_eq!(
                        &local,
                        remap.as_ref(),
                        "worker replica diverged from the coordinator's table"
                    );
                    for (_, state) in &mut self.rules {
                        state.apply_remap(&remap);
                    }
                    WorkerReply::Compacted
                }
                WorkerMsg::ReclaimScan(candidates) => {
                    // Veto = candidates ∩ this worker's protected ids.
                    // The union of vetoes across workers covers every
                    // protected id of every rule on both axes: rule mode
                    // partitions the rules, key mode partitions each
                    // rule's blocks (constant tuples are replicated, so
                    // their vetoes just repeat).
                    let mut protected = FxHashSet::default();
                    for (_, state) in &self.rules {
                        state.collect_protected(&mut protected);
                    }
                    WorkerReply::ReclaimVeto(
                        candidates
                            .iter()
                            .map(|id| id.raw())
                            .filter(|raw| protected.contains(raw))
                            .collect(),
                    )
                }
                WorkerMsg::ReclaimApply(dead) => {
                    for (_, state) in &mut self.rules {
                        state.purge_values(&dead);
                    }
                    WorkerReply::Reclaimed
                }
            };
            if tx.send(reply).is_err() {
                break; // coordinator gone
            }
        }
    }

    fn process_batch(&mut self, batch: &RoutedBatch) -> Vec<OpOutcome> {
        // Batch-classify each owned rule's caches over the batch's
        // insert/update rows before any per-row work (count-neutral; see
        // `RuleState::prime_batch`). In key mode only the owned LHS ids
        // are primed, so summing worker memos still matches the
        // single-threaded eval count.
        let arriving: Vec<&[ValueId]> = batch.ops.iter().filter_map(IdOp::arriving).collect();
        match self.mode {
            ShardBy::Rule => {
                for (_, state) in &mut self.rules {
                    state.prime_batch(&arriving);
                }
            }
            ShardBy::Key => {
                let (me, shards) = (self.shard, self.shards);
                let owns = move |id: ValueId| owner_of(id.raw(), shards) == me;
                // Mask-gated priming only pays off when the masks
                // actually prune (several workers); at one shard every
                // bit is set and rebuilding the row list per rule would
                // just duplicate `arriving`.
                if batch.insert_masks.is_empty() || shards == 1 {
                    for (_, state) in &mut self.rules {
                        state.prime_batch_key(&arriving, &owns);
                    }
                } else {
                    // Mask-gated priming: a rule with constant tuples
                    // always has its bit set on the LHS id's owner, so
                    // scanning only mask-flagged ops still shows the
                    // owner every row it must classify — the `owns`
                    // filter inside stays exact, evals don't double.
                    let mut owned: Vec<&[ValueId]> = Vec::with_capacity(arriving.len());
                    for (rule, state) in &mut self.rules {
                        let bit = 1u64 << *rule;
                        owned.clear();
                        owned.extend(batch.ops.iter().enumerate().filter_map(|(op_idx, op)| {
                            if batch.insert_masks[op_idx * shards + me] & bit == 0 {
                                return None;
                            }
                            op.arriving()
                        }));
                        state.prime_batch_key(&owned, &owns);
                    }
                }
            }
        }
        batch
            .ops
            .iter()
            .enumerate()
            .map(|(op_idx, op)| {
                let mut outcome = OpOutcome::default();
                match op {
                    IdOp::Insert(cells) => {
                        let row = self
                            .table
                            .push_id_cells(cells)
                            .expect("coordinator validated the batch");
                        outcome.insert = self.phase(batch, op_idx, row, false);
                    }
                    IdOp::Delete(row) => {
                        // Removal runs against the pre-delete cells, as
                        // in the single-threaded engine.
                        outcome.removal = self.phase(batch, op_idx, *row, true);
                        self.table
                            .delete_row(*row)
                            .expect("coordinator validated the batch");
                    }
                    IdOp::Update(row, cells) => {
                        outcome.removal = self.phase(batch, op_idx, *row, true);
                        self.table
                            .update_id_cells(*row, cells)
                            .expect("coordinator validated the batch");
                        outcome.insert = self.phase(batch, op_idx, *row, false);
                    }
                }
                outcome
            })
            .collect()
    }

    /// Run one phase of one op for this worker's share of the rules, in
    /// ascending global rule order. No-op entries (unmatched, no
    /// deltas) are dropped — they would be drift no-ops at the merge
    /// anyway.
    fn phase(
        &mut self,
        batch: &RoutedBatch,
        op_idx: usize,
        row: RowId,
        removal: bool,
    ) -> Vec<RuleDeltas> {
        match self.mode {
            ShardBy::Rule => self.phase_rule(row, removal),
            ShardBy::Key => {
                let start = op_idx * batch.stride;
                let (all, masks) = if removal {
                    (&batch.removal, &batch.removal_masks)
                } else {
                    (&batch.insert, &batch.insert_masks)
                };
                let mask = (!masks.is_empty()).then(|| masks[op_idx * self.shards + self.shard]);
                self.phase_key(row, &all[start..start + batch.stride], mask, removal)
            }
        }
    }

    fn phase_rule(&mut self, row: RowId, removal: bool) -> Vec<RuleDeltas> {
        let mut out = Vec::new();
        for (rule, state) in &mut self.rules {
            let mut sink = DeltaSink::default();
            let matched = if removal {
                state.process_removal(&self.table, row, &mut sink)
            } else {
                state.process_insert(&self.table, row, &mut sink)
            };
            if matched || sink.created > 0 || sink.retracted > 0 || !sink.deltas.is_empty() {
                out.push(RuleDeltas {
                    rule: *rule,
                    tuple: 0,
                    matched,
                    created: sink.created,
                    retracted: sink.retracted,
                    deltas: sink.deltas,
                });
            }
        }
        out
    }

    /// `mask`: the coordinator's exact rule bitmask for this worker and
    /// phase (`None` when masks are unavailable, i.e. more than 64 live
    /// rules — then every rule is screened worker-side instead).
    fn phase_key(
        &mut self,
        row: RowId,
        routes: &[Option<ValueId>],
        mask: Option<u64>,
        removal: bool,
    ) -> Vec<RuleDeltas> {
        let (me, shards) = (self.shard, self.shards);
        let owns = move |id: ValueId| owner_of(id.raw(), shards) == me;
        let layout = &*self.layout;
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        if let Some(mask) = mask {
            // Fast path: visit exactly the rules the coordinator routed
            // here. Key-mode workers hold every rule in index order, so
            // bit `r` addresses `self.rules[r]` directly.
            let mut mask = mask;
            while mask != 0 {
                let rule = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let (r, state) = &mut self.rules[rule];
                debug_assert_eq!(*r, rule, "key-mode workers hold every rule in order");
                let (offset, count) = layout[rule];
                run_rule_key(
                    state,
                    &self.table,
                    rule,
                    row,
                    &routes[offset..offset + count],
                    &owns,
                    removal,
                    &mut scratch,
                    &mut out,
                );
            }
            return out;
        }
        let table = &self.table;
        for (rule, state) in &mut self.rules {
            let (offset, count) = layout[*rule];
            let slice = &routes[offset..offset + count];
            // Ownership screen: on a typical op this worker owns
            // nothing for most rules, so decide that here — from the
            // route slice and one slot probe of the constant-tuple LHS
            // id (exactly the per-tuple checks `process_*_key` would
            // repeat) — before any tableau walk or sink setup.
            let var_owned = slice.iter().any(|r| r.is_some_and(&owns));
            if !var_owned {
                let Some(lhs) = state.lhs_col() else { continue };
                if !state.has_constant_tuples() || !owns(table.cell_id(row, lhs)) {
                    continue;
                }
            }
            run_rule_key(
                state,
                table,
                *rule,
                row,
                slice,
                &owns,
                removal,
                &mut scratch,
                &mut out,
            );
        }
        out
    }
}

/// Fold one op-phase's ownership into the per-worker rule bitmasks
/// (`masks[worker]`, one entry per worker; bit `r` = rule `r` has owned
/// work there): every `Some` route key names exactly one owning worker,
/// and a rule with constant tuples additionally routes to the owner of
/// the row's LHS id (`lhs_of` reads the phase-appropriate cells —
/// pre-op for removal, arriving for insert).
fn fill_masks(
    routes: &[Option<ValueId>],
    lhs_of: impl Fn(usize) -> ValueId,
    masks: &mut [u64],
    layout: &[(usize, usize)],
    const_cols: &[Option<usize>],
) {
    let shards = masks.len();
    for (rule, (offset, count)) in layout.iter().enumerate() {
        for key in routes[*offset..offset + count].iter().flatten() {
            masks[owner_of(key.raw(), shards)] |= 1 << rule;
        }
        if let Some(col) = const_cols[rule] {
            masks[owner_of(lhs_of(col).raw(), shards)] |= 1 << rule;
        }
    }
}

/// One rule's share of one key-mode phase: run the per-tuple processor
/// and relabel its [`TupleDeltas`] with the global rule index.
#[allow(clippy::too_many_arguments)]
fn run_rule_key(
    state: &mut RuleState,
    table: &Table,
    rule: usize,
    row: RowId,
    routes: &[Option<ValueId>],
    owns: &impl Fn(ValueId) -> bool,
    removal: bool,
    scratch: &mut Vec<TupleDeltas>,
    out: &mut Vec<RuleDeltas>,
) {
    scratch.clear();
    if removal {
        state.process_removal_key(table, row, routes, owns, scratch);
    } else {
        state.process_insert_key(table, row, routes, owns, scratch);
    }
    for td in scratch.drain(..) {
        out.push(RuleDeltas {
            rule,
            tuple: td.tuple,
            matched: td.matched,
            created: td.sink.created,
            retracted: td.sink.retracted,
            deltas: td.sink.deltas,
        });
    }
}

struct WorkerHandle {
    tx: Option<SyncSender<WorkerMsg>>,
    rx: Receiver<WorkerReply>,
    thread: Option<JoinHandle<()>>,
    /// The same per-shard gauge the worker holds — raised here on send,
    /// lowered worker-side on dequeue, so its level is the number of
    /// messages sitting in (or blocked on) the bounded channel.
    queue_depth: &'static obs::Gauge,
}

impl WorkerHandle {
    fn send(&self, msg: WorkerMsg) {
        self.queue_depth.add(1);
        self.tx
            .as_ref()
            .expect("worker channel open")
            .send(msg)
            .expect("worker thread alive");
    }

    fn recv(&self) -> WorkerReply {
        self.rx.recv().expect("worker thread alive")
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        // Closing the channel ends the worker's recv loop. The reply
        // channel stays open until after the join, so a worker draining
        // pipelined batches can always deliver its pending replies.
        self.tx.take();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The coordinator's key-derivation front-end for [`ShardBy::Key`]:
/// per rule, the LHS column and one memoized key extractor per variable
/// tuple (sharing the same compiled `Arc`s the worker states hold).
/// Every distinct LHS value's key is derived exactly once here — the
/// workers receive pre-derived routes and never run an extractor, which
/// is what keeps the global eval count identical to single-threaded.
struct Router {
    /// Per rule: LHS column (`None` = the rule's attributes are missing
    /// from this schema, i.e. the rule is inert) and per-variable-tuple
    /// routing memos, tableau order.
    rules: Vec<(Option<usize>, Vec<BlockingPartition>)>,
}

impl Router {
    fn new(rules: &[Pfd], compiled: &[CompiledRule], schema: &Schema) -> Router {
        let rules = rules
            .iter()
            .zip(compiled)
            .map(|(pfd, programs)| {
                let col = match (
                    schema.index_of(&pfd.lhs_attr),
                    schema.index_of(&pfd.rhs_attr),
                ) {
                    (Some(lhs), Some(_)) => Some(lhs),
                    _ => None,
                };
                let memos = programs
                    .variable_keyers()
                    .into_iter()
                    .map(BlockingPartition::with_shared)
                    .collect();
                (col, memos)
            })
            .collect();
        Router { rules }
    }

    /// Append one route per variable tuple of every rule for a row with
    /// these cells (the insert phase; counting mirrors
    /// `BlockingPartition::insert` exactly, so lookup tallies match the
    /// single-threaded engine).
    fn routes_for_cells(&mut self, cells: &[ValueId], out: &mut Vec<Option<ValueId>>) {
        for (col, memos) in &mut self.rules {
            match col {
                Some(c) => {
                    let lhs = cells[*c];
                    for memo in memos.iter_mut() {
                        out.push(memo.key_for(lhs));
                    }
                }
                None => out.extend(std::iter::repeat_n(None, memos.len())),
            }
        }
    }

    /// [`Router::routes_for_cells`] for a live row's current cells (the
    /// removal phase — pre-op state, as the single-threaded engine
    /// consults it).
    fn routes_for_row(&mut self, table: &Table, row: RowId, out: &mut Vec<Option<ValueId>>) {
        for (col, memos) in &mut self.rules {
            match col {
                Some(c) => {
                    let lhs = table.cell_id(row, *c);
                    for memo in memos.iter_mut() {
                        out.push(memo.key_for(lhs));
                    }
                }
                None => out.extend(std::iter::repeat_n(None, memos.len())),
            }
        }
    }

    /// Drop every routing-memo entry keyed on (or caching) a dead id —
    /// the coordinator's share of a reclamation barrier. The routing
    /// memos are the key-mode counterpart of the workers' key caches:
    /// a stale entry would route a recycled id's rows into the wrong
    /// block.
    fn purge(&mut self, dead: &FxHashSet<u32>) {
        for (_, memos) in &mut self.rules {
            for memo in memos.iter_mut() {
                memo.purge_cached_keys(|id| dead.contains(&id.raw()));
            }
        }
    }

    fn key_evals(&self) -> usize {
        self.rules
            .iter()
            .flat_map(|(_, memos)| memos.iter().map(BlockingPartition::key_evals))
            .sum()
    }

    fn key_lookups(&self) -> usize {
        self.rules
            .iter()
            .flat_map(|(_, memos)| memos.iter().map(BlockingPartition::key_lookups))
            .sum()
    }
}

/// The merged event stream of one submitted batch, tagged with the
/// batch's epoch sequence number (monotone from 0, one per submission
/// — empty batches included). Batches complete strictly in `seq` order.
#[derive(Debug)]
pub struct BatchEvents {
    /// The batch's submission sequence number.
    pub seq: u64,
    /// The batch's violation events, in rule/tableau order — identical
    /// to what the single-threaded engine would have returned.
    pub events: Vec<LedgerEvent>,
}

/// The sharded incremental engine: same semantics as [`StreamEngine`]
/// (bit-for-bit, including event order), rule processing spread over
/// worker threads on either the rule or the blocking-key axis, with
/// optional cross-batch pipelining. See the module docs for the
/// shard/merge protocol.
///
/// [`StreamEngine`]: crate::StreamEngine
pub struct ShardedEngine {
    /// The coordinator's canonical table (workers hold id replicas).
    table: Table,
    rules: Vec<Pfd>,
    workers: Vec<WorkerHandle>,
    ledger: ViolationLedger,
    drift: DriftMonitor,
    /// Auto-compaction threshold (see [`StreamConfig::compact_ratio`]).
    compact_ratio: f64,
    compaction: CompactionStats,
    shard_by: ShardBy,
    /// Pipelining window: how many submitted batches may be unmerged.
    run_ahead: usize,
    /// Next batch's epoch sequence number.
    next_seq: u64,
    /// Submitted-but-unmerged batches, oldest first: `(seq, op count)`.
    in_flight: VecDeque<(u64, usize)>,
    /// Merged batches not yet handed to the caller.
    completed: Vec<BatchEvents>,
    /// Key mode only: the coordinator's key-derivation memos.
    router: Option<Router>,
    /// Tableau-wide variable-tuple count — the per-op stride of the
    /// flat route vectors (`0` in rule mode, where no routes ship).
    route_stride: usize,
    /// Rule → `(offset, len)` into the per-op route slice (the same
    /// `Arc` every worker holds).
    layout: Arc<Vec<(usize, usize)>>,
    /// Key mode: per rule, the LHS column if the rule has constant
    /// tuples (whose key-mode owner is decided by the row's LHS id) —
    /// what the coordinator needs to finish each worker's rule bitmask.
    const_cols: Vec<Option<usize>>,
    /// Epoch-tied string reclamation (see [`StreamConfig::reclaim`]).
    reclaim: bool,
    /// Lifetime pool reclamation by this engine's sweeps.
    reclaim_stats: ReclaimStats,
    /// Snapshot pin — see `StreamEngine::snap_pin`.
    snap_pin: Arc<()>,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.workers.len())
            .field("shard_by", &self.shard_by)
            .field("run_ahead", &self.run_ahead)
            .field("rules", &self.rules.len())
            .field("rows", &self.table.row_count())
            .finish_non_exhaustive()
    }
}

impl ShardedEngine {
    /// An engine over `schema` with `shards` workers, default
    /// thresholds (rule-granular, no pipelining). The worker count is
    /// clamped to `[1, rule count]` — rule-granular sharding cannot use
    /// more workers than rules.
    #[must_use]
    pub fn new(schema: Schema, rules: Vec<Pfd>, shards: usize) -> ShardedEngine {
        let config = StreamConfig {
            shards,
            ..StreamConfig::default()
        };
        ShardedEngine::with_config(schema, rules, config)
    }

    /// An engine with explicit thresholds; `config.shards` sets the
    /// worker count, `config.shard_by` the partitioning axis, and
    /// `config.run_ahead` the pipelining window. In key mode the worker
    /// count is clamped to `[1, KEY_SLOTS]` instead of the rule count —
    /// a single rule can use every core.
    ///
    /// Placement is decided here, once, for the engine's lifetime: in
    /// rule mode each rule lives on the worker `assign_by_weight` deals
    /// it to; in key mode every worker seeds every rule and keeps the
    /// keys `owner_of` gives it.
    #[must_use]
    pub fn with_config(schema: Schema, rules: Vec<Pfd>, config: StreamConfig) -> ShardedEngine {
        let shard_by = config.shard_by;
        let shards = match shard_by {
            ShardBy::Rule => config.shards.clamp(1, rules.len().max(1)),
            ShardBy::Key => config.shards.clamp(1, KEY_SLOTS),
        };
        let weights: Vec<usize> = rules.iter().map(RuleState::estimated_weight).collect();
        let rule_owner = ShardedEngine::assign_by_weight(&weights, shards);
        // Per-rule offsets into the flat per-op route vectors.
        let mut layout = Vec::with_capacity(rules.len());
        let mut offset = 0;
        for pfd in &rules {
            let count = pfd
                .tableau
                .iter()
                .filter(|t| matches!(t.rhs, RhsCell::Wildcard))
                .count();
            layout.push((offset, count));
            offset += count;
        }
        let layout = Arc::new(layout);
        // Mirrors `RuleState::seed_shared`: a rule contributes constant
        // tuples only when both its attributes resolve in the schema.
        let const_cols: Vec<Option<usize>> = rules
            .iter()
            .map(|pfd| {
                match (
                    schema.index_of(&pfd.lhs_attr),
                    schema.index_of(&pfd.rhs_attr),
                ) {
                    (Some(lhs), Some(_)) => pfd
                        .tableau
                        .iter()
                        .any(|t| matches!(t.rhs, RhsCell::Constant(_)))
                        .then_some(lhs),
                    _ => None,
                }
            })
            .collect();
        let drift = DriftMonitor::new(rules.len(), config.min_support, config.max_violation_ratio);
        // Compile every rule's programs exactly once, on the coordinator;
        // workers seed around the shared `Arc`s, so `pattern.compile_ns`
        // records one compile per rule regardless of the shard count.
        let compiled: Vec<CompiledRule> = rules.iter().map(CompiledRule::compile).collect();
        let router = (shard_by == ShardBy::Key).then(|| Router::new(&rules, &compiled, &schema));
        let workers = (0..shards)
            .map(|shard| {
                let states: Vec<(usize, RuleState)> = rules
                    .iter()
                    .zip(&compiled)
                    .enumerate()
                    .filter(|(rule, _)| {
                        // Key mode: every worker holds every rule
                        // (restricted to its key slots at runtime).
                        shard_by == ShardBy::Key || rule_owner[*rule] == shard
                    })
                    .map(|(rule, (pfd, programs))| {
                        (rule, RuleState::seed_shared(pfd.clone(), &schema, programs))
                    })
                    .collect();
                // Per-shard metric instances; the registered handles are
                // `&'static`, so they cross the thread boundary freely.
                let queue_depth = obs::gauge(&format!("shard.{shard}.queue_depth"));
                let worker = Worker {
                    table: Table::empty(schema.clone()),
                    rules: states,
                    shard,
                    shards,
                    mode: shard_by,
                    layout: Arc::clone(&layout),
                    queue_depth,
                    batches: obs::counter(&format!("shard.{shard}.batches")),
                    busy_ns: obs::histogram(&format!("shard.{shard}.busy_ns")),
                };
                // Bounded both ways, sized to the pipelining window:
                // `run_ahead + 1` in-flight batches per worker.
                let cap = config.run_ahead + 1;
                let (msg_tx, msg_rx) = sync_channel::<WorkerMsg>(cap);
                let (reply_tx, reply_rx) = sync_channel::<WorkerReply>(cap);
                let thread = std::thread::Builder::new()
                    .name(format!("anmat-shard-{shard}"))
                    .spawn(move || worker.run(&msg_rx, &reply_tx))
                    .expect("spawn shard worker");
                WorkerHandle {
                    tx: Some(msg_tx),
                    rx: reply_rx,
                    thread: Some(thread),
                    queue_depth,
                }
            })
            .collect();
        // Refcounting lives on the coordinator's canonical table only:
        // worker replicas are op-for-op content-identical to it, so a
        // cell id with no canonical reference has no replica reference
        // either — one retain/release stream suffices for the whole
        // engine.
        let mut table = Table::empty(schema);
        if config.reclaim {
            table.enable_refcounts();
        }
        ShardedEngine {
            table,
            rules,
            workers,
            ledger: ViolationLedger::new(),
            drift,
            compact_ratio: config.compact_ratio,
            compaction: CompactionStats::default(),
            shard_by: config.shard_by,
            run_ahead: config.run_ahead,
            next_seq: 0,
            in_flight: VecDeque::new(),
            completed: Vec::new(),
            router,
            route_stride: offset,
            layout,
            const_cols,
            reclaim: config.reclaim,
            reclaim_stats: ReclaimStats::default(),
            snap_pin: Arc::new(()),
        }
    }

    /// Run one coordinated compaction epoch across the whole engine —
    /// the sharded half of the remap protocol:
    ///
    /// 1. the pipeline drains (every in-flight batch merges), so the
    ///    compaction point is a clean batch boundary;
    /// 2. the coordinator compacts its canonical table, producing the
    ///    epoch-stamped [`RowIdRemap`];
    /// 3. the remap is broadcast; every worker compacts its own 4-byte
    ///    replica (bit-identical by construction) and remaps its rules'
    ///    partitions and asserted block context in place;
    /// 4. the coordinator rewrites the ledger's live violations and
    ///    adopts the epoch, then waits for every worker's acknowledgment
    ///    — a full barrier, so no op batch ever straddles two id spaces.
    ///
    /// Like the single-threaded [`StreamEngine::compact`], the pass is
    /// silent (no events, no drift movement, no pattern re-evaluation),
    /// which is what keeps the shard-equivalence contract intact across
    /// compactions triggered at identical batch boundaries.
    ///
    /// [`StreamEngine::compact`]: crate::StreamEngine::compact
    pub fn compact(&mut self) -> RowIdRemap {
        self.drain_in_flight();
        obs::counter!("shard.epoch_barriers").incr();
        let remap = Arc::new(self.table.compact());
        for worker in &self.workers {
            worker.send(WorkerMsg::Compact(Arc::clone(&remap)));
        }
        // The coordinator's share of the epoch overlaps the workers'.
        self.ledger.remap(&remap);
        self.compaction.epochs += 1;
        self.compaction.reclaimed_slots += remap.reclaimed();
        for worker in &self.workers {
            match worker.recv() {
                WorkerReply::Compacted => {}
                _ => unreachable!("worker replies in lockstep with requests"),
            }
        }
        self.sweep_reclaimable();
        RowIdRemap::clone(&remap)
    }

    /// The sharded half of the string-reclamation barrier (no-op unless
    /// [`StreamConfig::reclaim`]), layered on the compaction barrier —
    /// by the time it runs the pipeline is drained and every worker has
    /// acknowledged its compaction, so the whole engine sits at one
    /// batch boundary. Two phases over the same channels:
    ///
    /// 1. **scan** — candidates (ids whose canonical refcount hit zero,
    ///    filtered by a recheck) are broadcast; each worker vetoes the
    ///    ones its rule state still needs, exactly mirroring the
    ///    single-threaded protected-set filter (so both engines free
    ///    identical sets at identical boundaries — the determinism
    ///    contract extends to reclamation);
    /// 2. **apply** — the surviving set is broadcast; workers purge
    ///    their memo/key-cache entries, the coordinator purges its
    ///    routing memos, and only then are the ids freed.
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
        let scan = Arc::new(candidates);
        for worker in &self.workers {
            worker.send(WorkerMsg::ReclaimScan(Arc::clone(&scan)));
        }
        let mut vetoed = FxHashSet::default();
        for worker in &self.workers {
            match worker.recv() {
                WorkerReply::ReclaimVeto(ids) => vetoed.extend(ids),
                _ => unreachable!("worker replies in lockstep with requests"),
            }
        }
        let doomed: Vec<ValueId> = scan
            .iter()
            .copied()
            .filter(|id| !vetoed.contains(&id.raw()))
            .collect();
        if doomed.is_empty() {
            return;
        }
        let dead: Arc<FxHashSet<u32>> = Arc::new(doomed.iter().map(|id| id.raw()).collect());
        for worker in &self.workers {
            worker.send(WorkerMsg::ReclaimApply(Arc::clone(&dead)));
        }
        for worker in &self.workers {
            match worker.recv() {
                WorkerReply::Reclaimed => {}
                _ => unreachable!("worker replies in lockstep with requests"),
            }
        }
        if let Some(router) = &mut self.router {
            router.purge(&dead);
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

    /// Freeze a consistent copy-on-write view of the engine's canonical
    /// table and ledger — the same [`EngineSnapshot`] the
    /// single-threaded engine produces, captured behind the engine's
    /// pipeline barrier: in-flight batches merge first, so the view
    /// sits at a clean batch boundary. Workers are untouched (their
    /// replicas hold no observable state of their own) and ingest can
    /// resume immediately; reclamation sweeps defer while the snapshot
    /// is alive.
    pub fn snapshot(&mut self) -> EngineSnapshot {
        self.drain_in_flight();
        EngineSnapshot::capture(&self.table, &self.ledger, &self.snap_pin)
    }

    /// Auto-compaction hook, checked after every submitted batch
    /// against the canonical table (which the coordinator advances at
    /// submission) — the same `should_compact` predicate at the same
    /// boundaries as the single-threaded engine, so both compact at
    /// identical points regardless of the pipelining window.
    fn maybe_compact(&mut self) {
        if should_compact(
            self.compact_ratio,
            self.table.row_count(),
            self.table.live_rows(),
        ) {
            self.compact();
        }
    }

    /// The engine's compaction epoch (0 until the first compaction).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.table.epoch()
    }

    /// Lifetime compaction counters (epochs run, slots reclaimed).
    #[must_use]
    pub fn compaction_stats(&self) -> CompactionStats {
        self.compaction
    }

    /// Rule-mode placement: round-robin over the rules sorted by
    /// descending weight (ties by index), so the heaviest rules land on
    /// distinct shards first. Returns each rule's shard.
    fn assign_by_weight(weights: &[usize], shards: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by_key(|&rule| (std::cmp::Reverse(weights[rule]), rule));
        let mut assignment = vec![0; weights.len()];
        for (pos, &rule) in order.iter().enumerate() {
            assignment[rule] = pos % shards;
        }
        assignment
    }

    /// Number of worker shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.workers.len()
    }

    /// The work-partitioning axis this engine was built with.
    #[must_use]
    pub fn shard_by(&self) -> ShardBy {
        self.shard_by
    }

    /// The pipelining window (0 = classic per-batch barrier).
    #[must_use]
    pub fn run_ahead(&self) -> usize {
        self.run_ahead
    }

    /// Batches currently in flight (submitted, not yet merged).
    #[must_use]
    pub fn pipeline_depth(&self) -> usize {
        self.in_flight.len()
    }

    // ── ingest entry points (same surface as `StreamEngine`) ─────────

    /// Ingest one row; returns the violation events it caused, in
    /// rule/tableau order — identical to the single-threaded engine.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<Vec<LedgerEvent>, TableError> {
        self.apply([RowOp::Insert(row)])
    }

    /// Ingest one row of already-interned ids (clone-free fan-out).
    pub fn push_id_row(&mut self, row: Vec<ValueId>) -> Result<Vec<LedgerEvent>, TableError> {
        self.run_id_ops(vec![IdOp::Insert(row)])
    }

    /// Ingest a batch of rows; returns the concatenated events. Atomic
    /// with respect to errors: the whole batch is validated before any
    /// row is ingested.
    pub fn push_batch(
        &mut self,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        self.apply(rows.into_iter().map(RowOp::Insert))
    }

    /// Ingest a batch of already-interned rows; atomic like
    /// [`ShardedEngine::push_batch`].
    pub fn push_id_batch(
        &mut self,
        rows: impl IntoIterator<Item = Vec<ValueId>>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        self.run_id_ops(rows.into_iter().map(IdOp::Insert).collect())
    }

    /// Delete one live row; same contract as the single-threaded
    /// engine's `delete_row`.
    pub fn delete_row(&mut self, row: RowId) -> Result<Vec<LedgerEvent>, TableError> {
        self.run_id_ops(vec![IdOp::Delete(row)])
    }

    /// Update one live row in place (delete + insert fused on one slot).
    pub fn update_row(
        &mut self,
        row: RowId,
        cells: Vec<Value>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        self.apply([RowOp::Update(row, cells)])
    }

    /// Update one live row with already-interned ids.
    pub fn update_id_row(
        &mut self,
        row: RowId,
        cells: Vec<ValueId>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        self.run_id_ops(vec![IdOp::Update(row, cells)])
    }

    /// Apply a batch of [`RowOp`]s; returns the concatenated events.
    /// Atomic with respect to errors (validated once, in `O(batch)`,
    /// against the live set as the batch evolves it, before any op
    /// executes or is fanned out). This is
    /// the *synchronous* path: it submits, drains the pipeline, and
    /// concatenates — including any batches still pending from earlier
    /// [`ShardedEngine::submit`] calls, so mixing the two APIs never
    /// drops events.
    pub fn apply(
        &mut self,
        ops: impl IntoIterator<Item = RowOp>,
    ) -> Result<Vec<LedgerEvent>, TableError> {
        self.run_id_ops(ops.into_iter().map(IdOp::intern).collect())
    }

    /// Submit a batch into the pipeline; returns every batch that
    /// *completed* (merged, in submission order) as a consequence —
    /// possibly none, while the run-ahead window still has room, and
    /// possibly several, including earlier submissions. Call
    /// [`ShardedEngine::flush`] to drain the rest.
    pub fn submit(
        &mut self,
        ops: impl IntoIterator<Item = RowOp>,
    ) -> Result<Vec<BatchEvents>, TableError> {
        self.submit_id_ops(ops.into_iter().map(IdOp::intern).collect())?;
        Ok(std::mem::take(&mut self.completed))
    }

    /// [`ShardedEngine::submit`] for a batch of already-interned rows —
    /// the CLI's clone-free pipelined replay path.
    pub fn submit_id_batch(
        &mut self,
        rows: impl IntoIterator<Item = Vec<ValueId>>,
    ) -> Result<Vec<BatchEvents>, TableError> {
        self.submit_id_ops(rows.into_iter().map(IdOp::Insert).collect())?;
        Ok(std::mem::take(&mut self.completed))
    }

    /// Drain the pipeline: merge every in-flight batch and return all
    /// completed-but-undelivered batches, in submission order.
    pub fn flush(&mut self) -> Vec<BatchEvents> {
        self.drain_in_flight();
        std::mem::take(&mut self.completed)
    }

    /// Replay an existing table's *live* rows in row order (clone-free:
    /// rows are carried over as interned ids, in one fan-out batch).
    pub fn replay_table(&mut self, table: &Table) -> Result<Vec<LedgerEvent>, TableError> {
        self.run_id_ops(
            table
                .iter_live()
                .map(|r| IdOp::Insert(table.row_ids(r)))
                .collect(),
        )
    }

    /// The synchronous path: submit one id-op batch (interned once,
    /// coordinator-side — workers only ever see `Copy` ids), drain the
    /// pipeline, and concatenate every completed batch's events.
    fn run_id_ops(&mut self, id_ops: Vec<IdOp>) -> Result<Vec<LedgerEvent>, TableError> {
        self.submit_id_ops(id_ops)?;
        self.drain_in_flight();
        let completed = std::mem::take(&mut self.completed);
        Ok(completed.into_iter().flat_map(|b| b.events).collect())
    }

    /// Validate an id-op batch (once, in `O(batch)`) against the
    /// canonical table, then fan it out.
    fn submit_id_ops(&mut self, id_ops: Vec<IdOp>) -> Result<(), TableError> {
        {
            let _validate = obs::span!("engine.validate_ns");
            validate_ops(&self.table, &id_ops)?;
        }
        self.submit_inner(id_ops);
        Ok(())
    }

    /// Fan a validated id-op batch out to every worker under a fresh
    /// epoch sequence number, advance the canonical table, then trim
    /// the pipeline to the run-ahead window (merging oldest-first).
    fn submit_inner(&mut self, id_ops: Vec<IdOp>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let op_count = id_ops.len();
        if op_count == 0 {
            // Empty batches keep the 1:1 batch ↔ seq mapping without a
            // round-trip: they complete immediately.
            self.completed.push(BatchEvents {
                seq,
                events: Vec::new(),
            });
            return;
        }
        obs::counter!("shard.batches").incr();
        obs::counter!("engine.ops").add(op_count as u64);
        {
            let _fanout = obs::span!("shard.fanout_ns");
            match self.shard_by {
                ShardBy::Rule => {
                    let batch = Arc::new(RoutedBatch {
                        ops: id_ops,
                        stride: 0,
                        removal: Vec::new(),
                        insert: Vec::new(),
                        removal_masks: Vec::new(),
                        insert_masks: Vec::new(),
                    });
                    for worker in &self.workers {
                        worker.send(WorkerMsg::Batch {
                            seq,
                            batch: Arc::clone(&batch),
                        });
                    }
                    // The coordinator's replica advances while the
                    // workers chew.
                    self.apply_to_canonical(&batch.ops);
                }
                ShardBy::Key => {
                    // Key derivation consults pre-op table state, so
                    // routing and the canonical apply interleave per op
                    // — then the routed batch fans out.
                    let batch = Arc::new(self.route_and_apply(id_ops));
                    for worker in &self.workers {
                        worker.send(WorkerMsg::Batch {
                            seq,
                            batch: Arc::clone(&batch),
                        });
                    }
                }
            }
        }
        self.in_flight.push_back((seq, op_count));
        obs::gauge!("pipeline.run_ahead").set(self.in_flight.len() as i64);
        while self.in_flight.len() > self.run_ahead {
            self.merge_oldest();
        }
        self.maybe_compact();
    }

    fn apply_to_canonical(&mut self, ops: &[IdOp]) {
        for op in ops {
            match op {
                IdOp::Insert(cells) => {
                    self.table
                        .push_id_cells(cells)
                        .expect("batch pre-validated");
                }
                IdOp::Delete(row) => {
                    self.table.delete_row(*row).expect("batch pre-validated");
                }
                IdOp::Update(row, cells) => {
                    self.table
                        .update_id_cells(*row, cells)
                        .expect("batch pre-validated");
                }
            }
        }
    }

    /// Key mode: derive each op's routes against pre-op table state
    /// while applying the ops to the canonical table in order — exactly
    /// the state the single-threaded engine would consult (removal
    /// routes from the pre-op row, insert routes from arriving cells).
    fn route_and_apply(&mut self, id_ops: Vec<IdOp>) -> RoutedBatch {
        let stride = self.route_stride;
        let shards = self.workers.len();
        // Rule bitmasks only fit u64; beyond that workers screen
        // rules themselves (the slow path — fine, 64+ live rules is
        // far past anything discovery emits).
        let exact = self.rules.len() <= 64;
        let mask_len = if exact { id_ops.len() * shards } else { 0 };
        let ShardedEngine {
            router,
            table,
            layout,
            const_cols,
            ..
        } = self;
        let layout = &**layout;
        let router = router.as_mut().expect("key mode ships routes");
        let mut removal = Vec::with_capacity(id_ops.len() * stride);
        let mut insert = Vec::with_capacity(id_ops.len() * stride);
        let mut removal_masks = vec![0u64; mask_len];
        let mut insert_masks = vec![0u64; mask_len];
        for (op_idx, op) in id_ops.iter().enumerate() {
            let masks = op_idx * shards..(op_idx + 1) * shards;
            match op {
                IdOp::Insert(cells) => {
                    removal.resize(removal.len() + stride, None);
                    let base = insert.len();
                    router.routes_for_cells(cells, &mut insert);
                    if exact {
                        fill_masks(
                            &insert[base..],
                            |c| cells[c],
                            &mut insert_masks[masks],
                            layout,
                            const_cols,
                        );
                    }
                    table.push_id_cells(cells).expect("batch pre-validated");
                }
                IdOp::Delete(row) => {
                    let base = removal.len();
                    router.routes_for_row(table, *row, &mut removal);
                    if exact {
                        // Pre-op cells — the tombstone lands after.
                        fill_masks(
                            &removal[base..],
                            |c| table.cell_id(*row, c),
                            &mut removal_masks[masks],
                            layout,
                            const_cols,
                        );
                    }
                    insert.resize(insert.len() + stride, None);
                    table.delete_row(*row).expect("batch pre-validated");
                }
                IdOp::Update(row, cells) => {
                    let base = removal.len();
                    router.routes_for_row(table, *row, &mut removal);
                    if exact {
                        fill_masks(
                            &removal[base..],
                            |c| table.cell_id(*row, c),
                            &mut removal_masks[masks.clone()],
                            layout,
                            const_cols,
                        );
                    }
                    table
                        .update_id_cells(*row, cells)
                        .expect("batch pre-validated");
                    let base = insert.len();
                    router.routes_for_cells(cells, &mut insert);
                    if exact {
                        fill_masks(
                            &insert[base..],
                            |c| cells[c],
                            &mut insert_masks[masks],
                            layout,
                            const_cols,
                        );
                    }
                }
            }
        }
        RoutedBatch {
            ops: id_ops,
            stride,
            removal,
            insert,
            removal_masks,
            insert_masks,
        }
    }

    /// Merge the oldest in-flight batch: await every worker's reply for
    /// it (replies arrive in submission order on each FIFO channel,
    /// asserted via the echoed seq) and fold the outcomes into the
    /// ledger, drift monitor, and completed queue.
    fn merge_oldest(&mut self) {
        let Some((seq, op_count)) = self.in_flight.pop_front() else {
            return;
        };
        // How many younger batches were already submitted when this one
        // merges — 0 under the classic barrier, up to `run_ahead` when
        // the pipeline is saturated.
        obs::histogram!("merge.lag_batches").record(self.next_seq - seq - 1);
        // Merge wait: how long the coordinator sits blocked on worker
        // replies after finishing its own share of the batch.
        let replies: Vec<Vec<OpOutcome>> = {
            let _wait = obs::span!("shard.merge_wait_ns");
            self.workers
                .iter()
                .map(|worker| match worker.recv() {
                    WorkerReply::Batch { seq: got, outcomes } => {
                        assert_eq!(got, seq, "worker replies arrive in submission order");
                        outcomes
                    }
                    _ => unreachable!("worker replies in lockstep with requests"),
                })
                .collect()
        };
        let events = self.merge(op_count, replies);
        obs::counter!("engine.events").add(events.len() as u64);
        obs::gauge!("pipeline.run_ahead").set(self.in_flight.len() as i64);
        self.completed.push(BatchEvents { seq, events });
    }

    fn drain_in_flight(&mut self) {
        while !self.in_flight.is_empty() {
            self.merge_oldest();
        }
    }

    /// Merge per-shard outcomes: for each op, removal phase then insert
    /// phase, deltas ordered by `(global rule index, tableau tuple
    /// index)` — the same ledger call sequence the single-threaded
    /// engine performs, hence the same events in the same order.
    fn merge(&mut self, op_count: usize, mut replies: Vec<Vec<OpOutcome>>) -> Vec<LedgerEvent> {
        let _merge = obs::span!("shard.merge_ns");
        let mut events = Vec::new();
        let mut removal: Vec<RuleDeltas> = Vec::new();
        let mut insert: Vec<RuleDeltas> = Vec::new();
        for op in 0..op_count {
            for shard in &mut replies {
                let outcome = std::mem::take(&mut shard[op]);
                removal.extend(outcome.removal);
                insert.extend(outcome.insert);
            }
            self.merge_phase(&mut removal, true, &mut events);
            self.merge_phase(&mut insert, false, &mut events);
        }
        events
    }

    /// Replay one phase's merged deltas: per rule (ascending), fold the
    /// partial drift tallies — in key mode a rule's work for one row
    /// spreads over several workers/tuples — apply the folded tally
    /// once, then replay the rule's deltas in tableau-tuple order. In
    /// rule mode each rule has exactly one entry and this reduces to
    /// the classic per-rule replay.
    /// `entries` is a reusable buffer: drained (and cleared) here so the
    /// caller's allocation survives across ops.
    fn merge_phase(
        &mut self,
        entries: &mut Vec<RuleDeltas>,
        removal: bool,
        events: &mut Vec<LedgerEvent>,
    ) {
        entries.sort_by_key(|d| (d.rule, d.tuple));
        let mut i = 0;
        while i < entries.len() {
            let rule = entries[i].rule;
            let mut tally = DriftDelta {
                matched: false,
                created: 0,
                retracted: 0,
            };
            let mut j = i;
            while j < entries.len() && entries[j].rule == rule {
                let d = &entries[j];
                tally.absorb(DriftDelta {
                    matched: d.matched,
                    created: d.created,
                    retracted: d.retracted,
                });
                j += 1;
            }
            // The folded tally lands before any of the rule's deltas
            // replay — same order the per-rule collection preserved.
            if removal {
                self.drift.retire_delta(rule, tally);
            } else {
                self.drift.observe_delta(rule, tally);
            }
            for entry in &mut entries[i..j] {
                apply_deltas(&mut self.ledger, std::mem::take(&mut entry.deltas), events);
            }
            i = j;
        }
        entries.clear();
    }

    /// One stats round-trip per worker (pipeline drained first — stats
    /// requests share the FIFO batch channel). Outer index = shard; in
    /// key mode every worker reports every rule, so per-rule figures
    /// are partial and must be summed across shards.
    fn gather_stats(&mut self) -> Vec<Vec<RuleStats>> {
        self.drain_in_flight();
        for worker in &self.workers {
            worker.send(WorkerMsg::Stats);
        }
        self.workers
            .iter()
            .map(|worker| match worker.recv() {
                WorkerReply::Stats(s) => s,
                _ => unreachable!("worker replies in lockstep with requests"),
            })
            .collect()
    }

    // ── accessors (same surface as `StreamEngine`) ───────────────────

    /// The ledger of live violations.
    #[must_use]
    pub fn ledger(&self) -> &ViolationLedger {
        &self.ledger
    }

    /// The accumulated (canonical) table.
    #[must_use]
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Row *slots* ingested so far (tombstoned ones included).
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.table.row_count()
    }

    /// Rows currently live (ingested minus deleted).
    #[must_use]
    pub fn live_rows(&self) -> usize {
        self.table.live_rows()
    }

    /// The seeded rules, in index order.
    pub fn rules(&self) -> impl Iterator<Item = &Pfd> {
        self.rules.iter()
    }

    /// Total pattern evaluations across all shards, plus (in key mode)
    /// the coordinator's key-derivation memos — bounded by
    /// `Σ_tuple distinct(LHS column)`, exactly as in the single-threaded
    /// engine: the memoization guarantee shards per rule in rule mode
    /// and per distinct value in key mode. Drains the pipeline.
    #[must_use]
    pub fn pattern_evals(&mut self) -> usize {
        let worker: usize = self
            .gather_stats()
            .iter()
            .flatten()
            .map(|s| s.pattern_evals)
            .sum();
        worker + self.router.as_ref().map_or(0, Router::key_evals)
    }

    /// Total memo consultations (hits + misses) across all shards and
    /// the key router — together with [`ShardedEngine::pattern_evals`]
    /// this yields the memo hit rate. Drains the pipeline.
    #[must_use]
    pub fn pattern_lookups(&mut self) -> usize {
        let worker: usize = self
            .gather_stats()
            .iter()
            .flatten()
            .map(|s| s.pattern_lookups)
            .sum();
        worker + self.router.as_ref().map_or(0, Router::key_lookups)
    }

    /// Publish pull-based gauges into the global metrics registry.
    ///
    /// Same contract as [`StreamEngine::publish_metrics`]: cheap enough
    /// for a stats tick but not for a per-batch call — this one drains
    /// the pipeline and does a full `Stats` round-trip to every worker
    /// for the memo and block figures, including per-shard
    /// `shard.N.keys` block-ownership gauges. No-op while the recorder
    /// is disabled.
    ///
    /// [`StreamEngine::publish_metrics`]: crate::StreamEngine::publish_metrics
    pub fn publish_metrics(&mut self) {
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
        let per_worker = self.gather_stats();
        for (shard, stats) in per_worker.iter().enumerate() {
            // How many key blocks each worker currently owns — flat in
            // rule mode, the load-balance signal in key mode.
            obs::gauge(&format!("shard.{shard}.keys"))
                .set(stats.iter().map(|s| s.blocks).sum::<usize>() as i64);
        }
        let stats: Vec<&RuleStats> = per_worker.iter().flatten().collect();
        obs::gauge!("engine.blocks").set(stats.iter().map(|s| s.blocks).sum::<usize>() as i64);
        let router_evals = self.router.as_ref().map_or(0, Router::key_evals);
        let router_lookups = self.router.as_ref().map_or(0, Router::key_lookups);
        obs::gauge!("memo.evals")
            .set((stats.iter().map(|s| s.pattern_evals).sum::<usize>() + router_evals) as i64);
        obs::gauge!("memo.lookups")
            .set((stats.iter().map(|s| s.pattern_lookups).sum::<usize>() + router_lookups) as i64);
        obs::gauge!("ledger.live").set(self.ledger.live_count() as i64);
        obs::gauge!("ledger.created_total").set(self.ledger.created_total() as i64);
        obs::gauge!("ledger.retracted_total").set(self.ledger.retracted_total() as i64);
        obs::gauge!("engine.compaction_epochs").set(self.compaction.epochs as i64);
        obs::gauge!("engine.reclaimed_slots").set(self.compaction.reclaimed_slots as i64);
        // Reclamation: same gauge set as the single-threaded engine
        // (the `pool.*` figures are process-global either way).
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

    /// Rules whose live confidence decayed below the discovery
    /// threshold, in rule-index order — the same explicit ordering
    /// contract as the single-threaded engine's `drift_report` (drift
    /// state is coordinator-owned, so shard completion order cannot
    /// reach it; the sort pins the contract against future gathering
    /// changes).
    #[must_use]
    pub fn drift_report(&self) -> Vec<DriftReport> {
        let mut reports: Vec<DriftReport> = self
            .rules
            .iter()
            .enumerate()
            .filter_map(|(i, pfd)| self.drift.judge(i, pfd.embedded_fd()))
            .collect();
        reports.sort_by_key(|r| r.rule);
        reports
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // Unmerged batches must be received before the worker handles
        // close their channels, or a worker could exit mid-batch; the
        // events are discarded (the caller chose not to flush).
        self.drain_in_flight();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anmat_core::PatternTuple;

    fn schema() -> Schema {
        Schema::new(["zip", "city"]).unwrap()
    }

    fn zip_variable_pfd() -> Pfd {
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::variable("[\\D{3}]\\D{2}".parse().unwrap())],
        )
    }

    fn key_engine(shards: usize, run_ahead: usize) -> ShardedEngine {
        let config = StreamConfig {
            shards,
            shard_by: ShardBy::Key,
            run_ahead,
            ..StreamConfig::default()
        };
        ShardedEngine::with_config(schema(), vec![zip_variable_pfd()], config)
    }

    #[test]
    fn assignment_spreads_heaviest_first() {
        let weights = [1, 4, 4, 1, 2];
        let a = ShardedEngine::assign_by_weight(&weights, 2);
        // Sorted by weight desc, index asc: 1, 2, 4, 0, 3 → shards
        // 0, 1, 0, 1, 0.
        assert_eq!(a, vec![1, 0, 1, 0, 0]);
    }

    #[test]
    fn shard_count_clamped_to_rules() {
        let engine = ShardedEngine::new(schema(), vec![zip_variable_pfd()], 8);
        assert_eq!(engine.shard_count(), 1);
        let engine = ShardedEngine::new(schema(), vec![], 4);
        assert_eq!(engine.shard_count(), 1);
    }

    #[test]
    fn key_mode_ignores_the_rule_clamp() {
        // One rule, four workers: the whole point of the key axis.
        let engine = key_engine(4, 0);
        assert_eq!(engine.shard_count(), 4);
        assert_eq!(engine.shard_by(), ShardBy::Key);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut engine = ShardedEngine::new(schema(), vec![zip_variable_pfd()], 2);
        let events = engine.apply([]).unwrap();
        assert!(events.is_empty());
        assert_eq!(engine.row_count(), 0);
    }

    #[test]
    fn basic_flow_matches_expectations() {
        let mut engine = ShardedEngine::new(schema(), vec![zip_variable_pfd()], 2);
        assert!(engine
            .push_row(vec![Value::text("90001"), Value::text("Los Angeles")])
            .unwrap()
            .is_empty());
        let events = engine
            .push_row(vec![Value::text("90002"), Value::text("New York")])
            .unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].is_created());
        assert_eq!(engine.ledger().live_count(), 1);
        assert_eq!(engine.live_rows(), 2);
        // Deleting the flagged row retracts its violation.
        let events = engine.delete_row(1).unwrap();
        assert!(events.iter().any(|e| !e.is_created()));
        assert!(engine.ledger().is_empty());
    }

    #[test]
    fn key_mode_basic_flow_matches_rule_mode() {
        let mut engine = key_engine(4, 0);
        assert!(engine
            .push_row(vec![Value::text("90001"), Value::text("Los Angeles")])
            .unwrap()
            .is_empty());
        let events = engine
            .push_row(vec![Value::text("90002"), Value::text("New York")])
            .unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].is_created());
        assert_eq!(engine.ledger().live_count(), 1);
        let events = engine.delete_row(1).unwrap();
        assert!(events.iter().any(|e| !e.is_created()));
        assert!(engine.ledger().is_empty());
        // One block lives on exactly one worker; the eval count is the
        // single-threaded figure (keys derived once, on the router).
        assert_eq!(engine.pattern_evals(), 2);
    }

    #[test]
    fn pipelined_submissions_complete_in_order() {
        let config = StreamConfig {
            shards: 2,
            shard_by: ShardBy::Key,
            run_ahead: 4,
            ..StreamConfig::default()
        };
        let mut engine = ShardedEngine::with_config(schema(), vec![zip_variable_pfd()], config);
        let mut completed = Vec::new();
        for i in 0..8 {
            let ops = [RowOp::Insert(vec![
                Value::text(format!("9000{i}")),
                Value::text(if i % 2 == 0 { "LA" } else { "NY" }),
            ])];
            completed.extend(engine.submit(ops).unwrap());
        }
        // The window held some batches back…
        assert!(completed.len() < 8);
        completed.extend(engine.flush());
        assert_eq!(engine.pipeline_depth(), 0);
        // …but completion order is submission order, gap-free.
        let seqs: Vec<u64> = completed.iter().map(|b| b.seq).collect();
        assert_eq!(seqs, (0..8).collect::<Vec<u64>>());
        // Same events as the synchronous path on a fresh engine.
        let mut sync = key_engine(2, 0);
        let mut expected = Vec::new();
        for i in 0..8 {
            expected.extend(
                sync.push_row(vec![
                    Value::text(format!("9000{i}")),
                    Value::text(if i % 2 == 0 { "LA" } else { "NY" }),
                ])
                .unwrap(),
            );
        }
        let got: Vec<_> = completed.into_iter().flat_map(|b| b.events).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn coordinated_compaction_keeps_the_engine_consistent() {
        let mut engine = ShardedEngine::new(schema(), vec![zip_variable_pfd()], 2);
        for (i, city) in [
            "Los Angeles",
            "Los Angeles",
            "Los Angeles",
            "New York", // row 3: the minority
        ]
        .iter()
        .enumerate()
        {
            engine
                .push_row(vec![Value::text(format!("9000{i}")), Value::text(*city)])
                .unwrap();
        }
        engine.delete_row(0).unwrap();
        engine.delete_row(1).unwrap();
        let remap = engine.compact();
        assert_eq!(remap.reclaimed(), 2);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.compaction_stats().epochs, 1);
        assert_eq!(engine.row_count(), 2);
        // The flagged row moved 3 → 1 in the ledger.
        assert_eq!(engine.ledger().snapshot()[0].row, 1);
        // Workers and coordinator stayed aligned: ops in the new id
        // space behave, and the retraction carries the new epoch.
        let events = engine.delete_row(1).unwrap();
        assert!(events.iter().any(|e| !e.is_created() && e.epoch == 1));
        assert!(engine.ledger().is_empty());
        assert_eq!(engine.live_rows(), 1);
    }

    #[test]
    fn auto_compaction_is_checked_at_batch_boundaries() {
        let config = StreamConfig {
            shards: 2,
            compact_ratio: 0.4,
            ..StreamConfig::default()
        };
        let mut engine = ShardedEngine::with_config(schema(), vec![zip_variable_pfd()], config);
        let mut ops: Vec<RowOp> = (0..5)
            .map(|i| RowOp::Insert(vec![Value::text(format!("9000{i}")), Value::text("LA")]))
            .collect();
        ops.extend([RowOp::Delete(1), RowOp::Delete(3)]);
        engine.apply(ops).unwrap();
        // 2/5 = 0.4 ≥ 0.4: one epoch at the batch boundary.
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.row_count(), 3);
        assert_eq!(engine.compaction_stats().reclaimed_slots, 2);
    }

    #[test]
    fn invalid_ops_leave_the_engine_untouched() {
        let mut engine = ShardedEngine::new(schema(), vec![zip_variable_pfd()], 2);
        engine
            .push_row(vec![Value::text("90001"), Value::text("Los Angeles")])
            .unwrap();
        assert!(matches!(
            engine.apply([RowOp::Delete(0), RowOp::Delete(0)]),
            Err(TableError::NoSuchRow { row: 0 })
        ));
        assert_eq!(engine.live_rows(), 1, "nothing applied");
        assert!(matches!(
            engine.push_row(vec![Value::text("just-one")]),
            Err(TableError::ArityMismatch { .. })
        ));
        // The engine still works after rejected batches.
        engine
            .push_row(vec![Value::text("90002"), Value::text("Los Angeles")])
            .unwrap();
        assert_eq!(engine.live_rows(), 2);
    }
}
