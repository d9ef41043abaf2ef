//! Key-granular rule execution for every layout of [`StreamEngine`]: the
//! engine's key router, the `Shard` that runs every rule over the keys
//! it owns, and the worker threads of the sharded layout, with one
//! deterministic merged event stream and optional cross-batch
//! pipelining.
//!
//! [`StreamEngine::with_config`] picks the layout once. Either way the
//! engine keeps the canonical table, ledger, drift monitor, compaction
//! state and the one crate-private `Router` — per rule, the resolved
//! columns and a [`KeyMemo`] per variable tuple — and runs its rules
//! through `Shard`s, so there is one key path and one rule processor.
//! When [`StreamConfig::shards`] clamps to one shard, the engine runs the
//! one shard of one inline on the calling thread, against the canonical
//! table, and merges each op phase at once. Otherwise the shards live on
//! worker threads behind the crate-private `Shards` (the workers, the
//! route layout and the run-ahead queue), each against its own table
//! replica, and the engine lends its state to `Shards` per call.
//!
//! # Key ownership
//!
//! Every shard holds every rule, but processes only the tuples whose
//! *blocking key* hashes into one of its slots. The key space is split
//! into [`KEY_SLOTS`] hash slots and slot `s` belongs to shard
//! `s % shards` (`owner_of`), fixed when the engine is built: each shard
//! owns a disjoint set of keys, a single rule's blocks spread over every
//! worker, and no state ever moves between workers. Constant tuples
//! belong to the shard that owns the row's LHS id; the one shard of one
//! owns everything. The router derives every blocking key exactly once
//! (memoized per distinct LHS value, so pattern work is paid once per
//! distinct value) and hands the routes to the shards, which insert and
//! remove by the pre-derived key and run the identical block-transition
//! code. Because each shard owns whole blocks, block-majority
//! re-derivation stays local — no cross-shard votes, only
//! per-`(rule, tuple)` delta merging.
//!
//! # The shard/merge protocol
//!
//! A batch of [`RowOp`](anmat_table::RowOp)s is interned and validated
//! **once** by the coordinator (one `ValuePool` lock acquisition per
//! record via `intern_value_batch`), routed against the canonical table
//! as it advances, then fanned out over bounded channels as one shared
//! `Arc` of id-ops plus the per-op route table and per-worker rule
//! bitmasks. Each worker applies the ops *in order* to its own id-table
//! replica (4-byte cells; the string bytes live once, in the
//! process-global pool, whose `resolve` is lock-free) and runs its shard
//! against it — the exact code the inline layout runs, against an
//! identical table state at every op. Workers return, per op and per
//! phase (removal, then insert), the deltas they produced, tagged
//! `(rule, tuple)`.
//!
//! The coordinator merges: for each op, phase by phase, deltas are
//! ordered by **(global rule index, tableau tuple index)**, each rule's
//! partial drift tallies are folded into one [`DriftDelta`]
//! (`matched` ORs, counts add) and applied once, then the rule's deltas
//! replay into the one ledger. The inline layout folds each of its
//! phases through the same `merge_phase`, so cross-rule refcount dedup,
//! event contents, and event *order* are bit-for-bit identical — the
//! determinism contract `tests/shard_equivalence.rs` pins down for
//! 1/2/4 shards and several run-ahead windows.
//!
//! # Cross-batch pipelining
//!
//! With `StreamConfig::run_ahead = N` (clamped to 64),
//! [`StreamEngine::submit`] fans a batch out and returns without
//! waiting: up to `N` batches may be in flight (fanned out but unmerged)
//! while workers chew. Every batch is tagged with a monotone **epoch
//! sequence number** at submission; replies carry it back, and the
//! coordinator merges strictly in submission order ([`BatchEvents`] is
//! the per-batch unit; an empty batch queues behind the in-flight ones
//! without a worker round-trip), so the event stream is byte-identical
//! to `run_ahead = 0` — pipelining changes *when* the merge happens,
//! never its order. Barriers (compaction, snapshots, stats gathering)
//! drain the window first. [`StreamEngine::apply`] remains the
//! synchronous path: submit, drain, concatenate.
//!
//! # The epoch barrier
//!
//! Tombstone compaction is the one maneuver that rewrites `RowId`s, so
//! it runs as a coordinated barrier ([`StreamEngine::compact`]): the
//! pipeline drains, the coordinator compacts its canonical table,
//! broadcasts the resulting `RowIdRemap`, and every worker compacts its
//! own replica (bit-identical, asserted in debug builds) and remaps its
//! rules' partitions and asserted violations in place before
//! acknowledging. No op batch ever straddles two id spaces — the
//! auto-trigger (`StreamConfig::compact_ratio`) is checked after every
//! *submitted* batch against the canonical table (which the coordinator
//! advances at submission), the same boundaries the inline layout uses,
//! which is what keeps the equivalence contract alive across
//! compactions.
//!
//! [`StreamEngine`]: crate::StreamEngine
//! [`StreamEngine::with_config`]: crate::StreamEngine::with_config
//! [`StreamEngine::submit`]: crate::StreamEngine::submit
//! [`StreamEngine::apply`]: crate::StreamEngine::apply
//! [`StreamEngine::compact`]: crate::StreamEngine::compact
//! [`StreamConfig::shards`]: crate::StreamConfig::shards

use crate::drift::{DriftDelta, DriftMonitor};
use crate::engine::{apply_deltas, Census, IdOp, RuleState, TupleDeltas};
use anmat_core::{LedgerEvent, LhsCell, Pfd, RhsCell, ViolationLedger};
use anmat_index::KeyMemo;
use anmat_obs as obs;
use anmat_pattern::CompiledConstrained;
use anmat_table::{RowId, RowIdRemap, Schema, Table, ValueId};
use fxhash::FxHashSet;
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Number of hash slots the key space is split into. Slots are the unit
/// of ownership: slot `s` belongs to shard `s % shards` for the engine's
/// whole lifetime (see `owner_of`), which is also why the shard count is
/// clamped to this figure.
pub const KEY_SLOTS: usize = 128;

/// The hash slot a key falls into: a Fibonacci multiplicative hash of
/// `ValueId::raw` taking the top 7 bits. Interned ids are dense
/// sequential integers, so taking the *high* bits of the product
/// scatters adjacent ids across slots.
fn slot_of(key: ValueId) -> usize {
    (key.raw().wrapping_mul(0x9E37_79B9) >> 25) as usize
}

/// The shard that owns hash slot `slot` with `shards` shards — the one
/// place key ownership is decided.
fn owner_of(slot: usize, shards: usize) -> usize {
    slot % shards
}

/// Where one rule's routes sit in an op's route vector, and what its
/// constant tuples key on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RouteSpan {
    /// Offset of the rule's routes: one per variable tuple, tableau
    /// order.
    offset: usize,
    /// The rule's variable-tuple count.
    len: usize,
    /// The LHS column of a rule that is not inert and has constant
    /// tuples: those belong to the shard that owns the row's LHS id.
    const_col: Option<usize>,
}

impl RouteSpan {
    /// The rule's share of an op's routes, and of the router's memos.
    fn range(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// The engine's one key-derivation front end, built for every layout:
/// per rule, the resolved columns and one [`KeyMemo`] per variable tuple
/// (rule-major, tableau order). Every distinct LHS value's key is
/// derived exactly once, here — rule state receives routes and never
/// runs an extractor, which is what keeps the eval count identical in
/// every layout.
#[derive(Debug)]
pub(crate) struct Router {
    /// Per rule: `(lhs, rhs)` columns, `None` if the schema lacks either
    /// attribute (the rule is inert, exactly like batch detection). The
    /// rule state and the route spans both take this verdict.
    cols: Vec<Option<(usize, usize)>>,
    /// One memo per variable tuple of every rule; rule `r`'s are
    /// `spans[r]`'s share.
    memos: Vec<KeyMemo>,
    spans: Arc<[RouteSpan]>,
}

impl Router {
    /// Resolve every rule's columns in `schema` and compile each
    /// variable tuple's keyer once.
    pub(crate) fn new(rules: &[Pfd], schema: &Schema) -> Router {
        let mut cols = Vec::with_capacity(rules.len());
        let mut memos = Vec::new();
        let mut spans = Vec::with_capacity(rules.len());
        for pfd in rules {
            let resolved = match (
                schema.index_of(&pfd.lhs_attr),
                schema.index_of(&pfd.rhs_attr),
            ) {
                (Some(lhs), Some(rhs)) => Some((lhs, rhs)),
                _ => None,
            };
            let offset = memos.len();
            let mut has_constant = false;
            for t in &pfd.tableau {
                match (&t.rhs, &t.lhs) {
                    (RhsCell::Constant(_), _) => has_constant = true,
                    (RhsCell::Wildcard, LhsCell::Pattern(q)) => memos.push(KeyMemo::new(Some(
                        Arc::new(CompiledConstrained::compile(q)),
                    ))),
                    (RhsCell::Wildcard, LhsCell::Wildcard) => memos.push(KeyMemo::new(None)),
                }
            }
            spans.push(RouteSpan {
                offset,
                len: memos.len() - offset,
                const_col: resolved.filter(|_| has_constant).map(|(lhs, _)| lhs),
            });
            cols.push(resolved);
        }
        Router {
            cols,
            memos,
            spans: spans.into(),
        }
    }

    /// Each rule's resolved columns (`None` = inert), in rule order.
    pub(crate) fn cols(&self) -> &[Option<(usize, usize)>] {
        &self.cols
    }

    /// The route layout every shard slices its routes by.
    pub(crate) fn spans(&self) -> Arc<[RouteSpan]> {
        Arc::clone(&self.spans)
    }

    /// Routes per op phase: one per variable tuple of every rule.
    fn stride(&self) -> usize {
        self.memos.len()
    }

    /// Batch-classify every memo over a batch's arriving LHS ids before
    /// any op is routed (count-neutral; see [`KeyMemo::prime`]).
    fn prime(&mut self, ops: &[IdOp]) {
        for (span, cols) in self.spans.iter().zip(&self.cols) {
            let Some((lhs, _)) = *cols else { continue };
            for memo in &mut self.memos[span.range()] {
                memo.prime(
                    ops.iter()
                        .filter_map(IdOp::arriving)
                        .map(|cells| cells[lhs]),
                );
            }
        }
    }

    /// Append one route per variable tuple of every rule for `row`'s
    /// current cells: the pre-op cells for a removal phase, the arrived
    /// ones for an insert phase — exactly what the rule state consults.
    fn route(&mut self, table: &Table, row: RowId, out: &mut Vec<Option<ValueId>>) {
        for (span, cols) in self.spans.iter().zip(&self.cols) {
            if span.len == 0 {
                continue;
            }
            let memos = &mut self.memos[span.range()];
            match *cols {
                Some((lhs, _)) => {
                    let id = table.cell_id(row, lhs);
                    for memo in memos {
                        out.push(memo.key(id));
                    }
                }
                None => out.extend(std::iter::repeat_n(None, span.len)),
            }
        }
    }

    /// Drop every memo entry keyed on (or caching) a dead id — the
    /// router's share of a reclamation barrier: a stale entry would
    /// route a recycled id's rows into the wrong block.
    pub(crate) fn purge(&mut self, dead: &FxHashSet<u32>) {
        for memo in &mut self.memos {
            memo.purge(|id| dead.contains(&id.raw()));
        }
    }

    /// Capture extractions across every memo.
    pub(crate) fn evals(&self) -> usize {
        self.memos.iter().map(KeyMemo::evals).sum()
    }

    /// Memo consultations across every memo.
    pub(crate) fn lookups(&self) -> usize {
        self.memos.iter().map(KeyMemo::lookups).sum()
    }
}

/// Every rule's incremental state, restricted to the tuples whose
/// blocking key (or, for constant tuples, LHS id) falls in a slot
/// `owner_of` gives this shard. The inline layout runs the one shard of
/// one, which owns every slot, against the canonical table; each worker
/// runs one against its replica.
#[derive(Debug)]
pub(crate) struct Shard {
    /// Every rule's state, in rule-index order.
    rules: Vec<RuleState>,
    /// Which hash slots this shard owns.
    owned: [bool; KEY_SLOTS],
    /// This shard's index and the shard count: together they index the
    /// coordinator's per-op rule bitmasks.
    shard: usize,
    shards: usize,
    spans: Arc<[RouteSpan]>,
}

impl Shard {
    /// Shard `shard` of `shards`, over freshly seeded rule state.
    pub(crate) fn new(
        rules: Vec<RuleState>,
        spans: Arc<[RouteSpan]>,
        shard: usize,
        shards: usize,
    ) -> Shard {
        Shard {
            rules,
            owned: std::array::from_fn(|slot| owner_of(slot, shards) == shard),
            shard,
            shards,
            spans,
        }
    }

    /// The inline layout's batch (already validated): as the one shard
    /// of one, run every op against the canonical `table`, routing each
    /// phase through the engine's `router` and merging it into `ledger`
    /// and `drift` at once, through the same fold that merges worker
    /// replies. Priming first is count-neutral by construction.
    pub(crate) fn run(
        &mut self,
        ops: Vec<IdOp>,
        table: &mut Table,
        router: &mut Router,
        ledger: &mut ViolationLedger,
        drift: &mut DriftMonitor,
    ) -> Vec<LedgerEvent> {
        let _apply = obs::span!("engine.apply_ns");
        router.prime(&ops);
        self.prime(&ops, &[]);
        let (mut routes, mut entries, mut events) = (Vec::new(), Vec::new(), Vec::new());
        for op in ops {
            op.run(table, |table, row, removal| {
                routes.clear();
                router.route(table, row, &mut routes);
                self.phase(table, &routes, None, row, removal, &mut entries);
                merge_phase(&mut entries, removal, ledger, drift, &mut events);
            });
        }
        events
    }

    /// Warm each rule's constant-tuple memos over the owned LHS ids of a
    /// batch's arriving rows (count-neutral; see
    /// `RuleState::prime_batch`). With the coordinator's per-op rule
    /// bitmasks (`masks`, empty when there are none) a rule scans only
    /// the ops flagged for it here: a rule with constant tuples always
    /// has its bit set on the LHS id's owner, so the owner still sees
    /// every row it must classify.
    fn prime(&mut self, ops: &[IdOp], masks: &[u64]) {
        let (shard, shards, owned) = (self.shard, self.shards, &self.owned);
        let owns = |id: ValueId| owned[slot_of(id)];
        for (rule, state) in self.rules.iter_mut().enumerate() {
            if self.spans[rule].const_col.is_none() {
                continue; // inert, or nothing but variable tuples
            }
            let rows = ops
                .iter()
                .enumerate()
                .filter(|&(k, _)| masks.is_empty() || masks[k * shards + shard] >> rule & 1 == 1)
                .filter_map(|(_, op)| op.arriving());
            state.prime_batch(rows, &owns);
        }
    }

    /// Run one phase of one op for this shard's share of every rule, in
    /// ascending rule order, appending the deltas to `out`. `mask` is
    /// the coordinator's exact rule bitmask for this shard and op phase;
    /// without one (inline, or more than 64 rules) every rule is visited
    /// and checks ownership tuple by tuple.
    fn phase(
        &mut self,
        table: &Table,
        routes: &[Option<ValueId>],
        mask: Option<u64>,
        row: RowId,
        removal: bool,
        out: &mut Vec<TupleDeltas>,
    ) {
        let (owned, spans) = (&self.owned, &*self.spans);
        let owns = |id: ValueId| owned[slot_of(id)];
        let mut visit = |rule: usize, state: &mut RuleState| {
            state.process(
                rule,
                table,
                row,
                &routes[spans[rule].range()],
                &owns,
                removal,
                out,
            );
        };
        match mask {
            // Visit exactly the rules routed here: bit `r` addresses
            // `self.rules[r]` directly.
            Some(mut mask) => {
                while mask != 0 {
                    let rule = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    visit(rule, &mut self.rules[rule]);
                }
            }
            None => {
                for (rule, state) in self.rules.iter_mut().enumerate() {
                    visit(rule, state);
                }
            }
        }
    }

    /// The compaction epoch's share of this shard: remap every rule.
    pub(crate) fn apply_remap(&mut self, remap: &RowIdRemap) {
        for rule in &mut self.rules {
            rule.apply_remap(remap);
        }
    }

    /// Reclamation phase 1: the candidates this shard's rule state still
    /// needs (constant RHS constants, block keys — see
    /// `RuleState::collect_protected`). Shards partition each rule's
    /// blocks, and constant tuples repeat on every shard, so the union
    /// of the vetoes is the same in every layout.
    pub(crate) fn veto(&self, candidates: &[ValueId]) -> Vec<u32> {
        let mut protected = FxHashSet::default();
        for rule in &self.rules {
            rule.collect_protected(&mut protected);
        }
        candidates
            .iter()
            .map(|id| id.raw())
            .filter(|raw| protected.contains(raw))
            .collect()
    }

    /// Reclamation phase 2: purge every tableau-memo entry for the dead
    /// ids.
    pub(crate) fn purge(&mut self, dead: &FxHashSet<u32>) {
        for rule in &mut self.rules {
            rule.purge_values(dead);
        }
    }

    /// Rule-state figures summed over this shard's rules.
    pub(crate) fn census(&self) -> Census {
        Census::of(&self.rules)
    }
}

/// One fanned-out batch: the interned ops plus the coordinator-derived
/// blocking-key routes, shared as one `Arc` across workers.
///
/// Routes are one `Option<ValueId>` per variable tuple of every rule
/// (tableau order, rule-major — sliced per rule by the route spans),
/// flattened across ops at a fixed `stride` so the whole batch routes
/// in two allocations: op `k`'s routes for a phase occupy
/// `[k * stride, (k + 1) * stride)`. `None` means the op's LHS was null
/// or did not match the tuple's key extractor: no block forms, every
/// worker skips it. Phases an op never runs (the removal half of an
/// insert, the insert half of a delete) hold `None` padding no worker
/// reads.
#[derive(Debug)]
struct RoutedBatch {
    ops: Vec<IdOp>,
    /// The tableau-wide variable-tuple count.
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
    /// `RuleState::process` will pass". Empty when more than 64 rules
    /// are live (workers then visit every rule).
    removal_masks: Vec<u64>,
    insert_masks: Vec<u64>,
}

/// What one shard produced for one op: the removal phase (deletes and
/// the first half of updates), then the insert phase.
#[derive(Default)]
struct OpOutcome {
    removal: Vec<TupleDeltas>,
    insert: Vec<TupleDeltas>,
}

enum WorkerMsg {
    Batch {
        /// The batch's epoch sequence number; echoed back in the reply
        /// so the coordinator can assert in-order merging.
        seq: u64,
        batch: Arc<RoutedBatch>,
    },
    /// Report the worker's rule-state figures.
    Stats,
    /// The epoch barrier: compact the replica and remap rule state with
    /// the coordinator's broadcast remap, then acknowledge.
    Compact(Arc<RowIdRemap>),
    /// Reclamation phase 1: report which of these candidate ids this
    /// worker's rule state still needs (see `Shard::veto`).
    ReclaimScan(Arc<Vec<ValueId>>),
    /// Reclamation phase 2: these ids are about to be freed — purge
    /// every tableau-memo entry keyed on one, then acknowledge.
    ReclaimApply(Arc<FxHashSet<u32>>),
}

enum WorkerReply {
    Batch {
        seq: u64,
        outcomes: Vec<OpOutcome>,
    },
    Stats(Census),
    Compacted,
    /// The subset of a `ReclaimScan`'s candidates this worker vetoes.
    ReclaimVeto(Vec<u32>),
    /// `ReclaimApply` done — caches purged, safe to free the ids.
    Reclaimed,
}

/// One worker thread's state: its table replica and its shard.
struct Worker {
    table: Table,
    shard: Shard,
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
                WorkerMsg::Stats => WorkerReply::Stats(self.shard.census()),
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
                    self.shard.apply_remap(&remap);
                    WorkerReply::Compacted
                }
                WorkerMsg::ReclaimScan(candidates) => {
                    WorkerReply::ReclaimVeto(self.shard.veto(&candidates))
                }
                WorkerMsg::ReclaimApply(dead) => {
                    self.shard.purge(&dead);
                    WorkerReply::Reclaimed
                }
            };
            if tx.send(reply).is_err() {
                break; // coordinator gone
            }
        }
    }

    /// Replay a routed batch on the replica: prime (mask-gated), then
    /// run each op's phases through the shard with the coordinator's
    /// routes and bitmasks.
    fn process_batch(&mut self, batch: &RoutedBatch) -> Vec<OpOutcome> {
        let shard = &mut self.shard;
        shard.prime(&batch.ops, &batch.insert_masks);
        let stride = batch.stride;
        batch
            .ops
            .iter()
            .enumerate()
            .map(|(k, op)| {
                let mut outcome = OpOutcome::default();
                op.run(&mut self.table, |table, row, removal| {
                    let (routes, masks, out) = if removal {
                        (&batch.removal, &batch.removal_masks, &mut outcome.removal)
                    } else {
                        (&batch.insert, &batch.insert_masks, &mut outcome.insert)
                    };
                    let mask = (!masks.is_empty()).then(|| masks[k * shard.shards + shard.shard]);
                    shard.phase(
                        table,
                        &routes[k * stride..(k + 1) * stride],
                        mask,
                        row,
                        removal,
                        out,
                    );
                });
                outcome
            })
            .collect()
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
    spans: &[RouteSpan],
) {
    let shards = masks.len();
    for (rule, span) in spans.iter().enumerate() {
        for &key in routes[span.range()].iter().flatten() {
            masks[owner_of(slot_of(key), shards)] |= 1 << rule;
        }
        if let Some(col) = span.const_col {
            masks[owner_of(slot_of(lhs_of(col)), shards)] |= 1 << rule;
        }
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

/// The merged event stream of one submitted batch, tagged with the
/// batch's epoch sequence number (monotone from 0, one per batch —
/// empty batches and synchronous calls included). Batches complete
/// strictly in `seq` order.
#[derive(Debug)]
pub struct BatchEvents {
    /// The batch's submission sequence number.
    pub seq: u64,
    /// The batch's violation events, in rule/tableau order — identical
    /// whichever layout ran the batch.
    pub events: Vec<LedgerEvent>,
}

/// The sharded layout: worker threads each running one [`Shard`] over
/// its table replica, the route layout and the run-ahead queue. The
/// engine lends its canonical table, key router, ledger and drift
/// monitor to each call that advances or merges a batch; see the module
/// docs for the shard/merge protocol.
pub(crate) struct Shards {
    workers: Vec<WorkerHandle>,
    /// Pipelining window: how many submitted batches may be unmerged.
    run_ahead: usize,
    /// Sequence number of the newest submitted batch.
    newest: u64,
    /// Submitted-but-unmerged batches, oldest first: `(seq, op count)`.
    /// An empty batch queues here too, so it completes in order, but no
    /// worker ever sees it.
    in_flight: VecDeque<(u64, usize)>,
    /// Merged batches not yet handed to the caller.
    completed: Vec<BatchEvents>,
    /// The route layout (the same `Arc` every worker's shard holds).
    spans: Arc<[RouteSpan]>,
}

impl std::fmt::Debug for Shards {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shards")
            .field("shards", &self.workers.len())
            .field("run_ahead", &self.run_ahead)
            .field("in_flight", &self.in_flight.len())
            .finish_non_exhaustive()
    }
}

/// The most batches a sharded engine keeps in flight: `run_ahead` is
/// clamped to this when the engine is built, which bounds the two
/// preallocated channels per worker.
pub(crate) const MAX_RUN_AHEAD: usize = 64;

impl Shards {
    /// Spawn `shards` workers (already clamped, at least 2) over
    /// `schema`, each holding a copy of every rule's freshly seeded
    /// state (`seeds`) and keeping the keys `owner_of` gives it.
    pub(crate) fn new(
        schema: &Schema,
        seeds: &[RuleState],
        spans: Arc<[RouteSpan]>,
        shards: usize,
        run_ahead: usize,
    ) -> Shards {
        let workers = (0..shards)
            .map(|shard| {
                // Per-shard metric instances; the registered handles are
                // `&'static`, so they cross the thread boundary freely.
                let queue_depth = obs::gauge(&format!("shard.{shard}.queue_depth"));
                let worker = Worker {
                    table: Table::empty(schema.clone()),
                    shard: Shard::new(seeds.to_vec(), Arc::clone(&spans), shard, shards),
                    queue_depth,
                    batches: obs::counter(&format!("shard.{shard}.batches")),
                    busy_ns: obs::histogram(&format!("shard.{shard}.busy_ns")),
                };
                // Bounded both ways, sized to the pipelining window:
                // `run_ahead + 1` in-flight batches per worker.
                let cap = run_ahead + 1;
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
        Shards {
            workers,
            run_ahead,
            newest: 0,
            in_flight: VecDeque::new(),
            completed: Vec::new(),
            spans,
        }
    }

    /// Number of worker threads.
    pub(crate) fn count(&self) -> usize {
        self.workers.len()
    }

    /// The pipelining window (0 = classic per-batch barrier).
    pub(crate) fn run_ahead(&self) -> usize {
        self.run_ahead
    }

    /// Batches currently in flight (submitted, not yet merged).
    pub(crate) fn depth(&self) -> usize {
        self.in_flight.len()
    }

    /// Merged batches not yet handed to the caller, in submission order.
    pub(crate) fn take_completed(&mut self) -> Vec<BatchEvents> {
        std::mem::take(&mut self.completed)
    }

    /// Route a validated batch through `router` while advancing the
    /// canonical `table`, fan it out to every worker under sequence
    /// number `seq`, then trim the pipeline to the run-ahead window by
    /// merging oldest-first into `ledger` and `drift`. An empty batch
    /// reaches no worker; it still queues, so it completes in order.
    pub(crate) fn submit(
        &mut self,
        seq: u64,
        ops: Vec<IdOp>,
        table: &mut Table,
        router: &mut Router,
        ledger: &mut ViolationLedger,
        drift: &mut DriftMonitor,
    ) {
        self.newest = seq;
        let op_count = ops.len();
        if op_count > 0 {
            obs::counter!("shard.batches").incr();
            let _fanout = obs::span!("shard.fanout_ns");
            let batch = Arc::new(self.route(table, router, ops));
            for worker in &self.workers {
                worker.send(WorkerMsg::Batch {
                    seq,
                    batch: Arc::clone(&batch),
                });
            }
        }
        self.in_flight.push_back((seq, op_count));
        obs::gauge!("pipeline.run_ahead").set(self.in_flight.len() as i64);
        while self.in_flight.len() > self.run_ahead {
            self.merge_oldest(ledger, drift);
        }
    }

    /// Derive each op's routes against pre-op table state while applying
    /// the ops to the canonical table in order — exactly the state the
    /// inline layout consults (removal routes from the pre-op row,
    /// insert routes from the arrived cells) — plus each worker's rule
    /// bitmasks.
    fn route(&self, table: &mut Table, router: &mut Router, ops: Vec<IdOp>) -> RoutedBatch {
        router.prime(&ops);
        let stride = router.stride();
        let shards = self.workers.len();
        // Rule bitmasks only fit u64; beyond that workers visit every
        // rule (the slow path — fine, 64+ live rules is far past
        // anything discovery emits).
        let exact = self.spans.len() <= 64;
        let mask_len = if exact { ops.len() * shards } else { 0 };
        let mut batch = RoutedBatch {
            ops: Vec::new(),
            stride,
            removal: Vec::with_capacity(ops.len() * stride),
            insert: Vec::with_capacity(ops.len() * stride),
            removal_masks: vec![0u64; mask_len],
            insert_masks: vec![0u64; mask_len],
        };
        for (k, op) in ops.iter().enumerate() {
            op.run(table, |table, row, removal| {
                let (routes, masks) = if removal {
                    (&mut batch.removal, &mut batch.removal_masks)
                } else {
                    (&mut batch.insert, &mut batch.insert_masks)
                };
                router.route(table, row, routes);
                if exact {
                    fill_masks(
                        &routes[k * stride..],
                        |col| table.cell_id(row, col),
                        &mut masks[k * shards..(k + 1) * shards],
                        &self.spans,
                    );
                }
            });
            // A phase the op never ran is `None` padding.
            batch.removal.resize((k + 1) * stride, None);
            batch.insert.resize((k + 1) * stride, None);
        }
        batch.ops = ops;
        batch
    }

    /// Merge every in-flight batch, oldest first.
    pub(crate) fn drain(&mut self, ledger: &mut ViolationLedger, drift: &mut DriftMonitor) {
        while !self.in_flight.is_empty() {
            self.merge_oldest(ledger, drift);
        }
    }

    /// Merge the oldest in-flight batch: await every worker's reply for
    /// it (replies arrive in submission order on each FIFO channel,
    /// asserted via the echoed seq) and fold the outcomes into the
    /// ledger, drift monitor, and completed queue. An empty batch
    /// completes without a reply to wait for.
    fn merge_oldest(&mut self, ledger: &mut ViolationLedger, drift: &mut DriftMonitor) {
        let Some((seq, op_count)) = self.in_flight.pop_front() else {
            return;
        };
        if op_count == 0 {
            self.completed.push(BatchEvents {
                seq,
                events: Vec::new(),
            });
            return;
        }
        // How many younger batches were already submitted when this one
        // merges — 0 under the classic barrier, up to `run_ahead` when
        // the pipeline is saturated.
        obs::histogram!("merge.lag_batches").record(self.newest - seq);
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
        let events = merge(op_count, replies, ledger, drift);
        obs::counter!("engine.events").add(events.len() as u64);
        obs::gauge!("pipeline.run_ahead").set(self.in_flight.len() as i64);
        self.completed.push(BatchEvents { seq, events });
    }

    /// Send one request to every worker and collect each reply. Requests
    /// share the FIFO batch channel, so the pipeline must be drained
    /// first.
    fn round_trip(&self, request: impl Fn() -> WorkerMsg) -> Vec<WorkerReply> {
        debug_assert!(self.in_flight.is_empty(), "drain before a round trip");
        for worker in &self.workers {
            worker.send(request());
        }
        self.workers.iter().map(WorkerHandle::recv).collect()
    }

    /// The workers' share of a compaction epoch, after the caller has
    /// drained the pipeline and compacted the canonical table: broadcast
    /// the remap and wait until every worker has compacted its replica
    /// and remapped its rules' partitions and asserted block context.
    pub(crate) fn compact(&mut self, remap: &RowIdRemap) {
        obs::counter!("shard.epoch_barriers").incr();
        let remap = Arc::new(remap.clone());
        for reply in self.round_trip(|| WorkerMsg::Compact(Arc::clone(&remap))) {
            assert!(
                matches!(reply, WorkerReply::Compacted),
                "worker replies in lockstep with requests"
            );
        }
    }

    /// Reclamation phase 1: the union of the workers' vetoes (see
    /// `Shard::veto`).
    pub(crate) fn protected(&mut self, candidates: &[ValueId]) -> FxHashSet<u32> {
        let scan = Arc::new(candidates.to_vec());
        let mut vetoed = FxHashSet::default();
        for reply in self.round_trip(|| WorkerMsg::ReclaimScan(Arc::clone(&scan))) {
            match reply {
                WorkerReply::ReclaimVeto(ids) => vetoed.extend(ids),
                _ => unreachable!("worker replies in lockstep with requests"),
            }
        }
        vetoed
    }

    /// Reclamation phase 2: every worker purges its tableau-memo entries
    /// for the dead ids before the caller frees them.
    pub(crate) fn purge(&mut self, dead: FxHashSet<u32>) {
        let dead = Arc::new(dead);
        for reply in self.round_trip(|| WorkerMsg::ReclaimApply(Arc::clone(&dead))) {
            assert!(
                matches!(reply, WorkerReply::Reclaimed),
                "worker replies in lockstep with requests"
            );
        }
    }

    /// Rule-state figures summed over every worker, and each worker's
    /// block count.
    pub(crate) fn census(&mut self) -> (Census, Vec<usize>) {
        let mut total = Census::default();
        let per_worker = self
            .round_trip(|| WorkerMsg::Stats)
            .into_iter()
            .map(|reply| match reply {
                WorkerReply::Stats(census) => {
                    total.blocks += census.blocks;
                    total.evals += census.evals;
                    total.lookups += census.lookups;
                    census.blocks
                }
                _ => unreachable!("worker replies in lockstep with requests"),
            })
            .collect();
        (total, per_worker)
    }
}

/// Merge per-shard outcomes: for each op, removal phase then insert
/// phase, through [`merge_phase`].
fn merge(
    op_count: usize,
    mut replies: Vec<Vec<OpOutcome>>,
    ledger: &mut ViolationLedger,
    drift: &mut DriftMonitor,
) -> Vec<LedgerEvent> {
    let _merge = obs::span!("shard.merge_ns");
    let mut events = Vec::new();
    let mut removal: Vec<TupleDeltas> = Vec::new();
    let mut insert: Vec<TupleDeltas> = Vec::new();
    for op in 0..op_count {
        for shard in &mut replies {
            let outcome = std::mem::take(&mut shard[op]);
            removal.extend(outcome.removal);
            insert.extend(outcome.insert);
        }
        merge_phase(&mut removal, true, ledger, drift, &mut events);
        merge_phase(&mut insert, false, ledger, drift, &mut events);
    }
    events
}

/// Replay one op phase's deltas, from one shard or many: ordered by
/// `(rule, tuple)`, per rule fold the partial drift tallies (a rule's
/// work for one row can spread over several shards and tuples), apply
/// the folded tally once, then replay the rule's deltas in tableau
/// order — the same ledger and drift call sequence whatever the layout.
/// `entries` is a reusable buffer: drained (and cleared) here so the
/// caller's allocation survives across ops.
fn merge_phase(
    entries: &mut Vec<TupleDeltas>,
    removal: bool,
    ledger: &mut ViolationLedger,
    drift: &mut DriftMonitor,
    events: &mut Vec<LedgerEvent>,
) {
    entries.sort_by_key(|d| (d.rule, d.tuple));
    for group in entries.chunk_by_mut(|a, b| a.rule == b.rule) {
        let mut tally = DriftDelta::default();
        for d in group.iter() {
            tally.absorb(DriftDelta {
                matched: d.matched,
                created: d.sink.created,
                retracted: d.sink.retracted,
            });
        }
        // The folded tally lands before any of the rule's deltas replay.
        let rule = group[0].rule;
        if removal {
            drift.retire(rule, tally.matched, tally.created, tally.retracted);
        } else {
            drift.observe(rule, tally.matched, tally.created, tally.retracted);
        }
        for entry in group {
            apply_deltas(ledger, std::mem::take(&mut entry.sink.deltas), events);
        }
    }
    entries.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StreamConfig, StreamEngine};
    use anmat_core::PatternTuple;
    use anmat_table::{RowOp, TableError, Value};

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

    fn config(shards: usize, run_ahead: usize) -> StreamConfig {
        StreamConfig {
            shards,
            run_ahead,
            ..StreamConfig::default()
        }
    }

    fn sharded(shards: usize, run_ahead: usize) -> StreamEngine {
        StreamEngine::with_config(
            schema(),
            vec![zip_variable_pfd()],
            config(shards, run_ahead),
        )
    }

    fn insert(zip: &str, city: &str) -> RowOp {
        RowOp::Insert(vec![Value::text(zip), Value::text(city)])
    }

    #[test]
    fn one_shard_runs_inline_and_more_ignore_the_rule_count() {
        let inline = sharded(1, 4);
        assert_eq!(inline.shard_count(), 1);
        assert_eq!(inline.run_ahead(), 0, "an inline layout has no pipeline");
        // One rule's blocks still spread over four workers.
        assert_eq!(sharded(4, 0).shard_count(), 4);
    }

    #[test]
    fn run_ahead_is_clamped_to_the_channel_cap() {
        let mut engine = sharded(2, usize::MAX);
        assert_eq!(engine.shard_count(), 2);
        assert_eq!(engine.run_ahead(), MAX_RUN_AHEAD);
        let mut completed = Vec::new();
        for i in 0..3 {
            let ops = [RowOp::Insert(vec![
                Value::text(format!("9000{i}")),
                Value::text(if i == 1 { "NY" } else { "LA" }),
            ])];
            completed.extend(engine.submit(ops).unwrap());
        }
        assert_eq!(engine.pipeline_depth(), 3, "the window holds every batch");
        completed.extend(engine.flush());
        let seqs: Vec<u64> = completed.iter().map(|b| b.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
        assert_eq!(engine.ledger().live_count(), 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut engine = sharded(2, 0);
        let events = engine.apply([]).unwrap();
        assert!(events.is_empty());
        assert_eq!(engine.row_count(), 0);
    }

    #[test]
    fn empty_batches_complete_in_submission_order() {
        // An empty batch behind an in-flight one must wait its turn.
        let mut engine = sharded(2, 4);
        let mut completed = Vec::new();
        completed.extend(engine.submit([insert("90001", "LA")]).unwrap());
        completed.extend(engine.submit([]).unwrap());
        completed.extend(engine.submit([insert("90002", "NY")]).unwrap());
        completed.extend(engine.flush());
        let seqs: Vec<u64> = completed.iter().map(|b| b.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
        assert!(completed[1].events.is_empty());
        assert_eq!(engine.ledger().live_count(), 1);
    }

    #[test]
    fn basic_flow_matches_expectations() {
        let mut engine = sharded(2, 0);
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
    fn pipelined_submissions_complete_in_order() {
        let mut engine = sharded(2, 4);
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
        let mut sync = sharded(2, 0);
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
        let mut engine = sharded(2, 0);
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
            compact_ratio: 0.4,
            ..config(2, 0)
        };
        let mut engine = StreamEngine::with_config(schema(), vec![zip_variable_pfd()], config);
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
        let mut engine = sharded(2, 0);
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
