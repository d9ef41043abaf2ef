//! Columnar in-memory tables, dictionary-encoded, with tombstoned
//! mutation and copy-on-write snapshots.
//!
//! A column is a [`CowVec<ValueId>`] — 4 bytes per cell in 4096-cell
//! `Arc`-shared chunks — dictionary-encoded against the process-global
//! [`ValuePool`]. Ingest interns each cell once; every downstream
//! consumer (indexes, discovery, detection, the stream engine) operates
//! on `Copy` ids and pays string costs only per *distinct* value. The
//! `Value`/`&str` views (`cell`, `cell_str`, `row`, `iter_pair`) are
//! preserved at the API boundary for CSV ingest, reports and serde; id
//! accessors (`cell_id`, `row_ids`) are the hot path.
//!
//! [`Table::snapshot`] freezes a consistent read-only view
//! ([`TableSnapshot`]) in `O(chunks)` refcount bumps — no cell is
//! copied. The live table keeps mutating; a write to a chunk still
//! shared with a snapshot copies that one 16 KiB chunk first
//! (`Arc::make_mut`), so snapshot cost is proportional to the chunks
//! *mutated while the snapshot is alive*, not to table size. Drift
//! reports, `detect_all` cross-checks, and serde checkpoints read the
//! snapshot while ingest continues.
//!
//! Pool strings are reclaimed by a table's owner, not by the table: the
//! stream engine marks the ids its table's cells hold at a compaction
//! barrier, when no tombstones exist.
//!
//! Tables are *mutable streams*: besides appends, an [`Op`] deletes a
//! row (tombstoning its slot) or updates one in place, and
//! [`Table::apply`] executes it. Slot identity is preserved — a deleted
//! row keeps its `RowId` (and its last cell contents stay readable for
//! evidence rendering), so row ids held by indexes, violations, and
//! ledgers never dangle. Live-row iteration ([`Table::iter_column`],
//! [`Table::iter_pair`], [`Table::iter_live`]) skips tombstones, so
//! batch discovery/detection over a mutated table see exactly the
//! surviving rows; [`Table::row_count`] counts slots and
//! [`Table::live_rows`] counts survivors. [`Op`] is the one op type from
//! bytes to engine: the op-log reader ([`crate::oplog`]) yields it,
//! [`Table::apply`] executes it, and the stream engine maintains
//! violations over it.
//!
//! Tombstones accumulate under sustained churn, so tables also support
//! **compaction epochs**: [`Table::compact`] drops every tombstoned
//! slot, rewrites the columns densely, bumps the table's
//! [`epoch`](Table::epoch), and returns a [`RowIdRemap`] — the
//! epoch-stamped old→new slot mapping every `RowId`-holding consumer
//! (indexes, ledgers, stream engines) applies to stay aligned. The
//! remap is *monotone* (surviving slots keep their relative order), so
//! sorted row lists stay sorted under
//! [`RowIdRemap::remap_sorted_in_place`]. Memory is genuinely released:
//! columns and the tombstone bitmap shrink to the live-row footprint
//! (observable via [`Table::mem_footprint`]).

use crate::cow::CowVec;
use crate::error::TableError;
use crate::pool::{ValueId, ValuePool};
use crate::schema::Schema;
use crate::value::Value;
use anmat_obs as obs;
use serde::{Deserialize, Serialize};

/// Identifier of a row: its 0-based position.
pub type RowId = usize;

/// The old→new slot mapping one [`Table::compact`] pass produced,
/// stamped with the epoch it opened.
///
/// This is the currency of the *remap protocol*: the table's owner
/// threads the remap through every consumer holding `RowId`s (posting
/// lists, block row lists, violation witnesses, ledger entries) so all
/// of them translate in lockstep, instead of each rebuilding from
/// scratch. Two properties consumers rely on:
///
/// * **Totality on live rows** — every slot that was live at compaction
///   time maps to `Some(new)`; only tombstoned slots map to `None`.
///   A consumer that removed dead rows as they were deleted (all of
///   ours do) therefore never sees `None` — [`RowIdRemap::live_id`]
///   encodes that contract.
/// * **Monotonicity** — survivors keep their relative order, so an
///   ascending row list stays ascending after
///   [`RowIdRemap::remap_sorted_in_place`]; no re-sort is needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowIdRemap {
    /// The epoch the compaction opened (the table's new epoch).
    epoch: u64,
    /// Old slot → new slot; `None` for dropped (tombstoned) slots.
    map: Vec<Option<RowId>>,
    /// Number of surviving slots (`Some` entries in `map`).
    survivors: usize,
}

impl RowIdRemap {
    /// The epoch this compaction opened.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of slots before compaction.
    #[must_use]
    pub fn old_slots(&self) -> usize {
        self.map.len()
    }

    /// Number of surviving slots (= the compacted table's row count).
    #[must_use]
    pub fn new_slots(&self) -> usize {
        self.survivors
    }

    /// Tombstoned slots the compaction dropped.
    #[must_use]
    pub fn reclaimed(&self) -> usize {
        self.map.len() - self.survivors
    }

    /// Did every slot survive (nothing moved)?
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.survivors == self.map.len()
    }

    /// The new id of an old slot, `None` if the slot was tombstoned (or
    /// out of range).
    #[must_use]
    pub fn new_id(&self, old: RowId) -> Option<RowId> {
        self.map.get(old).copied().flatten()
    }

    /// The new id of a slot that was live at compaction time.
    ///
    /// # Panics
    /// Panics if `old` was tombstoned or out of range — by the remap
    /// protocol, a consumer holding such an id has a maintenance bug
    /// (it failed to drop the row when it was deleted).
    #[must_use]
    pub fn live_id(&self, old: RowId) -> RowId {
        self.new_id(old)
            .expect("remap protocol: consumers hold only live row ids")
    }

    /// Rewrite an ascending list of live row ids in place. Monotonicity
    /// keeps the result ascending; panics like [`RowIdRemap::live_id`]
    /// on a dead id.
    pub fn remap_sorted_in_place(&self, rows: &mut [RowId]) {
        for r in rows {
            *r = self.live_id(*r);
        }
    }
}

/// A table's memory footprint, independent of the shared [`ValuePool`]
/// (string bytes live once, process-wide; the table's own cost is the
/// 4-byte id cells plus the tombstone bitmap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFootprint {
    /// Allocated bytes: column capacity × id size + bitmap capacity.
    pub bytes: usize,
    /// Row slots held (tombstoned included).
    pub total_slots: usize,
    /// Live rows among them.
    pub live_slots: usize,
}

/// One mutation of a table, over interned cells — the delta currency of
/// the whole pipeline.
///
/// An append-only stream is the special case where every op is
/// [`Op::Insert`]. [`Table::apply`] executes one op;
/// `StreamEngine::apply` (in `anmat-stream`) executes a batch while
/// maintaining violations incrementally. An update is delete+insert
/// *fused on one slot*: the row keeps its `RowId`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Append a new row.
    Insert(Vec<ValueId>),
    /// Tombstone an existing live row.
    Delete(RowId),
    /// Overwrite an existing live row's cells in place.
    Update(RowId, Vec<ValueId>),
}

/// An [`Op`] whose cells are owned [`Value`]s, for callers that build
/// ops from values rather than reading an op-log; [`Op::from`] interns
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowOp {
    /// Append a new row.
    Insert(Vec<Value>),
    /// Tombstone an existing live row.
    Delete(RowId),
    /// Overwrite an existing live row's cells in place.
    Update(RowId, Vec<Value>),
}

impl From<RowOp> for Op {
    /// Intern the op's cells, one [`ValuePool::intern_value_batch`] per
    /// record.
    fn from(op: RowOp) -> Op {
        match op {
            RowOp::Insert(cells) => Op::Insert(ValuePool::intern_value_batch(&cells)),
            RowOp::Delete(row) => Op::Delete(row),
            RowOp::Update(row, cells) => Op::Update(row, ValuePool::intern_value_batch(&cells)),
        }
    }
}

/// A columnar table: one `Vec<ValueId>` per column, all equal length.
///
/// Columnar layout matches the access pattern of both discovery (scan a
/// column pair) and detection (scan one column, probe another); the
/// dictionary encoding makes each scan touch 4-byte `Copy` ids, with
/// string resolution deferred to per-distinct-value work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    schema: Schema,
    columns: Vec<CowVec<ValueId>>,
    rows: usize,
    /// Tombstone bitmap, parallel to the slots (`false` = deleted).
    live: CowVec<bool>,
    /// Number of `false` entries in `live`.
    dead: usize,
    /// Compaction epoch: 0 at construction, bumped by every
    /// [`Table::compact`]. `RowId`s are only comparable within an epoch.
    epoch: u64,
}

/// A frozen, read-only view of a [`Table`] captured by
/// [`Table::snapshot`].
///
/// Capture is `O(chunks)` — the snapshot shares every storage chunk
/// with the live table; neither copies until the live side mutates a
/// shared chunk (and then only that chunk). The snapshot derefs to
/// [`Table`], so the whole read API (`cell_id`, `iter_live`,
/// `iter_pair`, serde, `mem_footprint`, …) works on it; there is no way
/// to mutate one.
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    inner: Table,
}

impl TableSnapshot {
    /// The frozen view, as a `&Table`.
    #[must_use]
    pub fn table(&self) -> &Table {
        &self.inner
    }
}

impl std::ops::Deref for TableSnapshot {
    type Target = Table;

    fn deref(&self) -> &Table {
        &self.inner
    }
}

impl Table {
    /// An empty table with the given schema.
    #[must_use]
    pub fn empty(schema: Schema) -> Table {
        let columns = (0..schema.arity()).map(|_| CowVec::new()).collect();
        Table {
            schema,
            columns,
            rows: 0,
            live: CowVec::new(),
            dead: 0,
            epoch: 0,
        }
    }

    /// Build a table from rows of cells.
    pub fn from_rows<R>(schema: Schema, rows: R) -> Result<Table, TableError>
    where
        R: IntoIterator<Item = Vec<Value>>,
    {
        let mut t = Table::empty(schema);
        for row in rows {
            t.push_row(row)?;
        }
        Ok(t)
    }

    /// Convenience: build from string rows (fields go through
    /// [`Value::from_field`]).
    pub fn from_str_rows<'a, R, F>(schema: Schema, rows: R) -> Result<Table, TableError>
    where
        R: IntoIterator<Item = F>,
        F: IntoIterator<Item = &'a str>,
    {
        let mut t = Table::empty(schema);
        for row in rows {
            t.push_row(row.into_iter().map(Value::from_field).collect())?;
        }
        Ok(t)
    }

    /// Append one row, interning the whole record into the [`ValuePool`]
    /// with one lock acquisition ([`ValuePool::intern_value_batch`]).
    /// Arity is checked before anything is interned.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<RowId, TableError> {
        self.check_arity(self.rows, row.len())?;
        self.push_id_row(ValuePool::intern_value_batch(&row))
    }

    /// Append one row of already-interned ids — the clone-free ingest
    /// path (no string is copied, hashed, or even read).
    pub fn push_id_row(&mut self, row: Vec<ValueId>) -> Result<RowId, TableError> {
        self.check_arity(self.rows, row.len())?;
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        let id = self.rows;
        self.rows += 1;
        self.live.push(true);
        // `table.*` counters aggregate over every Table in the process.
        obs::counter!("table.push").incr();
        Ok(id)
    }

    /// Tombstone one live row. The slot (and its last cell contents)
    /// remains addressable — `RowId`s held elsewhere stay valid — but
    /// live-row iteration and [`Table::live_rows`] no longer see it.
    pub fn delete_row(&mut self, row: RowId) -> Result<(), TableError> {
        self.require_live(row)?;
        self.live.set(row, false);
        self.dead += 1;
        obs::counter!("table.delete").incr();
        Ok(())
    }

    /// Execute one [`Op`] — the table's op executor. Returns the affected
    /// `RowId` (the fresh slot for an insert, the addressed slot
    /// otherwise). An update overwrites the row's cells in place (slot
    /// identity preserved); its arity and the row's liveness are checked
    /// before anything is written.
    pub fn apply(&mut self, op: Op) -> Result<RowId, TableError> {
        match op {
            Op::Insert(cells) => self.push_id_row(cells),
            Op::Delete(row) => {
                self.delete_row(row)?;
                Ok(row)
            }
            Op::Update(row, cells) => {
                self.check_arity(row, cells.len())?;
                self.require_live(row)?;
                for (col, v) in self.columns.iter_mut().zip(cells) {
                    col.set(row, v);
                }
                obs::counter!("table.update").incr();
                Ok(row)
            }
        }
    }

    fn check_arity(&self, row: RowId, found: usize) -> Result<(), TableError> {
        let expected = self.schema.arity();
        if found == expected {
            Ok(())
        } else {
            Err(TableError::ArityMismatch {
                row,
                found,
                expected,
            })
        }
    }

    fn require_live(&self, row: RowId) -> Result<(), TableError> {
        if self.is_live(row) {
            Ok(())
        } else {
            Err(TableError::NoSuchRow { row })
        }
    }

    /// The schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of row *slots*, tombstoned ones included (the exclusive
    /// upper bound of valid `RowId`s). For the surviving-row count see
    /// [`Table::live_rows`].
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Number of live (non-tombstoned) rows.
    #[must_use]
    pub fn live_rows(&self) -> usize {
        self.rows - self.dead
    }

    /// Is this slot a live row? (`false` for tombstoned *and* for
    /// out-of-range ids.)
    #[must_use]
    pub fn is_live(&self, row: RowId) -> bool {
        row < self.live.len() && self.live.get(row)
    }

    /// Iterate the live `RowId`s in ascending order.
    pub fn iter_live(&self) -> impl Iterator<Item = RowId> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter_map(|(r, alive)| alive.then_some(r))
    }

    /// Number of columns.
    #[must_use]
    pub fn column_count(&self) -> usize {
        self.schema.arity()
    }

    /// Iterate a whole column of ids by index, tombstoned slots
    /// included (panics if out of range).
    pub fn column(&self, idx: usize) -> impl Iterator<Item = ValueId> + '_ {
        self.columns[idx].iter()
    }

    /// [`Table::column`] by name.
    pub fn column_by_name(
        &self,
        name: &str,
    ) -> Result<impl Iterator<Item = ValueId> + '_, TableError> {
        Ok(self.columns[self.schema.require(name)?].iter())
    }

    /// One cell, materialized as a [`Value`] (allocates for text; use
    /// [`Table::cell_id`] or [`Table::cell_str`] on hot paths).
    #[must_use]
    pub fn cell(&self, row: RowId, col: usize) -> Value {
        self.columns[col].get(row).value()
    }

    /// One cell's interned id — `O(1)`, `Copy`, allocation-free.
    #[must_use]
    pub fn cell_id(&self, row: RowId, col: usize) -> ValueId {
        self.columns[col].get(row)
    }

    /// One cell's string content (`None` if null).
    #[must_use]
    pub fn cell_str(&self, row: RowId, col: usize) -> Option<&'static str> {
        self.columns[col].get(row).as_str()
    }

    /// Overwrite one cell (used by error injection and repair).
    pub fn set_cell(&mut self, row: RowId, col: usize, v: Value) {
        self.columns[col].set(row, ValuePool::intern_value(&v));
    }

    /// Materialize one row as owned [`Value`]s.
    #[must_use]
    pub fn row(&self, row: RowId) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(row).value()).collect()
    }

    /// One row as interned ids (the clone-free counterpart of
    /// [`Table::row`]).
    #[must_use]
    pub fn row_ids(&self, row: RowId) -> Vec<ValueId> {
        self.columns.iter().map(|c| c.get(row)).collect()
    }

    /// Iterate `(RowId, ValueId)` over the *live* rows of a column.
    /// Tombstoned slots are skipped, so every batch consumer (discovery,
    /// detection, blocking, profiling) sees exactly the surviving rows.
    pub fn iter_column(&self, col: usize) -> impl Iterator<Item = (RowId, ValueId)> + '_ {
        self.columns[col]
            .iter()
            .enumerate()
            .filter(|&(r, _)| self.live.get(r))
    }

    /// Iterate `(RowId, &str, &str)` over the non-null cells of the live
    /// rows of a column pair — the unit of work of the discovery loop.
    pub fn iter_pair(
        &self,
        a: usize,
        b: usize,
    ) -> impl Iterator<Item = (RowId, &'static str, &'static str)> + '_ {
        self.columns[a]
            .iter()
            .zip(self.columns[b].iter())
            .enumerate()
            .filter_map(|(id, (va, vb))| {
                if !self.live.get(id) {
                    return None;
                }
                Some((id, va.as_str()?, vb.as_str()?))
            })
    }

    /// A new compacted table containing only the live rows selected by
    /// `keep` (tombstoned slots are never carried over; the result gets
    /// fresh, dense `RowId`s).
    #[must_use]
    pub fn filter_rows(&self, keep: impl Fn(RowId) -> bool) -> Table {
        let mut t = Table::empty(self.schema.clone());
        for r in self.iter_live() {
            if keep(r) {
                t.push_id_row(self.row_ids(r)).expect("same schema");
            }
        }
        t
    }

    /// The table's compaction epoch (0 until the first
    /// [`Table::compact`]).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Drop every tombstoned slot, rewriting the columns densely, and
    /// open a new epoch. Returns the epoch-stamped [`RowIdRemap`] the
    /// caller must thread through every consumer holding `RowId`s.
    ///
    /// Survivors keep their relative order (the remap is monotone).
    /// Column vectors and the tombstone bitmap are shrunk to the live
    /// footprint, so memory is actually released — the whole point of
    /// compaction under sustained churn. `O(slots × columns)`; with no
    /// tombstones the pass is an identity remap (the epoch still
    /// advances: an epoch is a compaction *event*, not a change).
    pub fn compact(&mut self) -> RowIdRemap {
        let mut map = Vec::with_capacity(self.rows);
        let mut next = 0usize;
        for alive in self.live.iter() {
            if alive {
                map.push(Some(next));
                next += 1;
            } else {
                map.push(None);
            }
        }
        if self.dead > 0 {
            // Rebuild each column into fresh, unshared chunks: memory is
            // genuinely released, and any chunks a snapshot still shares
            // stay with the snapshot alone.
            for col in &mut self.columns {
                let fresh: CowVec<ValueId> = col
                    .iter()
                    .zip(map.iter())
                    .filter_map(|(v, entry)| entry.map(|_| v))
                    .collect();
                *col = fresh;
            }
        }
        self.rows = next;
        self.live = (0..next).map(|_| true).collect();
        self.dead = 0;
        self.epoch += 1;
        obs::counter!("table.compact").incr();
        obs::histogram!("table.remap_slots").record(map.len() as u64);
        obs::histogram!("table.remap_survivors").record(next as u64);
        RowIdRemap {
            epoch: self.epoch,
            map,
            survivors: next,
        }
    }

    /// The table's own memory footprint (excludes the process-global
    /// [`ValuePool`], which is shared and append-only): allocated column
    /// bytes plus the tombstone bitmap, with live-vs-total slot counts —
    /// the observable that makes tombstone reclamation measurable.
    #[must_use]
    pub fn mem_footprint(&self) -> MemFootprint {
        let column_bytes: usize = self.columns.iter().map(CowVec::capacity_bytes).sum();
        MemFootprint {
            bytes: column_bytes + self.live.capacity_bytes(),
            total_slots: self.rows,
            live_slots: self.live_rows(),
        }
    }

    /// Capture a copy-on-write snapshot — a frozen, consistent view this
    /// table's future mutations cannot disturb. `O(chunks)` refcount
    /// bumps; see [`TableSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> TableSnapshot {
        obs::counter!("snapshot.table_captures").incr();
        TableSnapshot {
            inner: self.clone(),
        }
    }

    /// Number of storage chunks currently shared with live snapshots —
    /// the upper bound on chunk copies future mutations can pay.
    #[must_use]
    pub fn shared_chunks(&self) -> usize {
        self.columns
            .iter()
            .map(CowVec::shared_chunks)
            .sum::<usize>()
            + self.live.shared_chunks()
    }
}

/// Serde mirror: tables serialize through their string cells (the same
/// externally-visible JSON shape as before dictionary encoding), so
/// stored documents are independent of pool id assignment. Tombstones
/// travel as the sorted list of *currently* deleted `RowId`s — derived
/// from the live bitmap at save time, never cached, so a compacted
/// table stores an empty list and a load can never resurrect slots a
/// compaction already dropped. The epoch travels too: `RowId`s in
/// ledgers and violation evidence are only meaningful relative to it.
#[derive(Serialize, Deserialize)]
struct TableRepr {
    schema: Schema,
    columns: Vec<Vec<Value>>,
    rows: usize,
    deleted: Vec<RowId>,
    epoch: u64,
}

impl Serialize for Table {
    fn to_json_value(&self) -> serde::Value {
        TableRepr {
            schema: self.schema.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| c.iter().map(|id| id.value()).collect())
                .collect(),
            rows: self.rows,
            deleted: (0..self.rows).filter(|&r| !self.live.get(r)).collect(),
            epoch: self.epoch,
        }
        .to_json_value()
    }
}

impl Deserialize for Table {
    fn from_json_value(v: &serde::Value) -> Result<Table, serde::Error> {
        let repr = TableRepr::from_json_value(v)?;
        if repr.columns.len() != repr.schema.arity() {
            return Err(serde::Error::custom("column count does not match schema"));
        }
        if repr.columns.iter().any(|c| c.len() != repr.rows) {
            return Err(serde::Error::custom("ragged columns"));
        }
        if repr.deleted.iter().any(|&r| r >= repr.rows) {
            return Err(serde::Error::custom("deleted row out of range"));
        }
        let mut live = vec![true; repr.rows];
        let mut dead = 0usize;
        for &r in &repr.deleted {
            if live[r] {
                live[r] = false;
                dead += 1;
            }
        }
        Ok(Table {
            schema: repr.schema,
            columns: repr
                .columns
                .iter()
                .map(|c| c.iter().map(ValuePool::intern_value).collect())
                .collect(),
            rows: repr.rows,
            live: live.into_iter().collect(),
            dead,
            epoch: repr.epoch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zip_table() -> Table {
        // Table 2 of the paper (D2: a Zip table), including the seeded error.
        let schema = Schema::new(["zip", "city"]).unwrap();
        Table::from_str_rows(
            schema,
            [
                ["90001", "Los Angeles"],
                ["90002", "Los Angeles"],
                ["90003", "Los Angeles"],
                ["90004", "New York"],
            ],
        )
        .unwrap()
    }

    /// An update of `row` to two text cells.
    fn update(row: RowId, cells: [&str; 2]) -> Op {
        RowOp::Update(row, cells.map(Value::text).to_vec()).into()
    }

    #[test]
    fn construction_and_access() {
        let t = zip_table();
        assert_eq!(t.row_count(), 4);
        assert_eq!(t.column_count(), 2);
        assert_eq!(t.cell_str(0, 0), Some("90001"));
        assert_eq!(t.cell_str(3, 1), Some("New York"));
        assert_eq!(t.column_by_name("city").unwrap().count(), 4);
        assert_eq!(t.column(0).count(), 4);
        assert!(t.column_by_name("nope").is_err());
    }

    #[test]
    fn dictionary_encoding_shares_ids() {
        let t = zip_table();
        // Three "Los Angeles" cells are one pool entry.
        assert_eq!(t.cell_id(0, 1), t.cell_id(1, 1));
        assert_eq!(t.cell_id(0, 1), t.cell_id(2, 1));
        assert_ne!(t.cell_id(0, 1), t.cell_id(3, 1));
        // Ids resolve to the original strings.
        assert_eq!(t.cell_id(3, 1).as_str(), Some("New York"));
    }

    #[test]
    fn id_row_roundtrip() {
        let t = zip_table();
        let mut t2 = Table::empty(t.schema().clone());
        for r in 0..t.row_count() {
            t2.push_id_row(t.row_ids(r)).unwrap();
        }
        assert_eq!(t, t2);
        assert!(matches!(
            t2.push_id_row(vec![ValueId::NULL]),
            Err(TableError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn arity_enforced() {
        let schema = Schema::new(["a", "b"]).unwrap();
        let mut t = Table::empty(schema);
        assert!(matches!(
            t.push_row(vec![Value::text("1")]),
            Err(TableError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn iter_pair_skips_nulls() {
        let schema = Schema::new(["a", "b"]).unwrap();
        let t =
            Table::from_str_rows(schema, [["x", "1"], ["", "2"], ["y", ""], ["z", "3"]]).unwrap();
        let pairs: Vec<_> = t.iter_pair(0, 1).collect();
        assert_eq!(pairs, vec![(0, "x", "1"), (3, "z", "3")]);
    }

    #[test]
    fn set_cell_mutates() {
        let mut t = zip_table();
        t.set_cell(3, 1, Value::text("Los Angeles"));
        assert_eq!(t.cell_str(3, 1), Some("Los Angeles"));
        assert_eq!(t.cell_id(3, 1), t.cell_id(0, 1));
    }

    #[test]
    fn filter_rows_subsets() {
        let t = zip_table();
        let f = t.filter_rows(|r| r % 2 == 0);
        assert_eq!(f.row_count(), 2);
        assert_eq!(f.cell_str(1, 0), Some("90003"));
    }

    #[test]
    fn serde_roundtrip() {
        let t = zip_table();
        let json = serde_json::to_string(&t).unwrap();
        // Cells serialize as strings, not pool ids.
        assert!(json.contains("Los Angeles"), "{json}");
        let t2: Table = serde_json::from_str(&json).unwrap();
        assert_eq!(t, t2);
        assert_eq!(t2.schema().index_of("city"), Some(1));
    }

    #[test]
    fn delete_preserves_slot_identity() {
        let mut t = zip_table();
        t.delete_row(1).unwrap();
        assert_eq!(t.row_count(), 4, "slots are kept");
        assert_eq!(t.live_rows(), 3);
        assert!(!t.is_live(1));
        assert!(t.is_live(2));
        // The tombstoned slot's contents stay readable (evidence needs
        // them) …
        assert_eq!(t.cell_str(1, 0), Some("90002"));
        // … but live iteration skips it.
        let rows: Vec<RowId> = t.iter_column(0).map(|(r, _)| r).collect();
        assert_eq!(rows, vec![0, 2, 3]);
        let pairs: Vec<RowId> = t.iter_pair(0, 1).map(|(r, _, _)| r).collect();
        assert_eq!(pairs, vec![0, 2, 3]);
        assert_eq!(t.iter_live().collect::<Vec<_>>(), vec![0, 2, 3]);
        // Appends after a delete get fresh slot ids.
        let id = t
            .push_row(vec![Value::text("90005"), Value::text("Los Angeles")])
            .unwrap();
        assert_eq!(id, 4);
        assert_eq!(t.live_rows(), 4);
    }

    #[test]
    fn delete_rejects_dead_and_out_of_range_rows() {
        let mut t = zip_table();
        t.delete_row(0).unwrap();
        assert!(matches!(
            t.delete_row(0),
            Err(TableError::NoSuchRow { row: 0 })
        ));
        assert!(matches!(
            t.delete_row(99),
            Err(TableError::NoSuchRow { row: 99 })
        ));
        assert!(matches!(
            t.apply(update(0, ["x", "y"])),
            Err(TableError::NoSuchRow { row: 0 })
        ));
    }

    #[test]
    fn update_overwrites_in_place() {
        let mut t = zip_table();
        t.apply(update(3, ["90004", "Los Angeles"])).unwrap();
        assert_eq!(t.cell_str(3, 1), Some("Los Angeles"));
        assert_eq!(t.cell_id(3, 1), t.cell_id(0, 1));
        assert_eq!(t.row_count(), 4);
        assert_eq!(t.live_rows(), 4);
        // Arity is checked before anything is written.
        assert!(matches!(
            t.apply(RowOp::Update(3, vec![Value::text("oops")]).into()),
            Err(TableError::ArityMismatch { .. })
        ));
        assert_eq!(t.cell_str(3, 0), Some("90004"));
    }

    #[test]
    fn row_ops_apply() {
        let mut t = Table::empty(Schema::new(["zip", "city"]).unwrap());
        let ops = vec![
            RowOp::Insert(vec![Value::text("90001"), Value::text("Los Angeles")]),
            RowOp::Insert(vec![Value::text("90002"), Value::text("New York")]),
            RowOp::Update(1, vec![Value::text("90002"), Value::text("Los Angeles")]),
            RowOp::Insert(vec![Value::text("90003"), Value::text("Los Angeles")]),
            RowOp::Delete(0),
        ];
        for op in ops {
            t.apply(op.into()).unwrap();
        }
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.live_rows(), 2);
        assert_eq!(t.cell_str(1, 1), Some("Los Angeles"));
        assert!(!t.is_live(0));
    }

    #[test]
    fn serde_roundtrips_tombstones() {
        let mut t = zip_table();
        t.delete_row(2).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let t2: Table = serde_json::from_str(&json).unwrap();
        assert_eq!(t, t2);
        assert!(!t2.is_live(2));
        assert_eq!(t2.live_rows(), 3);
    }

    #[test]
    fn filter_rows_drops_tombstones() {
        let mut t = zip_table();
        t.delete_row(0).unwrap();
        let f = t.filter_rows(|_| true);
        assert_eq!(f.row_count(), 3);
        assert_eq!(f.live_rows(), 3);
        assert_eq!(f.cell_str(0, 0), Some("90002"));
    }

    #[test]
    fn compact_drops_tombstones_and_renumbers_densely() {
        let mut t = zip_table();
        t.delete_row(1).unwrap();
        t.delete_row(3).unwrap();
        let remap = t.compact();
        // Survivors 0 and 2 become 0 and 1; dropped slots map to None.
        assert_eq!(remap.epoch(), 1);
        assert_eq!(remap.old_slots(), 4);
        assert_eq!(remap.new_slots(), 2);
        assert_eq!(remap.reclaimed(), 2);
        assert!(!remap.is_identity());
        assert_eq!(remap.new_id(0), Some(0));
        assert_eq!(remap.new_id(1), None);
        assert_eq!(remap.new_id(2), Some(1));
        assert_eq!(remap.new_id(3), None);
        assert_eq!(remap.live_id(2), 1);
        assert_eq!(t.epoch(), 1);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.live_rows(), 2);
        assert_eq!(t.cell_str(0, 0), Some("90001"));
        assert_eq!(t.cell_str(1, 0), Some("90003"));
        assert!(t.is_live(0) && t.is_live(1) && !t.is_live(2));
        // Fresh slots continue densely in the new epoch.
        let id = t
            .push_row(vec![Value::text("90009"), Value::text("Los Angeles")])
            .unwrap();
        assert_eq!(id, 2);
    }

    #[test]
    fn compact_without_tombstones_is_identity_but_opens_an_epoch() {
        let mut t = zip_table();
        let before = t.clone();
        let remap = t.compact();
        assert!(remap.is_identity());
        assert_eq!(remap.reclaimed(), 0);
        assert_eq!(t.epoch(), 1);
        assert_eq!(t.row_count(), before.row_count());
        for r in 0..t.row_count() {
            assert_eq!(remap.live_id(r), r);
            assert_eq!(t.row_ids(r), before.row_ids(r));
        }
    }

    #[test]
    fn remap_is_monotone_on_sorted_lists() {
        let mut t = zip_table();
        t.delete_row(1).unwrap();
        let remap = t.compact();
        let mut rows = vec![0, 2, 3];
        remap.remap_sorted_in_place(&mut rows);
        assert_eq!(rows, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "remap protocol")]
    fn remap_panics_on_dead_ids() {
        let mut t = zip_table();
        t.delete_row(1).unwrap();
        let remap = t.compact();
        let _ = remap.live_id(1);
    }

    #[test]
    fn mem_footprint_shrinks_after_compaction() {
        let schema = Schema::new(["a", "b"]).unwrap();
        let mut t = Table::empty(schema);
        for i in 0..1_000 {
            t.push_row(vec![Value::text(format!("k{i}")), Value::text("v")])
                .unwrap();
        }
        for r in 0..900 {
            t.delete_row(r).unwrap();
        }
        let before = t.mem_footprint();
        assert_eq!(before.total_slots, 1_000);
        assert_eq!(before.live_slots, 100);
        let remap = t.compact();
        assert_eq!(remap.reclaimed(), 900);
        let after = t.mem_footprint();
        assert_eq!(after.total_slots, 100);
        assert_eq!(after.live_slots, 100);
        assert!(
            after.bytes < before.bytes / 2,
            "compaction must release memory: {} -> {} bytes",
            before.bytes,
            after.bytes
        );
    }

    /// Satellite regression: saving a *compacted* table must not store
    /// (and a load must not resurrect) the pre-compaction deleted-slot
    /// list — live rows and cell ids round-trip identically.
    #[test]
    fn serde_after_compaction_does_not_resurrect_tombstones() {
        let mut t = zip_table();
        t.delete_row(1).unwrap();
        t.delete_row(2).unwrap();
        t.compact();
        let json = serde_json::to_string(&t).unwrap();
        assert!(
            json.contains("\"deleted\":[]"),
            "compacted table must store an empty deleted list: {json}"
        );
        let t2: Table = serde_json::from_str(&json).unwrap();
        assert_eq!(t, t2);
        assert_eq!(t2.live_rows(), t.live_rows());
        assert_eq!(t2.row_count(), t.row_count());
        assert_eq!(t2.epoch(), t.epoch());
        for r in 0..t.row_count() {
            assert!(t2.is_live(r));
            assert_eq!(t2.row_ids(r), t.row_ids(r));
        }
    }

    #[test]
    fn serde_roundtrips_epoch_with_tombstones() {
        let mut t = zip_table();
        t.delete_row(0).unwrap();
        t.compact();
        t.delete_row(1).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let t2: Table = serde_json::from_str(&json).unwrap();
        assert_eq!(t, t2);
        assert_eq!(t2.epoch(), 1);
        assert!(!t2.is_live(1));
        assert_eq!(t2.live_rows(), 2);
    }

    #[test]
    fn snapshot_freezes_view_while_table_mutates() {
        let mut t = zip_table();
        let snap = t.snapshot();
        assert_eq!(*snap.table(), t);
        t.apply(update(0, ["99999", "Boston"])).unwrap();
        t.delete_row(1).unwrap();
        t.push_row(vec![Value::text("90005"), Value::text("Chicago")])
            .unwrap();
        // The snapshot still reads the world as it was at capture.
        assert_eq!(snap.row_count(), 4);
        assert_eq!(snap.live_rows(), 4);
        assert_eq!(snap.cell_str(0, 0), Some("90001"));
        assert!(snap.is_live(1));
        // The live table moved on.
        assert_eq!(t.cell_str(0, 0), Some("99999"));
        assert_eq!(t.row_count(), 5);
        assert!(!t.is_live(1));
        // Compaction rebuilds into fresh chunks — the snapshot keeps its
        // frozen view across the epoch boundary.
        t.compact();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.cell_str(1, 1), Some("Los Angeles"));
        // A snapshot serializes like any table (checkpoint path).
        let json = serde_json::to_string(snap.table()).unwrap();
        let back: Table = serde_json::from_str(&json).unwrap();
        assert_eq!(back, *snap.table());
    }
}
