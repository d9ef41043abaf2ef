//! Blocking for variable-PFD detection (§3 of the paper).
//!
//! A variable PFD (`tp[B] = ⊥`) is violated by a *pair* of tuples that
//! match `tp[A]`, agree on its constrained captures, and differ on `B`.
//! The brute-force check is quadratic; the paper avoids it "using
//! blocking" (citing BigDansing). Because
//! [`ConstrainedPattern::key`](anmat_pattern::ConstrainedPattern::key)
//! characterizes `≡_Q` exactly, grouping rows by key is a *lossless*
//! blocking scheme: every violating pair lies within one block, and the
//! pair enumeration cost drops from `O(n²)` to `Σ |block|²` — and further
//! to `O(n)` for the common case where each block's RHS is checked by
//! value counts rather than explicit pairs.
//!
//! Blocking keys and RHS values are interned [`ValueId`]s: capture
//! extraction (the hot cost) runs at most once per *distinct* LHS value
//! — the per-`(pattern, ValueId)` [`KeyMemo`] that batch blocking and the
//! incremental engine's variable tuples share — and every map in this module
//! hashes a 4-byte id instead of a string.

use crate::runs::Runs;
use anmat_pattern::{CompiledConstrained, ConstrainedPattern};
use anmat_table::{RowId, RowIdRemap, Table, ValueId, ValuePool};
use fxhash::FxHashMap;
use std::sync::Arc;

/// Rows grouped by constrained-capture key.
#[derive(Debug)]
pub struct Blocks {
    /// Key → rows, sorted by resolved key string for determinism.
    pub blocks: Vec<(ValueId, Vec<RowId>)>,
    /// Rows whose LHS did not match the pattern at all.
    pub unmatched: Vec<RowId>,
    /// Rows with a null LHS.
    pub null_rows: Vec<RowId>,
}

impl Blocks {
    /// Number of blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total rows across blocks.
    #[must_use]
    pub fn matched_rows(&self) -> usize {
        self.blocks.iter().map(|(_, r)| r.len()).sum()
    }

    /// Number of within-block pairs (the work blocking actually does).
    #[must_use]
    pub fn pair_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|(_, r)| r.len() * (r.len().saturating_sub(1)) / 2)
            .sum()
    }

    /// Number of pairs brute force would enumerate over matched rows.
    #[must_use]
    pub fn brute_force_pair_count(&self) -> usize {
        let n = self.matched_rows();
        n * n.saturating_sub(1) / 2
    }
}

/// Builder for [`Blocks`].
#[derive(Debug)]
pub struct BlockingIndex;

impl BlockingIndex {
    /// Group the rows of column `col` by their constrained-capture key
    /// under `q`, or by their whole value when `q` is `None` (a wildcard
    /// LHS).
    #[must_use]
    pub fn block(table: &Table, col: usize, q: Option<&ConstrainedPattern>) -> Blocks {
        // The compiled keyer pays one compile for at most
        // `distinct(column)` span-VM extractions.
        let mut memo = KeyMemo::new(q.map(|q| Arc::new(CompiledConstrained::compile(q))));
        let mut map: FxHashMap<ValueId, Vec<RowId>> = FxHashMap::default();
        let mut unmatched = Vec::new();
        let mut null_rows = Vec::new();
        for (row, v) in table.iter_column(col) {
            if v.is_null() {
                null_rows.push(row);
                continue;
            }
            match memo.key(v) {
                Some(k) => map.entry(k).or_default().push(row),
                None => unmatched.push(row),
            }
        }
        let mut blocks: Vec<(ValueId, Vec<RowId>)> = map.into_iter().collect();
        blocks.sort_by_cached_key(|(k, _)| k.render());
        Blocks {
            blocks,
            unmatched,
            null_rows,
        }
    }
}

/// The blocking keys of one keyer, memoized per distinct LHS value: the
/// per-`(pattern, ValueId)` memo that bounds capture extraction to once
/// per distinct value. Batch blocking ([`BlockingIndex::block`]) and each
/// variable tuple of the streaming engine derive keys through it, so a
/// [`BlockingPartition`] is only ever handed keys, never derives them.
#[derive(Debug)]
pub struct KeyMemo {
    /// The keyer, pre-compiled to span bytecode and shared (`Arc`), so
    /// an engine compiles each rule once however many memos hold it;
    /// `None` blocks on the whole LHS value.
    keyer: Option<Arc<CompiledConstrained>>,
    /// Key-string scratch reused across extractions, so a miss allocates
    /// nothing beyond interning a genuinely new key.
    key_buf: String,
    /// LHS value id → key (`None` = the value does not match).
    cache: FxHashMap<ValueId, Option<ValueId>>,
    /// Capture extractions performed (misses) — the call-counting hook
    /// for the memoization guarantee.
    evals: usize,
    /// Memo consultations (hits + misses) — the denominator that turns
    /// `evals` into a hit rate.
    lookups: usize,
}

impl KeyMemo {
    /// An empty memo for `keyer` (`None` blocks on the whole value).
    #[must_use]
    pub fn new(keyer: Option<Arc<CompiledConstrained>>) -> KeyMemo {
        KeyMemo {
            keyer,
            key_buf: String::new(),
            cache: FxHashMap::default(),
            evals: 0,
            lookups: 0,
        }
    }

    /// The blocking key of `lhs`: `None` for a null LHS or a value the
    /// keyer does not match, the value itself without a keyer. Under a
    /// keyer, each call on a non-null value counts one lookup, and each
    /// distinct uncached value one extraction.
    pub fn key(&mut self, lhs: ValueId) -> Option<ValueId> {
        if lhs.is_null() {
            return None;
        }
        let Some(q) = &self.keyer else {
            return Some(lhs);
        };
        self.lookups += 1;
        *self.cache.entry(lhs).or_insert_with(|| {
            self.evals += 1;
            derive_key(q, &mut self.key_buf, lhs)
        })
    }

    /// Batch-classify: derive and cache the key of every *uncached*
    /// non-null id in one tight pass, ahead of the per-row lookups. Each
    /// new distinct id costs exactly the one extraction the lazy path
    /// would have paid on first sighting, so [`KeyMemo::evals`] is
    /// invariant; [`KeyMemo::lookups`] does not advance (priming is not
    /// a query — the per-row lookups that follow count as usual, and
    /// hit).
    pub fn prime<I>(&mut self, ids: I)
    where
        I: IntoIterator<Item = ValueId>,
    {
        let Some(q) = &self.keyer else { return };
        for lhs in ids {
            if lhs.is_null() || self.cache.contains_key(&lhs) {
                continue;
            }
            self.evals += 1;
            let key = derive_key(q, &mut self.key_buf, lhs);
            self.cache.insert(lhs, key);
        }
    }

    /// Drop every entry whose LHS id *or* cached key satisfies `dead`,
    /// leaving the counters untouched.
    ///
    /// The reclamation hook: when the pool frees a string, its id is
    /// recycled for a different string later. An entry keyed on a dead
    /// LHS would answer for the wrong value, and an entry whose key died
    /// would route a fresh row into a stale block — so the engine purges
    /// both at the epoch barrier that reclaims them.
    pub fn purge(&mut self, mut dead: impl FnMut(ValueId) -> bool) {
        self.cache
            .retain(|&lhs, key| !dead(lhs) && !key.is_some_and(&mut dead));
    }

    /// Capture extractions performed. Bounded by the number of distinct
    /// non-null values looked up or primed — the memoization
    /// guarantee's test hook.
    #[must_use]
    pub fn evals(&self) -> usize {
        self.evals
    }

    /// Memo consultations (hits + misses). Together with
    /// [`KeyMemo::evals`] this yields the hit rate the observability
    /// layer reports.
    #[must_use]
    pub fn lookups(&self) -> usize {
        self.lookups
    }
}

/// Derive (and intern) the blocking key of `lhs` under `q` — one
/// pattern evaluation. `None` = the value does not match.
fn derive_key(q: &CompiledConstrained, key_buf: &mut String, lhs: ValueId) -> Option<ValueId> {
    q.key_into(lhs.render(), key_buf)
        .then(|| ValuePool::intern(key_buf))
}

/// One block of an incrementally maintained partition: the rows sharing a
/// key and a delta-maintained tally of their RHS values.
///
/// A block names its rows and does not copy their cells: the table holds
/// each row's RHS, and the caller hands it in as the row arrives and
/// again as it leaves ([`BlockingPartition::remove`]). A removal is the
/// exact inverse of an insert — `O(1)` count decrements, with the
/// majority re-derived (same count-desc/string-asc tie-break, so
/// interning-order-independent) only when the removed value was the
/// leader.
#[derive(Debug, Clone, Default)]
pub struct KeyBlock {
    /// Row ids in ascending order, stored as ascending runs: an append is
    /// `O(1)`, and a removal or an update re-inserting an older id is
    /// `O(log block + RUN_CAP)`, whatever the block's size.
    rows: Runs,
    /// RHS value → row count (null tracked separately).
    counts: FxHashMap<ValueId, usize>,
    /// Rows whose RHS is null.
    null_rhs: usize,
    /// Incrementally maintained `(majority value, its count)`. Only the
    /// value whose count just grew can displace the current leader, so
    /// each insert updates this in `O(1)`; a removal re-derives it in
    /// `O(distinct RHS)` only when the leader's own count shrank.
    majority: Option<(ValueId, usize)>,
}

impl KeyBlock {
    /// The rows of this block, in ascending row order.
    pub fn rows(&self) -> impl Iterator<Item = RowId> + Clone + '_ {
        self.rows.rows()
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the block empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.len() == 0
    }

    /// The majority RHS value (most rows; ties break to the
    /// lexicographically smallest value, matching batch detection). Null
    /// RHS cells never win the vote. `O(1)`: maintained per insert.
    #[must_use]
    pub fn majority(&self) -> Option<&'static str> {
        self.majority_id().and_then(ValueId::as_str)
    }

    /// The majority RHS value as an interned id.
    #[must_use]
    pub fn majority_id(&self) -> Option<ValueId> {
        self.majority.as_ref().map(|(v, _)| *v)
    }

    /// Does every non-null RHS cell agree (and no nulls dissent)?
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.counts.len() <= 1 && self.null_rhs == 0
    }

    fn push(&mut self, row: RowId, rhs: ValueId) {
        self.rows.insert(row);
        if rhs.is_null() {
            self.null_rhs += 1;
            return;
        }
        let count = self.counts.entry(rhs).or_insert(0);
        *count += 1;
        let count = *count;
        // Only `rhs` gained a row, so only `rhs` can displace the
        // leader; ties go to the lexicographically smaller value.
        match &mut self.majority {
            Some((leader, leader_count)) => {
                if count > *leader_count
                    || (count == *leader_count && rhs.render() < leader.render())
                {
                    *leader = rhs;
                    *leader_count = count;
                }
            }
            None => self.majority = Some((rhs, count)),
        }
    }

    /// Remove one row whose RHS is `rhs` (the value it was inserted
    /// with); a row not in this block is ignored. Count decrements are
    /// `O(1)`; the majority is re-derived (in `O(distinct RHS)`, with the
    /// same deterministic count-desc/string-asc tie-break as inserts and
    /// batch detection) only when the removed value was the current
    /// leader.
    fn remove(&mut self, row: RowId, rhs: ValueId) {
        if !self.rows.remove(row) {
            return;
        }
        if rhs.is_null() {
            self.null_rhs -= 1;
            return;
        }
        let count = self
            .counts
            .get_mut(&rhs)
            .expect("a member's rhs was counted on insert");
        *count -= 1;
        if *count == 0 {
            self.counts.remove(&rhs);
        }
        // A non-leader losing a row can never change the vote; a leader
        // losing one can now be tied or beaten, so re-derive.
        if self.majority.map(|(leader, _)| leader) == Some(rhs) {
            self.majority = self
                .counts
                .iter()
                .map(|(v, c)| (*v, *c))
                .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then_with(|| vb.render().cmp(va.render())));
        }
    }

    /// Rewrite the block's row ids through a compaction remap. The RHS
    /// counts and majority are row-id-free and stay untouched;
    /// monotonicity keeps the rows ascending.
    fn remap(&mut self, remap: &RowIdRemap) {
        self.rows.remap(remap);
    }
}

/// An incrementally updatable blocking partition — the streaming
/// counterpart of [`BlockingIndex::block`], fed keys a [`KeyMemo`]
/// derived.
///
/// Rows arrive via [`BlockingPartition::insert`] and leave via
/// [`BlockingPartition::remove`]; each op touches exactly one block
/// (`O(1)` amortized for appends, `O(log block + RUN_CAP)` for removals
/// and out-of-order re-inserts, since rows are kept as ascending runs of
/// at most `RUN_CAP` = 1024 — never `O(block)`), and each block's RHS
/// tally and majority are maintained as rows come and go. Rows whose
/// LHS is null or does not match have no key and never reach a
/// partition.
#[derive(Debug, Clone, Default)]
pub struct BlockingPartition {
    blocks: FxHashMap<ValueId, KeyBlock>,
}

impl BlockingPartition {
    /// Insert one row into the block of `key`. Appends (increasing
    /// `RowId`) are `O(1)` amortized; re-inserting an older id — an
    /// update landing back on its slot — shifts entries within one run:
    /// `O(log block + RUN_CAP)`.
    pub fn insert(&mut self, row: RowId, key: ValueId, rhs: ValueId) {
        self.blocks.entry(key).or_default().push(row, rhs);
    }

    /// Remove one row from the block of `key` — the exact inverse of
    /// [`BlockingPartition::insert`], in `O(log block + RUN_CAP)`. `rhs` is
    /// the RHS the row was inserted with: the block keeps only row ids,
    /// so the caller reads it from the row's cell before the slot is
    /// tombstoned or overwritten. Empty blocks are dropped, so
    /// [`BlockingPartition::freeze`] keeps agreeing with batch blocking.
    pub fn remove(&mut self, row: RowId, key: ValueId, rhs: ValueId) {
        if let Some(block) = self.blocks.get_mut(&key) {
            block.remove(row, rhs);
            if block.is_empty() {
                self.blocks.remove(&key);
            }
        }
    }

    /// Iterate the live blocks with their keys (arbitrary order): a
    /// string-reclamation sweep must keep each key and majority alive.
    pub fn blocks(&self) -> impl Iterator<Item = (ValueId, &KeyBlock)> + '_ {
        self.blocks.iter().map(|(key, block)| (*key, block))
    }

    /// The block for a key, if any row produced it.
    #[must_use]
    pub fn block(&self, key: ValueId) -> Option<&KeyBlock> {
        self.blocks.get(&key)
    }

    /// The block for a key string, if any row produced it.
    #[must_use]
    pub fn block_by_str(&self, key: &str) -> Option<&KeyBlock> {
        self.blocks.get(&ValuePool::lookup(key)?)
    }

    /// Number of blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Apply a compaction [`RowIdRemap`] in place — the partition's side
    /// of the remap protocol. Block row lists are rewritten through the
    /// remap (monotone, so they stay ascending); the block map's keys,
    /// RHS counts and majorities are row-id-free and survive verbatim.
    pub fn apply_remap(&mut self, remap: &RowIdRemap) {
        for block in self.blocks.values_mut() {
            block.remap(remap);
        }
    }

    /// Snapshot the blocks into the batch [`Blocks::blocks`] shape
    /// (sorted keys), for parity checks against
    /// [`BlockingIndex::block`].
    #[must_use]
    pub fn freeze(&self) -> Vec<(ValueId, Vec<RowId>)> {
        let mut blocks: Vec<(ValueId, Vec<RowId>)> = self
            .blocks
            .iter()
            .map(|(k, b)| (*k, b.rows().collect()))
            .collect();
        blocks.sort_by_cached_key(|(k, _)| k.render());
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anmat_table::Schema;

    fn name_table() -> Table {
        let schema = Schema::new(["name"]).unwrap();
        Table::from_str_rows(
            schema,
            [
                ["John Charles"],
                ["John Bosco"],
                ["Susan Orlean"],
                ["Susan Boyle"],
                ["lowercase name"],
                [""],
            ],
        )
        .unwrap()
    }

    fn q_first_name() -> ConstrainedPattern {
        "[\\LU\\LL*\\ ]\\A*".parse().unwrap()
    }

    fn id(s: &str) -> ValueId {
        ValuePool::intern(s)
    }

    /// A block's RHS tally: value → rows, nulls left out.
    fn tally(counts: &[(&str, usize)]) -> FxHashMap<ValueId, usize> {
        counts.iter().map(|&(v, c)| (id(v), c)).collect()
    }

    /// A partition fed through its own key memo — what one variable tuple
    /// of the engine holds. Derefs to the partition.
    struct Keyed {
        memo: KeyMemo,
        partition: BlockingPartition,
    }

    impl Keyed {
        fn new(q: Option<ConstrainedPattern>) -> Keyed {
            Keyed {
                memo: KeyMemo::new(q.map(|q| Arc::new(CompiledConstrained::compile(&q)))),
                partition: BlockingPartition::default(),
            }
        }

        /// Place a row by its LHS; returns its key (`None`: no block).
        fn insert(&mut self, row: RowId, lhs: ValueId, rhs: ValueId) -> Option<ValueId> {
            let key = self.memo.key(lhs)?;
            self.partition.insert(row, key, rhs);
            Some(key)
        }

        /// Withdraw a row placed under `lhs` with RHS `rhs`; returns its
        /// key.
        fn remove(&mut self, row: RowId, lhs: ValueId, rhs: ValueId) -> Option<ValueId> {
            let key = self.memo.key(lhs)?;
            self.partition.remove(row, key, rhs);
            Some(key)
        }
    }

    impl std::ops::Deref for Keyed {
        type Target = BlockingPartition;

        fn deref(&self) -> &BlockingPartition {
            &self.partition
        }
    }

    #[test]
    fn blocks_group_by_first_name() {
        let blocks = BlockingIndex::block(&name_table(), 0, Some(&q_first_name()));
        assert_eq!(blocks.block_count(), 2);
        assert_eq!(blocks.blocks[0].0.as_str(), Some("John "));
        assert_eq!(blocks.blocks[0].1, vec![0, 1]);
        assert_eq!(blocks.blocks[1].0.as_str(), Some("Susan "));
        assert_eq!(blocks.blocks[1].1, vec![2, 3]);
        assert_eq!(blocks.unmatched, vec![4]);
        assert_eq!(blocks.null_rows, vec![5]);
    }

    #[test]
    fn pair_counts() {
        let blocks = BlockingIndex::block(&name_table(), 0, Some(&q_first_name()));
        // 2 blocks of 2 rows: 1 pair each.
        assert_eq!(blocks.pair_count(), 2);
        // Brute force over 4 matched rows: 6 pairs.
        assert_eq!(blocks.brute_force_pair_count(), 6);
        assert_eq!(blocks.matched_rows(), 4);
    }

    #[test]
    fn zip_prefix_blocking() {
        let schema = Schema::new(["zip"]).unwrap();
        let t = Table::from_str_rows(schema, [["90001"], ["90002"], ["90101"], ["60601"]]).unwrap();
        let q: ConstrainedPattern = "[\\D{3}]\\D{2}".parse().unwrap();
        let blocks = BlockingIndex::block(&t, 0, Some(&q));
        let keys: Vec<&str> = blocks.blocks.iter().map(|(k, _)| k.render()).collect();
        assert_eq!(keys, vec!["606", "900", "901"]);
        assert_eq!(blocks.blocks[1].1, vec![0, 1]);
    }

    #[test]
    fn duplicate_values_share_cache() {
        let schema = Schema::new(["x"]).unwrap();
        let t = Table::from_str_rows(schema, [["ab"], ["ab"], ["ab"]]).unwrap();
        let q = ConstrainedPattern::whole("\\LL+".parse().unwrap());
        let blocks = BlockingIndex::block(&t, 0, Some(&q));
        assert_eq!(blocks.block_count(), 1);
        assert_eq!(blocks.blocks[0].1.len(), 3);
        assert_eq!(blocks.pair_count(), 3);
    }

    #[test]
    fn all_unmatched() {
        let schema = Schema::new(["x"]).unwrap();
        let t = Table::from_str_rows(schema, [["123"], ["456"]]).unwrap();
        let q = ConstrainedPattern::whole("\\LL+".parse().unwrap());
        let blocks = BlockingIndex::block(&t, 0, Some(&q));
        assert_eq!(blocks.block_count(), 0);
        assert_eq!(blocks.unmatched.len(), 2);
    }

    #[test]
    fn partition_matches_batch_blocking() {
        let t = name_table();
        let q = q_first_name();
        let batch = BlockingIndex::block(&t, 0, Some(&q));
        let mut partition = Keyed::new(Some(q.clone()));
        for (row, v) in t.iter_column(0) {
            partition.insert(row, v, ValueId::NULL);
        }
        assert_eq!(partition.freeze(), batch.blocks);
    }

    #[test]
    fn partition_tracks_rhs_deltas() {
        let q: ConstrainedPattern = "[\\D{3}]\\D{2}".parse().unwrap();
        let mut p = Keyed::new(Some(q));
        assert_eq!(p.insert(0, id("90001"), id("Los Angeles")), Some(id("900")));
        p.insert(1, id("90002"), id("Los Angeles"));
        p.insert(2, id("90003"), id("New York"));
        p.insert(3, id("90004"), ValueId::NULL);
        let block = p.block_by_str("900").unwrap();
        assert_eq!(block.len(), 4);
        assert_eq!(block.majority(), Some("Los Angeles"));
        assert!(!block.is_consistent());
        assert_eq!(block.counts, tally(&[("Los Angeles", 2), ("New York", 1)]));
        assert_eq!(block.null_rhs, 1);
        assert_eq!(block.majority, Some((id("Los Angeles"), 2)));
        // Majority tie breaks to the lexicographically smaller value,
        // matching batch detection's vote.
        p.insert(4, id("90005"), id("New York"));
        assert_eq!(
            p.block_by_str("900").unwrap().majority(),
            Some("Los Angeles")
        );
    }

    #[test]
    fn whole_value_partition() {
        let mut p = Keyed::new(None);
        p.insert(0, id("x"), id("1"));
        p.insert(1, id("x"), id("2"));
        assert_eq!(
            p.insert(2, ValueId::NULL, id("3")),
            None,
            "a null LHS has no key"
        );
        assert_eq!(p.block_count(), 1);
        let block = p.block_by_str("x").unwrap();
        assert!(block.rows().eq([0, 1]));
        assert_eq!(block.counts, tally(&[("1", 1), ("2", 1)]));
    }

    #[test]
    fn key_evals_bounded_by_distinct_values() {
        let q: ConstrainedPattern = "[\\D{3}]\\D{2}".parse().unwrap();
        let mut p = Keyed::new(Some(q));
        // 1000 rows over 10 distinct zips: capture extraction must run
        // exactly 10 times.
        for row in 0..1000 {
            let zip = format!("900{:02}", row % 10);
            p.insert(row, id(&zip), id("LA"));
        }
        assert_eq!(p.memo.evals(), 10);
        assert_eq!(p.memo.lookups(), 1000);
    }

    #[test]
    fn prime_counts_like_lazy_misses() {
        let q: ConstrainedPattern = "[\\D{3}]\\D{2}".parse().unwrap();
        let mut lazy = Keyed::new(Some(q.clone()));
        let mut primed = Keyed::new(Some(q));
        let zips: Vec<ValueId> = (0..10).map(|i| id(&format!("900{i:02}"))).collect();
        primed
            .memo
            .prime(zips.iter().copied().chain([ValueId::NULL, id("bad")]));
        for row in 0..1000u32 {
            let lhs = zips[(row % 10) as usize];
            lazy.insert(row as RowId, lhs, id("LA"));
            primed.insert(row as RowId, lhs, id("LA"));
        }
        // Priming evaluated each distinct id once (plus the unmatched
        // one); the lazy twin pays the same evals for the zips on first
        // sighting. Lookup counts agree exactly.
        assert_eq!(lazy.memo.evals(), 10);
        assert_eq!(primed.memo.evals(), 11);
        assert_eq!(lazy.memo.lookups(), primed.memo.lookups());
        assert_eq!(lazy.freeze(), primed.freeze());
    }

    #[test]
    fn remove_is_inverse_of_insert() {
        let q: ConstrainedPattern = "[\\D{3}]\\D{2}".parse().unwrap();
        let mut p = Keyed::new(Some(q.clone()));
        p.insert(0, id("90001"), id("Los Angeles"));
        p.insert(1, id("90002"), id("New York"));
        p.insert(2, id("90003"), id("Los Angeles"));
        assert_eq!(p.remove(1, id("90002"), id("New York")), Some(id("900")));
        let block = p.block_by_str("900").unwrap();
        assert!(block.rows().eq([0, 2]));
        assert_eq!(block.majority(), Some("Los Angeles"));
        assert!(block.is_consistent());
        assert_eq!(block.counts, tally(&[("Los Angeles", 2)]));
        assert_eq!(block.majority, Some((id("Los Angeles"), 2)));
        // Draining the block drops it entirely (freeze parity with batch).
        p.remove(0, id("90001"), id("Los Angeles"));
        p.remove(2, id("90003"), id("Los Angeles"));
        assert_eq!(p.block_count(), 0);
        assert!(p.block_by_str("900").is_none());
    }

    #[test]
    fn reinserting_an_old_row_id_keeps_row_order() {
        // An update = remove + re-insert on the same slot: the block's
        // row list must stay ascending so witnesses match batch order.
        let mut p = Keyed::new(None);
        for row in 0..5 {
            p.insert(row, id("k"), id("v1"));
        }
        p.remove(2, id("k"), id("v1"));
        p.insert(2, id("k"), id("v2"));
        let block = p.block_by_str("k").unwrap();
        assert!(block.rows().eq([0, 1, 2, 3, 4]));
        assert_eq!(block.counts, tally(&[("v1", 4), ("v2", 1)]));
        assert_eq!(block.majority(), Some("v1"));
    }

    #[test]
    fn majority_reelected_after_leader_removal() {
        let mut p = Keyed::new(None);
        p.insert(0, id("k"), id("alpha"));
        p.insert(1, id("k"), id("alpha"));
        p.insert(2, id("k"), id("alpha"));
        p.insert(3, id("k"), id("beta"));
        p.insert(4, id("k"), id("beta"));
        assert_eq!(p.block_by_str("k").unwrap().majority(), Some("alpha"));
        // Two leader removals: 1–2, beta takes over.
        p.remove(0, id("k"), id("alpha"));
        p.remove(1, id("k"), id("alpha"));
        let block = p.block_by_str("k").unwrap();
        assert_eq!(block.majority(), Some("beta"));
        assert_eq!(block.majority_id().and_then(ValueId::as_str), Some("beta"));
        // Removing the last alpha leaves a consistent beta block.
        p.remove(2, id("k"), id("alpha"));
        assert!(p.block_by_str("k").unwrap().is_consistent());
    }

    #[test]
    fn null_rhs_removal_decrements_without_vote_change() {
        let mut p = Keyed::new(None);
        p.insert(0, id("k"), id("v"));
        p.insert(1, id("k"), ValueId::NULL);
        assert!(!p.block_by_str("k").unwrap().is_consistent());
        p.remove(1, id("k"), ValueId::NULL);
        let block = p.block_by_str("k").unwrap();
        assert!(block.is_consistent());
        assert_eq!(block.majority(), Some("v"));
        assert_eq!(block.len(), 1);
    }

    /// Satellite: `majority`/`majority_id` must stay in lockstep after
    /// decrements too, and a deletion-induced tie must elect the
    /// count-desc/string-asc winner regardless of interning (= arrival)
    /// order.
    #[test]
    fn majority_tie_after_deletions_is_interning_order_independent() {
        for (first, second) in [("m-del-tie", "b-del-tie"), ("b-del-tie", "m-del-tie")] {
            let mut p = Keyed::new(None);
            // 3 × first vs 2 × second: `first` leads outright.
            for (row, v) in [(0, first), (1, first), (2, first), (3, second), (4, second)] {
                p.insert(row, id("k"), id(v));
            }
            assert_eq!(p.block_by_str("k").unwrap().majority(), Some(first));
            // Delete one leader row: 2–2 tie → lexicographically smaller
            // string wins, in both interning orders.
            p.remove(0, id("k"), id(first));
            let block = p.block_by_str("k").unwrap();
            assert_eq!(block.majority(), Some("b-del-tie"));
            assert_eq!(
                block.majority_id().and_then(ValueId::as_str),
                block.majority(),
                "majority and majority_id must agree after decrements"
            );
            // The leader's count is the tie's.
            assert_eq!(block.majority, Some((id("b-del-tie"), 2)));
        }
    }

    /// The remap protocol: removing the deleted rows, compacting the
    /// table, and applying the remap must leave the partition identical
    /// to one built fresh from the compacted table — with zero new
    /// capture extractions.
    #[test]
    fn apply_remap_matches_partition_over_compacted_table() {
        let schema = Schema::new(["zip", "city"]).unwrap();
        let mut t = Table::from_str_rows(
            schema,
            [
                ["90001", "Los Angeles"],
                ["90002", "New York"],
                ["90101", "Pasadena"],
                ["bad-zip", "Nowhere"],
                ["", "Null Town"],
                ["90003", "Los Angeles"],
            ],
        )
        .unwrap();
        let q: ConstrainedPattern = "[\\D{3}]\\D{2}".parse().unwrap();
        let mut p = Keyed::new(Some(q.clone()));
        for (row, v) in t.iter_column(0) {
            p.insert(row, v, t.cell_id(row, 1));
        }
        // Delete rows 1 (a block member) and 3 (unmatched, so no key):
        // partition first, then table, then compact + remap.
        assert_eq!(
            p.remove(1, t.cell_id(1, 0), t.cell_id(1, 1)),
            Some(id("900"))
        );
        assert_eq!(p.remove(3, t.cell_id(3, 0), t.cell_id(3, 1)), None);
        t.delete_row(1).unwrap();
        t.delete_row(3).unwrap();
        let evals_before = p.memo.evals();
        let remap = t.compact();
        p.partition.apply_remap(&remap);
        assert_eq!(
            p.memo.evals(),
            evals_before,
            "remap must not re-extract captures"
        );

        let mut fresh = Keyed::new(Some(q));
        for (row, v) in t.iter_column(0) {
            fresh.insert(row, v, t.cell_id(row, 1));
        }
        assert_eq!(p.freeze(), fresh.freeze());
        // The block's tally survived the renumbering untouched.
        let block = p.block_by_str("900").unwrap();
        assert_eq!(block.majority(), Some("Los Angeles"));
        let fresh_block = fresh.block_by_str("900").unwrap();
        assert_eq!(block.len(), fresh_block.len());
        assert_eq!(block.counts, fresh_block.counts);
        assert_eq!(block.null_rhs, fresh_block.null_rhs);
        assert_eq!(block.majority, fresh_block.majority);
    }

    #[test]
    fn majority_tie_deterministic_under_any_arrival_order() {
        // A 2–2 tie must elect the lexicographically smaller string in
        // both arrival orders (and hence both interning orders).
        for (first, second) in [("m-tie", "b-tie"), ("b-tie", "m-tie")] {
            let mut p = Keyed::new(None);
            p.insert(0, id("k"), id(first));
            p.insert(1, id("k"), id(second));
            p.insert(2, id("k"), id(first));
            p.insert(3, id("k"), id(second));
            assert_eq!(p.block_by_str("k").unwrap().majority(), Some("b-tie"));
        }
    }

    /// Multi-run coverage: one block driven through thousands of ops
    /// that cross run boundaries, checked against a `BTreeMap` model of
    /// the live rows. See `multi_run_block_matches_btreemap_model`.
    mod multi_run {
        use super::*;
        use crate::runs::{MERGE_BELOW, RUN_CAP, SPLIT_AT};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        /// Live rows: `RowId → (lhs, rhs)`.
        type Model = BTreeMap<RowId, (ValueId, ValueId)>;

        fn cases(default: u32) -> u32 {
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }

        fn zip() -> ConstrainedPattern {
            "[\\D{3}]\\D{2}".parse().unwrap()
        }

        /// A block-bound LHS (key `900`), an unmatched one, or a null.
        fn lhs(rng: &mut StdRng) -> ValueId {
            match rng.random_range(0..10) {
                0 => id("mr-unmatched"),
                1 => ValueId::NULL,
                n => id(&format!("900{n:02}")),
            }
        }

        /// A skewed RHS, so majorities hold for a while and then flip.
        fn rhs(rng: &mut StdRng) -> ValueId {
            match rng.random_range(0..8) {
                0..=2 => id("mr-alpha"),
                3..=5 => id("mr-beta"),
                6 => id("mr-gamma"),
                _ => ValueId::NULL,
            }
        }

        fn block_rows(model: &Model) -> Vec<(RowId, ValueId)> {
            model
                .iter()
                .filter(|(_, (lhs, _))| lhs.as_str().is_some_and(|s| s.starts_with("900")))
                .map(|(&row, &(_, rhs))| (row, rhs))
                .collect()
        }

        fn model_majority(rows: &[(RowId, ValueId)]) -> Option<ValueId> {
            let mut counts: BTreeMap<&str, (usize, ValueId)> = BTreeMap::new();
            for &(_, rhs) in rows {
                if let Some(s) = rhs.as_str() {
                    counts.entry(s).or_insert((0, rhs)).0 += 1;
                }
            }
            // Most rows; ties go to the smaller string (first in order).
            let mut best: Option<(usize, ValueId)> = None;
            for &(count, rhs) in counts.values() {
                if best.is_none_or(|(c, _)| count > c) {
                    best = Some((count, rhs));
                }
            }
            best.map(|(_, rhs)| rhs)
        }

        /// The model's RHS tally of `rows` and its null count.
        fn model_tally(rows: &[(RowId, ValueId)]) -> (FxHashMap<ValueId, usize>, usize) {
            let mut counts: FxHashMap<ValueId, usize> = FxHashMap::default();
            let mut nulls = 0;
            for &(_, rhs) in rows {
                if rhs.is_null() {
                    nulls += 1;
                } else {
                    *counts.entry(rhs).or_insert(0) += 1;
                }
            }
            (counts, nulls)
        }

        /// Same rows, RHS tally, null count and majority as the model,
        /// and the block's run list structurally sound.
        fn check(p: &Keyed, model: &Model) {
            let expected = block_rows(model);
            match p.block(id("900")) {
                None => assert!(expected.is_empty(), "block vanished early"),
                Some(block) => {
                    block.rows.assert_invariants();
                    assert!(block.rows().eq(expected.iter().map(|&(row, _)| row)));
                    assert_eq!(
                        (block.counts.clone(), block.null_rhs),
                        model_tally(&expected)
                    );
                    assert_eq!(block.majority_id(), model_majority(&expected));
                }
            }
        }

        /// The table the model describes: slots `0..slots`, dead ones
        /// tombstoned.
        fn table_of(model: &Model, slots: usize) -> Table {
            let mut table = Table::empty(Schema::new(["zip", "city"]).unwrap());
            for row in 0..slots {
                let (lhs, rhs) = model
                    .get(&row)
                    .copied()
                    .unwrap_or((ValueId::NULL, ValueId::NULL));
                table.push_id_row(vec![lhs, rhs]).unwrap();
            }
            for row in 0..slots {
                if !model.contains_key(&row) {
                    table.delete_row(row).unwrap();
                }
            }
            table
        }

        /// `freeze()` parity with batch blocking over the same live rows.
        fn check_freeze(p: &Keyed, model: &Model, slots: usize) {
            let batch = BlockingIndex::block(&table_of(model, slots), 0, Some(&zip()));
            assert_eq!(p.freeze(), batch.blocks);
        }

        fn block_runs(p: &Keyed) -> usize {
            p.block(id("900")).map_or(0, |b| b.rows.run_count())
        }

        fn insert(p: &mut Keyed, model: &mut Model, row: RowId, l: ValueId, r: ValueId) {
            p.insert(row, l, r);
            model.insert(row, (l, r));
        }

        fn remove(p: &mut Keyed, model: &mut Model, row: RowId) {
            let (l, r) = model.remove(&row).expect("row is live");
            p.remove(row, l, r);
        }

        /// Appends across three runs, then each structural path in turn:
        /// an out-of-order insert splits a full run, thinning a run below
        /// a quarter of the cap merges it, and draining a run that fits
        /// nowhere drops it.
        fn scripted(p: &mut Keyed, model: &mut Model) -> usize {
            let slots = RUN_CAP * 3;
            for row in 0..slots {
                let l = if row % 4 == 3 {
                    id("mr-unmatched")
                } else {
                    id("90001")
                };
                insert(
                    p,
                    model,
                    row,
                    l,
                    id(if row % 3 == 0 { "mr-beta" } else { "mr-alpha" }),
                );
            }
            // 3/4 of the rows block: two full runs and a half-full one.
            assert_eq!(block_runs(p), 3);
            check(p, model);
            // Row 3 moves from the unmatched list into the first, full
            // run: it splits.
            remove(p, model, 3);
            insert(p, model, 3, id("90002"), id("mr-beta"));
            assert_eq!(block_runs(p), 4);
            check(p, model);
            // The lower half holds `SPLIT_AT + 1` rows; thinning it below
            // `MERGE_BELOW` merges it into the upper half.
            let lowest: Vec<RowId> = block_rows(model).iter().map(|&(r, _)| r).collect();
            let thin = SPLIT_AT + 1 - (MERGE_BELOW - 1);
            for &row in &lowest[..thin - 1] {
                remove(p, model, row);
            }
            assert_eq!(block_runs(p), 4);
            remove(p, model, lowest[thin - 1]);
            assert_eq!(block_runs(p), 3);
            check(p, model);
            // The last run fits into no neighbour: it shrinks in place
            // until it empties, then drops.
            let tail_len = (slots * 3 / 4) % RUN_CAP;
            let highest: Vec<RowId> = block_rows(model).iter().rev().map(|&(r, _)| r).collect();
            for &row in &highest[..tail_len] {
                remove(p, model, row);
            }
            assert_eq!(block_runs(p), 2);
            check(p, model);
            check_freeze(p, model, slots);
            slots
        }

        /// Random appends, removals, re-inserts of removed ids, and
        /// in-place moves (remove + re-insert of the same id under a new
        /// LHS and RHS, as an update does). Returns the new slot count.
        fn random_ops(
            p: &mut Keyed,
            model: &mut Model,
            rng: &mut StdRng,
            mut slots: usize,
            ops: usize,
        ) -> usize {
            let mut removed: Vec<RowId> = Vec::new();
            for step in 0..ops {
                match rng.random_range(0..20) {
                    0..=6 => {
                        let (l, r) = (lhs(rng), rhs(rng));
                        insert(p, model, slots, l, r);
                        slots += 1;
                    }
                    7..=11 if !model.is_empty() => {
                        let nth = rng.random_range(0..model.len());
                        let row = *model.keys().nth(nth).unwrap();
                        remove(p, model, row);
                        removed.push(row);
                    }
                    12..=15 if !removed.is_empty() => {
                        let row = removed.swap_remove(rng.random_range(0..removed.len()));
                        let (l, r) = (lhs(rng), rhs(rng));
                        insert(p, model, row, l, r);
                    }
                    _ if !model.is_empty() => {
                        let nth = rng.random_range(0..model.len());
                        let row = *model.keys().nth(nth).unwrap();
                        remove(p, model, row);
                        let (l, r) = (lhs(rng), rhs(rng));
                        insert(p, model, row, l, r);
                    }
                    _ => {}
                }
                if step % 61 == 0 {
                    check(p, model);
                }
            }
            check(p, model);
            check_freeze(p, model, slots);
            slots
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(cases(3)))]

            /// One block through thousands of in-order inserts,
            /// out-of-order re-inserts, removals, and a compaction remap,
            /// against a `BTreeMap` model of the live rows (`RowId →
            /// (lhs, rhs)`): same rows, RHS tally and majority, `freeze()`
            /// parity with
            /// [`BlockingIndex::block`], and the run invariant (non-empty,
            /// within the cap, ascending, disjoint) after every check.
            #[test]
            fn multi_run_block_matches_btreemap_model(seed in any::<u64>()) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut p = Keyed::new(Some(zip()));
                let mut model = Model::new();
                let slots = scripted(&mut p, &mut model);
                let slots = random_ops(&mut p, &mut model, &mut rng, slots, 3000);
                let remap = table_of(&model, slots).compact();
                p.partition.apply_remap(&remap);
                model = model.into_iter().map(|(row, cells)| (remap.live_id(row), cells)).collect();
                check(&p, &model);
                check_freeze(&p, &model, remap.new_slots());
                random_ops(&mut p, &mut model, &mut rng, remap.new_slots(), 2000);
                prop_assert!(block_runs(&p) > 1, "the block must span several runs");
            }
        }
    }
}
