//! The per-column pattern index of §3.
//!
//! For constant-PFD detection the paper "create\[s\] an index supporting
//! regular expressions for each column present on the LHS of the PFDs", so
//! that the violation scan only touches tuples matching `tp[A]`. This
//! implementation:
//!
//! * deduplicates the column into distinct values with row postings
//!   (low-cardinality columns collapse dramatically);
//! * sorts the distinct values once by string;
//! * answers a pattern lookup by compiling the pattern once, narrowing the
//!   sorted values to the range that starts with the pattern's literal
//!   prefix (`900` for `900\D{2}`; the whole array when there is none)
//!   with two binary searches, and running the compiled matcher on each
//!   value in that range.
//!
//! The range is the only pruning. A compiled match costs tens of
//! nanoseconds per distinct value, while an exact language test that
//! could accept or reject a group of values at once (an NFA product)
//! costs microseconds, more than matching the values it would decide at
//! the table sizes batch detection sees.
//!
//! Streaming detection asks the transposed question: not "which values
//! match this pattern" but "which of a rule's constant tuples does this
//! new value match". A [`TableauMemo`] answers it once per distinct value
//! with the same literal prefixes, turned into a map from prefix to the
//! tuples that carry it: a value is matched only against the tuples whose
//! prefix it starts with (plus those with none), so a tableau of a
//! thousand area codes costs one eval per new value, not a thousand.

use anmat_pattern::{match_pattern, CompiledPattern, Pattern, SymbolClass};
use anmat_table::{RowId, Table, ValueId, ValuePool};
use fxhash::FxHashMap;
use std::sync::Arc;

/// An index over one column supporting pattern lookups.
///
/// The column is deduplicated into interned distinct values
/// ([`ValueId`]-keyed postings), so a pattern is ever matched against at
/// most `distinct(column)` strings, and row-posting probes hash a 4-byte
/// id. The index stores ids, not strings: an id that outlives its string
/// fails loudly when resolved rather than dangling.
#[derive(Debug)]
pub struct PatternIndex {
    /// Distinct value → rows holding it.
    values: FxHashMap<ValueId, Vec<RowId>>,
    /// Distinct values in ascending string order.
    sorted: Vec<ValueId>,
    /// Rows with a non-null value.
    pub indexed_rows: usize,
}

impl PatternIndex {
    /// Build the index over column `col` of `table`.
    #[must_use]
    pub fn build(table: &Table, col: usize) -> PatternIndex {
        let mut values: FxHashMap<ValueId, Vec<RowId>> = FxHashMap::default();
        let mut indexed_rows = 0usize;
        for (row, v) in table.iter_column(col) {
            if v.is_null() {
                continue;
            }
            indexed_rows += 1;
            values.entry(v).or_default().push(row);
        }
        let mut sorted: Vec<ValueId> = values.keys().copied().collect();
        sorted.sort_by_cached_key(|v| v.render());
        PatternIndex {
            values,
            sorted,
            indexed_rows,
        }
    }

    /// Number of distinct values.
    #[must_use]
    pub fn distinct_count(&self) -> usize {
        self.values.len()
    }

    /// Rows whose value matches `pattern`, sorted ascending.
    #[must_use]
    pub fn lookup(&self, pattern: &Pattern) -> Vec<RowId> {
        let mut rows: Vec<RowId> = Vec::new();
        for v in self.matching_ids(pattern) {
            rows.extend_from_slice(&self.values[&v]);
        }
        rows.sort_unstable();
        rows
    }

    /// Interned distinct values matching `pattern`, in ascending string
    /// order.
    #[must_use]
    pub fn matching_ids(&self, pattern: &Pattern) -> Vec<ValueId> {
        let compiled = CompiledPattern::compile(pattern);
        let prefix = literal_prefix(pattern);
        // Every match starts with `prefix`, and the values that do form
        // one contiguous run of the sorted array.
        let start = self
            .sorted
            .partition_point(|v| v.render() < prefix.as_str());
        let run = &self.sorted[start..];
        let len = run.partition_point(|v| v.render().starts_with(prefix.as_str()));
        run[..len]
            .iter()
            .copied()
            .filter(|v| compiled.matches(v.render()))
            .collect()
    }

    /// Rows holding exactly `value`.
    #[must_use]
    pub fn rows_for_value(&self, value: &str) -> &[RowId] {
        ValuePool::lookup(value).map_or(&[], |id| self.rows_for_id(id))
    }

    /// Rows holding exactly the interned value.
    #[must_use]
    pub fn rows_for_id(&self, value: ValueId) -> &[RowId] {
        self.values.get(&value).map_or(&[], Vec::as_slice)
    }

    /// Full scan fallback (the ablation benchmark's baseline and the
    /// tests' oracle): match every distinct value with the AST
    /// interpreter, with no prefix range and no compiled code.
    #[must_use]
    pub fn lookup_scan(&self, pattern: &Pattern) -> Vec<RowId> {
        let mut rows: Vec<RowId> = Vec::new();
        for (v, ids) in &self.values {
            if match_pattern(pattern, v.render()) {
                rows.extend_from_slice(ids);
            }
        }
        rows.sort_unstable();
        rows
    }
}

/// The constant tuples of one rule's tableau, matched once per distinct
/// LHS value: LHS [`ValueId`] → the members (tableau order) whose pattern
/// accepts the value.
///
/// Members are the rule's constant tuples in tableau order, each a
/// pattern or a wildcard (`None`, which matches every non-null value
/// without an eval). An entry is filled on the first sighting of a value
/// by evaluating only its *candidates*: the members whose literal prefix
/// (the one [`PatternIndex`] narrows a lookup by) the value starts with,
/// found with one prefix-map probe per distinct prefix byte length, plus
/// every member with no literal prefix. Every match starts with its
/// pattern's literal prefix, so no other member can accept the value.
///
/// An entry is a 4-byte index into the memo's interned match sets, which
/// are few (almost always the empty set or one member), so the memo's
/// size follows the distinct values it has seen, not values × tableau.
#[derive(Debug, Clone)]
pub struct TableauMemo {
    tableau: Tableau,
    /// LHS value → index into the tableau's match sets.
    cache: FxHashMap<ValueId, u32>,
    /// Memo consultations (hits + misses).
    lookups: usize,
}

/// A [`TableauMemo`]'s members and the match sets its entries index.
#[derive(Debug, Clone)]
struct Tableau {
    /// Fixed when the memo is built, and shared by every clone of it.
    members: Arc<Members>,
    /// Match sets: set 0 is the wildcard members alone (the answer for a
    /// value no pattern member accepts), set `1 + m` adds member `m`, and
    /// sets of several pattern members follow, interned on first sight
    /// (`set_ids`).
    sets: Vec<Box<[u32]>>,
    set_ids: FxHashMap<Box<[u32]>, u32>,
    /// Scratch for a first sighting: the pattern members that accept it
    /// (in candidate order, then sorted with the wildcards when there are
    /// several).
    matched: Vec<u32>,
    /// Pattern evaluations performed: one per candidate of each first
    /// sighting.
    evals: usize,
}

/// The members of a [`TableauMemo`] and the prefix map over them.
#[derive(Debug)]
struct Members {
    /// Member → compiled program (`None` = wildcard).
    programs: Vec<Option<CompiledPattern>>,
    /// Does any member need an eval (is not a wildcard)?
    has_patterns: bool,
    /// `(length, opening word)` of a literal prefix → the members whose
    /// prefix has that length and opens with that word (see `word`),
    /// ascending. A prefix of at most 8 bytes is its word, so its bucket
    /// holds exactly the members that carry it; a longer one is checked
    /// in full against `prefixes`.
    by_prefix: FxHashMap<(usize, u64), Vec<u32>>,
    /// Member → its literal prefix (empty for wildcards and members
    /// without one).
    prefixes: Vec<Box<[u8]>>,
    /// The distinct non-empty prefix lengths in bytes, ascending.
    prefix_lens: Vec<usize>,
    /// Pattern members without a literal prefix: candidates for every
    /// value.
    unprefixed: Vec<u32>,
}

impl TableauMemo {
    /// A memo over `members`, in tableau order (`None` = wildcard),
    /// compiling each pattern once.
    pub fn new<'a>(members: impl IntoIterator<Item = Option<&'a Pattern>>) -> TableauMemo {
        let mut programs = Vec::new();
        let mut prefixes: Vec<Box<[u8]>> = Vec::new();
        let mut by_prefix: FxHashMap<(usize, u64), Vec<u32>> = FxHashMap::default();
        let mut unprefixed = Vec::new();
        let mut wildcards = Vec::new();
        for (member, pattern) in members.into_iter().enumerate() {
            let member = u32::try_from(member).expect("tableau fits u32");
            let Some(pattern) = pattern else {
                wildcards.push(member);
                programs.push(None);
                prefixes.push(Box::default());
                continue;
            };
            let prefix = literal_prefix(pattern).into_bytes();
            if prefix.is_empty() {
                unprefixed.push(member);
            } else {
                let key = (prefix.len(), word(&prefix, prefix.len()));
                by_prefix.entry(key).or_default().push(member);
            }
            programs.push(Some(CompiledPattern::compile(pattern)));
            prefixes.push(prefix.into_boxed_slice());
        }
        let mut prefix_lens: Vec<usize> = by_prefix.keys().map(|&(len, _)| len).collect();
        prefix_lens.sort_unstable();
        prefix_lens.dedup();
        let mut sets: Vec<Box<[u32]>> = vec![wildcards.as_slice().into()];
        sets.extend((0..programs.len()).map(|m| {
            let mut set = wildcards.clone();
            if let Err(at) = set.binary_search(&(m as u32)) {
                set.insert(at, m as u32);
            }
            set.into_boxed_slice()
        }));
        let members = Members {
            has_patterns: wildcards.len() < programs.len(),
            programs,
            by_prefix,
            prefixes,
            prefix_lens,
            unprefixed,
        };
        TableauMemo {
            tableau: Tableau {
                members: Arc::new(members),
                sets,
                set_ids: FxHashMap::default(),
                matched: Vec::new(),
                evals: 0,
            },
            cache: FxHashMap::default(),
            lookups: 0,
        }
    }

    /// The members `lhs` matches, ascending (tableau order): none for a
    /// null value, every wildcard member for any other. With a pattern
    /// member, each call on a non-null value counts one lookup, and a
    /// value's first sighting one eval per candidate member.
    pub fn matches(&mut self, lhs: ValueId) -> &[u32] {
        if lhs.is_null() {
            return &[];
        }
        if !self.tableau.members.has_patterns {
            return &self.tableau.sets[0];
        }
        self.lookups += 1;
        let set = *self
            .cache
            .entry(lhs)
            .or_insert_with(|| self.tableau.classify(lhs));
        &self.tableau.sets[set as usize]
    }

    /// Batch-classify: fill the entry of every *uncached* non-null id in
    /// one pass, ahead of the per-row lookups. Each new distinct id costs
    /// exactly the evals its first lazy lookup would have, so
    /// [`TableauMemo::evals`] is invariant; [`TableauMemo::lookups`] does
    /// not advance (priming is not a query).
    pub fn prime(&mut self, ids: impl IntoIterator<Item = ValueId>) {
        if !self.tableau.members.has_patterns {
            return;
        }
        for lhs in ids {
            if !lhs.is_null() {
                self.cache
                    .entry(lhs)
                    .or_insert_with(|| self.tableau.classify(lhs));
            }
        }
    }

    /// Drop every entry whose LHS id satisfies `dead`, leaving the
    /// counters untouched.
    ///
    /// The reclamation hook: a freed id is recycled for a different
    /// string later, and an entry keyed on it would answer for the wrong
    /// value, so the engine purges dead ids at the epoch barrier that
    /// reclaims them. Match sets hold member indexes, not ids, and stay.
    pub fn purge(&mut self, mut dead: impl FnMut(ValueId) -> bool) {
        self.cache.retain(|&lhs, _| !dead(lhs));
    }

    /// Pattern evaluations performed: one per candidate of each distinct
    /// value looked up or primed — the memoization guarantee's test hook.
    #[must_use]
    pub fn evals(&self) -> usize {
        self.tableau.evals
    }

    /// Memo consultations (hits + misses). Together with
    /// [`TableauMemo::evals`] this yields the hit rate the observability
    /// layer reports.
    #[must_use]
    pub fn lookups(&self) -> usize {
        self.lookups
    }
}

impl Tableau {
    /// Evaluate `lhs`'s candidates and return the index of the set it
    /// matches, interning a new set of several pattern members.
    fn classify(&mut self, lhs: ValueId) -> u32 {
        let value = lhs.render();
        let bytes = value.as_bytes();
        let members = &*self.members;
        let (matched, evals) = (&mut self.matched, &mut self.evals);
        let mut eval = |member: u32| {
            *evals += 1;
            let program = members.programs[member as usize]
                .as_ref()
                .expect("candidates are pattern members");
            if program.matches(value) {
                matched.push(member);
            }
        };
        members.unprefixed.iter().copied().for_each(&mut eval);
        for &len in members
            .prefix_lens
            .iter()
            .take_while(|&&len| len <= bytes.len())
        {
            if let Some(bucket) = members.by_prefix.get(&(len, word(bytes, len))) {
                bucket
                    .iter()
                    .copied()
                    .filter(|&m| len <= 8 || bytes.starts_with(&members.prefixes[m as usize]))
                    .for_each(&mut eval);
            }
        }
        let set = match *self.matched.as_slice() {
            [] => 0,
            [member] => 1 + member,
            _ => {
                self.matched.extend_from_slice(&self.sets[0]);
                self.matched.sort_unstable();
                match self.set_ids.get(self.matched.as_slice()) {
                    Some(&set) => set,
                    None => {
                        let set = u32::try_from(self.sets.len()).expect("match sets fit u32");
                        let interned: Box<[u32]> = self.matched.as_slice().into();
                        self.sets.push(interned.clone());
                        self.set_ids.insert(interned, set);
                        set
                    }
                }
            }
        };
        self.matched.clear();
        set
    }
}

/// The first `min(len, 8)` bytes of `bytes` (which holds at least `len`,
/// and `len > 0`) as a little-endian word: the prefix map's key, built
/// without hashing or comparing a variable-length slice.
fn word(bytes: &[u8], len: usize) -> u64 {
    match bytes.first_chunk::<8>() {
        Some(chunk) if len >= 8 => u64::from_le_bytes(*chunk),
        Some(chunk) => u64::from_le_bytes(*chunk) & (u64::MAX >> (64 - 8 * len)),
        None => bytes[..len]
            .iter()
            .rev()
            .fold(0, |w, &b| w << 8 | u64::from(b)),
    }
}

/// The longest literal prefix of a pattern (maximal run of exactly-once
/// literal elements at the start).
fn literal_prefix(p: &Pattern) -> String {
    let mut out = String::new();
    for e in p.elements() {
        match (e.class, e.quant.interval()) {
            (SymbolClass::Literal(c), (1, Some(1))) => out.push(c),
            (SymbolClass::Literal(c), (min, _)) if min >= 1 => {
                out.push(c);
                break; // repetition: only the first copy is certain
            }
            _ => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use anmat_table::Schema;

    fn zip_table() -> Table {
        let schema = Schema::new(["zip"]).unwrap();
        Table::from_str_rows(
            schema,
            [
                ["90001"],
                ["90002"],
                ["90003"],
                ["60601"],
                ["60601"],
                ["606-01"],
                ["abcde"],
                [""],
            ],
        )
        .unwrap()
    }

    fn pat(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    #[test]
    fn build_stats() {
        let t = zip_table();
        let idx = PatternIndex::build(&t, 0);
        assert_eq!(idx.indexed_rows, 7);
        assert_eq!(idx.distinct_count(), 6);
    }

    #[test]
    fn lookup_with_literal_prefix() {
        let t = zip_table();
        let idx = PatternIndex::build(&t, 0);
        assert_eq!(idx.lookup(&pat("900\\D{2}")), vec![0, 1, 2]);
        assert_eq!(idx.lookup(&pat("606\\D{2}")), vec![3, 4]);
    }

    #[test]
    fn lookup_class_pattern() {
        let t = zip_table();
        let idx = PatternIndex::build(&t, 0);
        assert_eq!(idx.lookup(&pat("\\D{5}")), vec![0, 1, 2, 3, 4]);
        assert_eq!(idx.lookup(&pat("\\LL{5}")), vec![6]);
        assert_eq!(idx.lookup(&pat("\\D{3}-\\D{2}")), vec![5]);
    }

    #[test]
    fn lookup_agrees_with_scan() {
        let t = zip_table();
        let idx = PatternIndex::build(&t, 0);
        for p in ["900\\D{2}", "\\D{5}", "\\A*", "\\D+", "x\\D*"] {
            let p = pat(p);
            assert_eq!(idx.lookup(&p), idx.lookup_scan(&p), "pattern {p}");
        }
    }

    #[test]
    fn rows_for_value_duplicates() {
        let t = zip_table();
        let idx = PatternIndex::build(&t, 0);
        assert_eq!(idx.rows_for_value("60601"), &[3, 4]);
        assert!(idx.rows_for_value("nope").is_empty());
    }

    #[test]
    fn literal_prefix_extraction() {
        assert_eq!(literal_prefix(&pat("900\\D{2}")), "900");
        assert_eq!(literal_prefix(&pat("\\D{5}")), "");
        assert_eq!(literal_prefix(&pat("ab+c")), "ab");
        assert_eq!(literal_prefix(&pat("a{0,1}bc")), "");
    }

    fn ids(values: &[&str]) -> Vec<ValueId> {
        values.iter().map(|v| ValuePool::intern(v)).collect()
    }

    #[test]
    fn tableau_memo_evaluates_candidates_once_per_distinct_value() {
        let tableau = [pat("900\\D{2}"), pat("606\\D{2}"), pat("\\D{3}-\\D{2}")];
        let mut memo = TableauMemo::new(tableau.iter().map(Some));
        let v = ids(&["90001", "60601", "606-01", "abcde"]);
        // 100 probes over 4 distinct values: each first sighting
        // evaluates its prefix candidates plus the unprefixed member.
        for i in 0..100 {
            let expected: &[u32] = [&[0][..], &[1], &[2], &[]][i % 4];
            assert_eq!(memo.matches(v[i % 4]), expected);
        }
        assert_eq!(memo.evals(), 2 + 2 + 2 + 1);
        assert_eq!(memo.lookups(), 100);
    }

    #[test]
    fn tableau_memo_nested_prefixes_match_in_tableau_order() {
        let tableau = [pat("900\\D{2}"), pat("9\\D{4}"), pat("90\\D+")];
        let mut memo = TableauMemo::new(tableau.iter().map(Some));
        let v = ids(&["90001", "91234", "9"]);
        assert_eq!(memo.matches(v[0]), &[0, 1, 2]);
        assert_eq!(memo.matches(v[1]), &[1]);
        assert_eq!(memo.matches(v[2]), &[] as &[u32]);
        // `9` is a candidate for all three values; `90`/`900` only where
        // the value starts with them.
        assert_eq!(memo.evals(), 3 + 1 + 1);
    }

    #[test]
    fn tableau_memo_checks_prefixes_longer_than_a_word_in_full() {
        // Both prefixes are 9 bytes and open with the same 8.
        let tableau = [
            pat("abcdefgh1\\D"),
            pat("abcdefgh2\\D"),
            pat("abcdefgh\\D+"),
        ];
        let mut memo = TableauMemo::new(tableau.iter().map(Some));
        let v = ids(&["abcdefgh15", "abcdefgh25", "abcdefgh", "abcdefgh3"]);
        assert_eq!(memo.matches(v[0]), &[0, 2]);
        assert_eq!(memo.matches(v[1]), &[1, 2]);
        assert_eq!(memo.matches(v[2]), &[] as &[u32]);
        assert_eq!(memo.matches(v[3]), &[2]);
        // Each value is a candidate of the 8-byte prefix, and of at most
        // one of the 9-byte ones.
        assert_eq!(memo.evals(), 2 + 2 + 1 + 1);
    }

    #[test]
    fn tableau_memo_prime_counts_like_lazy_misses() {
        let tableau = [pat("\\D{5}")];
        let mut memo = TableauMemo::new(tableau.iter().map(Some));
        let v = ids(&["90001", "1234", "12a45"]);
        memo.prime([v[0], v[1], v[0], ValueId::NULL]);
        assert_eq!(memo.evals(), 2); // the duplicate and the null are skipped
        assert_eq!(memo.lookups(), 0);
        // Primed ids now hit; a fresh id still misses lazily.
        assert_eq!(memo.matches(v[0]), &[0]);
        assert_eq!(memo.matches(v[2]), &[] as &[u32]);
        assert_eq!(memo.evals(), 3);
        assert_eq!(memo.lookups(), 2);
    }

    #[test]
    fn tableau_memo_wildcards_match_without_evals_and_nulls_match_nothing() {
        let mut wild = TableauMemo::new([None, None]);
        assert_eq!(wild.matches(ids(&["x"])[0]), &[0, 1]);
        assert_eq!(wild.matches(ValueId::NULL), &[] as &[u32]);
        assert_eq!((wild.evals(), wild.lookups()), (0, 0));

        let tableau = [pat("ab+c")];
        let mut mixed = TableauMemo::new([None, Some(&tableau[0]), None]);
        let v = ids(&["abbc", "ac"]);
        assert_eq!(mixed.matches(v[0]), &[0, 1, 2]);
        assert_eq!(mixed.matches(v[1]), &[0, 2]);
        assert_eq!(mixed.matches(ValueId::NULL), &[] as &[u32]);
        assert_eq!((mixed.evals(), mixed.lookups()), (1, 2));

        let mut empty = TableauMemo::new([]);
        assert_eq!(empty.matches(v[0]), &[] as &[u32]);
        assert_eq!((empty.evals(), empty.lookups()), (0, 0));
    }

    #[test]
    fn tableau_memo_purge_forgets_dead_ids_only() {
        let tableau = [pat("9\\D")];
        let mut memo = TableauMemo::new(tableau.iter().map(Some));
        let v = ids(&["91", "92"]);
        memo.prime(v.iter().copied());
        memo.purge(|id| id == v[0]);
        assert_eq!(memo.evals(), 2);
        assert_eq!(memo.matches(v[1]), &[0]);
        assert_eq!(memo.evals(), 2);
        assert_eq!(memo.matches(v[0]), &[0]);
        assert_eq!(memo.evals(), 3); // re-evaluated after the purge
    }

    #[test]
    fn empty_pattern_lookup() {
        let schema = Schema::new(["x"]).unwrap();
        let t = Table::from_str_rows(schema, [["a"], [""]]).unwrap();
        let idx = PatternIndex::build(&t, 0);
        assert!(idx.lookup(&Pattern::empty()).is_empty());
    }
}
