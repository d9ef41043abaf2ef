//! Per-pattern match memoization over interned values.
//!
//! Pattern matching costs `O(|P| · |s|)` per evaluation; a streaming
//! detector that re-matches every arriving row pays that per *row*. But a
//! match result depends only on the cell's string — so once cells are
//! dictionary-encoded (see `anmat_table::ValuePool`), a pattern needs to
//! be evaluated at most once per *distinct* value. [`MatchMemo`] is that
//! memo: a `(pattern instance, interned id) → bool` cache keyed on the
//! caller-supplied `u32` id (this crate stays independent of the table
//! layer; callers pass `ValueId::raw()`).
//!
//! One `MatchMemo` memoizes one pattern — embed one per tableau-tuple
//! state, next to the [`CompiledPattern`] it caches for. The memo also
//! counts how many *real* evaluations it performed
//! ([`MatchMemo::evals`]), which is the test hook asserting the "at
//! most `distinct(column)` evaluations per pattern" guarantee.

use crate::compile::CompiledPattern;
use fxhash::FxHashMap;

/// A `(interned value id) → matches?` cache for one compiled pattern.
#[derive(Debug, Clone, Default)]
pub struct MatchMemo {
    cache: FxHashMap<u32, bool>,
    evals: usize,
    lookups: usize,
}

impl MatchMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> MatchMemo {
        MatchMemo::default()
    }

    /// Does `s` (interned as `id`) match `program`? Evaluates the
    /// program only on the first sighting of `id`; afterwards this is a
    /// single u32-keyed hash probe.
    ///
    /// The caller must pass the same `program` on every call (the memo
    /// caches for exactly one pattern) and an `id` that canonically
    /// identifies `s` (equal ids ⇒ equal strings).
    pub fn matches(&mut self, program: &CompiledPattern, id: u32, s: &str) -> bool {
        self.lookups += 1;
        if let Some(&hit) = self.cache.get(&id) {
            return hit;
        }
        self.evals += 1;
        let result = program.matches(s);
        self.cache.insert(id, result);
        result
    }

    /// Batch-classify: evaluate `program` once for every *uncached* id,
    /// in one tight pass. Each new distinct id costs exactly the one
    /// eval the lazy path would have paid on first sighting, so
    /// [`MatchMemo::evals`] is invariant; [`MatchMemo::lookups`] does not
    /// advance (priming is not a query — the per-row probes that follow
    /// count as usual, and hit).
    pub fn prime<'a, I>(&mut self, program: &CompiledPattern, ids: I)
    where
        I: IntoIterator<Item = (u32, &'a str)>,
    {
        for (id, s) in ids {
            if !self.cache.contains_key(&id) {
                self.evals += 1;
                let result = program.matches(s);
                self.cache.insert(id, result);
            }
        }
    }

    /// Number of actual pattern evaluations performed (cache misses) —
    /// the call-counting test hook. Bounded by the number of distinct ids
    /// ever passed in.
    #[must_use]
    pub fn evals(&self) -> usize {
        self.evals
    }

    /// Number of memo consultations (hits + misses). Together with
    /// [`MatchMemo::evals`] this yields the cache hit rate the
    /// observability layer reports.
    #[must_use]
    pub fn lookups(&self) -> usize {
        self.lookups
    }

    /// Drop every cached entry whose id satisfies `pred`, without
    /// touching the eval/lookup counters.
    ///
    /// This is the reclamation hook: when the pool frees a string, its
    /// id goes back on a free list and will be recycled for a
    /// *different* string later. A memo entry keyed on the dead id
    /// would then answer for the wrong value, so the engine purges dead
    /// ids at the same epoch barrier that reclaims them.
    pub fn purge(&mut self, mut pred: impl FnMut(u32) -> bool) {
        self.cache.retain(|&id, _| !pred(id));
    }

    /// Number of distinct ids memoized.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Is the memo empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Pattern;

    fn compiled(s: &str) -> (Pattern, CompiledPattern) {
        let p: Pattern = s.parse().unwrap();
        let c = CompiledPattern::compile(&p);
        (p, c)
    }

    #[test]
    fn memoizes_per_distinct_id() {
        let (_, c) = compiled("900\\D{2}");
        let mut memo = MatchMemo::new();
        // 100 probes over 2 distinct ids: exactly 2 evaluations.
        for i in 0..100 {
            let (id, s) = if i % 2 == 0 {
                (1, "90001")
            } else {
                (2, "10001")
            };
            let expected = id == 1;
            assert_eq!(memo.matches(&c, id, s), expected);
        }
        assert_eq!(memo.evals(), 2);
        assert_eq!(memo.lookups(), 100);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn results_agree_with_direct_matching() {
        let (p, c) = compiled("\\LU\\LL*");
        let mut memo = MatchMemo::new();
        for (id, s) in [(1u32, "John"), (2, "john"), (3, "J"), (4, "JOhn")] {
            assert_eq!(memo.matches(&c, id, s), p.matches(s), "{s}");
            // Second call: cached, same answer.
            assert_eq!(memo.matches(&c, id, s), p.matches(s), "{s}");
        }
        assert_eq!(memo.evals(), 4);
    }

    #[test]
    fn prime_counts_like_lazy_misses() {
        let (_, c) = compiled("\\D{5}");
        let mut memo = MatchMemo::new();
        memo.prime(&c, [(1u32, "90001"), (2, "1234"), (1, "90001")]);
        assert_eq!(memo.evals(), 2); // the duplicate id is skipped
        assert_eq!(memo.lookups(), 0);
        // Primed ids now hit; a fresh id still misses lazily.
        assert!(memo.matches(&c, 1, "90001"));
        assert!(!memo.matches(&c, 3, "12a45"));
        assert_eq!(memo.evals(), 3);
        assert_eq!(memo.lookups(), 2);
    }

    #[test]
    fn empty_memo() {
        let memo = MatchMemo::new();
        assert!(memo.is_empty());
        assert_eq!(memo.evals(), 0);
    }
}
