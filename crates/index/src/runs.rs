//! Ascending runs: a set of row ids stored as short sorted chunks.
//!
//! A block of a [`BlockingPartition`](crate::BlockingPartition) can hold
//! hundreds of thousands of rows, and it must stay in ascending row order
//! (witnesses and batch parity depend on it). One sorted `Vec` makes every
//! removal, and every re-insert of an older id, shift the whole tail. Runs
//! bound that shift: entries live in chunks of at most [`RUN_CAP`], the
//! chunks are kept in order, and an op locates its chunk by binary search
//! on the chunk tails.
//!
//! * An append (the largest id yet) pushes onto the last run, or opens a
//!   new one when that run is full: `O(1)`.
//! * A removal or an out-of-order insert shifts entries inside one run:
//!   `O(log len + RUN_CAP)`.
//! * A full run splits in half before an out-of-order insert lands in it;
//!   a run that empties is dropped, and one that falls under a quarter of
//!   the cap merges into a neighbour it fits in. Either also shifts the
//!   run list (`len / RUN_CAP` headers). That is rare: a split leaves two
//!   half-full runs, so each needs another `RUN_CAP / 2` inserts to split
//!   again, or `RUN_CAP / 4` removals to merge.
//!
//! An entry is one 4-byte row: ids are stored as `u32`, and nothing rides
//! along with them.

use anmat_table::{RowId, RowIdRemap};

/// Most entries one run holds.
pub(crate) const RUN_CAP: usize = 1024;

/// Where a full run is cut when an out-of-order insert lands in it.
pub(crate) const SPLIT_AT: usize = RUN_CAP / 2;

/// A run shorter than this after a removal merges into a neighbour.
pub(crate) const MERGE_BELOW: usize = RUN_CAP / 4;

/// Row ids in strictly ascending order, stored as ascending runs (see the
/// module docs).
///
/// Invariant: every run is non-empty and holds at most [`RUN_CAP`]
/// entries, and the last row of each run is below the first row of the
/// next.
#[derive(Debug, Clone, Default)]
pub(crate) struct Runs {
    runs: Vec<Vec<u32>>,
    len: usize,
}

/// Row ids are slot positions in one table; a table never holds `2³²`
/// slots (its id cells alone would take 16 GiB per column).
fn narrow(row: RowId) -> u32 {
    u32::try_from(row).expect("row ids fit in u32")
}

impl Runs {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Row ids in ascending order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = RowId> + Clone + '_ {
        self.runs.iter().flatten().map(|&row| row as RowId)
    }

    /// Index of the run holding `row`, or the run it belongs in: the
    /// first whose tail is not below it.
    fn locate(&self, row: u32) -> usize {
        self.runs.partition_point(|run| run[run.len() - 1] < row)
    }

    /// Insert a row at its sorted position.
    pub(crate) fn insert(&mut self, row: RowId) {
        let row = narrow(row);
        self.len += 1;
        let i = match self.runs.last_mut() {
            Some(last) if last[last.len() - 1] < row => {
                if last.len() < RUN_CAP {
                    last.push(row);
                } else {
                    self.runs.push(vec![row]);
                }
                return;
            }
            Some(_) => self.locate(row),
            None => {
                self.runs.push(vec![row]);
                return;
            }
        };
        let i = if self.runs[i].len() == RUN_CAP {
            let upper = self.runs[i].split_off(SPLIT_AT);
            let goes_up = upper[0] <= row;
            self.runs.insert(i + 1, upper);
            i + usize::from(goes_up)
        } else {
            i
        };
        let run = &mut self.runs[i];
        let pos = run.partition_point(|&r| r < row);
        run.insert(pos, row);
    }

    /// Remove `row`; returns whether it was present.
    pub(crate) fn remove(&mut self, row: RowId) -> bool {
        let Ok(row) = u32::try_from(row) else {
            return false;
        };
        let i = self.locate(row);
        let Some(run) = self.runs.get_mut(i) else {
            return false;
        };
        let Ok(pos) = run.binary_search(&row) else {
            return false;
        };
        run.remove(pos);
        self.len -= 1;
        let left = run.len();
        if left == 0 {
            self.runs.remove(i);
        } else if left < MERGE_BELOW {
            self.merge_underfull(i);
        }
        true
    }

    /// Fold the short run `i` into its left neighbour, or take in its
    /// right one, when the two fit in one run.
    fn merge_underfull(&mut self, i: usize) {
        let len = self.runs[i].len();
        if i > 0 && self.runs[i - 1].len() + len <= RUN_CAP {
            let run = self.runs.remove(i);
            self.runs[i - 1].extend(run);
        } else if i + 1 < self.runs.len() && self.runs[i + 1].len() + len <= RUN_CAP {
            let next = self.runs.remove(i + 1);
            self.runs[i].extend(next);
        }
    }

    /// Rewrite every row id through a compaction remap. Remaps are
    /// monotone, so order and run boundaries survive unchanged.
    pub(crate) fn remap(&mut self, remap: &RowIdRemap) {
        for row in self.runs.iter_mut().flatten() {
            *row = narrow(remap.live_id(*row as RowId));
        }
    }

    /// Number of runs.
    #[cfg(test)]
    pub(crate) fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Panic unless the structural invariant holds: every run non-empty
    /// and within the cap, rows strictly ascending within and across
    /// runs, and `len` equal to the entry count.
    #[cfg(test)]
    pub(crate) fn assert_invariants(&self) {
        let mut prev: Option<u32> = None;
        let mut total = 0;
        for (i, run) in self.runs.iter().enumerate() {
            assert!(!run.is_empty(), "run {i} is empty");
            assert!(run.len() <= RUN_CAP, "run {i} holds {} > cap", run.len());
            for &row in run {
                assert!(
                    prev.is_none_or(|p| p < row),
                    "row {row} in run {i} is not above its predecessor {prev:?}"
                );
                prev = Some(row);
            }
            total += run.len();
        }
        assert_eq!(total, self.len, "len disagrees with the runs");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anmat_table::{Schema, Table};

    fn rows(runs: &Runs) -> Vec<RowId> {
        runs.rows().collect()
    }

    #[test]
    fn appends_fill_runs_to_the_cap() {
        let mut runs = Runs::default();
        for row in 0..RUN_CAP * 2 + 1 {
            runs.insert(row);
        }
        runs.assert_invariants();
        assert_eq!(runs.run_count(), 3);
        assert_eq!(runs.len(), RUN_CAP * 2 + 1);
    }

    #[test]
    fn an_insert_into_a_full_run_splits_it() {
        let mut runs = Runs::default();
        for row in (0..RUN_CAP * 2).map(|r| r * 2) {
            runs.insert(row);
        }
        assert_eq!(runs.run_count(), 2);
        // Odd ids fall between even ones inside the first, full run.
        runs.insert(1);
        runs.assert_invariants();
        assert_eq!(runs.run_count(), 3);
        runs.insert(2 * SPLIT_AT + 1);
        runs.assert_invariants();
        assert_eq!(runs.run_count(), 3);
        assert_eq!(rows(&runs)[..4], [0, 1, 2, 4]);
    }

    #[test]
    fn emptied_runs_drop_and_short_runs_merge() {
        let mut runs = Runs::default();
        for row in 0..=RUN_CAP {
            runs.insert(row);
        }
        assert_eq!(runs.run_count(), 2);
        // The lone tail run cannot merge into the full run before it: it
        // drops once empty.
        assert!(runs.remove(RUN_CAP));
        assert_eq!(runs.run_count(), 1);
        assert!(!runs.remove(RUN_CAP));

        let mut runs = Runs::default();
        for row in (0..RUN_CAP * 2).map(|r| r * 2) {
            runs.insert(row);
        }
        runs.insert(1);
        assert_eq!(runs.run_count(), 3);
        // Thin the upper half of the split run below a quarter of the
        // cap: it merges into the lower half.
        let upper: Vec<RowId> = (SPLIT_AT..RUN_CAP).map(|r| r * 2).collect();
        for &row in &upper[..SPLIT_AT - MERGE_BELOW] {
            assert!(runs.remove(row));
        }
        assert_eq!(runs.run_count(), 3);
        runs.remove(upper[SPLIT_AT - MERGE_BELOW]);
        runs.assert_invariants();
        assert_eq!(runs.run_count(), 2);
        assert!(!runs.remove(usize::MAX));
    }

    #[test]
    fn remap_keeps_runs_ascending() {
        let schema = Schema::new(["x"]).unwrap();
        let mut table = Table::from_str_rows(schema, (0..RUN_CAP * 3).map(|_| ["v"])).unwrap();
        let mut runs = Runs::default();
        for row in 0..RUN_CAP * 3 {
            if row % 3 == 0 {
                table.delete_row(row).unwrap();
            } else {
                runs.insert(row);
            }
        }
        let remap = table.compact();
        runs.remap(&remap);
        runs.assert_invariants();
        assert_eq!(rows(&runs), (0..RUN_CAP * 2).collect::<Vec<_>>());
    }
}
