//! Chunked copy-on-write vectors — the storage substrate behind cheap
//! table snapshots.
//!
//! A [`CowVec<T>`] stores its elements in fixed-size chunks
//! (`4096` elements), each behind an [`Arc`]. Cloning a `CowVec` clones
//! the chunk *handles* — `O(len / 4096)` refcount bumps, no element is
//! copied — which is exactly what a snapshot needs: the clone and the
//! original share every chunk until one of them writes. A write
//! (`push`/`set`) goes through [`Arc::make_mut`]: on an unshared chunk
//! it is a plain store (one relaxed refcount check of overhead); on a
//! chunk shared with a live snapshot it first copies that one chunk
//! (4 KiB for `ValueId` cells), never the whole column. Mutation cost
//! after a snapshot is therefore `O(mutated chunks)`, and the obs
//! counter `snapshot.cow_copies` counts exactly those copies.
//!
//! Chunk boundaries are deterministic (every chunk except the last is
//! full), so structural equality can compare chunk-by-chunk and two
//! `CowVec`s built by the same pushes are equal regardless of sharing.

use anmat_obs as obs;
use std::sync::Arc;

/// log2 of the chunk size.
const CHUNK_BITS: usize = 12;
/// Elements per chunk.
const CHUNK: usize = 1 << CHUNK_BITS;
const MASK: usize = CHUNK - 1;

/// A chunked vector with `O(chunks)` clone and copy-on-first-write
/// mutation — see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CowVec<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T: Copy> Default for CowVec<T> {
    fn default() -> CowVec<T> {
        CowVec::new()
    }
}

impl<T: Copy> CowVec<T> {
    /// An empty vector.
    #[must_use]
    pub fn new() -> CowVec<T> {
        CowVec {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the vector empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one element. Copies the tail chunk first if a snapshot
    /// still shares it.
    pub fn push(&mut self, v: T) {
        if self.len & MASK == 0 {
            // Let the tail chunk's capacity grow naturally (4 → 4096) so
            // small vectors don't pay a full chunk.
            self.chunks.push(Arc::new(Vec::new()));
        }
        let tail = self.chunks.last_mut().expect("chunk pushed above");
        if Arc::strong_count(tail) > 1 {
            obs::counter!("snapshot.cow_copies").incr();
        }
        let tail = Arc::make_mut(tail);
        // A tail sized to fit (by `collect`, or by `make_mut` copying a
        // shared chunk) grows by doubling like any other, but never past
        // one chunk.
        if tail.len() == tail.capacity() && tail.len() > CHUNK / 2 {
            tail.reserve_exact(CHUNK - tail.len());
        }
        tail.push(v);
        self.len += 1;
    }

    /// The element at `idx` (panics when out of bounds).
    #[must_use]
    pub fn get(&self, idx: usize) -> T {
        assert!(
            idx < self.len,
            "CowVec index {idx} out of bounds {}",
            self.len
        );
        self.chunks[idx >> CHUNK_BITS][idx & MASK]
    }

    /// Overwrite the element at `idx` (panics when out of bounds).
    /// Copies the owning chunk first if a snapshot still shares it.
    pub fn set(&mut self, idx: usize, v: T) {
        assert!(
            idx < self.len,
            "CowVec index {idx} out of bounds {}",
            self.len
        );
        let chunk = &mut self.chunks[idx >> CHUNK_BITS];
        if Arc::strong_count(chunk) > 1 {
            obs::counter!("snapshot.cow_copies").incr();
        }
        Arc::make_mut(chunk)[idx & MASK] = v;
    }

    /// Iterate all elements in order.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter().copied())
    }

    /// Drop every element (chunk handles released; shared chunks stay
    /// alive for their snapshots).
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }

    /// Allocated bytes attributable to this handle: chunk storage (full
    /// share — chunks shared with snapshots are counted here once per
    /// holder, mirroring `Vec::capacity` accounting) plus the handle
    /// vector.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        let elems: usize = self
            .chunks
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<T>())
            .sum();
        elems + self.chunks.capacity() * std::mem::size_of::<Arc<Vec<T>>>()
    }

    /// Number of chunks currently shared with at least one other handle
    /// (a live snapshot). Mutating a shared chunk costs one chunk copy.
    #[must_use]
    pub fn shared_chunks(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| Arc::strong_count(c) > 1)
            .count()
    }

    /// Total chunk count.
    #[must_use]
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

/// Fills each chunk in place, with the chunk boundaries `push` would
/// give: full chunks hold exactly `4096` elements and the tail chunk is
/// sized to fit, so a compaction rebuild holds no spare capacity.
impl<T: Copy> FromIterator<T> for CowVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> CowVec<T> {
        let mut out = CowVec::new();
        let mut chunk = Vec::with_capacity(CHUNK);
        for v in iter {
            chunk.push(v);
            if chunk.len() == CHUNK {
                out.chunks.push(Arc::new(chunk));
                chunk = Vec::with_capacity(CHUNK);
            }
        }
        out.len = out.chunks.len() * CHUNK + chunk.len();
        if !chunk.is_empty() {
            chunk.shrink_to_fit();
            out.chunks.push(Arc::new(chunk));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set_roundtrip() {
        let mut v: CowVec<u32> = CowVec::new();
        assert!(v.is_empty());
        for i in 0..10_000u32 {
            v.push(i);
        }
        assert_eq!(v.len(), 10_000);
        assert_eq!(v.get(0), 0);
        assert_eq!(v.get(4095), 4095);
        assert_eq!(v.get(4096), 4096);
        assert_eq!(v.get(9_999), 9_999);
        v.set(4096, 7);
        assert_eq!(v.get(4096), 7);
        assert_eq!(v.iter().count(), 10_000);
        assert_eq!(v.chunk_count(), 3);
    }

    #[test]
    fn clone_shares_until_write() {
        let mut v: CowVec<u32> = (0..10_000).collect();
        let snap = v.clone();
        assert_eq!(v, snap);
        assert_eq!(v.shared_chunks(), 3);
        // One write: exactly one chunk diverges, the snapshot is frozen.
        v.set(0, 999);
        assert_eq!(v.shared_chunks(), 2);
        assert_eq!(snap.get(0), 0);
        assert_eq!(v.get(0), 999);
        assert_ne!(v, snap);
        // Untouched chunks are still physically shared.
        assert_eq!(snap.shared_chunks(), 2);
    }

    #[test]
    fn push_after_clone_copies_only_the_tail() {
        let mut v: CowVec<u32> = (0..6_000).collect();
        let snap = v.clone();
        v.push(1);
        assert_eq!(snap.len(), 6_000);
        assert_eq!(v.len(), 6_001);
        // Chunk 0 (full) is still shared; only the tail chunk diverged.
        assert_eq!(v.shared_chunks(), 1);
    }

    #[test]
    fn structural_equality_ignores_sharing() {
        let a: CowVec<u32> = (0..5_000).collect();
        let b: CowVec<u32> = (0..5_000).collect();
        assert_eq!(a, b);
        let c = a.clone();
        assert_eq!(a, c);
    }

    #[test]
    fn collect_matches_pushes_and_holds_no_more() {
        for n in [0, 1, 5, 4_095, 4_096, 4_097, 10_000] {
            let collected: CowVec<u32> = (0..n).collect();
            let mut pushed = CowVec::new();
            for i in 0..n {
                pushed.push(i);
            }
            // Equality compares chunk by chunk: same elements, same
            // chunk boundaries.
            assert_eq!(collected, pushed, "{n} elements");
            assert!(collected.capacity_bytes() <= pushed.capacity_bytes());
        }
        // Flags (one byte each) too: their tail starts at 8, not 4.
        let flags: CowVec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let mut pushed = CowVec::new();
        for i in 0..100 {
            pushed.push(i % 3 == 0);
        }
        assert_eq!(flags, pushed);
        assert!(flags.capacity_bytes() < pushed.capacity_bytes());
    }

    #[test]
    fn a_tail_sized_to_fit_grows_to_one_chunk_and_no_further() {
        let mut collected: CowVec<u32> = (0..3_000).collect();
        let mut copied: CowVec<u32> = CowVec::new();
        for i in 0..3_000 {
            copied.push(i);
        }
        let snap = copied.clone();
        for i in 3_000..CHUNK as u32 {
            collected.push(i);
            copied.push(i);
        }
        assert_eq!(collected.chunks[0].capacity(), CHUNK);
        assert_eq!(copied.chunks[0].capacity(), CHUNK);
        assert_eq!(snap.len(), 3_000);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let v: CowVec<u32> = (0..10).collect();
        let _ = v.get(10);
    }
}
