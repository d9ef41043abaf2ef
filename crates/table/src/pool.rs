//! Dictionary-encoded value interning: [`ValuePool`] and [`ValueId`].
//!
//! PFD workloads are *distinct-value-centric*: the paper's zip/state/
//! phone/name columns have orders of magnitude fewer distinct values than
//! rows, and every expensive per-cell operation — hashing an index key,
//! matching a pattern, extracting a blocking capture — depends only on
//! the cell's *string*, not on which row holds it. Interning turns all of
//! those from per-row work into per-distinct-value work and shrinks every
//! downstream key from an owned `String` to a `Copy` 4-byte id.
//!
//! # Ownership and lifetime story
//!
//! The pool is a **process-global** interner, append-mostly:
//!
//! * The first time a string is interned, it is copied once into the pool
//!   and handed out as `&'static str` (`Box::leak`). Every later sighting
//!   of the same string resolves to the same [`ValueId`] with a hash
//!   lookup and *zero* allocation.
//! * By default ids are never recycled and strings are never dropped: a
//!   `ValueId` obtained anywhere in the process stays valid (and
//!   resolvable) for the process lifetime. This is what lets
//!   [`ValueId::as_str`] hand out `&'static str` without borrowing the
//!   pool, and what makes `ValueId` `Send + Copy` — so ids cross
//!   threads (parallel discovery, for one) without cloning string
//!   tables.
//! * For long-running, high-cardinality streams the leak is no longer
//!   acceptable, so the pool supports **explicit reclamation**
//!   ([`ValuePool::reclaim`]): a caller that can prove a set of ids is
//!   unreferenced (the stream engines prove it with batch-granular
//!   refcounts swept at a compaction epoch barrier — see
//!   `anmat_stream`) hands them back, their strings are unpublished and
//!   freed, and the ids are recycled through a free list. Each recycling
//!   bumps the id's **generation** ([`ValuePool::generation`]), so a
//!   holder that stashed `(id, generation)` can detect staleness in
//!   debug builds. Resolving a freed-and-not-yet-reused id panics
//!   (fail-stop, never a dangle): the slot is nulled before the string
//!   is dropped, and the drop itself is deferred one reclaim round as a
//!   grace period for racing lock-free readers.
//!
//! Id `0` is reserved for the null cell ([`ValueId::NULL`]); real strings
//! get ids from 1 upward in first-sighting order (or from the free list
//! after reclamation). The empty string, when interned explicitly (e.g.
//! via `Value::text("")`), gets an ordinary non-null id — nullness is a
//! property of the *cell*, not of string content.
//!
//! # Concurrency: lock-free resolution
//!
//! The pool is split into two halves with different synchronization:
//!
//! * **id → string** is an append-only *chunked store*: a fixed ladder of
//!   doubling-capacity chunks (64, 128, 256, … slots) whose addresses
//!   never change once allocated, plus an atomic length watermark.
//!   [`ValuePool::resolve`] is therefore **lock-free**: a relaxed
//!   watermark bounds check and two pointer chases (chunk, then the
//!   published entry), with acquire loads pairing against the publishing
//!   release stores. Resolution never blocks and is never blocked — not
//!   by other resolvers, and not by concurrent interning, so threads
//!   render strings without contending on the pool.
//! * **string → id** (interning) keeps an `RwLock`ed hash map: lookups of
//!   already-interned strings take the shared read lock; only a genuine
//!   *miss* — the first sighting of a string — takes the write lock to
//!   allocate and publish. [`ValuePool::intern_batch`] amortizes further:
//!   a whole record is looked up under one read-lock acquisition, and
//!   whatever missed is interned under one write-lock acquisition — the
//!   CSV ingest path pays two lock operations per *record*, not two per
//!   cell.
//! * **refcounts** ([`ValuePool::retain`]/[`ValuePool::release`]) live in
//!   a third ladder of plain `AtomicU32` cells parallel to the store —
//!   one relaxed RMW per call, no locks, no effect on intern/resolve.
//!   Only refcount-participating tables pay for them.
//!
//! Publishing protocol (single writer at a time — the map write lock
//! doubles as the store's append lock): write the entry pointer into its
//! slot with `Release`, then advance the watermark with `Release`.
//! Readers load the slot with `Acquire`; a non-null pointer therefore
//! carries a happens-before edge to the entry's contents. A legitimate
//! id always finds a non-null slot, because the id itself can only have
//! reached the resolving thread through the intern that published it (or
//! a synchronizing handoff downstream of it) — unless the id was
//! reclaimed, in which case the slot is null again and resolve panics.

use crate::value::Value;
use anmat_obs as obs;
use fxhash::FxHashMap;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

/// Bytes of *live* string storage (added at publish, subtracted at
/// reclaim). Maintained unconditionally — [`ValuePool::mem_footprint`]
/// must be exact whether or not the metrics recorder is on.
static STRING_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Bytes of allocated chunk-ladder slot arrays (store + refcounts).
static CHUNK_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Bytes of allocated refcount-ladder arrays.
static REF_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Distinct strings currently published (excludes the null placeholder;
/// published − reclaimed).
static LIVE_STRINGS: AtomicUsize = AtomicUsize::new(0);
/// Cumulative count of strings reclaimed over the process lifetime.
static RECLAIMED_STRINGS: AtomicUsize = AtomicUsize::new(0);
/// Cumulative bytes of string payload reclaimed over the process
/// lifetime.
static RECLAIMED_BYTES: AtomicUsize = AtomicUsize::new(0);
/// The interning map's bucket capacity, mirrored out of the `RwLock` so
/// [`ValuePool::mem_footprint`] never takes the lock. Updated by every
/// path that holds the write lock (capacity only changes there).
static MAP_CAPACITY: AtomicUsize = AtomicUsize::new(0);
/// Lock-free hint: number of ids parked on the free list (so intern
/// misses skip the reclaimer mutex entirely until a reclaim happens).
static FREE_HINT: AtomicUsize = AtomicUsize::new(0);

/// A dictionary-encoded cell value: `0` = null, otherwise an index into
/// the global [`ValuePool`].
///
/// `ValueId` is `Copy`, 4 bytes, and hashes in a single multiply-rotate
/// step under the workspace's `FxHasher` — the property that makes
/// id-keyed index maps cheap. Equality of ids is equality of cell values
/// (same string, or both null), because the pool canonicalizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(u32);

impl ValueId {
    /// The id of the null cell.
    pub const NULL: ValueId = ValueId(0);

    /// Is this the null cell?
    #[must_use]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// The interned string, or `None` for null. `O(1)` and lock-free;
    /// the returned reference is `'static` (see the module docs for why).
    #[must_use]
    pub fn as_str(self) -> Option<&'static str> {
        if self.is_null() {
            None
        } else {
            Some(ValuePool::resolve(self))
        }
    }

    /// Materialize the owning [`Value`] (allocates for text).
    #[must_use]
    pub fn value(self) -> Value {
        match self.as_str() {
            None => Value::Null,
            Some(s) => Value::Text(s.to_string()),
        }
    }

    /// CSV-style rendering: nulls become the empty string.
    #[must_use]
    pub fn render(self) -> &'static str {
        self.as_str().unwrap_or("")
    }

    /// The raw id, for callers that key external structures (e.g. the
    /// pattern matcher's memo) on interned values.
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for ValueId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.as_str() {
            None => write!(f, "∅"),
            Some(s) => write!(f, "{s}"),
        }
    }
}

/// log2 of the first chunk's slot count.
const FIRST_CHUNK_BITS: u32 = 6;
/// Chunk `k` holds `64 << k` slots; 27 chunks cover the full `u32` id
/// space (64 · (2²⁷ − 1) > 2³²).
const CHUNK_COUNT: usize = 27;

/// Id → (chunk index, offset within chunk). Chunk `k` covers ids
/// `[64·(2ᵏ−1), 64·(2ᵏ⁺¹−1))`.
fn locate(id: u32) -> (usize, usize) {
    let adjusted = u64::from(id) + (1u64 << FIRST_CHUNK_BITS);
    let level = (63 - adjusted.leading_zeros()) - FIRST_CHUNK_BITS;
    let offset = adjusted - (1u64 << (level + FIRST_CHUNK_BITS));
    (level as usize, offset as usize)
}

/// A published pool entry. Slots hold a *thin* pointer to one of these
/// (a `&'static str` is a fat pointer and cannot be stored atomically),
/// so a resolve is two pointer chases: slot → entry → bytes.
struct Entry(&'static str);

type Slot = AtomicPtr<Entry>;

/// The append-only id → string store. Chunk addresses never change once
/// allocated, so readers need no lock — only acquire loads pairing with
/// the writer's release stores. Entries are dropped only through
/// [`ValuePool::reclaim`]'s deferred-drop protocol.
struct Store {
    chunks: [AtomicPtr<Slot>; CHUNK_COUNT],
    /// Number of initialized slots (including the reserved null slot 0).
    /// Advanced with `Release` *after* the slot it covers is published.
    len: AtomicU32,
}

impl Store {
    fn new() -> Store {
        Store {
            chunks: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            // Slot 0 is the null placeholder: counted, never published.
            len: AtomicU32::new(1),
        }
    }

    /// The slot array for `level`, allocating it if needed. Must only be
    /// called while holding the interning write lock (single writer).
    fn chunk(&self, level: usize) -> *mut Slot {
        let mut chunk = self.chunks[level].load(Ordering::Acquire);
        if chunk.is_null() {
            let cap = 1usize << (level as u32 + FIRST_CHUNK_BITS);
            let boxed: Box<[Slot]> = (0..cap)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect();
            chunk = Box::into_raw(boxed) as *mut Slot;
            self.chunks[level].store(chunk, Ordering::Release);
            CHUNK_BYTES.fetch_add(cap * std::mem::size_of::<Slot>(), Ordering::Relaxed);
            obs::counter!("pool.chunk_allocs").incr();
        }
        chunk
    }

    /// Append one leaked string at the watermark. Must only be called
    /// while holding the interning write lock (single writer), which
    /// makes the plain read-modify-write of `len` and the chunk
    /// allocation race-free.
    fn push(&self, s: &'static str) -> u32 {
        let id = self.len.load(Ordering::Relaxed);
        assert!(id < u32::MAX, "value pool exhausted u32 ids");
        let (level, offset) = locate(id);
        let chunk = self.chunk(level);
        let entry = Box::into_raw(Box::new(Entry(s)));
        // SAFETY: `offset` < the chunk's capacity by construction of
        // `locate`, and the chunk allocation above (or by an earlier
        // push) is visible to this sole writer.
        unsafe { (*chunk.add(offset)).store(entry, Ordering::Release) };
        self.len.store(id + 1, Ordering::Release);
        id
    }

    /// Republish a recycled id (below the watermark, slot currently
    /// null). Must only be called while holding the interning write
    /// lock.
    fn put(&self, id: u32, s: &'static str) {
        debug_assert!(id < self.len.load(Ordering::Relaxed));
        let (level, offset) = locate(id);
        let chunk = self.chunk(level);
        let entry = Box::into_raw(Box::new(Entry(s)));
        // SAFETY: as in `push` — in-bounds slot of a live chunk.
        unsafe { (*chunk.add(offset)).store(entry, Ordering::Release) };
    }

    /// Unpublish a slot: swap it to null and return the old entry
    /// pointer (null if the slot was never published or already
    /// reclaimed). Must only be called while holding the interning write
    /// lock. Racing lock-free readers that loaded the old pointer first
    /// are the reason the caller defers the actual drop.
    fn take(&self, id: u32) -> *mut Entry {
        if id == 0 || id >= self.len.load(Ordering::Relaxed) {
            return std::ptr::null_mut();
        }
        let (level, offset) = locate(id);
        let chunk = self.chunks[level].load(Ordering::Acquire);
        if chunk.is_null() {
            return std::ptr::null_mut();
        }
        // SAFETY: in-bounds slot of a live chunk (see `get`).
        unsafe { (*chunk.add(offset)).swap(std::ptr::null_mut(), Ordering::AcqRel) }
    }

    /// Lock-free id → string. `None` for ids this pool never produced
    /// (or reclaimed and has not yet reused).
    fn get(&self, id: u32) -> Option<&'static str> {
        // Relaxed is enough for the bounds filter: the authoritative
        // visibility check is the acquire load of the slot itself.
        if id >= self.len.load(Ordering::Relaxed) {
            return None;
        }
        let (level, offset) = locate(id);
        let chunk = self.chunks[level].load(Ordering::Acquire);
        if chunk.is_null() {
            return None;
        }
        // SAFETY: non-null chunks are live for the process lifetime and
        // `offset` is within the chunk's capacity.
        let entry = unsafe { (*chunk.add(offset)).load(Ordering::Acquire) };
        if entry.is_null() {
            return None;
        }
        // SAFETY: a non-null entry pointer was acquire-loaded, pairing
        // with the release store that published the fully-initialized
        // entry; reclaimed entries are dropped one full reclaim round
        // after being unpublished (and only for ids the caller proved
        // unreferenced), so a pointer read here is live.
        Some(unsafe { (*entry).0 })
    }
}

fn store() -> &'static Store {
    static STORE: OnceLock<Store> = OnceLock::new();
    STORE.get_or_init(Store::new)
}

/// The refcount ladder: `AtomicU32` cells parallel to the store's
/// slots, allocated chunk-at-a-time on first touch. Retain/release are
/// single relaxed RMWs — no locks, independent of intern/resolve.
struct RefLadder {
    chunks: [AtomicPtr<AtomicU32>; CHUNK_COUNT],
}

impl RefLadder {
    fn new() -> RefLadder {
        RefLadder {
            chunks: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        }
    }

    /// The refcount cell for `id`, allocating the chunk if needed.
    /// Callable from any thread (CAS-installed; the loser frees its
    /// allocation).
    fn cell(&self, id: u32) -> &AtomicU32 {
        let (level, offset) = locate(id);
        let mut chunk = self.chunks[level].load(Ordering::Acquire);
        if chunk.is_null() {
            let cap = 1usize << (level as u32 + FIRST_CHUNK_BITS);
            let boxed: Box<[AtomicU32]> = (0..cap).map(|_| AtomicU32::new(0)).collect();
            let fresh = Box::into_raw(boxed) as *mut AtomicU32;
            match self.chunks[level].compare_exchange(
                std::ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    REF_BYTES.fetch_add(cap * std::mem::size_of::<AtomicU32>(), Ordering::Relaxed);
                    chunk = fresh;
                }
                Err(winner) => {
                    // SAFETY: `fresh` was just allocated above and lost
                    // the race unpublished — reconstitute and drop.
                    drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(fresh, cap)) });
                    chunk = winner;
                }
            }
        }
        // SAFETY: in-bounds cell of a never-freed chunk.
        unsafe { &*chunk.add(offset) }
    }
}

fn refs() -> &'static RefLadder {
    static REFS: OnceLock<RefLadder> = OnceLock::new();
    REFS.get_or_init(RefLadder::new)
}

/// Reclamation bookkeeping: the free list of recycled ids, per-id
/// generation tags, and allocations unpublished last round whose drop
/// was deferred (grace period for racing lock-free readers).
struct Reclaimer {
    free: Vec<u32>,
    gens: FxHashMap<u32, u32>,
    deferred: Vec<(*mut Entry, *mut str)>,
}

// SAFETY: the raw pointers are owned allocations in transit between
// unpublish and drop; they are only touched under the mutex.
unsafe impl Send for Reclaimer {}

fn reclaimer() -> &'static Mutex<Reclaimer> {
    static RECLAIMER: OnceLock<Mutex<Reclaimer>> = OnceLock::new();
    RECLAIMER.get_or_init(|| {
        Mutex::new(Reclaimer {
            free: Vec::new(),
            gens: FxHashMap::default(),
            deferred: Vec::new(),
        })
    })
}

/// String → id map. Keys borrow the leaked `'static` storage. Read locks
/// serve intern *hits*; the write lock serves misses and doubles as the
/// store's single-writer append lock.
fn map() -> &'static RwLock<FxHashMap<&'static str, u32>> {
    static MAP: OnceLock<RwLock<FxHashMap<&'static str, u32>>> = OnceLock::new();
    MAP.get_or_init(|| RwLock::new(FxHashMap::default()))
}

/// Leak `s` and publish it, recycling a free-listed id when one is
/// available. Must be called with the map write lock held.
fn publish(map: &mut FxHashMap<&'static str, u32>, s: &str) -> u32 {
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    STRING_BYTES.fetch_add(leaked.len(), Ordering::Relaxed);
    LIVE_STRINGS.fetch_add(1, Ordering::Relaxed);
    let id = if FREE_HINT.load(Ordering::Relaxed) > 0 {
        let mut rec = reclaimer().lock().expect("pool reclaimer poisoned");
        match rec.free.pop() {
            Some(id) => {
                FREE_HINT.fetch_sub(1, Ordering::Relaxed);
                store().put(id, leaked);
                id
            }
            None => store().push(leaked),
        }
    } else {
        store().push(leaked)
    };
    map.insert(leaked, id);
    id
}

/// The process-global string interner (all methods are associated
/// functions; there is exactly one pool per process).
#[derive(Debug)]
pub struct ValuePool;

impl ValuePool {
    /// Intern a string, returning its canonical id. Allocates only on the
    /// first sighting of `s`; afterwards this is a shared-lock hash
    /// lookup. For whole records prefer [`ValuePool::intern_batch`],
    /// which pays the lock costs once per record instead of once per
    /// cell.
    #[must_use]
    pub fn intern(s: &str) -> ValueId {
        {
            let map = map().read().expect("value pool poisoned");
            if let Some(&id) = map.get(s) {
                obs::counter!("pool.intern.hits").incr();
                return ValueId(id);
            }
        }
        let mut map = map().write().expect("value pool poisoned");
        // Re-check: another thread may have interned `s` between locks.
        if let Some(&id) = map.get(s) {
            obs::counter!("pool.intern.hits").incr();
            return ValueId(id);
        }
        obs::counter!("pool.intern.misses").incr();
        let id = publish(&mut map, s);
        MAP_CAPACITY.store(map.capacity(), Ordering::Relaxed);
        ValueId(id)
    }

    /// Intern a [`Value`] (`Null` maps to [`ValueId::NULL`]).
    #[must_use]
    pub fn intern_value(v: &Value) -> ValueId {
        match v.as_str() {
            None => ValueId::NULL,
            Some(s) => ValuePool::intern(s),
        }
    }

    /// Intern a whole record of strings with **one** read-lock
    /// acquisition (plus one write-lock acquisition only if any field is
    /// a first sighting) — the CSV-ingest fast path.
    #[must_use]
    pub fn intern_batch<'a>(fields: impl IntoIterator<Item = &'a str>) -> Vec<ValueId> {
        let fields: Vec<Option<&str>> = fields.into_iter().map(Some).collect();
        ValuePool::intern_all(&fields)
    }

    /// Intern a whole record of [`Value`]s with one read-lock acquisition
    /// (`Null` cells map to [`ValueId::NULL`] without touching the pool).
    #[must_use]
    pub fn intern_value_batch(values: &[Value]) -> Vec<ValueId> {
        let fields: Vec<Option<&str>> = values.iter().map(Value::as_str).collect();
        ValuePool::intern_all(&fields)
    }

    /// Intern a record of nullable borrowed fields with one read-lock
    /// acquisition — the borrowed-ingest fast path. `None` fields are
    /// null cells and map to [`ValueId::NULL`] without touching the
    /// pool; `Some` fields are interned exactly as [`ValuePool::intern`]
    /// would, so no owned `Value` (or `String`) is ever required between
    /// the CSV buffer and the id columns.
    #[must_use]
    pub fn intern_opt_batch(fields: &[Option<&str>]) -> Vec<ValueId> {
        ValuePool::intern_all(fields)
    }

    /// Batch-intern core: one read pass for the hits, then (only if
    /// needed) one write pass for the misses. `None` fields are null
    /// cells.
    fn intern_all(fields: &[Option<&str>]) -> Vec<ValueId> {
        let mut out = vec![ValueId::NULL; fields.len()];
        let mut misses: Vec<usize> = Vec::new();
        let mut hits = 0u64;
        {
            let map = map().read().expect("value pool poisoned");
            for (i, field) in fields.iter().enumerate() {
                let Some(s) = field else { continue };
                match map.get(s) {
                    Some(&id) => {
                        out[i] = ValueId(id);
                        hits += 1;
                    }
                    None => misses.push(i),
                }
            }
        }
        let mut inserted = 0u64;
        if !misses.is_empty() {
            let mut map = map().write().expect("value pool poisoned");
            for i in misses {
                let s = fields[i].expect("only non-null fields miss");
                out[i] = match map.get(s) {
                    Some(&id) => {
                        hits += 1;
                        ValueId(id)
                    }
                    None => {
                        inserted += 1;
                        ValueId(publish(&mut map, s))
                    }
                };
            }
            MAP_CAPACITY.store(map.capacity(), Ordering::Relaxed);
        }
        // One add per record, not per cell — the batch entry points stay
        // two lock operations and two counter bumps per record.
        obs::counter!("pool.intern.hits").add(hits);
        obs::counter!("pool.intern.misses").add(inserted);
        out
    }

    /// The id of an already-interned string, without interning. `None`
    /// means no cell anywhere in the process ever held `s` — useful for
    /// lookups that must not grow the pool.
    #[must_use]
    pub fn lookup(s: &str) -> Option<ValueId> {
        let map = map().read().expect("value pool poisoned");
        map.get(s).map(|&id| ValueId(id))
    }

    /// Resolve a non-null id to its interned string.
    ///
    /// **Lock-free**: a relaxed watermark check plus two acquire pointer
    /// chases — no `RwLock` is touched, so resolution never blocks (and
    /// is never blocked by) concurrent interning.
    ///
    /// # Panics
    /// Panics on [`ValueId::NULL`] (nulls have no string), on an id not
    /// produced by this process's pool, or on an id whose string was
    /// [`ValuePool::reclaim`]ed and not yet reused (fail-stop staleness
    /// detection — the slot is nulled before the string is freed).
    #[must_use]
    pub fn resolve(id: ValueId) -> &'static str {
        assert!(!id.is_null(), "ValueId::NULL has no string");
        store().get(id.0).unwrap_or_else(|| {
            panic!(
                "ValueId({}) is not live in this process's pool (never interned, or reclaimed)",
                id.0
            )
        })
    }

    /// Number of distinct ids ever allocated (excludes the null
    /// placeholder; includes reclaimed ids awaiting reuse). Lock-free
    /// (watermark read). For the count of strings currently resolvable
    /// see [`ValuePool::live_strings`].
    #[must_use]
    pub fn len() -> usize {
        store().len.load(Ordering::Acquire) as usize - 1
    }

    /// Number of distinct strings currently published (interned and not
    /// reclaimed). Lock-free.
    #[must_use]
    pub fn live_strings() -> usize {
        LIVE_STRINGS.load(Ordering::Relaxed)
    }

    /// Cumulative `(strings, payload bytes)` reclaimed over the process
    /// lifetime. Lock-free.
    #[must_use]
    pub fn reclaimed() -> (usize, usize) {
        (
            RECLAIMED_STRINGS.load(Ordering::Relaxed),
            RECLAIMED_BYTES.load(Ordering::Relaxed),
        )
    }

    /// Bump the refcount of a non-null id by one. A single relaxed RMW
    /// on the refcount ladder — no locks, no interaction with
    /// intern/resolve. Refcounts are a *caller protocol*: only tables
    /// that opted into reclamation maintain them, and only
    /// [`ValuePool::reclaim`] acts on them (indirectly, via the caller's
    /// zero-candidate sweep).
    pub fn retain(id: ValueId) {
        if !id.is_null() {
            refs().cell(id.0).fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drop one reference from a non-null id. Returns `true` when this
    /// release took the count to zero — the caller's cue to record the
    /// id as a reclaim candidate (to be re-checked at the barrier; the
    /// value may be retained again before then).
    pub fn release(id: ValueId) -> bool {
        if id.is_null() {
            return false;
        }
        let prev = refs().cell(id.0).fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "ValueId({}) released below zero", id.0);
        prev == 1
    }

    /// The current refcount of an id (0 for null). Relaxed read — only
    /// meaningful at a quiescent barrier, which is exactly where the
    /// sweep consults it.
    #[must_use]
    pub fn refcount(id: ValueId) -> u32 {
        if id.is_null() {
            0
        } else {
            refs().cell(id.0).load(Ordering::Relaxed)
        }
    }

    /// Reclaim a set of ids the caller has proven unreferenced: each id
    /// still zero-refcounted has its string unpublished from the
    /// interning map, its store slot nulled (so a stale resolve panics
    /// instead of dangling), its id pushed onto the free list for
    /// recycling, and its generation tag bumped. The string and entry
    /// allocations are dropped at the *next* reclaim call — a one-round
    /// grace period for lock-free readers that raced the unpublish.
    ///
    /// Returns how many strings (and payload bytes) were actually
    /// reclaimed; ids that were re-retained since the caller recorded
    /// them, already reclaimed, or never interned are skipped.
    ///
    /// # Contract
    /// The caller must guarantee no other holder of these ids remains —
    /// the stream engines prove it with table-granular refcounts swept
    /// behind a compaction epoch barrier, protecting rule constants and
    /// live blocking keys explicitly. Reclaiming an id another engine
    /// still references leads to panics (or, for a reader racing two
    /// consecutive barriers, undefined behaviour) — which is why
    /// reclamation is opt-in per engine and the opting engine's value
    /// space must be disjoint from other pool users in the process.
    pub fn reclaim(ids: impl IntoIterator<Item = ValueId>) -> ReclaimStats {
        let mut map = map().write().expect("value pool poisoned");
        let mut rec = reclaimer().lock().expect("pool reclaimer poisoned");
        // The previous round's grace period is over: anything still
        // parked was unpublished a full barrier ago.
        for (entry, string) in rec.deferred.drain(..) {
            // SAFETY: both pointers are owned allocations unpublished at
            // the previous reclaim; by the caller contract no reader can
            // still hold them.
            unsafe {
                drop(Box::from_raw(entry));
                drop(Box::from_raw(string));
            }
        }
        let mut stats = ReclaimStats::default();
        for vid in ids {
            let id = vid.raw();
            if vid.is_null() || ValuePool::refcount(vid) != 0 {
                continue;
            }
            let entry = store().take(id);
            if entry.is_null() {
                continue; // never interned, or already reclaimed
            }
            // SAFETY: `entry` was just unpublished by this sole writer;
            // the pointed-to Entry stays valid until dropped from the
            // deferred list.
            let s: &'static str = unsafe { (*entry).0 };
            map.remove(s);
            stats.strings += 1;
            stats.bytes += s.len();
            rec.deferred
                .push((entry, std::ptr::from_ref::<str>(s).cast_mut()));
            rec.free.push(id);
            *rec.gens.entry(id).or_insert(0) += 1;
        }
        FREE_HINT.store(rec.free.len(), Ordering::Relaxed);
        MAP_CAPACITY.store(map.capacity(), Ordering::Relaxed);
        STRING_BYTES.fetch_sub(stats.bytes, Ordering::Relaxed);
        LIVE_STRINGS.fetch_sub(stats.strings, Ordering::Relaxed);
        RECLAIMED_STRINGS.fetch_add(stats.strings, Ordering::Relaxed);
        RECLAIMED_BYTES.fetch_add(stats.bytes, Ordering::Relaxed);
        obs::counter!("pool.reclaims").incr();
        obs::counter!("pool.reclaimed_strings").add(stats.strings as u64);
        obs::counter!("pool.reclaimed_bytes").add(stats.bytes as u64);
        stats
    }

    /// The generation tag of an id: how many times it has been reclaimed
    /// (0 for never-reclaimed ids). A holder that stashes
    /// `(id, generation)` at acquisition can assert the id still means
    /// the same string — the debug-build staleness check the reclaim
    /// protocol promises.
    #[must_use]
    pub fn generation(id: ValueId) -> u32 {
        let rec = reclaimer().lock().expect("pool reclaimer poisoned");
        rec.gens.get(&id.raw()).copied().unwrap_or(0)
    }

    /// Measure the pool's resident memory — the interned-string cost the
    /// table's own [`crate::MemFootprint`] deliberately excludes (ids are
    /// shared across all tables, so the pool is accounted once per
    /// process, not per replica).
    ///
    /// Counts every owned allocation: the chunk-ladder slot arrays, the
    /// published `Entry` cells, the live string bytes themselves, the
    /// refcount ladder, and the string → id map (its bucket array
    /// estimated from a mirrored capacity). **Lock-free** — every figure
    /// is an atomic read, so snapshotting never contends with interning.
    #[must_use]
    pub fn mem_footprint() -> PoolFootprint {
        let strings = LIVE_STRINGS.load(Ordering::Relaxed);
        let chunk_bytes = CHUNK_BYTES.load(Ordering::Relaxed);
        let entry_bytes = strings * std::mem::size_of::<Entry>();
        let string_bytes = STRING_BYTES.load(Ordering::Relaxed);
        let ref_bytes = REF_BYTES.load(Ordering::Relaxed);
        // Swiss-table layout: one (key, value) slot plus one control
        // byte per bucket of capacity.
        let map_bytes =
            MAP_CAPACITY.load(Ordering::Relaxed) * (std::mem::size_of::<(&'static str, u32)>() + 1);
        PoolFootprint {
            bytes: chunk_bytes + entry_bytes + string_bytes + map_bytes + ref_bytes,
            strings,
            chunk_bytes,
            entry_bytes,
            string_bytes,
            map_bytes,
            ref_bytes,
            reclaimed_strings: RECLAIMED_STRINGS.load(Ordering::Relaxed),
            reclaimed_bytes: RECLAIMED_BYTES.load(Ordering::Relaxed),
        }
    }
}

/// Resident-memory summary of the process-global [`ValuePool`] — see
/// [`ValuePool::mem_footprint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolFootprint {
    /// Total owned bytes (sum of the resident component fields).
    pub bytes: usize,
    /// Distinct strings currently published (live, not reclaimed).
    pub strings: usize,
    /// Allocated chunk-ladder slot arrays.
    pub chunk_bytes: usize,
    /// Published entry cells (one thin-pointer box per live string).
    pub entry_bytes: usize,
    /// The live string payloads themselves.
    pub string_bytes: usize,
    /// The string → id interning map (estimated from capacity).
    pub map_bytes: usize,
    /// The refcount ladder (allocated only when reclamation is in use).
    pub ref_bytes: usize,
    /// Cumulative strings reclaimed over the process lifetime.
    pub reclaimed_strings: usize,
    /// Cumulative string payload bytes reclaimed over the process
    /// lifetime.
    pub reclaimed_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_resolve_roundtrip() {
        let id = ValuePool::intern("Los Angeles");
        assert_eq!(id.as_str(), Some("Los Angeles"));
        assert_eq!(ValuePool::resolve(id), "Los Angeles");
        assert!(!id.is_null());
    }

    #[test]
    fn interning_deduplicates() {
        let a = ValuePool::intern("dedup-probe");
        let b = ValuePool::intern("dedup-probe");
        assert_eq!(a, b);
        let c = ValuePool::intern("dedup-probe-other");
        assert_ne!(a, c);
    }

    #[test]
    fn null_id_behaviour() {
        assert!(ValueId::NULL.is_null());
        assert_eq!(ValueId::NULL.as_str(), None);
        assert_eq!(ValueId::NULL.render(), "");
        assert_eq!(ValueId::NULL.value(), Value::Null);
        assert_eq!(ValueId::NULL.to_string(), "∅");
    }

    #[test]
    fn value_interning() {
        assert_eq!(ValuePool::intern_value(&Value::Null), ValueId::NULL);
        let id = ValuePool::intern_value(&Value::text("probe-value"));
        assert_eq!(id.value(), Value::text("probe-value"));
    }

    #[test]
    fn empty_string_is_not_null() {
        // Nullness is a cell property; an explicit empty text cell keeps
        // its identity through the pool.
        let id = ValuePool::intern("");
        assert!(!id.is_null());
        assert_eq!(id.as_str(), Some(""));
    }

    #[test]
    fn lookup_does_not_intern() {
        assert_eq!(ValuePool::lookup("never-ingested-probe-xyzzy"), None);
        let id = ValuePool::intern("looked-up-probe");
        assert_eq!(ValuePool::lookup("looked-up-probe"), Some(id));
    }

    #[test]
    fn display_resolves() {
        let id = ValuePool::intern("display-probe");
        assert_eq!(id.to_string(), "display-probe");
    }

    #[test]
    fn locate_maps_chunk_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        assert_eq!(locate(u32::MAX - 1), locate(u32::MAX - 1)); // no overflow
        let (level, _) = locate(u32::MAX - 1);
        assert!(level < CHUNK_COUNT);
    }

    #[test]
    fn resolution_survives_chunk_growth() {
        // Intern enough distinct strings to cross several chunk
        // boundaries, then verify every id still round-trips (chunk
        // addresses must be stable under growth).
        let ids: Vec<(ValueId, String)> = (0..500)
            .map(|i| {
                let s = format!("chunk-growth-probe-{i}");
                (ValuePool::intern(&s), s)
            })
            .collect();
        for (id, s) in &ids {
            assert_eq!(id.as_str(), Some(s.as_str()));
        }
    }

    #[test]
    fn intern_batch_matches_individual_interning() {
        let fields = ["batch-a", "batch-b", "batch-a", "batch-c"];
        let batch = ValuePool::intern_batch(fields);
        let individual: Vec<ValueId> = fields.iter().map(|s| ValuePool::intern(s)).collect();
        assert_eq!(batch, individual);
        assert_eq!(batch[0], batch[2], "duplicates within a record share ids");
    }

    #[test]
    fn mem_footprint_accounts_growth() {
        let before = ValuePool::mem_footprint();
        assert_eq!(
            before.bytes,
            before.chunk_bytes
                + before.entry_bytes
                + before.string_bytes
                + before.map_bytes
                + before.ref_bytes
        );
        let payload = "footprint-probe-with-a-reasonably-long-payload";
        let _ = ValuePool::intern(payload);
        let after = ValuePool::mem_footprint();
        assert_eq!(after.strings, before.strings + 1);
        assert!(after.string_bytes >= before.string_bytes + payload.len());
        assert!(after.bytes > before.bytes);
        assert!(after.chunk_bytes >= 64 * std::mem::size_of::<Slot>());
    }

    #[test]
    fn intern_value_batch_maps_nulls() {
        let values = vec![Value::text("vb-x"), Value::Null, Value::text("vb-y")];
        let ids = ValuePool::intern_value_batch(&values);
        assert_eq!(ids.len(), 3);
        assert!(!ids[0].is_null());
        assert!(ids[1].is_null());
        assert_eq!(ids[0], ValuePool::intern("vb-x"));
        assert_eq!(ids[2], ValuePool::intern("vb-y"));
    }

    #[test]
    fn retain_release_roundtrip() {
        let id = ValuePool::intern("refcount-probe");
        ValuePool::retain(id);
        ValuePool::retain(id);
        assert_eq!(ValuePool::refcount(id), 2);
        assert!(!ValuePool::release(id));
        assert!(ValuePool::release(id), "last release reports zero");
        assert_eq!(ValuePool::refcount(id), 0);
        // Null ids are inert on every refcount path.
        ValuePool::retain(ValueId::NULL);
        assert!(!ValuePool::release(ValueId::NULL));
        assert_eq!(ValuePool::refcount(ValueId::NULL), 0);
    }

    #[test]
    fn reclaim_frees_recycles_and_tags() {
        // Strings unique to this test: the reclaim contract demands the
        // caller's value space be disjoint from other pool users.
        let a = ValuePool::intern("rcl-pool-test-aaaa");
        let b = ValuePool::intern("rcl-pool-test-bbbb");
        ValuePool::retain(a);
        ValuePool::retain(b);
        let live_before = ValuePool::live_strings();
        let gen_before = ValuePool::generation(a);

        // A still-retained id must survive a reclaim attempt.
        let none = ValuePool::reclaim([a]);
        assert_eq!(none.strings, 0);
        assert_eq!(ValuePool::resolve(a), "rcl-pool-test-aaaa");

        ValuePool::release(a);
        ValuePool::release(b);
        let stats = ValuePool::reclaim([a, b]);
        assert_eq!(stats.strings, 2);
        assert_eq!(stats.bytes, "rcl-pool-test-aaaa".len() * 2);
        assert_eq!(ValuePool::live_strings(), live_before - 2);
        assert_eq!(ValuePool::generation(a), gen_before + 1);
        // The string is gone from the map and the slot is fail-stop.
        assert_eq!(ValuePool::lookup("rcl-pool-test-aaaa"), None);
        assert!(std::panic::catch_unwind(|| ValuePool::resolve(a)).is_err());
        // Double reclaim is a no-op.
        assert_eq!(ValuePool::reclaim([a]).strings, 0);

        // Re-interning recycles a freed id (watermark does not grow).
        let len_before = ValuePool::len();
        let a2 = ValuePool::intern("rcl-pool-test-cccc");
        assert_eq!(ValuePool::len(), len_before);
        assert!(a2 == a || a2 == b, "freed id recycled");
        assert_eq!(ValuePool::resolve(a2), "rcl-pool-test-cccc");
    }

    #[test]
    fn footprint_tracks_reclamation() {
        let s = "rcl-footprint-probe-string-payload";
        let id = ValuePool::intern(s);
        ValuePool::retain(id);
        ValuePool::release(id);
        let before = ValuePool::mem_footprint();
        let stats = ValuePool::reclaim([id]);
        assert_eq!(stats.strings, 1);
        let after = ValuePool::mem_footprint();
        assert_eq!(after.strings, before.strings - 1);
        assert_eq!(after.string_bytes, before.string_bytes - s.len());
        assert_eq!(after.reclaimed_strings, before.reclaimed_strings + 1);
        assert_eq!(after.reclaimed_bytes, before.reclaimed_bytes + s.len());
    }
}

/// What one [`ValuePool::reclaim`] call actually freed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimStats {
    /// Strings unpublished and queued for drop.
    pub strings: usize,
    /// Payload bytes those strings held.
    pub bytes: usize,
}
