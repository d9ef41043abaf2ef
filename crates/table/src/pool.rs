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
//! * The first time a string is interned, it is copied once into a
//!   *record*: one allocation laid out as `[id: u32][len: u32][bytes]`.
//!   The record is the string's only owner. The id's store slot and the
//!   string → id index hold the same thin pointer to it, and
//!   [`ValueId::as_str`] hands out `&'static str` borrowed from it. Every
//!   later sighting of the same string resolves to the same [`ValueId`]
//!   with a hash lookup and *zero* allocation.
//! * By default ids are never recycled and records are never freed: a
//!   `ValueId` obtained anywhere in the process stays valid (and
//!   resolvable) for the process lifetime. This is what lets
//!   [`ValueId::as_str`] hand out `&'static str` without borrowing the
//!   pool, and what makes `ValueId` `Send + Copy` — so ids cross
//!   threads (parallel discovery, for one) without cloning string
//!   tables.
//! * For long-running, high-cardinality streams the leak is no longer
//!   acceptable, so the pool supports **explicit reclamation**
//!   ([`ValuePool::reclaim`]): a caller that can prove a set of ids is
//!   unreferenced hands them back, their records leave the index and
//!   their slots, and the ids are recycled through a free list. The
//!   stream engine proves it with a mark at a compaction barrier: it
//!   hands back the ids its deletes and updates displaced, less every id
//!   a live cell or its rule state still holds (see `anmat_stream`).
//!   Resolving a freed-and-not-yet-reused id panics (fail-stop, never a
//!   dangle): the slot is nulled before the record is freed, and the
//!   free itself is deferred one reclaim round as a grace period for
//!   racing lock-free readers. A record is never written after it is
//!   published, so a recycled id gets a new record.
//!
//! Id `0` is reserved for the null cell ([`ValueId::NULL`]); real strings
//! get ids from 1 upward in first-sighting order (or from the free list
//! after reclamation). The empty string, when interned explicitly (e.g.
//! via `Value::text("")`), gets an ordinary non-null id — nullness is a
//! property of the *cell*, not of string content.
//!
//! # What a string costs
//!
//! A distinct string of `n` bytes costs one record of `8 + n` bytes, one
//! 8-byte store slot, and one index bucket: an 8-byte record pointer and
//! a control byte. Slots come in doubling chunks and buckets at the hash
//! set's load factor, so each is partly empty. Interning 100,000
//! distinct 10-byte strings requests about 40 bytes of heap per string
//! (`tests/pool_heap.rs` bounds it at 48). The allocator rounds each
//! record up to its own chunk size, 32 bytes for records of up to 24
//! bytes on glibc.
//!
//! # Concurrency: lock-free resolution
//!
//! The pool is split into two halves with different synchronization:
//!
//! * **id → string** is an append-only *chunked store*: a fixed ladder of
//!   doubling-capacity chunks (64, 128, 256, … slots) whose addresses
//!   never change once allocated, plus an atomic length watermark.
//!   [`ValuePool::resolve`] is therefore **lock-free**: a relaxed
//!   watermark bounds check, an acquire load of the chunk, and one
//!   pointer chase from the slot to the record, whose header holds the
//!   length and whose bytes follow it. The acquire loads pair with the
//!   publishing release stores. Resolution never blocks and is never
//!   blocked — not by other resolvers, and not by concurrent interning,
//!   so threads render strings without contending on the pool.
//! * **string → id** (interning) keeps an `RwLock`ed hash set of the
//!   records themselves, hashed and compared as their strings, so a
//!   lookup by `&str` finds the record and reads the id from its header.
//!   Lookups of already-interned strings take the shared read lock; only
//!   a genuine *miss* — the first sighting of a string — takes the write
//!   lock to allocate and publish. [`ValuePool::intern_batch`] amortizes
//!   further: a whole record is looked up under one read-lock
//!   acquisition, and whatever missed is interned under one write-lock
//!   acquisition — the CSV ingest path pays two lock operations per
//!   *record*, not two per cell.
//!
//! Publishing protocol (single writer at a time — the index write lock
//! doubles as the store's append lock): write the record pointer into its
//! slot with `Release`, then advance the watermark with `Release`.
//! Readers load the slot with `Acquire`; a non-null pointer therefore
//! carries a happens-before edge to the record's contents. A legitimate
//! id always finds a non-null slot, because the id itself can only have
//! reached the resolving thread through the intern that published it (or
//! a synchronizing handoff downstream of it) — unless the id was
//! reclaimed, in which case the slot is null again and resolve panics.

use crate::value::Value;
use anmat_obs as obs;
use fxhash::FxHashSet;
use std::alloc::{self, Layout};
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

/// Bytes of *live* string storage (added at publish, subtracted at
/// reclaim). Maintained unconditionally — [`ValuePool::mem_footprint`]
/// must be exact whether or not the metrics recorder is on.
static STRING_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Bytes of allocated chunk-ladder slot arrays.
static CHUNK_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Distinct strings currently published (excludes the null placeholder;
/// published − reclaimed).
static LIVE_STRINGS: AtomicUsize = AtomicUsize::new(0);
/// Cumulative count of strings reclaimed over the process lifetime.
static RECLAIMED_STRINGS: AtomicUsize = AtomicUsize::new(0);
/// Cumulative bytes of string payload reclaimed over the process
/// lifetime.
static RECLAIMED_BYTES: AtomicUsize = AtomicUsize::new(0);
/// The interning index's capacity, mirrored out of the `RwLock` so
/// [`ValuePool::mem_footprint`] never takes the lock. A high-water mark,
/// raised by every path that inserts: `HashSet::remove` lowers
/// `capacity()` without freeing a bucket, and nothing shrinks the set,
/// so the largest capacity seen is what the set still holds.
static INDEX_CAPACITY: AtomicUsize = AtomicUsize::new(0);
/// Lock-free hint: number of ids parked on the free list (so intern
/// misses skip the reclaimer mutex entirely until a reclaim happens).
static FREE_HINT: AtomicUsize = AtomicUsize::new(0);
/// Bytes the reclaimer holds: the records parked for their deferred free
/// and the capacity of its two lists. Stored by each reclaim while it
/// holds the reclaimer lock (a publish's `pop` moves neither), so
/// [`ValuePool::mem_footprint`] reads it without the lock.
static RECLAIMER_BYTES: AtomicUsize = AtomicUsize::new(0);

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

/// Bytes of a record's header: its id, then its string's length, each a
/// native-endian `u32`.
const HEADER: usize = 8;

/// One interned string in one allocation, `[id: u32][len: u32][bytes]`,
/// behind a thin pointer (a `&str` is a fat pointer and cannot be stored
/// atomically). The id's store slot and the interning index both hold
/// the pointer. In the index it hashes and compares as its string, so a
/// lookup by `&str` finds it and reads the id from its header.
///
/// Holding a `Record` claims that its allocation is live, which is why
/// `id` and `as_str` are safe: this module makes one only in
/// `Record::new` or from a slot a publish filled, and calls `free` only
/// after every copy has left the index, the store and the readers'
/// grace period.
#[derive(Clone, Copy)]
struct Record(NonNull<u8>);

// SAFETY: a record is immutable once published, and it is freed only
// under the interning write lock, a full reclaim round after its key
// left the index and its slot was nulled. A thread that reaches a record
// through the index (under the lock), through a published slot, or
// through the reclaimer's deferred list (under its mutex) therefore
// reads initialized bytes that no thread writes or frees meanwhile.
unsafe impl Send for Record {}
// SAFETY: as for `Send` — shared access only ever reads.
unsafe impl Sync for Record {}

impl Record {
    /// The allocation layout of a record holding `len` string bytes.
    fn layout(len: usize) -> Layout {
        Layout::from_size_align(HEADER + len, std::mem::align_of::<u32>())
            .expect("a string's record fits the address space")
    }

    /// Copy `s` into a new record under `id`.
    fn new(id: u32, s: &str) -> Record {
        let len = u32::try_from(s.len()).expect("an interned string is under 4 GiB");
        let layout = Record::layout(s.len());
        // SAFETY: `layout` has a non-zero size: the header alone is 8
        // bytes.
        let ptr = unsafe { alloc::alloc(layout) };
        let Some(ptr) = NonNull::new(ptr) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: the fresh allocation is `HEADER + s.len()` bytes,
        // aligned for `u32`, so both header words and the string bytes
        // are in bounds and aligned, and it overlaps nothing of `s`.
        unsafe {
            ptr.as_ptr().cast::<u32>().write(id);
            ptr.as_ptr().add(4).cast::<u32>().write(len);
            std::ptr::copy_nonoverlapping(s.as_ptr(), ptr.as_ptr().add(HEADER), s.len());
        }
        Record(ptr)
    }

    /// The id in the record's header.
    fn id(self) -> u32 {
        // SAFETY: the record is live (see the `Send` impl), and
        // `Record::new` wrote its first word before anyone saw it.
        unsafe { self.0.as_ptr().cast::<u32>().read() }
    }

    /// The record's string. `'static` is the pool's promise (module
    /// docs): under [`ValuePool::reclaim`]'s contract no reader holds a
    /// record's string past its free.
    fn as_str(self) -> &'static str {
        // SAFETY: the record is live (see the `Send` impl). Its second
        // header word is the length `Record::new` wrote, and that many
        // bytes after the header are a copy of a `&str`, so valid UTF-8.
        unsafe {
            let len = self.0.as_ptr().add(4).cast::<u32>().read() as usize;
            let bytes = std::slice::from_raw_parts(self.0.as_ptr().add(HEADER), len);
            std::str::from_utf8_unchecked(bytes)
        }
    }

    /// Free the record.
    ///
    /// # Safety
    /// No thread may read the record again: its key left the index and
    /// its slot was nulled a full reclaim round ago.
    unsafe fn free(self) {
        let layout = Record::layout(self.as_str().len());
        // SAFETY: `Record::new` allocated the record with this layout
        // (same length), and the caller guarantees no reader remains.
        unsafe { alloc::dealloc(self.0.as_ptr(), layout) };
    }
}

impl Borrow<str> for Record {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

/// Hashes as its string, as `Borrow<str>` requires.
impl Hash for Record {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq for Record {
    fn eq(&self, other: &Record) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Record {}

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

/// A store slot: a published record's pointer, or null.
type Slot = AtomicPtr<u8>;

/// The append-only id → string store. Chunk addresses never change once
/// allocated, so readers need no lock — only acquire loads pairing with
/// the writer's release stores. Records are freed only through
/// [`ValuePool::reclaim`]'s deferred-free protocol.
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

    /// The id at the watermark, which the next publish takes unless a
    /// freed id is waiting.
    fn next_id(&self) -> u32 {
        let id = self.len.load(Ordering::Relaxed);
        assert!(id < u32::MAX, "value pool exhausted u32 ids");
        id
    }

    /// Publish `record` in its id's slot: a recycled id below the
    /// watermark (its slot null), or the watermark itself, which then
    /// advances. Must only be called while holding the interning write
    /// lock (single writer), which makes the plain read-modify-write of
    /// `len` and the chunk allocation race-free.
    fn publish(&self, record: Record) {
        let id = record.id();
        let (level, offset) = locate(id);
        let chunk = self.chunk(level);
        // SAFETY: `offset` < the chunk's capacity by construction of
        // `locate`, and the chunk allocation above (or by an earlier
        // publish) is visible to this sole writer.
        unsafe { (*chunk.add(offset)).store(record.0.as_ptr(), Ordering::Release) };
        if id == self.len.load(Ordering::Relaxed) {
            self.len.store(id + 1, Ordering::Release);
        }
    }

    /// Unpublish a slot: swap it to null and return the record it held
    /// (`None` if the slot was never published or already reclaimed).
    /// Must only be called while holding the interning write lock.
    /// Racing lock-free readers that loaded the old pointer first are
    /// the reason the caller defers the free.
    fn take(&self, id: u32) -> Option<Record> {
        if id == 0 || id >= self.len.load(Ordering::Relaxed) {
            return None;
        }
        let (level, offset) = locate(id);
        let chunk = self.chunks[level].load(Ordering::Acquire);
        if chunk.is_null() {
            return None;
        }
        // SAFETY: in-bounds slot of a live chunk (see `get`).
        let record = unsafe { (*chunk.add(offset)).swap(std::ptr::null_mut(), Ordering::AcqRel) };
        NonNull::new(record).map(Record)
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
        let record = unsafe { (*chunk.add(offset)).load(Ordering::Acquire) };
        // A non-null pointer was acquire-loaded, pairing with the
        // release store that published the fully written record; a
        // reclaimed record is freed one full reclaim round after its
        // slot was nulled (and only for ids the caller proved
        // unreferenced), so the record read here is live.
        NonNull::new(record).map(|record| Record(record).as_str())
    }
}

fn store() -> &'static Store {
    static STORE: OnceLock<Store> = OnceLock::new();
    STORE.get_or_init(Store::new)
}

/// Reclamation bookkeeping: the free list of recycled ids and the
/// records unpublished last round whose free was deferred (grace period
/// for racing lock-free readers).
struct Reclaimer {
    free: Vec<u32>,
    deferred: Vec<Record>,
}

fn reclaimer() -> &'static Mutex<Reclaimer> {
    static RECLAIMER: OnceLock<Mutex<Reclaimer>> = OnceLock::new();
    RECLAIMER.get_or_init(|| {
        Mutex::new(Reclaimer {
            free: Vec::new(),
            deferred: Vec::new(),
        })
    })
}

/// The string → id index: the published records, keyed by their
/// strings. Read locks serve intern *hits*; the write lock serves misses
/// and doubles as the store's single-writer append lock.
fn index() -> &'static RwLock<FxHashSet<Record>> {
    static INDEX: OnceLock<RwLock<FxHashSet<Record>>> = OnceLock::new();
    INDEX.get_or_init(|| RwLock::new(FxHashSet::default()))
}

/// Copy `s` into a record and publish it, recycling a free-listed id
/// when one is available. Must be called with the index write lock
/// held.
fn publish(index: &mut FxHashSet<Record>, s: &str) -> u32 {
    let recycled = if FREE_HINT.load(Ordering::Relaxed) > 0 {
        let mut rec = reclaimer().lock().expect("pool reclaimer poisoned");
        let id = rec.free.pop();
        FREE_HINT.store(rec.free.len(), Ordering::Relaxed);
        id
    } else {
        None
    };
    let id = recycled.unwrap_or_else(|| store().next_id());
    let record = Record::new(id, s);
    store().publish(record);
    index.insert(record);
    STRING_BYTES.fetch_add(s.len(), Ordering::Relaxed);
    LIVE_STRINGS.fetch_add(1, Ordering::Relaxed);
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
            let index = index().read().expect("value pool poisoned");
            if let Some(record) = index.get(s) {
                obs::counter!("pool.intern.hits").incr();
                return ValueId(record.id());
            }
        }
        let mut index = index().write().expect("value pool poisoned");
        // Re-check: another thread may have interned `s` between locks.
        if let Some(record) = index.get(s) {
            obs::counter!("pool.intern.hits").incr();
            return ValueId(record.id());
        }
        obs::counter!("pool.intern.misses").incr();
        let id = publish(&mut index, s);
        INDEX_CAPACITY.fetch_max(index.capacity(), Ordering::Relaxed);
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
            let index = index().read().expect("value pool poisoned");
            for (i, field) in fields.iter().enumerate() {
                let Some(s) = field else { continue };
                match index.get(*s) {
                    Some(record) => {
                        out[i] = ValueId(record.id());
                        hits += 1;
                    }
                    None => misses.push(i),
                }
            }
        }
        let mut inserted = 0u64;
        if !misses.is_empty() {
            let mut index = index().write().expect("value pool poisoned");
            for i in misses {
                let s = fields[i].expect("only non-null fields miss");
                out[i] = match index.get(s) {
                    Some(record) => {
                        hits += 1;
                        ValueId(record.id())
                    }
                    None => {
                        inserted += 1;
                        ValueId(publish(&mut index, s))
                    }
                };
            }
            INDEX_CAPACITY.fetch_max(index.capacity(), Ordering::Relaxed);
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
        let index = index().read().expect("value pool poisoned");
        index.get(s).map(|record| ValueId(record.id()))
    }

    /// Resolve a non-null id to its interned string.
    ///
    /// **Lock-free**: a relaxed watermark check, then acquire loads of
    /// the id's chunk and slot, and one pointer chase to the record that
    /// holds the string — no `RwLock` is touched, so resolution never
    /// blocks (and is never blocked by) concurrent interning.
    ///
    /// # Panics
    /// Panics on [`ValueId::NULL`] (nulls have no string), on an id not
    /// produced by this process's pool, or on an id whose string was
    /// [`ValuePool::reclaim`]ed and not yet reused (fail-stop staleness
    /// detection — the slot is nulled before the record is freed).
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

    /// Reclaim a set of ids the caller has proven unreferenced: each
    /// id's record leaves the interning index, its store slot is nulled
    /// (so a stale resolve panics instead of dangling), and the id is
    /// pushed onto the free list for recycling. The records are freed at
    /// the *next* reclaim call — a one-round grace period for lock-free
    /// readers that raced the unpublish.
    ///
    /// Returns how many strings (and payload bytes) were reclaimed. Every
    /// id given is freed, except null ids, ids already reclaimed and ids
    /// never interned.
    ///
    /// # Contract
    /// The caller must be the sole holder of these ids. The stream engine
    /// proves it for its own state with a mark over its live cells and
    /// rule state at a compaction barrier; nothing enforces it for other
    /// pool users, and reclaiming an id another table still references
    /// leads to panics (or, for a reader racing two consecutive barriers,
    /// undefined behaviour). Hence reclamation is opt-in per engine, and
    /// the opting engine's value space must be disjoint from other pool
    /// users in the process. A pool owned by the engine would enforce the
    /// contract; it waits until the benchmark harness stops loading ids
    /// from the global pool.
    pub fn reclaim(ids: impl IntoIterator<Item = ValueId>) -> ReclaimStats {
        let mut index = index().write().expect("value pool poisoned");
        let mut rec = reclaimer().lock().expect("pool reclaimer poisoned");
        // The previous round's grace period is over: anything still
        // parked was unpublished a full barrier ago.
        for record in rec.deferred.drain(..) {
            // SAFETY: the record left the index and its slot at the
            // previous reclaim; by the caller contract no reader can
            // still hold it.
            unsafe { record.free() };
        }
        let mut stats = ReclaimStats::default();
        for vid in ids {
            let Some(record) = store().take(vid.raw()) else {
                continue; // null, never interned, or already reclaimed
            };
            let s = record.as_str();
            index.remove(s);
            stats.strings += 1;
            stats.bytes += s.len();
            rec.deferred.push(record);
            rec.free.push(vid.raw());
        }
        // Neither list keeps room it no longer needs: the drain above may
        // have emptied the deferred one, and interning pops the free one.
        rec.free.shrink_to_fit();
        rec.deferred.shrink_to_fit();
        FREE_HINT.store(rec.free.len(), Ordering::Relaxed);
        // The parked records are exactly this round's: the drain above
        // emptied the list.
        RECLAIMER_BYTES.store(
            stats.strings * HEADER
                + stats.bytes
                + rec.free.capacity() * std::mem::size_of::<u32>()
                + rec.deferred.capacity() * std::mem::size_of::<Record>(),
            Ordering::Relaxed,
        );
        STRING_BYTES.fetch_sub(stats.bytes, Ordering::Relaxed);
        LIVE_STRINGS.fetch_sub(stats.strings, Ordering::Relaxed);
        RECLAIMED_STRINGS.fetch_add(stats.strings, Ordering::Relaxed);
        RECLAIMED_BYTES.fetch_add(stats.bytes, Ordering::Relaxed);
        obs::counter!("pool.reclaims").incr();
        obs::counter!("pool.reclaimed_strings").add(stats.strings as u64);
        obs::counter!("pool.reclaimed_bytes").add(stats.bytes as u64);
        stats
    }

    /// Measure the pool's resident memory — the interned-string cost the
    /// table's own [`crate::MemFootprint`] deliberately excludes (ids are
    /// shared across all tables, so the pool is accounted once per
    /// process, not per table).
    ///
    /// Counts every owned allocation: the chunk-ladder slot arrays, the
    /// published records (headers and string bytes), the interning index
    /// (its bucket array estimated from the largest capacity it has had),
    /// and what reclamation holds (the records parked for their deferred
    /// free and the reclaimer's two lists).
    /// **Lock-free** — every figure is an atomic read, so snapshotting
    /// never contends with interning.
    #[must_use]
    pub fn mem_footprint() -> PoolFootprint {
        let strings = LIVE_STRINGS.load(Ordering::Relaxed);
        let chunk_bytes = CHUNK_BYTES.load(Ordering::Relaxed);
        let entry_bytes = strings * HEADER;
        let string_bytes = STRING_BYTES.load(Ordering::Relaxed);
        // Swiss-table layout: one record pointer plus one control byte
        // per bucket of capacity.
        let map_bytes =
            INDEX_CAPACITY.load(Ordering::Relaxed) * (std::mem::size_of::<Record>() + 1);
        let reclaimer_bytes = RECLAIMER_BYTES.load(Ordering::Relaxed);
        PoolFootprint {
            bytes: chunk_bytes + entry_bytes + string_bytes + map_bytes + reclaimer_bytes,
            strings,
            chunk_bytes,
            entry_bytes,
            string_bytes,
            map_bytes,
            reclaimer_bytes,
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
    /// Allocated chunk-ladder slot arrays (8 bytes per slot).
    pub chunk_bytes: usize,
    /// The live records' headers: 8 bytes per string (its id and its
    /// length).
    pub entry_bytes: usize,
    /// The live string payloads themselves, which follow each record's
    /// header in the same allocation.
    pub string_bytes: usize,
    /// The string → id interning index: 9 bytes per bucket (a record
    /// pointer and a control byte) at the largest capacity it has had,
    /// since reclaiming frees no bucket.
    pub map_bytes: usize,
    /// What reclamation holds: the records the last reclaim parked for
    /// their deferred free (headers and string bytes), and the
    /// reclaimer's free-id list (4 bytes an id) and deferred list (8
    /// bytes a record), each shrunk to its length by every reclaim. Zero
    /// until the first reclaim.
    pub reclaimer_bytes: usize,
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
    fn intern_value_batch_maps_nulls() {
        let values = vec![Value::text("vb-x"), Value::Null, Value::text("vb-y")];
        let ids = ValuePool::intern_value_batch(&values);
        assert_eq!(ids.len(), 3);
        assert!(!ids[0].is_null());
        assert!(ids[1].is_null());
        assert_eq!(ids[0], ValuePool::intern("vb-x"));
        assert_eq!(ids[2], ValuePool::intern("vb-y"));
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
