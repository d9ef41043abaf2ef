//! `ValuePool` concurrency smoke test — the contract every multi-threaded
//! pool user (parallel discovery, for one) leans on: many threads racing
//! `intern` / `intern_batch` / `resolve` on overlapping strings must
//! agree on one id per string, resolution must round-trip under
//! contention, and the lock-free resolve path must keep making progress
//! while writers hold the interning lock hot.

use anmat_table::{Value, ValueId, ValuePool};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

const THREADS: usize = 8;
const ROUNDS: usize = 400;
/// Shared vocabulary every thread interns — the overlap that forces the
/// first-sighting race.
const SHARED: usize = 48;

fn shared_string(i: usize) -> String {
    format!("pool-conc-shared-{i}")
}

#[test]
fn racing_interns_agree_on_stable_ids() {
    let per_thread: Vec<Vec<(String, ValueId)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut seen: Vec<(String, ValueId)> = Vec::new();
                    for round in 0..ROUNDS {
                        // Overlapping strings, different arrival order per
                        // thread, mixing the three intern entry points.
                        let i = (round + t * 7) % SHARED;
                        let s = shared_string(i);
                        let id = match round % 3 {
                            0 => ValuePool::intern(&s),
                            1 => ValuePool::intern_batch([s.as_str()])[0],
                            _ => ValuePool::intern_value_batch(&[Value::text(&s)])[0],
                        };
                        // Round-trip under contention: the freshly (or
                        // concurrently) interned id must already resolve.
                        assert_eq!(ValuePool::resolve(id), s, "resolve must round-trip");
                        seen.push((s, id));
                        // Private strings interleave, so the pool keeps
                        // growing while the shared ones are re-interned.
                        let private = format!("pool-conc-private-{t}-{round}");
                        let pid = ValuePool::intern(&private);
                        assert_eq!(pid.as_str(), Some(private.as_str()));
                    }
                    seen
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .collect()
    });

    // Ids are stable: every thread got the same id for the same string.
    let mut canonical: HashMap<String, ValueId> = HashMap::new();
    for seen in per_thread {
        for (s, id) in seen {
            let prev = canonical.insert(s.clone(), id);
            if let Some(prev) = prev {
                assert_eq!(prev, id, "id for {s:?} must be stable across threads");
            }
        }
    }
    assert_eq!(canonical.len(), SHARED);
}

#[test]
fn resolves_make_progress_while_interns_hammer_the_write_lock() {
    // A pinned id resolved in a tight loop while writer threads
    // continuously take the interning write lock with fresh strings.
    // `resolve` is lock-free, so the readers finish their fixed quota no
    // matter what the writers are doing — this is the "resolves never
    // block interns (and vice versa)" smoke check.
    let pinned = ValuePool::intern("pool-conc-pinned");
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        for w in 0..2 {
            let stop = &stop;
            scope.spawn(move || {
                let mut n = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    // Every iteration is a first sighting → write lock.
                    let s = format!("pool-conc-writer-{w}-{n}");
                    let id = ValuePool::intern(&s);
                    assert_eq!(ValuePool::resolve(id), s);
                    n += 1;
                }
            });
        }
        let readers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    for _ in 0..200_000 {
                        assert_eq!(ValuePool::resolve(pinned), "pool-conc-pinned");
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().expect("readers complete under write pressure");
        }
        stop.store(true, Ordering::Relaxed);
    });
    // The pool grew while readers resolved — interns were never blocked
    // by the resolve storm.
    assert!(ValuePool::lookup("pool-conc-writer-0-0").is_some());
}

#[test]
fn batch_interning_is_atomic_per_record_under_contention() {
    // Threads intern the same record through `intern_batch`; the ids per
    // position must agree everywhere, including duplicate cells.
    let record = [
        "batch-conc-a",
        "batch-conc-b",
        "batch-conc-a",
        "batch-conc-c",
    ];
    let all: Vec<Vec<ValueId>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| scope.spawn(move || ValuePool::intern_batch(record)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .collect()
    });
    for ids in &all {
        assert_eq!(ids, &all[0], "batch ids must agree across threads");
        assert_eq!(ids[0], ids[2], "duplicate cells share one id");
        assert_eq!(ids[0].as_str(), Some("batch-conc-a"));
    }
}
