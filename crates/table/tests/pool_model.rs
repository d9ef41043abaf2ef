//! `ValuePool` against a model, checked after every step.
//!
//! Each case runs a script of `intern`, `intern_batch`, `lookup`,
//! `resolve` and `reclaim` over a small alphabet, so reclaimed strings
//! are soon interned again. `reclaim` is handed random picks among every
//! id the pool has handed out, live or freed, and the null id. The model
//! is the live strings with their ids plus the freed ids not yet reused.
//! After every step the pool must agree with it:
//!
//! * a live string keeps its id: `lookup` finds it and `resolve` returns
//!   the string;
//! * a reclaimed string looks up `None`, and its id panics when resolved
//!   until a new string reuses it;
//! * a new string takes a freed id while any is free, so
//!   `ValuePool::len()` grows only when none is;
//! * `live_strings` and the footprint's string count and string bytes
//!   are the model's.
//!
//! The pool is process-global, and `reclaim` trusts its caller to be
//! the sole holder of the ids it frees, so this binary holds this one
//! test and nothing else in the process interns. Each case starts by
//! reclaiming every id handed out so far, so it begins with no live
//! string and every id on the free list.

use anmat_table::{ValueId, ValuePool};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, Once};

/// Short strings, the empty string and a multibyte one.
const ALPHABET: [&str; 8] = ["", "a", "b", "ab", "ba", "abc", "é", "phone-0123456789"];

/// Every id the pool has handed out in this process, across cases.
static SEEN: Mutex<BTreeSet<ValueId>> = Mutex::new(BTreeSet::new());

#[derive(Debug, Clone)]
enum Step {
    Intern(usize),
    InternBatch(Vec<usize>),
    Lookup(usize),
    /// Resolve a handed-out id, picked by position.
    Resolve(usize),
    /// Reclaim handed-out ids or the null id, picked by position.
    Reclaim(Vec<usize>),
}

fn step() -> impl Strategy<Value = Step> {
    let symbol = || 0..ALPHABET.len();
    prop_oneof![
        symbol().prop_map(Step::Intern),
        symbol().prop_map(Step::Intern),
        prop::collection::vec(symbol(), 1..6).prop_map(Step::InternBatch),
        symbol().prop_map(Step::Lookup),
        any::<usize>().prop_map(Step::Resolve),
        prop::collection::vec(any::<usize>(), 0..6).prop_map(Step::Reclaim),
    ]
}

/// Does resolving `id` panic? The stale-id panics this provokes are
/// kept off stderr by the hook `quiet_stale_resolves` installs.
fn resolve_panics(id: ValueId) -> bool {
    panic::catch_unwind(AssertUnwindSafe(|| ValuePool::resolve(id))).is_err()
}

/// Silence the panic message of a stale resolve; every other panic is
/// reported as usual.
fn quiet_stale_resolves() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let report = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let message = info.payload().downcast_ref::<String>();
            if !message.is_some_and(|m| m.contains("is not live in this process's pool")) {
                report(info);
            }
        }));
    });
}

/// The pool as it should be.
struct Model {
    /// Live ids and their strings.
    live: BTreeMap<ValueId, &'static str>,
    /// Freed ids not yet reused.
    free: BTreeSet<ValueId>,
    /// Every id handed out: `live`'s and `free`'s.
    seen: Vec<ValueId>,
}

impl Model {
    /// Start a case: reclaim every id handed out so far, so nothing is
    /// live and every id is free.
    fn start() -> Result<Model, String> {
        let seen = SEEN.lock().expect("seen ids").clone();
        let _ = ValuePool::reclaim(seen.iter().copied());
        prop_assert_eq!(ValuePool::live_strings(), 0, "strings outlived the reset");
        prop_assert_eq!(ValuePool::len(), seen.len(), "ids beyond those handed out");
        Ok(Model {
            live: BTreeMap::new(),
            free: seen.clone(),
            seen: seen.into_iter().collect(),
        })
    }

    fn id_of(&self, s: &str) -> Option<ValueId> {
        self.live.iter().find(|(_, &v)| v == s).map(|(&id, _)| id)
    }

    /// Check `ids`, which the pool gave for `strings` in one batch (or
    /// one intern), and record them. A new string must take a free id
    /// while any is left, and a new id only when none is, so `check`'s
    /// `ValuePool::len()` matches `seen`.
    fn interned(&mut self, strings: &[&'static str], ids: &[ValueId]) -> Result<(), String> {
        prop_assert_eq!(ids.len(), strings.len());
        for (&s, &id) in strings.iter().zip(ids) {
            if let Some(want) = self.id_of(s) {
                prop_assert_eq!(id, want, "{:?} changed its id", s);
                continue;
            }
            if self.free.is_empty() {
                prop_assert!(!self.seen.contains(&id), "{s:?} took {id:?}, not a new id");
                self.seen.push(id);
                SEEN.lock().expect("seen ids").insert(id);
            } else {
                prop_assert!(
                    self.free.remove(&id),
                    "{s:?} took {id:?}, not one of the free ids {:?}",
                    self.free
                );
            }
            self.live.insert(id, s);
        }
        Ok(())
    }

    /// Reclaim `ids` and check what the pool says it freed.
    fn reclaim(&mut self, ids: &[ValueId]) -> Result<(), String> {
        let freed: BTreeMap<ValueId, &str> = ids
            .iter()
            .filter_map(|id| self.live.get_key_value(id))
            .map(|(&id, &s)| (id, s))
            .collect();
        let stats = ValuePool::reclaim(ids.iter().copied());
        prop_assert_eq!(stats.strings, freed.len(), "strings freed by {:?}", ids);
        prop_assert_eq!(stats.bytes, freed.values().map(|s| s.len()).sum::<usize>());
        for id in freed.keys() {
            self.live.remove(id);
            self.free.insert(*id);
        }
        Ok(())
    }

    /// The pool agrees with the model.
    fn check(&self) -> Result<(), String> {
        for (&id, &s) in &self.live {
            prop_assert_eq!(ValuePool::lookup(s), Some(id), "{:?} lost its id", s);
            prop_assert_eq!(ValuePool::resolve(id), s, "{:?} resolves wrong", id);
        }
        for s in ALPHABET {
            if self.id_of(s).is_none() {
                prop_assert_eq!(ValuePool::lookup(s), None, "{:?} is not live", s);
            }
        }
        for &id in &self.free {
            prop_assert!(resolve_panics(id), "freed {id:?} still resolves");
        }
        prop_assert_eq!(ValuePool::len(), self.seen.len());
        prop_assert_eq!(ValuePool::live_strings(), self.live.len());
        let footprint = ValuePool::mem_footprint();
        prop_assert_eq!(footprint.strings, self.live.len());
        let bytes: usize = self.live.values().map(|s| s.len()).sum();
        prop_assert_eq!(footprint.string_bytes, bytes);
        Ok(())
    }
}

proptest! {
    #[test]
    fn pool_matches_its_model(steps in prop::collection::vec(step(), 1..48)) {
        quiet_stale_resolves();
        let mut model = Model::start()?;
        model.check()?;
        for step in &steps {
            match step {
                Step::Intern(i) => {
                    let s = ALPHABET[*i];
                    model.interned(&[s], &[ValuePool::intern(s)])?;
                }
                Step::InternBatch(symbols) => {
                    let strings: Vec<&'static str> = symbols.iter().map(|&i| ALPHABET[i]).collect();
                    let ids = ValuePool::intern_batch(strings.iter().copied());
                    model.interned(&strings, &ids)?;
                }
                Step::Lookup(i) => {
                    let s = ALPHABET[*i];
                    prop_assert_eq!(ValuePool::lookup(s), model.id_of(s));
                }
                Step::Resolve(pick) => {
                    if !model.seen.is_empty() {
                        let id = model.seen[pick % model.seen.len()];
                        match model.live.get(&id) {
                            Some(&s) => prop_assert_eq!(ValuePool::resolve(id), s),
                            None => prop_assert!(resolve_panics(id), "freed {id:?} resolves"),
                        }
                    }
                }
                Step::Reclaim(picks) => {
                    // Position 0 is the null id; the rest are the ids
                    // handed out.
                    let ids: Vec<ValueId> = picks
                        .iter()
                        .map(|pick| match pick % (model.seen.len() + 1) {
                            0 => ValueId::NULL,
                            at => model.seen[at - 1],
                        })
                        .collect();
                    model.reclaim(&ids)?;
                }
            }
            model.check()?;
        }
    }
}
