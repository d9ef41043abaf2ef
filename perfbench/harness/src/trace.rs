//! In-memory span recorder for the traced run.
//!
//! The harness opens one span per call into a library layer, as a child
//! of the `driver.batch` span of the batch it serves; every span carries
//! that batch's id. Spans stay in a `Vec` until the run ends. With the
//! recorder off, [`Tracer::span`] is a plain call.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    batch: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    batch: u64,
}

impl Tracer {
    #[must_use]
    pub fn new(on: bool, base: Instant) -> Tracer {
        Tracer {
            on,
            base,
            spans: Vec::new(),
            open: Vec::new(),
            batch: 0,
        }
    }

    /// Nanoseconds since the tracer's base instant — the clock every
    /// span and every phase timestamp is read from.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span (no-op while off).
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            batch: self.batch,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span (no-op while off).
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx].end = self.now();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Open a `driver.batch` span for a new batch id; layer spans opened
    /// until the matching [`Tracer::exit`] are its children.
    pub fn begin_batch(&mut self, id: u64) {
        self.batch = id;
        self.enter("driver.batch");
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(c);
        }
        out
    }

    /// Share of the interval `[from, to)` covered by root spans, and
    /// whether every child lies inside its parent and carries its batch id.
    #[must_use]
    pub fn coverage(&self, from: u64, to: u64) -> (f64, bool) {
        let mut covered = 0u64;
        let mut nested = true;
        for s in &self.spans {
            match s.parent {
                None if s.start >= from && s.end <= to => covered += s.end - s.start,
                None => {}
                Some(p) => {
                    let parent = &self.spans[p];
                    nested &=
                        s.start >= parent.start && s.end <= parent.end && s.batch == parent.batch;
                }
            }
        }
        (covered as f64 / (to - from).max(1) as f64, nested)
    }
}
