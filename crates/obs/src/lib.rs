//! Lock-free, process-global metrics and span tracing for the anmat
//! engine — counters, gauges, log₂-bucketed latency histograms, and RAII
//! span timers, all readable as one stable JSON snapshot.
//!
//! # Design
//!
//! The registry follows the same discipline as `anmat_table::ValuePool`:
//! a process-global store whose *hot path is wait-free* and whose locks
//! exist only on the cold registration path. Each metric is a leaked
//! `&'static` cell of atomics; recording is a handful of `Relaxed`
//! `fetch_add`s with no lock, no allocation, and no syscall. The only
//! `Mutex` guards the name → metric map, taken once per *call site*
//! (sites cache their `&'static` handle in a local `OnceLock` via the
//! [`counter!`], [`gauge!`], [`histogram!`], and [`span!`] macros) and
//! once per [`MetricsSnapshot::capture`].
//!
//! Everything is gated behind the global [`Recorder`]: when disabled
//! (the default), every record call is a single `Relaxed` load of a
//! static `AtomicBool` plus a branch — cheap enough to leave
//! instrumentation in release hot loops. Compiling with the `off`
//! feature turns [`enabled`] into a `const false`, folding every
//! instrumentation site away entirely.
//!
//! Metrics deliberately never feed back into the code they observe:
//! recording cannot fail, cannot block, and returns no value a caller
//! could branch on, so an instrumented run is bit-for-bit equivalent to
//! an uninstrumented one (the shard-equivalence suite asserts this).
//!
//! # Histograms
//!
//! [`Histogram`] buckets samples by bit length: bucket `0` holds the
//! value `0`, bucket `i ≥ 1` holds `[2^(i-1), 2^i - 1]`, and bucket `64`
//! tops out at `u64::MAX` — 65 buckets of `AtomicU64` covering the full
//! `u64` range with one `leading_zeros` and one `fetch_add` per sample.
//! Quantile readout ([`HistogramSnapshot::p50`] / `p90` / `p99`) is the
//! nearest-rank bucket upper bound, clamped to the exact tracked `max`.
//!
//! # Naming
//!
//! Metric names are dot-separated families: `pool.*`, `table.*`,
//! `index.*`, `engine.*`, `shard.*` (with per-shard instances like
//! `shard.3.queue_depth`), and `ledger.*`. A name maps to exactly one
//! metric kind; re-registering under a different kind panics.
//!
//! # Example
//!
//! ```
//! use anmat_obs as obs;
//!
//! obs::Recorder::enable();
//! obs::counter!("example.ops").add(3);
//! obs::gauge!("example.depth").set(7);
//! {
//!     let _span = obs::span!("example.phase_ns");
//!     // ... timed region ...
//! }
//! let snap = obs::MetricsSnapshot::capture();
//! assert_eq!(snap.counter("example.ops"), Some(3));
//! assert_eq!(snap.gauge("example.depth"), Some(7));
//! assert!(snap.to_json().contains("example.phase_ns"));
//! obs::Recorder::disable();
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of log₂ buckets in a [`Histogram`]: bucket `i` is the set of
/// `u64` values with bit length `i` (plus bucket `0` for zero itself).
pub const HISTOGRAM_BUCKETS: usize = 65;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is the recorder currently capturing? One `Relaxed` load + branch —
/// the entire cost of an instrumentation site while disabled.
#[cfg(not(feature = "off"))]
#[inline(always)]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// With the `off` feature the recorder is compiled out: `enabled()` is
/// `const false` and every instrumentation site folds to nothing.
#[cfg(feature = "off")]
#[inline(always)]
#[must_use]
pub const fn enabled() -> bool {
    false
}

/// The global on/off switch for metric capture.
///
/// Disabled by default. Flipping it affects the whole process; metric
/// cells and their registrations persist across disable/enable cycles
/// (values are monotone unless the process restarts).
pub struct Recorder;

impl Recorder {
    /// Start capturing metrics process-wide.
    pub fn enable() {
        ENABLED.store(true, Ordering::SeqCst);
    }

    /// Stop capturing. Registered metrics keep their accumulated values.
    pub fn disable() {
        ENABLED.store(false, Ordering::SeqCst);
    }

    /// Is capture currently on?
    #[must_use]
    pub fn is_enabled() -> bool {
        enabled()
    }
}

/// A monotonically increasing `u64` event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n` to the counter (no-op while the recorder is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins signed level (queue depths, byte totals, live
/// counts). Unlike [`Counter`], a gauge can move both ways.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Set the gauge (no-op while the recorder is disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Move the gauge up by `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Move the gauge down by `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        if enabled() {
            self.value.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Current level.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Which log₂ bucket a sample lands in: its bit length (`0` for `0`).
#[inline]
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Smallest value bucket `i` admits: `0`, then `2^(i-1)`.
#[inline]
#[must_use]
pub fn bucket_floor(i: usize) -> u64 {
    debug_assert!(i < HISTOGRAM_BUCKETS);
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Largest value bucket `i` admits: `0`, then `2^i - 1` (saturating at
/// `u64::MAX` for the top bucket).
#[inline]
#[must_use]
pub fn bucket_ceil(i: usize) -> u64 {
    debug_assert!(i < HISTOGRAM_BUCKETS);
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free log₂-bucketed `u64` distribution (latencies in
/// nanoseconds, sizes in bytes/rows). One `fetch_add` per bucket plus
/// count/sum/max updates per sample, all `Relaxed`.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample (no-op while the recorder is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Consistent-enough point-in-time copy (individual loads are
    /// `Relaxed`; concurrent writers may skew count vs buckets by the
    /// samples in flight).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Point-in-time copy of a [`Histogram`], with quantile readout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping at `u64::MAX`).
    pub sum: u64,
    /// Largest sample seen (exact, not bucketed).
    pub max: u64,
    /// Per-bucket sample counts, indexed by [`bucket_index`].
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile estimate for `q` in `[0, 1]`: the upper
    /// bound of the bucket holding the rank-`⌈q·count⌉` sample, clamped
    /// to the exact tracked max. Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_ceil(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile estimate.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile estimate.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean sample (0 for an empty histogram).
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// RAII span timer: records wall-clock nanoseconds into a histogram
/// when dropped. Construct via [`span!`] (or [`Span::start`]) and bind
/// it — `let _span = obs::span!("engine.apply_ns");`.
///
/// While the recorder is disabled the guard is inert: no clock read on
/// entry, no record on drop.
#[must_use = "a span records on drop; bind it with `let _span = ...`"]
pub struct Span {
    live: Option<(Instant, &'static Histogram)>,
}

impl Span {
    /// Start timing into `hist` (inert while the recorder is disabled).
    pub fn start(hist: &'static Histogram) -> Span {
        Span {
            live: enabled().then(|| (Instant::now(), hist)),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((start, hist)) = self.live.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            hist.record(ns);
        }
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

macro_rules! register {
    ($fn_name:ident, $ty:ident) => {
        /// Get or register the named metric. The returned handle is
        /// `'static`; cache it (see the site-caching macros) rather than
        /// re-resolving per record.
        ///
        /// # Panics
        /// If `name` is already registered as a different metric kind.
        #[must_use]
        pub fn $fn_name(name: &str) -> &'static $ty {
            let mut reg = registry()
                .lock()
                // A panic while holding the lock (e.g. a kind-mismatch
                // registration) never leaves the map mid-mutation, so the
                // poisoned state is safe to adopt.
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(existing) = reg.get(name) {
                match existing {
                    Metric::$ty(m) => return m,
                    _ => panic!("metric `{name}` already registered as a different kind"),
                }
            }
            let cell: &'static $ty = Box::leak(Box::new($ty::default()));
            reg.insert(name.to_string(), Metric::$ty(cell));
            cell
        }
    };
}

register!(counter, Counter);
register!(gauge, Gauge);
register!(histogram, Histogram);

/// Resolve a [`Counter`] once per call site and cache the `&'static`
/// handle in a site-local `OnceLock`.
///
/// The name must be a string literal: the cached handle belongs to the
/// call site, so a name chosen at runtime would keep ticking whichever
/// metric the site's first call resolved. Use [`counter()`] for
/// runtime names.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::counter($name))
    }};
}

/// Resolve a [`Gauge`] once per call site (see [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::gauge($name))
    }};
}

/// Resolve a [`Histogram`] once per call site (see [`counter!`]).
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::histogram($name))
    }};
}

/// Time a region into the named histogram: binds an RAII [`Span`] that
/// records elapsed nanoseconds on drop.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::Span::start($crate::histogram!($name))
    };
}

/// A stable, ordered snapshot of every registered metric.
///
/// Names are sorted; repeated captures of an idle registry are
/// byte-identical, and [`MetricsSnapshot::to_json`] emits keys in that
/// same order, so the JSON is diff-stable.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, count)` for every registered counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` for every registered gauge, name-sorted.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every registered histogram, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Capture the current value of every registered metric.
    #[must_use]
    pub fn capture() -> MetricsSnapshot {
        let reg = registry()
            .lock()
            // A panic while holding the lock (e.g. a kind-mismatch
            // registration) never leaves the map mid-mutation, so the
            // poisoned state is safe to adopt.
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in reg.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snap
    }

    /// Value of a named counter, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of a named gauge, if registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Snapshot of a named histogram, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Render as a stable, pretty-printed JSON object:
    ///
    /// ```json
    /// {
    ///   "counters": { "ledger.created": 12 },
    ///   "gauges": { "table.live": 4096 },
    ///   "histograms": {
    ///     "engine.apply_ns": {
    ///       "count": 3, "sum": 210, "max": 90,
    ///       "p50": 63, "p90": 90, "p99": 90,
    ///       "buckets": [[32, 1], [64, 2]]
    ///     }
    ///   }
    /// }
    /// ```
    ///
    /// `buckets` lists `[bucket_floor, samples]` pairs for non-empty
    /// buckets only. Keys are name-sorted; output is deterministic for
    /// a given registry state and parses back through any JSON reader.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            push_sep(&mut out, i, "    ");
            push_key(&mut out, name);
            out.push_str(&v.to_string());
        }
        push_close(&mut out, self.counters.is_empty(), "  ");
        out.push_str(",\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            push_sep(&mut out, i, "    ");
            push_key(&mut out, name);
            out.push_str(&v.to_string());
        }
        push_close(&mut out, self.gauges.is_empty(), "  ");
        out.push_str(",\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            push_sep(&mut out, i, "    ");
            push_key(&mut out, name);
            out.push_str(&format!(
                "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                h.count,
                h.sum,
                h.max,
                h.p50(),
                h.p90(),
                h.p99()
            ));
            let mut first = true;
            for (b, &n) in h.buckets.iter().enumerate() {
                if n > 0 {
                    if !first {
                        out.push_str(", ");
                    }
                    first = false;
                    out.push_str(&format!("[{}, {}]", bucket_floor(b), n));
                }
            }
            out.push_str("]}");
        }
        push_close(&mut out, self.histograms.is_empty(), "  ");
        out.push_str("\n}\n");
        out
    }
}

fn push_sep(out: &mut String, i: usize, indent: &str) {
    if i > 0 {
        out.push(',');
    }
    out.push('\n');
    out.push_str(indent);
}

fn push_key(out: &mut String, name: &str) {
    out.push('"');
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push_str("\": ");
}

fn push_close(out: &mut String, empty: bool, indent: &str) {
    if !empty {
        out.push('\n');
        out.push_str(indent);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Unit tests in this binary run in parallel but share the global
    /// recorder flag — tests that toggle it take this lock.
    fn recorder_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn bucket_boundaries_round_trip_u64_extremes() {
        // Every bucket's floor and ceiling land back in that bucket.
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_floor(i)), i, "floor of bucket {i}");
            assert_eq!(bucket_index(bucket_ceil(i)), i, "ceil of bucket {i}");
        }
        // Extremes and powers of two.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
        for k in 1..64 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), k + 1, "2^{k}");
            assert_eq!(bucket_index(v - 1), k, "2^{k} - 1");
            assert!(bucket_floor(bucket_index(v)) <= v);
            assert!(v <= bucket_ceil(bucket_index(v)));
        }
    }

    #[test]
    fn disabled_recorder_drops_samples() {
        let _guard = recorder_lock();
        Recorder::disable();
        let c = counter("test.disabled.count");
        let h = histogram("test.disabled.hist");
        c.add(5);
        h.record(100);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn quantiles_track_bucket_upper_bounds() {
        let _guard = recorder_lock();
        Recorder::enable();
        let h = histogram("test.quantiles");
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 1110);
        // Rank 3 of 6 → the sample `3` → bucket 2 (values 2..=3).
        assert_eq!(s.p50(), 3);
        // p99 → rank 6 → the sample 1000 → bucket ceil 1023, clamped to max.
        assert_eq!(s.p99(), 1000);
        assert_eq!(s.quantile(0.0), 1);
        Recorder::disable();
    }

    #[test]
    fn snapshot_json_is_stable_and_escaped() {
        let _guard = recorder_lock();
        Recorder::enable();
        counter("test.json.a").incr();
        gauge("test.json.b").set(-3);
        let one = MetricsSnapshot::capture();
        let two = MetricsSnapshot::capture();
        assert_eq!(one.to_json(), two.to_json());
        assert!(one.to_json().contains("\"test.json.a\": 1"));
        assert!(one.to_json().contains("\"test.json.b\": -3"));
        Recorder::disable();
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let _ = counter("test.kind.clash");
        let _ = gauge("test.kind.clash");
    }
}
