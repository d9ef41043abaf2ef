//! The measured process: set-up, a closed-loop phase, a paced phase,
//! then an untimed correctness gate.
//!
//! Set-up reads the input files (the op-log excepted: the timed phases
//! read it a batch at a time), parses the base CSV, loads the rules
//! (discovers them, on `audit`), builds the engine and bulk-loads the
//! base rows; `setup_s` runs from process start to the first timed op.
//! The closed-loop phase applies a fixed op range in fixed-size batches
//! back to back (`ops_per_s`). The paced phase (`lag_p50_ms`,
//! `lag_p99_ms`, per layer) offers the next ops on a
//! due-time schedule `t0 + i/rate` from one thread, spinning while idle so
//! sleep jitter never reads as lag; each step takes every due op up to a
//! cap, and an op's lag is the time its engine call returned minus its
//! due time. Marks (compaction, snapshot readers) always fall on batch
//! boundaries.

use crate::gen::AUDIT_DATASETS;
use crate::host::{self, Noise};
use crate::trace::Tracer;
use crate::{Spec, Workload};
use anmat_core::{detect_all, discover, report, DiscoveryConfig, Pfd, Violation};
use anmat_obs::{self as obs, MetricsSnapshot};
use anmat_stream::{
    EngineSnapshot, LedgerEvent, ShardBy, ShardedEngine, StreamConfig, StreamEngine,
    ViolationLedger,
};
use anmat_table::{csv, RowId, RowOp, Schema, Table, TableError, Value, ValueId, ValuePool};
use std::collections::{BTreeMap, HashSet};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What one measured process is asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    /// The sizes the inputs were generated with.
    pub spec: Spec,
    pub inputs: PathBuf,
    pub seconds: u32,
    pub trace: bool,
    /// Stop after set-up and report only `setup_s`.
    pub setup_only: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The measured process's result.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics untraced, per-layer metrics traced.
    pub metrics: Vec<Metric>,
    /// Run facts printed beside the metrics (noise, sample counts).
    pub info: Vec<Metric>,
    /// Why the run failed, if it did.
    pub error: Option<String>,
}

impl Outcome {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The outcome once set-up is done: `setup_s` from process start.
    fn after_setup(started: Instant) -> Outcome {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        out.push("setup_s", started.elapsed().as_secs_f64(), "s");
        out
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.info)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// One JSON line: the contract's keys plus `info` and `error`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let render = |ms: &[Metric]| {
            ms.iter()
                .map(|m| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name,
                        json_number(m.value),
                        m.unit
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        let error = match &self.error {
            Some(e) => serde_json::to_string(e).expect("string serializes"),
            None => "null".to_string(),
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \
             \"info\": {{{}}}, \"error\": {error}}}",
            self.correct,
            self.attempted,
            self.failed,
            render(&self.metrics),
            render(&self.info)
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Run one measured process. `started` is taken first thing in `main`.
#[must_use]
pub fn run(args: &Args, started: Instant) -> Outcome {
    let result = match args.workload {
        Workload::Audit => run_audit(args, started),
        _ => run_stream(args, started),
    };
    result.unwrap_or_else(|(attempted, e)| Outcome {
        correct: false,
        attempted: attempted.max(1),
        failed: attempted.max(1),
        error: Some(e),
        ..Outcome::default()
    })
}

/// A failure: the ops the run attempted and why it failed.
type Failure = (u64, String);

fn read(dir: &Path, name: &str) -> Result<String, Failure> {
    std::fs::read_to_string(dir.join(name)).map_err(|e| (0, format!("reading {name}: {e}")))
}

/// A set-up failure: no op was attempted yet.
fn setup_err(e: impl ToString) -> Failure {
    (0, e.to_string())
}

// ── stream workloads ────────────────────────────────────────────────

/// The two engines behind `anmat stream`, as the CLI drives them.
enum Engine {
    Single(StreamEngine),
    Sharded(ShardedEngine),
}

impl Engine {
    fn new(workload: Workload, schema: Schema, rules: Vec<Pfd>) -> Engine {
        match workload {
            Workload::AppendX2 => Engine::Sharded(ShardedEngine::with_config(
                schema,
                rules,
                StreamConfig {
                    shards: 2,
                    shard_by: ShardBy::Key,
                    run_ahead: 0,
                    ..StreamConfig::default()
                },
            )),
            _ => Engine::Single(StreamEngine::with_config(
                schema,
                rules,
                StreamConfig {
                    reclaim: workload == Workload::Churn,
                    ..StreamConfig::default()
                },
            )),
        }
    }

    fn apply_span(&self) -> &'static str {
        match self {
            Engine::Single(_) => "engine.apply",
            Engine::Sharded(_) => "engine.submit",
        }
    }

    fn load(&mut self, rows: Vec<Vec<ValueId>>) -> Result<Vec<LedgerEvent>, TableError> {
        match self {
            Engine::Single(e) => e.push_id_batch(rows),
            Engine::Sharded(e) => e.push_id_batch(rows),
        }
    }

    fn apply(&mut self, ops: Vec<RowOp>) -> Result<Vec<LedgerEvent>, TableError> {
        match self {
            Engine::Single(e) => e.apply(ops),
            Engine::Sharded(e) => Ok(e.submit(ops)?.into_iter().flat_map(|b| b.events).collect()),
        }
    }

    fn flush(&mut self) -> Vec<LedgerEvent> {
        match self {
            Engine::Single(_) => Vec::new(),
            Engine::Sharded(e) => e.flush().into_iter().flat_map(|b| b.events).collect(),
        }
    }

    fn compact(&mut self) {
        match self {
            Engine::Single(e) => drop(e.compact()),
            Engine::Sharded(e) => drop(e.compact()),
        }
    }

    fn snapshot(&mut self) -> EngineSnapshot {
        match self {
            Engine::Single(e) => e.snapshot(),
            Engine::Sharded(e) => e.snapshot(),
        }
    }

    fn drift_rules(&self) -> usize {
        match self {
            Engine::Single(e) => e.drift_report().len(),
            Engine::Sharded(e) => e.drift_report().len(),
        }
    }

    fn ledger(&self) -> &ViolationLedger {
        match self {
            Engine::Single(e) => e.ledger(),
            Engine::Sharded(e) => e.ledger(),
        }
    }

    fn table(&self) -> &Table {
        match self {
            Engine::Single(e) => e.table(),
            Engine::Sharded(e) => e.table(),
        }
    }

    fn counts(&mut self) -> Counts {
        let (evals, lookups) = match self {
            Engine::Single(e) => (e.pattern_evals(), e.pattern_lookups()),
            Engine::Sharded(e) => (e.pattern_evals(), e.pattern_lookups()),
        };
        let ledger = self.ledger();
        Counts {
            evals,
            lookups,
            created: ledger.created_total(),
            retracted: ledger.retracted_total(),
        }
    }

    fn epochs_and_reclaimed(&self) -> (usize, usize) {
        match self {
            Engine::Single(e) => (e.compaction_stats().epochs, e.reclaim_stats().strings),
            Engine::Sharded(e) => (e.compaction_stats().epochs, e.reclaim_stats().strings),
        }
    }

    fn publish_metrics(&mut self) {
        match self {
            Engine::Single(e) => e.publish_metrics(),
            Engine::Sharded(e) => e.publish_metrics(),
        }
    }
}

/// An engine's running totals: pattern evaluations, memo lookups, and
/// ledger events (violations created, retracted).
#[derive(Debug, Clone, Copy)]
struct Counts {
    evals: usize,
    lookups: usize,
    created: usize,
    retracted: usize,
}

#[derive(Debug, Clone, Copy)]
enum Mark {
    /// Drop any reader snapshot, then compact (with reclamation on).
    Compact,
    /// Take a snapshot and a drift report, and hold the snapshot as a
    /// reader until the next compaction.
    Read,
}

fn parse_marks(text: &str) -> Result<Vec<(usize, Mark)>, Failure> {
    text.lines()
        .map(|line| {
            let bad = || (0, format!("bad mark `{line}`"));
            let (at, kind) = line.split_once(' ').ok_or_else(bad)?;
            let at = at.parse().map_err(|_| bad())?;
            let kind = match kind {
                "compact" => Mark::Compact,
                "read" => Mark::Read,
                _ => return Err(bad()),
            };
            Ok((at, kind))
        })
        .collect()
}

/// Parse op-log records into [`RowOp`]s, as `anmat stream --ops` does.
fn parse_ops(text: &str) -> Result<Vec<RowOp>, String> {
    let records = csv::parse_raw_records(text, ',').map_err(|e| format!("op-log: {e}"))?;
    let cells = |fields: &[String]| fields.iter().map(|f| Value::from_field(f)).collect();
    let row_id = |field: &String| -> Result<RowId, String> {
        field
            .parse()
            .map_err(|_| format!("op-log: bad row id `{field}`"))
    };
    records
        .iter()
        .map(|record| match record.split_first() {
            Some((code, rest)) if code == "+" => Ok(RowOp::Insert(cells(rest))),
            Some((code, [id])) if code == "-" => Ok(RowOp::Delete(row_id(id)?)),
            Some((code, [id, rest @ ..])) if code == "~" => {
                Ok(RowOp::Update(row_id(id)?, cells(rest)))
            }
            _ => Err(format!("op-log: bad record {record:?}")),
        })
        .collect()
}

/// Everything the timed phases drive and count.
struct StreamRun<'a> {
    engine: Engine,
    tr: Tracer,
    /// The op-log, read one batch at a time so the harness never holds
    /// more of it than the batch in hand.
    log: BufReader<File>,
    /// The records of the batch in hand.
    records: String,
    /// Records in the whole op-log.
    ops: usize,
    marks: &'a [(usize, Mark)],
    next_mark: usize,
    /// The reader's snapshot, held between a read mark and the next
    /// compaction.
    held: Option<EngineSnapshot>,
    batches: u64,
    calls: u64,
    parsed_bytes: u64,
}

impl<'a> StreamRun<'a> {
    fn new(engine: Engine, tr: Tracer, inputs: &'a Inputs) -> Result<StreamRun<'a>, String> {
        let log = File::open(&inputs.log).map_err(|e| format!("opening ops.log: {e}"))?;
        Ok(StreamRun {
            engine,
            tr,
            log: BufReader::new(log),
            records: String::new(),
            ops: inputs.ops,
            marks: &inputs.marks,
            next_mark: 0,
            held: None,
            batches: 0,
            calls: 0,
            parsed_bytes: 0,
        })
    }

    /// Read the next `n` op-log records into `records`.
    fn take(&mut self, n: usize) -> Result<(), String> {
        self.records.clear();
        for _ in 0..n {
            let read = self
                .log
                .read_line(&mut self.records)
                .map_err(|e| format!("reading ops.log: {e}"))?;
            if read == 0 {
                return Err("op-log ended early".to_string());
            }
        }
        self.parsed_bytes += self.records.len() as u64;
        Ok(())
    }

    /// Ops `[i, j)` as one batch: any marks at `i`, parse, apply.
    /// Returns when (tracer clock) the engine call returned its events.
    fn step(&mut self, i: usize, j: usize) -> Result<u64, String> {
        self.batches += 1;
        self.tr.begin_batch(self.batches);
        while let Some(&(at, mark)) = self.marks.get(self.next_mark) {
            if at > i {
                break;
            }
            self.next_mark += 1;
            match mark {
                Mark::Compact => {
                    self.held = None;
                    let engine = &mut self.engine;
                    self.tr.span("engine.compact", || engine.compact());
                }
                Mark::Read => {
                    let engine = &mut self.engine;
                    self.held = Some(self.tr.span("engine.snapshot", || engine.snapshot()));
                    let engine = &self.engine;
                    std::hint::black_box(self.tr.span("drift.report", || engine.drift_rules()));
                }
            }
        }
        self.take(j - i)?;
        let records = &self.records;
        let ops = self.tr.span("csv.parse", || parse_ops(records))?;
        let name = self.engine.apply_span();
        let engine = &mut self.engine;
        let events = self
            .tr
            .span(name, || engine.apply(ops))
            .map_err(|e| e.to_string())?;
        let returned = self.tr.now();
        self.calls += 1;
        // Consuming the events, freeing them included, is the caller's
        // work: it stays inside the batch span.
        drop(events);
        self.tr.exit();
        Ok(returned)
    }
}

/// What the two timed phases drive: units (ops; audit: requests) taken
/// in batches.
trait Steps {
    fn tracer(&mut self) -> &mut Tracer;

    /// Units in the input.
    fn units(&self) -> usize;

    /// End of a batch that starts at unit `i` and wants `want` units.
    fn cut(&self, i: usize, want: usize) -> usize {
        (i + want).min(self.units())
    }

    /// Units `[i, j)` as one batch; returns when (tracer clock) the
    /// library call that completes them returned.
    fn step(&mut self, i: usize, j: usize) -> Result<u64, String>;
}

impl Steps for StreamRun<'_> {
    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tr
    }

    fn units(&self) -> usize {
        self.ops
    }

    /// Never across a mark.
    fn cut(&self, i: usize, want: usize) -> usize {
        let mut end = (i + want).min(self.units());
        if let Some(&(at, _)) = self.marks[self.next_mark..].iter().find(|(at, _)| *at > i) {
            end = end.min(at);
        }
        end
    }

    fn step(&mut self, i: usize, j: usize) -> Result<u64, String> {
        StreamRun::step(self, i, j)
    }
}

/// Closed loop over units `[0, n)` in batches of `batch`; returns the
/// phase's `(start, end)` on the tracer clock.
fn closed(s: &mut impl Steps, n: usize, batch: usize) -> Result<(u64, u64), String> {
    let start = s.tracer().now();
    let mut i = 0;
    while i < n {
        let j = s.cut(i, batch).min(n);
        s.step(i, j)?;
        i = j;
    }
    Ok((start, s.tracer().now()))
}

/// Paced phase over units `[from, units())` at the spec's rate, arriving
/// `group` at a time. Spins (in a `driver.idle` span) until the next unit
/// is due, then takes every due unit up to the cap as one batch.
fn paced(s: &mut impl Steps, from: usize, spec: &Spec) -> Result<Paced, String> {
    let n = s.units() - from;
    let (group, cap) = (spec.group, spec.cap);
    let period = 1e9 * group as f64 / spec.rate;
    let t0 = s.tracer().now() + 1_000_000;
    let due = |k: usize| t0 + ((k / group) as f64 * period) as u64;
    let mut p = Paced {
        start: s.tracer().now(),
        ..Paced::default()
    };
    let mut k = 0;
    while k < n {
        let tr = s.tracer();
        let mut now = tr.now();
        if now < due(k) {
            tr.enter("driver.idle");
            while now < due(k) {
                std::hint::spin_loop();
                now = tr.now();
            }
            tr.exit();
        }
        let due_now = ((((now - t0) as f64 / period) as usize + 1) * group).clamp(k + 1, n);
        let j = s.cut(from + k, (due_now - k).min(cap)) - from;
        p.backlog.push(due_now - k);
        p.sizes.push(j - k);
        p.late.extend((k..j).map(|u| now - due(u)));
        let returned = s.step(from + k, from + j)?;
        p.lag.extend((k..j).map(|u| returned - due(u)));
        k = j;
    }
    p.end = s.tracer().now();
    Ok(p)
}

/// What the paced phase saw.
#[derive(Debug, Default)]
struct Paced {
    start: u64,
    end: u64,
    /// Per op: engine call returned − due time, ns.
    lag: Vec<u64>,
    /// Per op: dispatch − due time, ns.
    late: Vec<u64>,
    /// Per step: ops due but not yet dispatched, and ops taken.
    backlog: Vec<usize>,
    sizes: Vec<usize>,
}

impl Paced {
    /// Lag percentiles, the pacing loop's own figures (per layer) and the
    /// facts that show the phase was sustainable. Lag reads the host's
    /// memory-system speed per call, which moves too much between runs
    /// on a shared VM to gate on; it is reported, not bounded.
    fn report(&mut self, out: &mut Outcome, layers: &mut Layers) {
        self.lag.sort_unstable();
        self.late.sort_unstable();
        let ms = |v: u64| v as f64 / 1e6;
        let p50 = ms(quantile(&self.lag, 0.50));
        out.note("lag_p50_ms", p50, "ms");
        layers.set("lag_p50_ms", p50);
        layers.set("lag_p99_ms", ms(quantile(&self.lag, 0.99)));
        let tenth = (self.backlog.len() / 10).max(1).min(self.backlog.len());
        let first = self.backlog[..tenth].iter().max().copied().unwrap_or(0);
        let last = self.backlog[self.backlog.len() - tenth..]
            .iter()
            .max()
            .copied()
            .unwrap_or(0);
        let mut sizes = self.sizes.clone();
        sizes.sort_unstable();
        out.note("lag_samples", self.lag.len() as f64, "count");
        out.note("backlog_first_tenth", first as f64, "ops");
        out.note("paced_wall_s", (self.end - self.start) as f64 / 1e9, "s");
        layers.set("driver.batch_ops_p50", quantile(&sizes, 0.5) as f64);
        layers.set("driver.late_p99_ms", ms(quantile(&self.late, 0.99)));
        layers.set("driver.backlog_ops", last as f64);
        layers.set("driver.lag_samples", self.lag.len() as f64);
    }
}

/// Every per-layer metric, in report order, with its unit. A workload
/// whose run never calls a layer reports 0 for it.
pub const LAYERS: &[(&str, &str)] = &[
    ("csv.parse_s", "s"),
    ("csv.mb_per_s", "MB/s"),
    ("pool.intern_misses", "count"),
    ("pool.intern_hits", "count"),
    ("pool.string_bytes", "bytes"),
    ("pool.reclaimed_strings", "count"),
    ("table.slots", "count"),
    ("table.bytes", "bytes"),
    ("table.cow_copies", "count"),
    ("pattern.evals", "count"),
    ("pattern.lookups", "count"),
    ("pattern.memo_hit_ratio", "ratio"),
    ("pattern.interp_evals", "count"),
    ("index.blocks", "count"),
    ("index.rows_per_block", "rows"),
    ("discovery.s", "s"),
    ("discovery.rules", "count"),
    ("detect.s", "s"),
    ("detect.violations", "count"),
    ("report.s", "s"),
    ("ledger.created", "count"),
    ("ledger.retracted", "count"),
    ("ledger.events_per_op", "events/op"),
    ("ledger.live", "count"),
    ("engine.load_s", "s"),
    ("engine.apply_s", "s"),
    ("engine.apply_calls", "count"),
    ("engine.validate_s", "s"),
    ("engine.compact_s", "s"),
    ("engine.snapshot_s", "s"),
    ("engine.epochs", "count"),
    ("drift.s", "s"),
    ("shard.fanout_s", "s"),
    ("shard.merge_s", "s"),
    ("shard.merge_wait_s", "s"),
    ("shard.busy_s", "s"),
    ("shard.key_skew", "ratio"),
    ("lag_p50_ms", "ms"),
    ("lag_p99_ms", "ms"),
    ("driver.batch_ops_p50", "ops"),
    ("driver.late_p99_ms", "ms"),
    ("driver.backlog_ops", "ops"),
    ("driver.self_s", "s"),
    ("driver.idle_s", "s"),
    ("driver.lag_samples", "count"),
    ("trace.coverage", "ratio"),
    ("host.steal_ms", "ms"),
    ("host.runq_wait_ms", "ms"),
];

/// Per-layer values of the traced run, keyed by [`LAYERS`] names.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYERS.iter().any(|(n, _)| *n == name),
            "{name} not in LAYERS"
        );
        self.0.insert(name, value);
    }

    /// Span self times, as seconds, for the layers that are spans.
    fn spans(&mut self, tr: &Tracer, parsed_bytes: u64) {
        let selfs = tr.self_times();
        let s = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / 1e9;
        self.set("csv.parse_s", s("csv.parse"));
        self.set(
            "csv.mb_per_s",
            parsed_bytes as f64 / 1e6 / s("csv.parse").max(1e-9),
        );
        self.set("engine.load_s", s("engine.load"));
        self.set("engine.compact_s", s("engine.compact"));
        self.set("engine.snapshot_s", s("engine.snapshot"));
        self.set("drift.s", s("drift.report"));
        self.set("discovery.s", s("discovery.discover"));
        self.set("detect.s", s("detect.detect_all"));
        self.set("report.s", s("report.violations_view"));
        self.set("driver.idle_s", s("driver.idle"));
    }

    /// The harness's self time (batch bookkeeping plus phase time no span
    /// covers) and the coverage check over the timed phases.
    fn harness(&mut self, tr: &Tracer, phases: &[(u64, u64)], noise: Noise) {
        let mut uncovered = 0.0;
        let mut coverage = f64::INFINITY;
        let mut nested = true;
        for &(from, to) in phases {
            let (share, ok) = tr.coverage(from, to);
            uncovered += (1.0 - share) * (to - from) as f64 / 1e9;
            coverage = coverage.min(share);
            nested &= ok;
        }
        let batch_self = tr.self_times().get("driver.batch").copied().unwrap_or(0) as f64 / 1e9;
        self.set("driver.self_s", batch_self + uncovered);
        self.set("trace.coverage", if nested { coverage } else { 0.0 });
        self.set("host.steal_ms", noise.steal_ms);
        self.set("host.runq_wait_ms", noise.runq_wait_ms);
    }

    /// Replace `out`'s metrics with every layer in [`LAYERS`] order.
    fn emit(&self, out: &mut Outcome) {
        out.metrics = LAYERS
            .iter()
            .map(|(name, unit)| Metric {
                name: (*name).to_string(),
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect();
    }
}

/// The end-to-end figures of the timed phases (`ops_per_s` counts the
/// closed phase's `closed_ops` ops) and the run facts printed beside them.
fn report_phases(
    out: &mut Outcome,
    layers: &mut Layers,
    closed_ops: usize,
    (c0, c1): (u64, u64),
    paced: &mut Paced,
    peak_rss: f64,
    noise: Noise,
) {
    let closed_s = (c1 - c0) as f64 / 1e9;
    out.push("ops_per_s", closed_ops as f64 / closed_s, "ops/s");
    paced.report(out, layers);
    out.push("peak_rss_mb", peak_rss, "MB");
    out.note("closed_wall_s", closed_s, "s");
    out.note("steal_ms", noise.steal_ms, "ms");
    out.note("runq_wait_ms", noise.runq_wait_ms, "ms");
}

/// Nearest-rank quantile of sorted values.
fn quantile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// What a stream workload keeps from its input files after set-up.
struct Inputs {
    rules: Vec<Pfd>,
    /// The op-log file, `ops` records.
    log: PathBuf,
    ops: usize,
    marks: Vec<(usize, Mark)>,
    /// Size of the base CSV, read whole in set-up.
    base_bytes: u64,
}

/// Set-up of a stream workload: read the inputs, parse the base CSV,
/// load the rules, build the engine and bulk-load the base rows.
fn load_stream(args: &Args, tr: &mut Tracer) -> Result<(Engine, Inputs), Failure> {
    let dir = &args.inputs;
    let base = read(dir, "base.csv")?;
    let marks = parse_marks(&read(dir, "marks.txt")?)?;
    let rules: Vec<Pfd> = serde_json::from_str(&read(dir, "rules.json")?).map_err(setup_err)?;
    let table = tr
        .span("csv.parse", || csv::read_str(&base))
        .map_err(setup_err)?;
    let mut engine = Engine::new(args.workload, table.schema().clone(), rules.clone());
    let rows: Vec<Vec<ValueId>> = (0..table.row_count()).map(|r| table.row_ids(r)).collect();
    // The reclaiming engine must be the only holder of its strings.
    drop(table);
    tr.span("engine.load", || engine.load(rows))
        .map_err(setup_err)?;
    let inputs = Inputs {
        rules,
        log: dir.join("ops.log"),
        ops: args.spec.units(args.seconds),
        marks,
        base_bytes: base.len() as u64,
    };
    Ok((engine, inputs))
}

/// Replay a stream workload's whole op-log closed-loop in batches of
/// `batch`, pass the correctness gate, and return the final ledger in
/// canonical form — the same end state for any batch split.
pub fn replay(args: &Args, batch: usize) -> Result<Vec<String>, String> {
    let mut tr = Tracer::new(false, Instant::now());
    let (engine, inputs) = load_stream(args, &mut tr).map_err(|(_, e)| e)?;
    let mut d = StreamRun::new(engine, tr, &inputs)?;
    closed(&mut d, inputs.ops, batch)?;
    d.engine.flush();
    check_stream(&d.engine, &inputs.rules, &args.inputs)?;
    Ok(canonical(d.engine.ledger().snapshot()))
}

fn run_stream(args: &Args, started: Instant) -> Result<Outcome, Failure> {
    let spec = args.spec;
    let mut tr = Tracer::new(args.trace, started);
    if args.trace {
        obs::Recorder::enable();
    }
    let (engine, inputs) = load_stream(args, &mut tr)?;
    let dir = &args.inputs;
    let mut out = Outcome::after_setup(started);
    if args.setup_only {
        out.correct = true;
        return Ok(out);
    }

    // ── timed phases ──
    let mut d = StreamRun::new(engine, tr, &inputs).map_err(setup_err)?;
    d.parsed_bytes += inputs.base_bytes;
    let total = inputs.ops;
    let attempted = total as u64;
    out.attempted = attempted;
    let before = args
        .trace
        .then(|| (MetricsSnapshot::capture(), d.engine.counts()));
    let noise = Noise::read();
    let closed_ops = spec.closed_ops(args.seconds).min(total);
    let (c0, c1) = closed(&mut d, closed_ops, spec.batch).map_err(|e| (attempted, e))?;
    let mut paced = paced(&mut d, closed_ops, &spec).map_err(|e| (attempted, e))?;
    // Pipelined batches drain inside the paced phase's wall time.
    d.tr.begin_batch(d.batches + 1);
    let engine = &mut d.engine;
    d.tr.span("engine.flush", || engine.flush());
    d.tr.exit();
    let paced_end = d.tr.now();
    let peak_rss = host::peak_rss_mb();
    let noise = Noise::read().since(noise);

    let mut layers = Layers::default();
    let closed_phase = (c0, c1);
    report_phases(
        &mut out,
        &mut layers,
        closed_ops,
        closed_phase,
        &mut paced,
        peak_rss,
        noise,
    );
    out.note("input_mb", inputs.base_bytes as f64 / 1e6, "MB");
    if let Some((reg0, counts0)) = before {
        let phases = [(c0, c1), (paced.start, paced_end)];
        stream_layers(&mut d, &mut layers, &reg0, counts0, total);
        layers.spans(&d.tr, d.parsed_bytes);
        layers.harness(&d.tr, &phases, noise);
    }

    // ── correctness gate (untimed) ──
    let f1 = check_stream(&d.engine, &inputs.rules, dir).map_err(|e| (attempted, e))?;
    out.push("f1", f1, "ratio");
    if args.trace {
        layers.emit(&mut out);
    }
    out.correct = true;
    Ok(out)
}

/// Canonical form of a violation set, for equality checks.
fn canonical(violations: impl IntoIterator<Item = Violation>) -> Vec<String> {
    let mut out: Vec<String> = violations.into_iter().map(|v| format!("{v:?}")).collect();
    out.sort_unstable();
    out
}

/// F1 of `tp` true positives among `flagged` flagged rows, against
/// `truth` labelled rows.
fn f1(tp: usize, flagged: usize, truth: usize) -> f64 {
    let precision = if flagged == 0 {
        1.0
    } else {
        tp as f64 / flagged as f64
    };
    let recall = if truth == 0 {
        1.0
    } else {
        tp as f64 / truth as f64
    };
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

fn parse_rows(line: &str) -> Result<HashSet<usize>, String> {
    line.split_whitespace()
        .map(|v| v.parse().map_err(|_| format!("bad label `{v}`")))
        .collect()
}

/// The stream gate: the live rows are exactly the generator's final
/// rows, the ledger equals `detect_all` over them, and `f1` scores the
/// ledger's flagged rows against the injected-error labels.
fn check_stream(engine: &Engine, rules: &[Pfd], dir: &Path) -> Result<f64, String> {
    let read = |name: &str| read(dir, name).map_err(|(_, e)| e);
    let expected = csv::read_str(&read("final.csv")?).map_err(|e| e.to_string())?;
    let table = engine.table();
    let live: Vec<RowId> = table.iter_live().collect();
    if live.len() != expected.row_count() {
        return Err(format!(
            "{} live rows, expected {}",
            live.len(),
            expected.row_count()
        ));
    }
    for (k, &slot) in live.iter().enumerate() {
        if table.row_ids(slot) != expected.row_ids(k) {
            return Err(format!(
                "live row {k} (slot {slot}) differs from the expected row"
            ));
        }
    }
    let streamed = canonical(engine.ledger().snapshot());
    let batch = canonical(detect_all(table, rules));
    if streamed != batch {
        return Err(format!(
            "ledger holds {} violations, detect_all over the surviving rows finds {}",
            streamed.len(),
            batch.len()
        ));
    }
    let truth = parse_rows(&read("labels.txt")?)?;
    let flagged: HashSet<usize> = engine.ledger().live().map(|v| v.row).collect();
    Ok(f1(
        flagged.intersection(&truth).count(),
        flagged.len(),
        truth.len(),
    ))
}

/// Delta of a registry counter between two captures.
fn counter_delta(now: &MetricsSnapshot, then: &MetricsSnapshot, name: &str) -> f64 {
    (now.counter(name).unwrap_or(0) - then.counter(name).unwrap_or(0)) as f64
}

/// Delta of a registry histogram's sum between two captures, seconds.
fn hist_s(now: &MetricsSnapshot, then: &MetricsSnapshot, name: &str) -> f64 {
    let sum = |s: &MetricsSnapshot| s.histogram(name).map_or(0, |h| h.sum);
    (sum(now) - sum(then)) as f64 / 1e9
}

/// Counts every workload reads from the registry over the timed phases.
fn registry_layers(layers: &mut Layers, reg: &MetricsSnapshot, reg0: &MetricsSnapshot) {
    layers.set(
        "pool.intern_misses",
        counter_delta(reg, reg0, "pool.intern.misses"),
    );
    layers.set(
        "pool.intern_hits",
        counter_delta(reg, reg0, "pool.intern.hits"),
    );
    layers.set(
        "pool.string_bytes",
        ValuePool::mem_footprint().string_bytes as f64,
    );
    layers.set(
        "table.cow_copies",
        counter_delta(reg, reg0, "snapshot.cow_copies"),
    );
    layers.set(
        "pattern.interp_evals",
        counter_delta(reg, reg0, "pattern.interp_evals"),
    );
}

fn stream_layers(
    d: &mut StreamRun<'_>,
    layers: &mut Layers,
    reg0: &MetricsSnapshot,
    counts0: Counts,
    ops: usize,
) {
    let counts = d.engine.counts();
    d.engine.publish_metrics();
    let reg = MetricsSnapshot::capture();
    registry_layers(layers, &reg, reg0);
    let (epochs, reclaimed) = d.engine.epochs_and_reclaimed();
    let table = d.engine.table().mem_footprint();
    let blocks = reg.gauge("engine.blocks").unwrap_or(0) as f64;
    let evals = (counts.evals - counts0.evals) as f64;
    let lookups = (counts.lookups - counts0.lookups) as f64;
    layers.set("pool.reclaimed_strings", reclaimed as f64);
    layers.set("table.slots", table.total_slots as f64);
    layers.set("table.bytes", table.bytes as f64);
    layers.set("pattern.evals", evals);
    layers.set("pattern.lookups", lookups);
    if lookups > 0.0 {
        layers.set("pattern.memo_hit_ratio", 1.0 - evals / lookups);
    }
    layers.set("index.blocks", blocks);
    if blocks > 0.0 {
        layers.set("index.rows_per_block", table.live_slots as f64 / blocks);
    }
    let created = counts.created - counts0.created;
    let retracted = counts.retracted - counts0.retracted;
    layers.set("ledger.created", created as f64);
    layers.set("ledger.retracted", retracted as f64);
    layers.set(
        "ledger.events_per_op",
        (created + retracted) as f64 / ops as f64,
    );
    layers.set("ledger.live", d.engine.ledger().live_count() as f64);
    layers.set("engine.epochs", epochs as f64);
    layers.set("engine.apply_calls", d.calls as f64);

    // The engine's own spans split the harness's apply/submit spans:
    // validation, and the sharded fan-out and merge on the coordinator.
    let validate = hist_s(&reg, reg0, "engine.validate_ns");
    let fanout = hist_s(&reg, reg0, "shard.fanout_ns");
    let merge = hist_s(&reg, reg0, "shard.merge_ns");
    let merge_wait = hist_s(&reg, reg0, "shard.merge_wait_ns");
    let selfs = d.tr.self_times();
    let apply: f64 = ["engine.apply", "engine.submit", "engine.flush"]
        .iter()
        .map(|n| selfs.get(n).copied().unwrap_or(0) as f64 / 1e9)
        .sum();
    layers.set(
        "engine.apply_s",
        apply - validate - fanout - merge - merge_wait,
    );
    layers.set("engine.validate_s", validate);
    layers.set("shard.fanout_s", fanout);
    layers.set("shard.merge_s", merge);
    layers.set("shard.merge_wait_s", merge_wait);
    let busy = reg
        .histograms
        .iter()
        .filter(|(n, _)| n.starts_with("shard.") && n.ends_with(".busy_ns"))
        .map(|(n, _)| hist_s(&reg, reg0, n))
        .sum();
    layers.set("shard.busy_s", busy);
    let keys: Vec<f64> = reg
        .gauges
        .iter()
        .filter(|(n, _)| n.starts_with("shard.") && n.ends_with(".keys"))
        .map(|(_, v)| *v as f64)
        .collect();
    let mean = keys.iter().sum::<f64>() / keys.len().max(1) as f64;
    if mean > 0.0 {
        layers.set(
            "shard.key_skew",
            keys.iter().copied().fold(0.0, f64::max) / mean,
        );
    }
}

// ── audit ───────────────────────────────────────────────────────────

/// One fresh CSV to audit.
struct Request<'a> {
    dataset: usize,
    text: &'a str,
}

fn parse_index<'a>(body: &'a str, index: &str) -> Result<Vec<Request<'a>>, String> {
    index
        .lines()
        .map(|line| {
            let bad = || format!("bad request index line `{line}`");
            let mut parts = line.split(' ');
            let name = parts.next().ok_or_else(bad)?;
            let dataset = AUDIT_DATASETS
                .iter()
                .position(|d| *d == name)
                .ok_or_else(bad)?;
            let start: usize = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
            let end: usize = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
            let text = body.get(start..end).ok_or_else(bad)?;
            Ok(Request { dataset, text })
        })
        .collect()
}

/// Per request: rows audited and the violations found.
struct Audited {
    rows: usize,
    violations: Vec<Violation>,
}

/// The audit's timed phases: each unit is one fresh CSV, parsed,
/// detected and reported — one `anmat detect` call.
struct Auditor<'a> {
    tr: Tracer,
    requests: &'a [Request<'a>],
    rules: &'a [Vec<Pfd>],
    results: Vec<Audited>,
}

impl Steps for Auditor<'_> {
    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tr
    }

    fn units(&self) -> usize {
        self.requests.len()
    }

    /// Requests `[i, j)` as one batch; returns when the last report was
    /// rendered.
    fn step(&mut self, i: usize, j: usize) -> Result<u64, String> {
        self.tr.begin_batch(i as u64 + 1);
        for request in &self.requests[i..j] {
            let rules = &self.rules[request.dataset];
            let table = self
                .tr
                .span("csv.parse", || csv::read_str(request.text))
                .map_err(|e| e.to_string())?;
            let violations = self
                .tr
                .span("detect.detect_all", || detect_all(&table, rules));
            let view = self.tr.span("report.violations_view", || {
                report::violations_view(&table, &violations)
            });
            std::hint::black_box(view);
            self.results.push(Audited {
                rows: table.row_count(),
                violations,
            });
        }
        let returned = self.tr.now();
        self.tr.exit();
        Ok(returned)
    }
}

fn run_audit(args: &Args, started: Instant) -> Result<Outcome, Failure> {
    let spec = args.spec;
    let mut tr = Tracer::new(args.trace, started);
    if args.trace {
        obs::Recorder::enable();
    }
    // ── set-up: discover each dataset's rules from its training CSV ──
    let dir = &args.inputs;
    let mut rules: Vec<Vec<Pfd>> = Vec::new();
    let mut parsed_bytes = 0u64;
    for name in AUDIT_DATASETS {
        let text = read(dir, &format!("train_{name}.csv"))?;
        parsed_bytes += text.len() as u64;
        let table = tr
            .span("csv.parse", || csv::read_str(&text))
            .map_err(setup_err)?;
        let config = DiscoveryConfig {
            relation: name.to_string(),
            ..DiscoveryConfig::default()
        };
        rules.push(tr.span("discovery.discover", || discover(&table, &config)));
    }
    let body = read(dir, "requests.csv")?;
    let index = read(dir, "requests.idx")?;
    let labels = read(dir, "labels.txt")?;
    let requests = parse_index(&body, &index).map_err(setup_err)?;
    let mut out = Outcome::after_setup(started);
    if args.setup_only {
        out.correct = true;
        return Ok(out);
    }

    // ── timed phases: requests one at a time, then paced requests ──
    let closed_requests = spec.closed_ops(args.seconds).min(requests.len());
    let attempted: u64 = requests
        .iter()
        .map(|r| r.text.lines().count().saturating_sub(1) as u64)
        .sum();
    out.attempted = attempted;
    let fail = |e| (attempted, e);
    let reg0 = args.trace.then(MetricsSnapshot::capture);
    let noise = Noise::read();
    let mut a = Auditor {
        tr,
        requests: &requests,
        rules: &rules,
        results: Vec::with_capacity(requests.len()),
    };
    let (c0, c1) = closed(&mut a, closed_requests, spec.batch).map_err(fail)?;
    let closed_rows: usize = a.results.iter().map(|r| r.rows).sum();
    let mut paced = paced(&mut a, closed_requests, &spec).map_err(fail)?;
    let peak_rss = host::peak_rss_mb();
    let noise = Noise::read().since(noise);
    let Auditor { tr, results, .. } = a;

    let mut layers = Layers::default();
    let closed_phase = (c0, c1);
    report_phases(
        &mut out,
        &mut layers,
        closed_rows,
        closed_phase,
        &mut paced,
        peak_rss,
        noise,
    );
    out.note(
        "input_mb",
        (parsed_bytes + body.len() as u64) as f64 / 1e6,
        "MB",
    );
    if let Some(reg0) = reg0 {
        let reg = MetricsSnapshot::capture();
        registry_layers(&mut layers, &reg, &reg0);
        let evals = [
            "pattern.interp_evals",
            "pattern.vm_evals",
            "pattern.fused_evals",
        ]
        .iter()
        .map(|n| counter_delta(&reg, &reg0, n))
        .sum();
        layers.set("pattern.evals", evals);
        layers.set(
            "discovery.rules",
            rules.iter().map(Vec::len).sum::<usize>() as f64,
        );
        layers.set(
            "detect.violations",
            results.iter().map(|r| r.violations.len()).sum::<usize>() as f64,
        );
        let parsed = parsed_bytes + requests.iter().map(|r| r.text.len() as u64).sum::<u64>();
        layers.spans(&tr, parsed);
        layers.harness(&tr, &[(c0, c1), (paced.start, paced.end)], noise);
    }

    // ── correctness gate (untimed) ──
    let f1 = check_audit(&requests, &rules, results, &labels).map_err(fail)?;
    out.push("f1", f1, "ratio");
    if args.trace {
        layers.emit(&mut out);
    }
    out.correct = true;
    Ok(out)
}

/// The audit gate: every request's `detect_all` result equals a stream
/// replay of the same rows (the stream ≡ batch contract), and `f1`
/// scores the flagged rows against the injected-error labels.
fn check_audit(
    requests: &[Request<'_>],
    rules: &[Vec<Pfd>],
    results: Vec<Audited>,
    labels: &str,
) -> Result<f64, String> {
    let truth: Vec<HashSet<usize>> = labels.lines().map(parse_rows).collect::<Result<_, _>>()?;
    if truth.len() != requests.len() || results.len() != requests.len() {
        return Err("request, label and result counts differ".to_string());
    }
    let (mut tp, mut flagged, mut labelled) = (0, 0, 0);
    for (q, (request, audited)) in requests.iter().zip(results).enumerate() {
        let table = csv::read_str(request.text).map_err(|e| e.to_string())?;
        let mut replay = StreamEngine::new(table.schema().clone(), rules[request.dataset].clone());
        replay
            .push_id_batch((0..table.row_count()).map(|r| table.row_ids(r)))
            .map_err(|e| e.to_string())?;
        let rows: HashSet<usize> = audited.violations.iter().map(|v| v.row).collect();
        if canonical(replay.ledger().snapshot()) != canonical(audited.violations) {
            return Err(format!(
                "request {q}: detect_all disagrees with a stream replay"
            ));
        }
        tp += rows.intersection(&truth[q]).count();
        flagged += rows.len();
        labelled += truth[q].len();
    }
    Ok(f1(tp, flagged, labelled))
}
