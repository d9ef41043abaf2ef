//! E9 — Figure 3: the profiling view.
//!
//! Prints the `pattern::position, frequency` listing for each synthetic
//! dataset and measures profiling throughput.
//!
//! Also sweeps the *distinct-value ratio* (1%, 10%, 50% distinct values
//! at fixed row count): with dictionary-encoded interning, per-row work
//! in profiling and streaming detection collapses onto per-distinct-value
//! work, so throughput should rise super-linearly as the ratio drops.
//! The per-distinct cost itself is measured across all three pattern
//! matchers — the AST interpreter (the oracle), the bytecode VM (reached
//! on these fusible patterns through `compile_unfused`), and the fused
//! single-pass matcher production compiles them to — and a
//! *field-length* sweep (8/64/512-byte fields) isolates the SWAR
//! class-scan kernel against its byte-at-a-time scalar twin.

use anmat_bench::criterion;
use anmat_core::{report, PatternTuple, Pfd};
use anmat_datagen::{names, phone, zipcity};
use anmat_obs as obs;
use anmat_pattern::{
    match_pattern, scan, AsciiSet, CompiledConstrained, CompiledPattern, ConstrainedPattern,
    Pattern, SymbolClass,
};
use anmat_stream::StreamEngine;
use anmat_table::{Op, Schema, Table, TableProfile};
use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use std::time::Instant;

/// A zip→city style table with exactly `rows * ratio` distinct LHS
/// values, shuffled deterministically. The city is a function of the
/// zip's 3-digit prefix, so the sweep rules' blocks stay consistent and
/// the measurement isolates ingest + matching cost (interning, memo
/// probes, block placement) rather than violation-ledger churn.
fn distinct_ratio_table(rows: usize, ratio: f64) -> Table {
    let distinct = ((rows as f64 * ratio) as usize).max(1);
    let schema = Schema::new(["zip", "city"]).expect("static schema");
    let mut t = Table::empty(schema);
    for r in 0..rows {
        // Multiplicative stepping spreads the distinct values over the
        // row order without RNG (deterministic across runs).
        let k = (r * 7 + r / distinct) % distinct;
        let zip = format!("9{k:04}");
        let city = format!("City {}", k / 100);
        t.push_row(vec![zip.into(), city.into()]).expect("arity");
    }
    t
}

fn sweep_rules() -> Vec<Pfd> {
    vec![Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![
            // Matches zips 90000–90009, whose city is always "City 0".
            PatternTuple::constant(
                ConstrainedPattern::unconstrained("9000\\D".parse().expect("pattern")),
                "City 0",
            ),
            // Blocks on the 3-digit prefix, which determines the city by
            // construction.
            PatternTuple::variable("[\\D{3}]\\D{2}".parse::<ConstrainedPattern>().expect("q")),
        ],
    )]
}

/// The distinct LHS values a `distinct_ratio_table` contains, in first-
/// sighting order — the population the per-distinct eval measurement
/// runs over.
fn distinct_lhs(rows: usize, ratio: f64) -> Vec<String> {
    let distinct = ((rows as f64 * ratio) as usize).max(1);
    (0..distinct).map(|k| format!("9{k:04}")).collect()
}

/// The three matchers the eval columns compare, in column order.
#[derive(Clone, Copy)]
enum Tier {
    /// The AST interpreter: `match_pattern` and `ConstrainedPattern::key`.
    Interp,
    /// The bytecode VM, via the unfused constructors.
    Vm,
    /// The fused matcher, via `compile` (what production runs).
    Fused,
}

const TIERS: [Tier; 3] = [Tier::Interp, Tier::Vm, Tier::Fused];

/// Mean ns per call of `f` over `reps` calls.
fn ns_per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / reps as f64
}

/// ns per distinct value for the per-distinct work the memoized engines
/// actually do once per new value: one constant-pattern match plus one
/// blocking-key derivation, evaluated on `tier`. The interp/vm/fused
/// ratios are the compiled tiers' headline numbers.
fn eval_ns_per_distinct(values: &[String], tier: Tier) -> f64 {
    let pattern: Pattern = "9000\\D".parse().expect("pattern");
    let keyer: ConstrainedPattern = "[\\D{3}]\\D{2}".parse().expect("q");
    // Enough repetitions that the fast tiers still accumulate a
    // wall-clock signal well above timer noise.
    let reps = (500_000 / values.len()).max(1);
    let compiled = |cp: CompiledPattern, cq: CompiledConstrained| {
        let mut key_buf = String::new();
        ns_per_call(reps, || {
            for v in values {
                black_box(cp.matches(v));
                black_box(cq.key_into(v, &mut key_buf));
            }
        })
    };
    let per_pass = match tier {
        Tier::Interp => ns_per_call(reps, || {
            for v in values {
                black_box(match_pattern(&pattern, v));
                black_box(keyer.key(v));
            }
        }),
        Tier::Vm => compiled(
            CompiledPattern::compile_unfused(&pattern),
            CompiledConstrained::compile_unfused(&keyer),
        ),
        Tier::Fused => {
            let (cp, cq) = (
                CompiledPattern::compile(&pattern),
                CompiledConstrained::compile(&keyer),
            );
            assert!(
                cp.is_fused() && cq.program().is_fused(),
                "sweep patterns are fixed-width and must take the fused tier"
            );
            compiled(cp, cq)
        }
    };
    per_pass / values.len() as f64
}

/// Timed full replays per sweep point; the artifact records their
/// spread, not one shot.
const INGEST_REPLAYS: usize = 7;

/// Insert `table`'s live rows, in row order, into `engine` as one batch
/// of interned ids.
fn replay(engine: &mut StreamEngine, table: &Table) {
    engine
        .apply(table.iter_live().map(|r| Op::Insert(table.row_ids(r))))
        .expect("schema matches");
}

/// Ingest rows/s over [`INGEST_REPLAYS`] full replays, each into a fresh
/// engine.
struct IngestSpread {
    min: f64,
    median: f64,
    max: f64,
}

/// Replay `table` [`INGEST_REPLAYS`] times; returns the rows/s spread and
/// the pattern evaluations of one replay (every replay performs the
/// same).
fn ingest_rate(table: &Table, rules: &[Pfd]) -> (IngestSpread, usize) {
    let mut rates = Vec::with_capacity(INGEST_REPLAYS);
    let mut evals = 0;
    for _ in 0..INGEST_REPLAYS {
        let mut engine = StreamEngine::new(table.schema().clone(), rules.to_vec());
        let start = Instant::now();
        replay(&mut engine, table);
        rates.push(table.row_count() as f64 / start.elapsed().as_secs_f64());
        black_box(engine.ledger().live_count());
        evals = engine.pattern_evals();
    }
    rates.sort_by(f64::total_cmp);
    let spread = IngestSpread {
        min: rates[0],
        median: rates[INGEST_REPLAYS / 2],
        max: rates[INGEST_REPLAYS - 1],
    };
    (spread, evals)
}

/// Per-field ns for an unbounded digit-run (`\D{1,}`) match on
/// `len`-byte fields, per matcher. The run scan *is* the whole field
/// here, so this isolates the `AtLeast` scan loop the SWAR kernel
/// accelerates.
fn long_field_eval_ns(len: usize, tier: Tier) -> f64 {
    let pattern: Pattern = "\\D{1,}".parse().expect("pattern");
    let field = "7".repeat(len);
    let reps = (40_000_000 / len).max(1_000);
    let compiled = |cp: CompiledPattern| {
        ns_per_call(reps, || {
            black_box(cp.matches(black_box(&field)));
        })
    };
    match tier {
        Tier::Interp => ns_per_call(reps, || {
            black_box(match_pattern(&pattern, black_box(&field)));
        }),
        Tier::Vm => compiled(CompiledPattern::compile_unfused(&pattern)),
        Tier::Fused => compiled(CompiledPattern::compile(&pattern)),
    }
}

/// Raw scan-kernel ns per `len`-byte field: the SWAR 8-bytes-per-step
/// word loop vs the byte-at-a-time scalar loop, on the same digit set.
fn scan_kernel_ns(len: usize) -> (f64, f64) {
    let set = AsciiSet::of_class(SymbolClass::Digit);
    let field = "7".repeat(len);
    let bytes = field.as_bytes();
    let reps = (80_000_000 / len).max(1_000);
    let swar = ns_per_call(reps, || {
        black_box(scan::run_len(&set, black_box(bytes), 0, len));
    });
    let scalar = ns_per_call(reps, || {
        black_box(scan::run_len_scalar(&set, black_box(bytes), 0, len));
    });
    (swar, scalar)
}

/// The machine-readable artifact (mirrors `BENCH_fig6.json`): for each
/// distinct-ratio point, ingest rows/s (n, min, median and max over the
/// replays) and per-matcher per-distinct eval ns; for each field length,
/// per-matcher `AtLeast`-scan eval ns plus the raw SWAR-vs-scalar kernel
/// figures; and the end-of-run
/// metrics registry of a stream replay (which carries
/// `pattern.fused_evals` / `pattern.vm_evals` / `pattern.interp_evals`
/// / `pattern.compile_ns`).
fn write_fig3_json(rows: usize, sweep: &[SweepPoint], fields: &[FieldPoint]) {
    obs::Recorder::enable();
    let table = distinct_ratio_table(rows, 0.10);
    let rules = sweep_rules();
    let mut engine = StreamEngine::new(table.schema().clone(), rules);
    replay(&mut engine, &table);
    engine.publish_metrics();
    let snapshot = obs::MetricsSnapshot::capture();
    obs::Recorder::disable();
    let mut points = String::new();
    for p in sweep {
        if !points.is_empty() {
            points.push_str(",\n");
        }
        points.push_str(&format!(
            "    {{\n      \"pct_distinct\": {},\n      \"distinct\": {},\n      \
             \"pattern_evals\": {},\n      \
             \"ingest_rows_per_sec\": {{ \"n\": {}, \"min\": {:.0}, \"median\": {:.0}, \"max\": {:.0} }},\n      \
             \"eval_ns_per_distinct\": {{ \"interp\": {:.1}, \"vm\": {:.1}, \"fused\": {:.1} }},\n      \
             \"fused_vs_vm_eval_speedup\": {:.2},\n      \
             \"fused_vs_interp_eval_speedup\": {:.2}\n    }}",
            p.pct,
            p.distinct,
            p.pattern_evals,
            INGEST_REPLAYS,
            p.ingest.min,
            p.ingest.median,
            p.ingest.max,
            p.eval_ns[0],
            p.eval_ns[1],
            p.eval_ns[2],
            p.eval_ns[1] / p.eval_ns[2],
            p.eval_ns[0] / p.eval_ns[2],
        ));
    }
    let mut field_points = String::new();
    for f in fields {
        if !field_points.is_empty() {
            field_points.push_str(",\n");
        }
        field_points.push_str(&format!(
            "    {{\n      \"field_bytes\": {},\n      \
             \"eval_ns\": {{ \"interp\": {:.1}, \"vm\": {:.1}, \"fused\": {:.1} }},\n      \
             \"scan_kernel_ns\": {{ \"swar\": {:.1}, \"scalar\": {:.1} }},\n      \
             \"swar_speedup\": {:.2}\n    }}",
            f.len,
            f.eval_ns[0],
            f.eval_ns[1],
            f.eval_ns[2],
            f.swar_ns,
            f.scalar_ns,
            f.scalar_ns / f.swar_ns,
        ));
    }
    let json = format!(
        "{{\n  \"rows\": {rows},\n  \"sweep\": [\n{points}\n  ],\n  \
         \"field_len_sweep\": [\n{field_points}\n  ],\n  \"metrics\": {}\n}}\n",
        snapshot.to_json()
    );
    // Anchor the artifact at the workspace root regardless of the cwd
    // cargo hands the bench binary.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fig3.json");
    std::fs::write(out, &json).expect("write BENCH_fig3.json");
    println!("  machine-readable artifact → BENCH_fig3.json");
}

struct SweepPoint {
    pct: usize,
    distinct: usize,
    pattern_evals: usize,
    ingest: IngestSpread,
    /// Indexed like [`TIERS`]: interp, vm, fused.
    eval_ns: [f64; 3],
}

struct FieldPoint {
    len: usize,
    /// Indexed like [`TIERS`]: interp, vm, fused.
    eval_ns: [f64; 3],
    swar_ns: f64,
    scalar_ns: f64,
}

fn bench_field_len_sweep() -> Vec<FieldPoint> {
    let mut out = Vec::new();
    for &len in &[8usize, 64, 512] {
        let eval_ns = TIERS.map(|tier| long_field_eval_ns(len, tier));
        let (swar_ns, scalar_ns) = scan_kernel_ns(len);
        println!(
            "── fig3 field-length artifact: {len:>3}-byte `\\D{{1,}}` field ──\n  \
             per-field eval : {:>7.1} ns interp / {:>6.1} ns vm / {:>6.1} ns fused\n  \
             raw scan kernel: {swar_ns:>7.1} ns swar vs {scalar_ns:>6.1} ns scalar ({:.2}×)",
            eval_ns[0],
            eval_ns[1],
            eval_ns[2],
            scalar_ns / swar_ns,
        );
        out.push(FieldPoint {
            len,
            eval_ns,
            swar_ns,
            scalar_ns,
        });
    }
    out
}

fn bench_distinct_ratio_sweep(c: &mut Criterion) {
    const ROWS: usize = 20_000;
    let mut sweep = Vec::new();
    let mut g = c.benchmark_group("fig3_distinct_ratio");
    g.throughput(Throughput::Elements(ROWS as u64));
    for &pct in &[1usize, 10, 50] {
        let ratio = pct as f64 / 100.0;
        let table = distinct_ratio_table(ROWS, ratio);
        let rules = sweep_rules();
        // Artifact: the memoization bound in action — pattern evaluations
        // per ingest stay at one per distinct value for the variable
        // tuple plus one per distinct value starting with `9000` (the
        // constant tuple's literal prefix: no other value is a
        // candidate), not (tuples × rows) — plus the per-distinct cost
        // itself on all three matchers.
        let values = distinct_lhs(ROWS, ratio);
        let eval_ns = TIERS.map(|tier| eval_ns_per_distinct(&values, tier));
        let (ingest, evals) = ingest_rate(&table, &rules);
        println!(
            "── fig3 sweep artifact: {pct}% distinct → {evals} pattern evals for {ROWS} rows ──"
        );
        println!(
            "  per-distinct eval: {:>7.1} ns interp / {:>6.1} ns vm / {:>6.1} ns fused \
             (fused {:.2}× over vm, {:.2}× over interp)",
            eval_ns[0],
            eval_ns[1],
            eval_ns[2],
            eval_ns[1] / eval_ns[2],
            eval_ns[0] / eval_ns[2],
        );
        println!(
            "  full ingest      : {:>7.0} rows/s median of {INGEST_REPLAYS} ({:.0}–{:.0})",
            ingest.median, ingest.min, ingest.max,
        );
        sweep.push(SweepPoint {
            pct,
            distinct: values.len(),
            pattern_evals: evals,
            ingest,
            eval_ns,
        });
        g.bench_with_input(BenchmarkId::new("profile", pct), &table, |b, t| {
            b.iter(|| TableProfile::profile(black_box(t)));
        });
        g.bench_with_input(
            BenchmarkId::new("stream_ingest", pct),
            &(&table, &rules),
            |b, (t, rules)| {
                b.iter(|| {
                    let mut engine = StreamEngine::new(t.schema().clone(), rules.to_vec());
                    replay(&mut engine, t);
                    black_box(engine.ledger().live_count())
                });
            },
        );
    }
    g.finish();
    let fields = bench_field_len_sweep();
    write_fig3_json(ROWS, &sweep, &fields);
}

fn bench(c: &mut Criterion) {
    let small = phone::generate(&anmat_bench::gen(200, 0xF3));
    let profile = TableProfile::profile(&small.table);
    println!("{}", report::profiling_view(&small.table, &profile));

    let mut g = c.benchmark_group("fig3_profiling");
    for &rows in &[1_000usize, 10_000, 50_000] {
        let phones = phone::generate(&anmat_bench::gen(rows, 1));
        let namesd = names::generate(&anmat_bench::gen(rows, 2));
        let zips = zipcity::generate(&anmat_bench::gen(rows, 3), zipcity::ZipTarget::City);
        g.throughput(Throughput::Elements(rows as u64));
        g.bench_with_input(BenchmarkId::new("phone", rows), &phones, |b, d| {
            b.iter(|| TableProfile::profile(black_box(&d.table)));
        });
        g.bench_with_input(BenchmarkId::new("names", rows), &namesd, |b, d| {
            b.iter(|| TableProfile::profile(black_box(&d.table)));
        });
        g.bench_with_input(BenchmarkId::new("zip", rows), &zips, |b, d| {
            b.iter(|| TableProfile::profile(black_box(&d.table)));
        });
    }
    g.finish();
}

fn main() {
    let mut c = criterion();
    bench(&mut c);
    bench_distinct_ratio_sweep(&mut c);
    c.final_summary();
}
