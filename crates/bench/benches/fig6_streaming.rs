//! E16 — streaming ingest throughput: `StreamEngine` vs repeated batch
//! `detect_all`, for pure appends *and* mutation churn.
//!
//! The claim under test: incremental maintenance makes per-op cost
//! independent of accumulated table size (constant-PFD path exactly,
//! variable path `O(affected block)`), while the naive "re-run batch
//! detection after every append" strategy degrades quadratically. The
//! artifact prints per-op cost at two prefix sizes so the flatness of
//! the streaming line is visible in one run — for inserts and, since
//! the delta pipeline, for deletes/updates too (`O(block)`, not
//! `O(table)`). The `stream_churn` benchmark measures a 90% insert /
//! 10% delete+update mix so the recorded rows/s trajectory covers
//! mutation, not just append.

use anmat_bench::{criterion, experiment_config};
use anmat_core::{detect_all, discover, Pfd};
use anmat_datagen::{zipcity, Dataset};
use anmat_obs as obs;
use anmat_stream::{StreamConfig, StreamEngine};
use anmat_table::{Op, RowOp, Table, Value, ValueId};
use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn dataset(rows: usize) -> (Dataset, Vec<Pfd>) {
    let data = zipcity::generate(&anmat_bench::gen(rows, 0xF6), zipcity::ZipTarget::City);
    let rules = discover(&data.table, &experiment_config());
    (data, rules)
}

fn rows_of(table: &Table) -> Vec<Vec<Value>> {
    (0..table.row_count()).map(|r| table.row(r)).collect()
}

fn id_rows_of(table: &Table) -> Vec<Vec<ValueId>> {
    (0..table.row_count()).map(|r| table.row_ids(r)).collect()
}

/// Per-row ingest cost with `prefix` rows already accumulated — the
/// number that must *not* grow with `prefix` on the incremental path.
/// Shown for the full discovered rule set and for its constant-PFD
/// subset (the path with a strict size-independence guarantee).
fn marginal_cost_artifact(data: &Dataset, rules: &[Pfd]) {
    println!("── E16 artifact: marginal per-row cost vs accumulated size ──");
    let constant_rules: Vec<Pfd> = rules
        .iter()
        .filter(|p| p.kind() == anmat_core::PfdKind::Constant)
        .cloned()
        .collect();
    let rows = rows_of(&data.table);
    for (label, rules) in [("all rules", rules), ("constant only", &constant_rules[..])] {
        for &prefix in &[10_000usize, 100_000] {
            let mut engine = StreamEngine::new(data.table.schema().clone(), rules.to_vec());
            for row in rows.iter().take(prefix - 1_000).cloned() {
                engine.apply([RowOp::Insert(row)]).expect("schema matches");
            }
            let start = Instant::now();
            for row in rows.iter().skip(prefix - 1_000).take(1_000).cloned() {
                engine.apply([RowOp::Insert(row)]).expect("schema matches");
            }
            let per_row = start.elapsed().as_secs_f64() * 1e9 / 1_000.0;
            println!(
                "  stream ({label:>13}): next 1k rows after {prefix:>6} accumulated: \
                 {per_row:>8.0} ns/row ({} live violations)",
                engine.ledger().live_count()
            );
        }
    }
    // Mutation cost must be `O(affected block)`, not `O(table)`: time 1k
    // delete+update ops with 10k vs 100k rows accumulated — the two
    // numbers must be of the same order for the claim to hold.
    for &prefix in &[10_000usize, 100_000] {
        let mut engine = StreamEngine::new(data.table.schema().clone(), rules.to_vec());
        for row in rows.iter().take(prefix).cloned() {
            engine.apply([RowOp::Insert(row)]).expect("schema matches");
        }
        let start = Instant::now();
        for i in 0..1_000 {
            // Spread mutations across the accumulated slots; alternate
            // delete and in-place update (donor cells from a live row).
            let target = (i * 97) % (prefix / 2);
            if i % 2 == 0 {
                // Deletes address the lower half of the slots …
                engine.apply([Op::Delete(target)]).expect("target is live");
            } else {
                // … updates the upper half, so the two never collide.
                let slot = target + prefix / 2;
                let donor = engine.table().row(prefix / 2);
                engine
                    .apply([RowOp::Update(slot, donor)])
                    .expect("target is live");
            }
        }
        let per_op = start.elapsed().as_secs_f64() * 1e9 / 1_000.0;
        println!(
            "  churn  ({:>13}): 1k delete/update ops at {prefix:>6} accumulated: \
             {per_op:>8.0} ns/op ({} live violations)",
            "all rules",
            engine.ledger().live_count()
        );
    }
}

/// 90% insert / 10% delete+update op mix over the dataset — the churn
/// workload the delta pipeline opened. Throughput is reported in
/// ops/s (criterion `Elements`), directly comparable with the
/// append-only `stream_ingest` rows/s numbers.
fn churn_ops(data: &Dataset) -> Vec<RowOp> {
    let rows = rows_of(&data.table);
    let mut ops = Vec::with_capacity(rows.len() + rows.len() / 5);
    for (r, row) in rows.iter().enumerate() {
        ops.push(RowOp::Insert(row.clone()));
        // Every 10th arrival: delete an old slot; every 10th (offset 5):
        // rewrite one in place with a donor row's cells.
        if r % 10 == 9 {
            ops.push(RowOp::Delete(r - 4));
        } else if r % 10 == 4 && r > 10 {
            ops.push(RowOp::Update(r - 3, rows[r - 1].clone()));
        }
    }
    ops
}

/// Sustained-churn memory sweep: a 50% delete workload (every op is a
/// coin flip between inserting the next dataset row and deleting a
/// random live one) run for `total_ops` ops in 256-op batches, with and
/// without compacting at tombstone ratio 0.3 after each batch
/// (`StreamEngine::compact_if`). The artifact prints peak total slots vs
/// peak live rows, the worst observed slots/live ratio at a batch
/// boundary, and the final table footprint — the bounded-growth claim:
/// with the ratio trigger, slots stay within 2× live for the whole run
/// while the uncompacted twin's slot count grows with *history*.
fn churn_memory_artifact(data: &Dataset, rules: &[Pfd], total_ops: usize) {
    println!("── E16 artifact: sustained-churn memory (50% delete mix, {total_ops} ops) ──");
    let rows = rows_of(&data.table);
    for ratio in [None, Some(0.3)] {
        let mut engine = StreamEngine::new(data.table.schema().clone(), rules.to_vec());
        let mut rng = StdRng::seed_from_u64(0x3AC7);
        let mut live: Vec<usize> = Vec::new();
        let (mut peak_slots, mut peak_live) = (0usize, 0usize);
        let mut worst_ratio = 1.0f64;
        let mut done = 0usize;
        let mut src = 0usize;
        let start = Instant::now();
        while done < total_ops {
            let mut slots = engine.row_count();
            let batch = 256.min(total_ops - done);
            let mut ops = Vec::with_capacity(batch);
            for _ in 0..batch {
                if !live.is_empty() && rng.random_bool(0.5) {
                    let pick = rng.random_range(0..live.len());
                    ops.push(RowOp::Delete(live.swap_remove(pick)));
                } else {
                    ops.push(RowOp::Insert(rows[src % rows.len()].clone()));
                    src += 1;
                    live.push(slots);
                    slots += 1;
                }
            }
            done += ops.len();
            engine.apply(ops).expect("ops are valid");
            if ratio.and_then(|r| engine.compact_if(r)).is_some() {
                // Compaction renumbered the slots: refresh the id cache.
                live = engine.table().iter_live().collect();
            }
            // `slots` is the pre-compaction count for this batch — the
            // honest peak even when the boundary check then compacts.
            peak_slots = peak_slots.max(slots);
            peak_live = peak_live.max(engine.live_rows());
            worst_ratio =
                worst_ratio.max(engine.row_count() as f64 / engine.live_rows().max(1) as f64);
        }
        let secs = start.elapsed().as_secs_f64();
        let footprint = engine.table().mem_footprint();
        let stats = engine.compaction_stats();
        println!(
            "  compact-ratio {:>4}: peak {peak_slots:>6} slot(s) vs {peak_live:>6} peak live \
             (worst slots/live {worst_ratio:.2}×); {} epoch(s), {} slot(s) reclaimed; final \
             {} slot(s) / {} live, {} B table; {:.0} ops/s",
            ratio.map_or("off".to_string(), |r| r.to_string()),
            stats.epochs,
            stats.reclaimed_slots,
            footprint.total_slots,
            footprint.live_slots,
            footprint.bytes,
            total_ops as f64 / secs
        );
    }
}

/// Recorder-overhead check: the 90/10 churn workload with the metrics
/// recorder off vs on. The naive off-then-on ordering once reported the
/// instrumented leg *faster* (−52%): the first leg pays pool interning,
/// page-cache, and branch-predictor warmup that the second inherits for
/// free. Both legs are therefore warmed explicitly (one untimed run in
/// each recorder state), then timed interleaved: 7 repetitions, leg
/// order alternating forward/reverse per rep, each leg keeping its
/// best time — so both recorder states sample the same mix of
/// ambient-load windows instead of whole legs landing in different
/// load regimes (the earlier one-leg-at-a-time loop let exactly that
/// happen and once recorded a 4.5% phantom overhead). The published
/// figure is clamped at zero: a negative delta just means the overhead
/// is below the host's noise floor. The acceptance bound is 3% —
/// reported here, asserted by a human reading the artifact (a loaded
/// CI box is allowed to flap).
/// Returns `(off_ops_per_sec, on_ops_per_sec, overhead_pct, raw_pct)`.
fn recorder_overhead_artifact(data: &Dataset, rules: &[Pfd]) -> (f64, f64, f64, f64) {
    let ops = churn_ops(data);
    // One timed leg = 4 full engine lifetimes: a single ~15 ms pass is
    // inside the scheduler's noise floor on a busy box, and the
    // negative-overhead artifact this measurement once produced was
    // exactly that noise being attributed to the recorder.
    let run = || {
        let start = Instant::now();
        for _ in 0..4 {
            let mut engine = StreamEngine::new(data.table.schema().clone(), rules.to_vec());
            engine.apply(ops.iter().cloned()).expect("ops are valid");
            black_box(engine.ledger().live_count());
        }
        start.elapsed().as_secs_f64() / 4.0
    };
    let timed_leg = |recorder_on: bool| {
        if recorder_on {
            obs::Recorder::enable();
        } else {
            obs::Recorder::disable();
        }
        run()
    };
    // Warm *both* legs untimed — each recorder state touches its own
    // code paths (counter increments vs predicted-not-taken branches).
    for leg in [false, true] {
        timed_leg(leg);
    }
    let mut best = [f64::INFINITY; 2];
    for rep in 0..7 {
        let order: [usize; 2] = if rep % 2 == 0 { [0, 1] } else { [1, 0] };
        for leg in order {
            best[leg] = best[leg].min(timed_leg(leg == 1));
        }
    }
    obs::Recorder::disable();
    let off = ops.len() as f64 / best[0];
    let on = ops.len() as f64 / best[1];
    let raw = (off - on) / off * 100.0;
    let overhead = raw.max(0.0);
    println!(
        "── E16 artifact: recorder overhead (90/10 churn, {} ops, both legs warmed, \
         interleaved best-of-7) ──",
        ops.len()
    );
    println!("  recorder off: {off:>9.0} ops/s");
    println!(
        "  recorder on : {on:>9.0} ops/s ({overhead:.2}% overhead, raw delta {raw:+.2}%; \
         acceptance bound 3%)"
    );
    (off, on, overhead, raw)
}

/// Epoch-tied reclamation artifact: sustained churn over a
/// high-cardinality column (every insert mints a fresh UUID-like city,
/// so dead rows strand unique interned strings), with string
/// reclamation off vs on. Both legs compact at ratio 0.3; the reclaim
/// leg additionally sweeps unreferenced pool strings at each
/// compaction barrier. Claims recorded:
///
/// * **bounded pool**: the string bytes the run adds to the pool stay
///   ≤ 2× the exact bytes of strings still referenced by live rows
///   under reclamation, while the no-reclaim twin's pool grows with
///   *history* (one stranded string per dead insert, forever);
/// * **cheap sweep**: throughput cost ≤ 5%. The comparison is biased
///   *against* the reclaim leg — it also pays the mid-run snapshot
///   captures;
/// * **cheap snapshots**: capturing an `EngineSnapshot` mid-ingest is
///   microseconds — it clones chunk handles and the live-violation
///   map, `O(mutated chunks)`, never `O(rows)`.
///
/// The two legs (and each repetition) mint disjoint city universes so
/// pool deltas are attributable and the reclaim leg can never free a
/// string another leg still resolves. Each leg first loads the
/// dataset's rows into its engine, untimed, and deletes only its own
/// inserts: every dataset string then stays in a live cell, so the
/// sweep's mark keeps it for the later artifacts that still resolve
/// `data.table`'s ids. Returns the artifact's JSON fragment.
fn reclaim_churn_artifact(data: &Dataset, rules: &[Pfd], total_ops: usize) -> String {
    use anmat_table::ValuePool;
    println!(
        "── E16 artifact: reclamation churn (high-cardinality city, 60/40 insert/delete \
         mix, {total_ops} ops, compact-ratio 0.3, interleaved best-of-3) ──"
    );
    let rows = rows_of(&data.table);
    let city_col = data
        .table
        .schema()
        .index_of("city")
        .expect("zipcity schema has a city column");
    struct Leg {
        ops_per_sec: f64,
        strings_added: usize,
        string_bytes_added: usize,
        live_rows: usize,
        live_string_bytes: usize,
        swept: anmat_table::ReclaimStats,
        snap_us: Vec<f64>,
    }
    let run_leg = |tag: &str, reclaim: bool, ops_budget: usize| -> Leg {
        let config = StreamConfig {
            reclaim,
            ..StreamConfig::default()
        };
        let mut engine =
            StreamEngine::with_config(data.table.schema().clone(), rules.to_vec(), config);
        engine
            .apply(id_rows_of(&data.table).into_iter().map(Op::Insert))
            .expect("schema matches");
        // The dataset rows hold slots `0..base` for good: they are never
        // deleted, and compaction keeps survivors in order.
        let base = engine.row_count();
        let before = ValuePool::mem_footprint();
        let mut rng = StdRng::seed_from_u64(0x9E1C);
        let mut live: Vec<usize> = Vec::new();
        let (mut done, mut src, mut batches) = (0usize, 0usize, 0usize);
        let mut snap_us = Vec::new();
        let start = Instant::now();
        while done < ops_budget {
            let mut slots = engine.row_count();
            let batch = 256.min(ops_budget - done);
            let mut ops = Vec::with_capacity(batch);
            for _ in 0..batch {
                if !live.is_empty() && rng.random_bool(0.4) {
                    let pick = rng.random_range(0..live.len());
                    ops.push(RowOp::Delete(live.swap_remove(pick)));
                } else {
                    let mut row = rows[src % rows.len()].clone();
                    row[city_col] = Value::Text(format!("{tag}-{src:08x}-c17y"));
                    ops.push(RowOp::Insert(row));
                    src += 1;
                    live.push(slots);
                    slots += 1;
                }
            }
            done += ops.len();
            engine.apply(ops).expect("ops are valid");
            if engine.compact_if(0.3).is_some() {
                // Compaction renumbered the slots: refresh the id cache.
                live = engine.table().iter_live().skip(base).collect();
            }
            batches += 1;
            if reclaim && batches % 64 == 0 {
                // Mid-ingest snapshot: time the capture, then drop it at
                // once so the pin never defers the next sweep.
                let t = Instant::now();
                let snap = engine.snapshot();
                snap_us.push(t.elapsed().as_secs_f64() * 1e6);
                black_box(snap.epoch());
                drop(snap);
            }
        }
        let secs = start.elapsed().as_secs_f64();
        // Final barrier: sweep whatever the last partial epoch queued,
        // so the end-state footprint reflects the steady-state protocol.
        engine.compact();
        let after = ValuePool::mem_footprint();
        let mut seen = std::collections::HashSet::new();
        let mut live_string_bytes = 0usize;
        for row in engine.table().iter_live().skip(base) {
            for col in 0..engine.table().schema().arity() {
                if let Some(s) = engine.table().cell_str(row, col) {
                    if seen.insert(s) {
                        live_string_bytes += s.len();
                    }
                }
            }
        }
        Leg {
            ops_per_sec: ops_budget as f64 / secs,
            strings_added: after.strings - before.strings,
            string_bytes_added: after.string_bytes - before.string_bytes,
            live_rows: engine.live_rows() - base,
            live_string_bytes,
            swept: engine.reclaim_stats(),
            snap_us,
        }
    };
    // Warm both legs untimed (quarter-size), then interleave best-of-3
    // with per-rep disjoint string universes: every rep pays the same
    // fresh-interning cost, so neither leg inherits a warm pool.
    for (leg, reclaim) in [(0usize, false), (1, true)] {
        run_leg(&format!("w{leg}"), reclaim, total_ops / 4);
    }
    let mut best: [Option<Leg>; 2] = [None, None];
    for rep in 0..3 {
        let order: [usize; 2] = if rep % 2 == 0 { [0, 1] } else { [1, 0] };
        for leg in order {
            let out = run_leg(&format!("{leg}x{rep}"), leg == 1, total_ops);
            if best[leg]
                .as_ref()
                .is_none_or(|b| out.ops_per_sec > b.ops_per_sec)
            {
                best[leg] = Some(out);
            }
        }
    }
    let [no_reclaim, reclaim] = best.map(|l| l.expect("both legs ran"));
    let ratio = reclaim.string_bytes_added as f64 / reclaim.live_string_bytes.max(1) as f64;
    let raw_cost = (no_reclaim.ops_per_sec - reclaim.ops_per_sec) / no_reclaim.ops_per_sec * 100.0;
    let cost = raw_cost.max(0.0);
    let captures = reclaim.snap_us.len();
    let mean_us = reclaim.snap_us.iter().sum::<f64>() / captures.max(1) as f64;
    let max_us = reclaim.snap_us.iter().fold(0.0f64, |a, &b| a.max(b));
    println!(
        "  no-reclaim : {:>9.0} ops/s; pool +{} string(s) / +{} B — grows with history \
         ({} live rows hold {} B of strings)",
        no_reclaim.ops_per_sec,
        no_reclaim.strings_added,
        no_reclaim.string_bytes_added,
        no_reclaim.live_rows,
        no_reclaim.live_string_bytes
    );
    println!(
        "  reclaim    : {:>9.0} ops/s; pool +{} string(s) / +{} B vs {} B live-string \
         bytes ({ratio:.2}× live; bound 2×); swept {} string(s) / {} B",
        reclaim.ops_per_sec,
        reclaim.strings_added,
        reclaim.string_bytes_added,
        reclaim.live_string_bytes,
        reclaim.swept.strings,
        reclaim.swept.bytes
    );
    println!(
        "  sweep cost : raw {raw_cost:+.2}% ({cost:.2}% clamped; acceptance bound 5%; \
         reclaim leg also pays {captures} snapshot capture(s))"
    );
    println!(
        "  snapshots  : {captures} capture(s) mid-ingest, mean {mean_us:.0} µs, \
         max {max_us:.0} µs — chunk-handle clones, O(mutated chunks), not O(rows)"
    );
    format!(
        "{{\n    \"ops\": {total_ops},\n    \"insert_fraction\": 0.6,\n    \
         \"no_reclaim\": {{ \"ops_per_sec\": {:.0}, \"pool_strings_added\": {}, \
         \"pool_string_bytes_added\": {}, \"live_rows\": {}, \"live_string_bytes\": {} }},\n    \
         \"reclaim\": {{ \"ops_per_sec\": {:.0}, \"pool_strings_added\": {}, \
         \"pool_string_bytes_added\": {}, \"live_rows\": {}, \"live_string_bytes\": {}, \
         \"swept_strings\": {}, \"swept_bytes\": {}, \"pool_bytes_over_live\": {ratio:.3} }},\n    \
         \"sweep_cost_pct\": {cost:.3},\n    \"sweep_cost_raw_pct\": {raw_cost:.3},\n    \
         \"snapshot\": {{ \"captures\": {captures}, \"mean_us\": {mean_us:.1}, \
         \"max_us\": {max_us:.1} }},\n    \
         \"claim\": \"every insert mints a fresh high-cardinality string; without \
         reclamation the pool keeps one stranded string per dead insert forever (growth \
         proportional to history), with --reclaim the epoch-tied sweep keeps pool string \
         bytes within 2x the bytes referenced by live rows, at <=5% throughput cost \
         (interleaved best-of-3, reclaim leg additionally pays mid-ingest snapshot \
         captures); capturing a copy-on-write snapshot during ingest costs \
         microseconds, O(mutated chunks), never O(rows)\"\n  }}",
        no_reclaim.ops_per_sec,
        no_reclaim.strings_added,
        no_reclaim.string_bytes_added,
        no_reclaim.live_rows,
        no_reclaim.live_string_bytes,
        reclaim.ops_per_sec,
        reclaim.strings_added,
        reclaim.string_bytes_added,
        reclaim.live_rows,
        reclaim.live_string_bytes,
        reclaim.swept.strings,
        reclaim.swept.bytes,
    )
}

/// The machine-readable artifact: ingest + churn throughput plus the
/// full end-of-run metrics registry, as one JSON document. The metrics
/// section is exactly what `anmat stream --metrics-out` writes, so
/// downstream tooling parses one schema for both producers.
fn write_fig6_json(
    data: &Dataset,
    rules: &[Pfd],
    churn: (f64, f64, f64, f64),
    reclaim_churn: &str,
) {
    obs::Recorder::enable();
    let ids = id_rows_of(&data.table);
    let mut engine = StreamEngine::new(data.table.schema().clone(), rules.to_vec());
    let start = Instant::now();
    for row in ids.iter().cloned() {
        engine.apply([Op::Insert(row)]).expect("schema matches");
    }
    let ingest = ids.len() as f64 / start.elapsed().as_secs_f64();
    engine.publish_metrics();
    let snapshot = obs::MetricsSnapshot::capture();
    obs::Recorder::disable();
    let (off, on, overhead, raw) = churn;
    let json = format!(
        "{{\n  \"rows\": {},\n  \"ingest_rows_per_sec\": {ingest:.0},\n  \
         \"churn_ops_per_sec\": {{\n    \"uninstrumented\": {off:.0},\n    \
         \"instrumented\": {on:.0},\n    \"overhead_pct\": {overhead:.3},\n    \
         \"overhead_raw_pct\": {raw:.3}\n  }},\n  \"reclaim_churn\": {reclaim_churn},\n  \
         \"metrics\": {}\n}}\n",
        ids.len(),
        snapshot.to_json()
    );
    // Anchor the artifact at the workspace root regardless of the cwd
    // cargo hands the bench binary (it is the package dir, not the
    // workspace root).
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fig6.json");
    std::fs::write(out, &json).expect("write BENCH_fig6.json");
    println!(
        "  machine-readable artifact → BENCH_fig6.json ({ingest:.0} rows/s instrumented ingest)"
    );
}

fn bench(c: &mut Criterion) {
    // Discovery over 100k rows dominates setup; do it once and share it
    // between the artifact and the 100k benchmark cases.
    let big = dataset(100_000);
    marginal_cost_artifact(&big.0, &big.1);
    churn_memory_artifact(&big.0, &big.1, 100_000);
    let small = dataset(10_000);
    let churn_rates = recorder_overhead_artifact(&small.0, &small.1);
    let reclaim_churn = reclaim_churn_artifact(&small.0, &small.1, 100_000);
    write_fig6_json(&small.0, &small.1, churn_rates, &reclaim_churn);
    for (rows, (data, rules)) in [(10_000usize, &small), (100_000, &big)] {
        let prebuilt = rows_of(&data.table);
        let mut g = c.benchmark_group("fig6_streaming");
        g.throughput(Throughput::Elements(rows as u64));
        g.bench_with_input(
            BenchmarkId::new("stream_ingest", rows),
            &prebuilt,
            |b, prebuilt| {
                b.iter(|| {
                    let mut engine = StreamEngine::new(data.table.schema().clone(), rules.to_vec());
                    for row in prebuilt.iter().cloned() {
                        engine.apply([RowOp::Insert(row)]).expect("schema matches");
                    }
                    black_box(engine.ledger().live_count())
                });
            },
        );
        // The clone-free path: rows arrive as interned ids (what the CLI
        // stream command's CSV replay uses).
        let prebuilt_ids = id_rows_of(&data.table);
        g.bench_with_input(
            BenchmarkId::new("stream_ingest_ids", rows),
            &prebuilt_ids,
            |b, prebuilt_ids| {
                b.iter(|| {
                    let mut engine = StreamEngine::new(data.table.schema().clone(), rules.to_vec());
                    for row in prebuilt_ids.iter().cloned() {
                        engine.apply([Op::Insert(row)]).expect("schema matches");
                    }
                    black_box(engine.ledger().live_count())
                });
            },
        );
        // The churn mix: 90% inserts, 10% deletes/updates, through the
        // delta pipeline's `apply`. Per-op cost is `O(block)` for the
        // mutations, so throughput must stay in the same regime as pure
        // append ingest.
        let ops = churn_ops(data);
        g.throughput(Throughput::Elements(ops.len() as u64));
        g.bench_with_input(BenchmarkId::new("stream_churn", rows), &ops, |b, ops| {
            b.iter(|| {
                let mut engine = StreamEngine::new(data.table.schema().clone(), rules.to_vec());
                engine.apply(ops.iter().cloned()).expect("ops are valid");
                black_box(engine.ledger().live_count())
            });
        });
        g.throughput(Throughput::Elements(rows as u64));
        // The naive alternative: re-run batch detection after each of 100
        // appends of rows/100 (full per-append batch re-detection at 1:1
        // row granularity is too slow to even measure at 100k).
        let append_chunk = rows / 100;
        g.bench_with_input(
            BenchmarkId::new("repeated_batch_detect", rows),
            &prebuilt,
            |b, prebuilt| {
                b.iter(|| {
                    let mut table = Table::empty(data.table.schema().clone());
                    let mut total = 0usize;
                    for (i, row) in prebuilt.iter().cloned().enumerate() {
                        table.push_row(row).expect("schema matches");
                        if (i + 1) % append_chunk == 0 {
                            total = detect_all(black_box(&table), rules).len();
                        }
                    }
                    black_box(total)
                });
            },
        );
        g.finish();
    }
}

fn main() {
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
