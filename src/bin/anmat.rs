//! `anmat` — command-line interface to the ANMAT pipeline.
//!
//! The demo ships a GUI and a Jupyter notebook; this CLI is the
//! library-native equivalent of that workflow:
//!
//! ```text
//! anmat profile  data.csv                     # Figure 3 view
//! anmat discover data.csv [--store DIR] [--coverage 0.6] [--violations 0.1]
//! anmat rules    --store DIR --dataset data [--confirm N | --reject N]
//! anmat detect   data.csv [--store DIR | --rules FILE] [--repair out.csv]
//! anmat stream   data.csv [--store DIR | --rules FILE] [--batch N]
//! ```
//!
//! `discover` saves profile + rules into a [`RuleStore`] project directory
//! (the MongoDB substitution); `rules` lists them and records the
//! Figure-4 confirm/reject decisions; `detect` runs the active rules and
//! optionally writes a repaired copy of the data. `stream` replays the
//! CSV as an append stream through the incremental engine, printing
//! violations (and retractions) as rows arrive — the online-monitoring
//! scenario the demo GUI hints at. With `--ops FILE` it then applies a
//! *mutation* op-log (read by [`oplog::parse`]) to the accumulated
//! state as one atomic batch: one op per record, `+,cell,…` inserts a
//! row, `-,rowid` deletes one, `~,rowid,cell,…` updates one in place
//! (RFC-4180 quoting, row ids as printed in event lines).

use anmat::obs;
use anmat::prelude::*;
use anmat::table::{write_atomic, TableError};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("profile") => cmd_profile(&args[1..]),
        Some("discover") => cmd_discover(&args[1..]),
        Some("rules") => cmd_rules(&args[1..]),
        Some("detect") => cmd_detect(&args[1..]),
        Some("stream") => cmd_stream(&args[1..]),
        Some("help" | "--help" | "-h") => {
            print!("{}", usage());
            Ok(())
        }
        None => {
            // No command: usage is diagnostic output, and the invocation
            // failed — same contract as an unknown command.
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
        Some(other) => {
            eprintln!("error: unknown command `{other}`");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "anmat — pattern functional dependencies (SIGMOD'19 reproduction)\n\
     \n\
     USAGE:\n\
     \x20 anmat profile  <data.csv>\n\
     \x20 anmat discover <data.csv> [--store DIR] [--coverage F] [--violations F]\n\
     \x20                [--min-support N] [--paper-style]\n\
     \x20 anmat rules    --store DIR --dataset NAME [--confirm N | --reject N]\n\
     \x20 anmat detect   <data.csv> (--store DIR | --rules FILE)\n\
     \x20                [--confirmed-only] [--repair OUT.csv]\n\
     \x20 anmat stream   <data.csv> (--store DIR | --rules FILE) [--batch N]\n\
     \x20                [--ops FILE] [--confirmed-only] [--quiet]\n\
     \x20                [--demote-drifted] [--violations F] [--min-support N]\n\
     \x20                [--compact-ratio R] [--reclaim] [--checkpoint]\n\
     \x20                [--stats-every N] [--metrics-out FILE]\n\
     \x20                (drift thresholds: pass the values the rules were\n\
     \x20                discovered with;\n\
     \x20                --compact-ratio R compacts between batches, after\n\
     \x20                printing a batch's events, once tombstoned slots\n\
     \x20                make up fraction R of the table (rows renumber);\n\
     \x20                --reclaim additionally sweeps interned strings no\n\
     \x20                longer referenced by any live row at each\n\
     \x20                compaction barrier, recycling their pool ids —\n\
     \x20                output is bit-for-bit identical either way;\n\
     \x20                --checkpoint (needs --store) writes a consistent\n\
     \x20                {epoch, table, live violations} JSON checkpoint\n\
     \x20                into the store from a copy-on-write snapshot;\n\
     \x20                --stats-every N prints a one-line stats snapshot\n\
     \x20                every N batches; --metrics-out FILE writes the\n\
     \x20                full metrics registry as JSON at exit; timing\n\
     \x20                lines are suppressed by --quiet or ANMAT_NO_TIMING=1)\n\
     \n\
     OP-LOG (--ops FILE; one op per CSV record, applied after the CSV\n\
     replay as one atomic batch: --batch sizes only the replay):\n\
     \x20 +,cell,…        insert a row\n\
     \x20 -,rowid         delete the row in that slot\n\
     \x20 ~,rowid,cell,…  update the row in place (slot id preserved)\n"
        .to_string()
}

/// Pull `--flag value` out of an argument list. A flag given without a
/// value (last, or followed by another `--flag`) is an error.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(idx) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if args.get(idx + 1).is_none_or(|v| v.starts_with("--")) {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(idx + 1);
    args.remove(idx);
    Ok(Some(value))
}

/// Pull a boolean `--flag`.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(idx) = args.iter().position(|a| a == flag) {
        args.remove(idx);
        true
    } else {
        false
    }
}

/// What remains once every known flag is taken must be exactly the
/// command's positional arguments, one per entry of `names`: a leftover
/// `--flag` (unknown, or given twice), a surplus argument, or a missing
/// one is an error naming it.
fn positionals(command: &str, args: Vec<String>, names: &[&str]) -> Result<Vec<String>, String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("{command}: unexpected flag `{flag}`"));
    }
    if let Some(extra) = args.get(names.len()) {
        return Err(format!("{command}: unexpected argument `{extra}`"));
    }
    if let Some(name) = names.get(args.len()) {
        return Err(format!("{command}: missing {name}"));
    }
    Ok(args)
}

/// Parse the value of a ratio flag: a number in [0, 1].
fn parse_ratio(flag: &str, value: &str) -> Result<f64, String> {
    value
        .parse()
        .ok()
        .filter(|r: &f64| (0.0..=1.0).contains(r))
        .ok_or(format!("bad {flag} `{value}` (want a ratio in [0, 1])"))
}

fn dataset_name(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("dataset")
        .to_string()
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let path = &positionals("profile", args.to_vec(), &["<data.csv>"])?[0];
    let table = csv::read_path(path).map_err(|e| format!("reading {path}: {e}"))?;
    let profile = TableProfile::profile(&table);
    print!("{}", report::profiling_view(&table, &profile));
    Ok(())
}

fn cmd_discover(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let store_dir = take_flag(&mut args, "--store")?;
    let coverage = take_flag(&mut args, "--coverage")?;
    let violations = take_flag(&mut args, "--violations")?;
    let min_support = take_flag(&mut args, "--min-support")?;
    let paper_style = take_switch(&mut args, "--paper-style");
    let path = &positionals("discover", args, &["<data.csv>"])?[0];
    let table = csv::read_path(path).map_err(|e| format!("reading {path}: {e}"))?;

    let mut config = DiscoveryConfig {
        relation: dataset_name(path),
        ..DiscoveryConfig::default()
    };
    if let Some(c) = coverage {
        config.min_coverage = parse_ratio("--coverage", &c)?;
    }
    if let Some(v) = violations {
        config.max_violation_ratio = parse_ratio("--violations", &v)?;
    }
    if let Some(s) = min_support {
        config.min_support = s.parse().map_err(|_| format!("bad --min-support `{s}`"))?;
    }
    if paper_style {
        config.context_style = ContextStyle::AnyString;
    }

    let profile = TableProfile::profile(&table);
    let pfds = discover(&table, &config);
    println!("discovered {} PFD(s):", pfds.len());
    for (i, pfd) in pfds.iter().enumerate() {
        println!("\n[{i}] {:?}", pfd.kind());
        for line in pfd.to_string().lines() {
            println!("    {line}");
        }
        println!("    coverage {:.3}", pfd.coverage(&table));
    }

    if let Some(dir) = store_dir {
        let store = RuleStore::open(&dir).map_err(|e| format!("opening store {dir}: {e}"))?;
        let record = DatasetRecord {
            name: dataset_name(path),
            profile: Some(profile),
            rules: pfds
                .into_iter()
                .map(|pfd| StoredRule {
                    pfd,
                    status: RuleStatus::Pending,
                })
                .collect(),
        };
        store.save(&record).map_err(|e| format!("saving: {e}"))?;
        println!("\nsaved to store `{dir}` as dataset `{}`", record.name);
    }
    Ok(())
}

fn cmd_rules(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let dir = take_flag(&mut args, "--store")?.ok_or("rules: missing --store DIR")?;
    let dataset = take_flag(&mut args, "--dataset")?.ok_or("rules: missing --dataset NAME")?;
    let confirm = take_flag(&mut args, "--confirm")?;
    let reject = take_flag(&mut args, "--reject")?;
    positionals("rules", args, &[])?;
    let store = RuleStore::open(&dir).map_err(|e| format!("opening store {dir}: {e}"))?;

    if let Some(n) = confirm {
        let idx: usize = n.parse().map_err(|_| format!("bad --confirm `{n}`"))?;
        store
            .set_status(&dataset, idx, RuleStatus::Confirmed)
            .map_err(|e| e.to_string())?;
        println!("rule {idx} confirmed");
    }
    if let Some(n) = reject {
        let idx: usize = n.parse().map_err(|_| format!("bad --reject `{n}`"))?;
        store
            .set_status(&dataset, idx, RuleStatus::Rejected)
            .map_err(|e| e.to_string())?;
        println!("rule {idx} rejected");
    }

    let record = store
        .load(&dataset)
        .map_err(|e| format!("loading `{dataset}`: {e}"))?;
    println!(
        "dataset `{}` — {} rule(s):",
        record.name,
        record.rules.len()
    );
    for (i, rule) in record.rules.iter().enumerate() {
        println!("\n[{i}] {:?}", rule.status);
        for line in rule.pfd.to_string().lines() {
            println!("    {line}");
        }
    }
    Ok(())
}

/// Load the active rules for a dataset from a store dir or a rules file
/// (exactly one of the two).
///
/// Alongside each rule, returns its index in the *stored* rule list
/// (identity for a rules file), so callers that write back — drift
/// demotion — address the same `[N]` the `anmat rules` listing shows.
fn load_rules(
    command: &str,
    data_path: &str,
    store_dir: Option<&str>,
    rules_file: Option<&str>,
    confirmed_only: bool,
) -> Result<(Vec<Pfd>, Vec<usize>), String> {
    if store_dir.is_some() && rules_file.is_some() {
        return Err(format!(
            "{command}: give --store DIR or --rules FILE, not both"
        ));
    }
    let (pfds, indices): (Vec<Pfd>, Vec<usize>) = if let Some(dir) = store_dir {
        let store = RuleStore::open(dir).map_err(|e| format!("opening store {dir}: {e}"))?;
        let record = store
            .load(&dataset_name(data_path))
            .map_err(|e| format!("loading rules: {e}"))?;
        record
            .rules
            .into_iter()
            .enumerate()
            .filter(|(_, r)| {
                r.status == RuleStatus::Confirmed
                    || (!confirmed_only && r.status == RuleStatus::Pending)
            })
            .map(|(i, r)| (r.pfd, i))
            .unzip()
    } else if let Some(file) = rules_file {
        let text = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
        let pfds: Vec<Pfd> =
            serde_json::from_str(&text).map_err(|e| format!("parsing {file}: {e}"))?;
        let indices = (0..pfds.len()).collect();
        (pfds, indices)
    } else {
        return Err(format!("{command}: need --store DIR or --rules FILE"));
    };
    if pfds.is_empty() {
        return Err("no active rules (confirm some with `anmat rules --confirm N`)".into());
    }
    Ok((pfds, indices))
}

fn cmd_detect(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let store_dir = take_flag(&mut args, "--store")?;
    let rules_file = take_flag(&mut args, "--rules")?;
    let confirmed_only = take_switch(&mut args, "--confirmed-only");
    let repair_out = take_flag(&mut args, "--repair")?;
    let path = &positionals("detect", args, &["<data.csv>"])?[0];
    let mut table = csv::read_path(path).map_err(|e| format!("reading {path}: {e}"))?;

    let (pfds, _) = load_rules(
        "detect",
        path,
        store_dir.as_deref(),
        rules_file.as_deref(),
        confirmed_only,
    )?;

    let violations = detect_all(&table, &pfds);
    print!("{}", report::violations_view(&table, &violations));

    if let Some(out) = repair_out {
        let reports = repair_to_fixpoint(&mut table, &pfds, 5);
        let applied: usize = reports.iter().map(RepairReport::applied_count).sum();
        let conflicts: usize = reports.iter().map(|r| r.conflicts.len()).sum();
        csv::write_path(&table, &out).map_err(|e| format!("writing {out}: {e}"))?;
        println!("\nrepaired {applied} cell(s) ({conflicts} conflict(s) left untouched) → {out}");
    }
    Ok(())
}

/// One `stats:` line from the live metrics registry — the deterministic
/// figures always, the wall-clock rate only when timing output is
/// allowed (it is nondeterministic, so `--quiet`/`ANMAT_NO_TIMING`
/// suppress it).
fn print_stats_line(engine: &StreamEngine, started: Instant, timing: bool) {
    engine.publish_metrics();
    let snap = obs::MetricsSnapshot::capture();
    let slots = snap.gauge("table.slots").unwrap_or(0);
    let live = snap.gauge("table.live").unwrap_or(0);
    let violations = snap.gauge("ledger.live").unwrap_or(0);
    let pool = snap.gauge("pool.bytes").unwrap_or(0);
    let fused_evals = snap.counter("pattern.fused_evals").unwrap_or(0);
    let vm_evals = snap.counter("pattern.vm_evals").unwrap_or(0);
    let interp_evals = snap.counter("pattern.interp_evals").unwrap_or(0);
    let mut line = format!(
        "stats: {slots} slot(s) ({live} live), {violations} live violation(s), \
         pool {pool} byte(s), pattern evals {fused_evals} fused / {vm_evals} vm / \
         {interp_evals} interp"
    );
    // Reclamation figures ride along only once a sweep has actually
    // freed something — the line stays byte-identical to the historic
    // format for non-reclaiming runs.
    let freed_strings = snap.gauge("pool.freed_strings").unwrap_or(0);
    if freed_strings > 0 {
        line.push_str(&format!(
            ", {} live string(s), {freed_strings} freed ({} byte(s))",
            snap.gauge("pool.live_strings").unwrap_or(0),
            snap.gauge("pool.freed_bytes").unwrap_or(0)
        ));
    }
    if timing {
        let secs = started.elapsed().as_secs_f64();
        let ops = snap.counter("engine.ops").unwrap_or(0);
        if secs > 0.0 {
            line.push_str(&format!(", {:.0} rows/s", ops as f64 / secs));
        }
    }
    println!("{line}");
}

fn cmd_stream(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let store_dir = take_flag(&mut args, "--store")?;
    let rules_file = take_flag(&mut args, "--rules")?;
    let ops_file = take_flag(&mut args, "--ops")?;
    let confirmed_only = take_switch(&mut args, "--confirmed-only");
    let quiet = take_switch(&mut args, "--quiet");
    let demote_drifted = take_switch(&mut args, "--demote-drifted");
    let reclaim = take_switch(&mut args, "--reclaim");
    let checkpoint = take_switch(&mut args, "--checkpoint");
    let metrics_out = take_flag(&mut args, "--metrics-out")?;
    let stats_every: Option<usize> = match take_flag(&mut args, "--stats-every")? {
        Some(n) => Some(
            n.parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or(format!("bad --stats-every `{n}` (want a positive integer)"))?,
        ),
        None => None,
    };
    let batch: usize = match take_flag(&mut args, "--batch")? {
        Some(n) => n
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or(format!("bad --batch `{n}` (want a positive integer)"))?,
        None => 1,
    };
    // Drift thresholds: pass the values the rules were discovered with
    // (mirrors `discover`'s flags); defaults match StreamConfig.
    let mut stream_config = StreamConfig {
        reclaim,
        ..StreamConfig::default()
    };
    if let Some(v) = take_flag(&mut args, "--violations")? {
        stream_config.max_violation_ratio = parse_ratio("--violations", &v)?;
    }
    if let Some(s) = take_flag(&mut args, "--min-support")? {
        stream_config.min_support = s.parse().map_err(|_| format!("bad --min-support `{s}`"))?;
    }
    let mut compact_ratio = None;
    if let Some(r) = take_flag(&mut args, "--compact-ratio")? {
        compact_ratio = Some(r.parse().ok().filter(|&r: &f64| r > 0.0 && r < 1.0).ok_or(
            format!("bad --compact-ratio `{r}` (want a tombstone ratio in (0, 1))"),
        )?);
    }
    if demote_drifted && store_dir.is_none() {
        return Err("--demote-drifted needs --store DIR".into());
    }
    if checkpoint && store_dir.is_none() {
        return Err("--checkpoint needs --store DIR".into());
    }
    let path = &positionals("stream", args, &["<data.csv>"])?[0];
    // Timing output is wall-clock and thus nondeterministic; --quiet and
    // the ANMAT_NO_TIMING env hook (used by the CLI test suite, whose
    // assertions compare exact output) suppress it.
    let timing = !quiet && std::env::var_os("ANMAT_NO_TIMING").is_none();
    // Any consumer of the metrics registry turns the recorder on; with
    // all three off the instrumented call sites cost one relaxed atomic
    // load each.
    let recording = timing || stats_every.is_some() || metrics_out.is_some();
    if recording {
        obs::Recorder::enable();
    }
    let table = csv::read_path(path).map_err(|e| format!("reading {path}: {e}"))?;

    let (pfds, store_indices) = load_rules(
        "stream",
        path,
        store_dir.as_deref(),
        rules_file.as_deref(),
        confirmed_only,
    )?;
    let rule_count = pfds.len();
    let mut engine = StreamEngine::with_config(table.schema().clone(), pfds, stream_config);
    println!(
        "streaming {} row(s) from {path} through {rule_count} rule(s), batch size {batch}",
        table.row_count()
    );
    // After each batch: print its events, then compact if the ratio says
    // so. Printing comes first, since a compaction may reclaim the ids
    // the events name.
    let after_batch = |engine: &mut StreamEngine, events: &[LedgerEvent]| {
        if !quiet {
            print_events(engine.ledger(), events);
        }
        if let Some(ratio) = compact_ratio {
            engine.compact_if(ratio);
        }
    };
    // Rows are already interned by the CSV read; stream them as ids so
    // replay is clone-free. A batch never holds more than the table's
    // rows, so neither does its buffer.
    let started = Instant::now();
    let replayed_rows = table.row_count();
    let capacity = batch.min(replayed_rows);
    let mut pending: Vec<Op> = Vec::with_capacity(capacity);
    let mut batches_done = 0usize;
    for r in 0..table.row_count() {
        pending.push(Op::Insert(table.row_ids(r)));
        if pending.len() == batch || r + 1 == table.row_count() {
            let full = std::mem::replace(&mut pending, Vec::with_capacity(capacity));
            let events = engine.apply(full).map_err(|e| format!("row {r}: {e}"))?;
            after_batch(&mut engine, &events);
            batches_done += 1;
            if stats_every.is_some_and(|every| batches_done.is_multiple_of(every)) {
                print_stats_line(&engine, started, timing);
            }
        }
    }
    // Elapsed replay time flows through the obs layer (the summary
    // reads it back out of the histogram), so it lands in --metrics-out
    // snapshots too.
    obs::histogram!("cli.replay_ns")
        .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    // The engine now holds every row: with `--reclaim` it must be the
    // only holder of its strings, and the base columns need not live on.
    drop(table);

    let mut applied_ops = 0usize;
    if let Some(path) = ops_file {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let ops = oplog::parse(&text).map_err(|e| match e {
            TableError::Csv { .. } => format!("parsing op-log: {e}"),
            e => e.to_string(),
        })?;
        // The ops hold interned ids, not text: free the log before they
        // run.
        drop(text);
        applied_ops = ops.len();
        println!("applying {} op(s) from {path}", ops.len());
        let ops_started = Instant::now();
        let events = engine
            .apply(ops)
            .map_err(|e| format!("applying ops: {e}"))?;
        obs::histogram!("cli.apply_ns")
            .record(u64::try_from(ops_started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        after_batch(&mut engine, &events);
    }

    // Snapshot-backed checkpoint: the capture is O(chunks) chunk-handle
    // clones, so a service would keep ingesting while the serialization
    // below reads the frozen view.
    if checkpoint {
        let dir = store_dir.as_deref().expect("validated before replay");
        let snap = engine.snapshot();
        let table_json = serde_json::to_string(snap.table())
            .map_err(|e| format!("serializing checkpoint table: {e}"))?;
        let violations_json = serde_json::to_string(&snap.ledger().snapshot())
            .map_err(|e| format!("serializing checkpoint violations: {e}"))?;
        let json = format!(
            "{{\"epoch\":{},\"table\":{table_json},\"violations\":{violations_json}}}",
            snap.epoch()
        );
        let out = format!("{dir}/{}.checkpoint.json", dataset_name(path));
        write_atomic(&out, json).map_err(|e| format!("writing {out}: {e}"))?;
        println!(
            "checkpoint: epoch {}, {} live row(s), {} live violation(s) written to {out} \
             (copy-on-write snapshot; ingest may continue)",
            snap.epoch(),
            snap.table().live_rows(),
            snap.ledger().live_count()
        );
    }

    let ledger = engine.ledger();
    let compaction = engine.compaction_stats();
    // Live rows, not raw push count: tombstoned slots are not data.
    // Compaction drops slots, so "ingested" adds the reclaimed ones
    // back — the figure stays the lifetime slot count either way.
    println!(
        "\nfinal: {} live violation(s) ({} created, {} retracted) over {} live row(s) \
         ({} slot(s) ingested)",
        ledger.live_count(),
        ledger.created_total(),
        ledger.retracted_total(),
        engine.live_rows(),
        engine.row_count() + compaction.reclaimed_slots
    );
    // Reclamation observability: epochs run, slots dropped, and the
    // table's own memory. The shared ValuePool is excluded (string bytes
    // live once, process-wide); the next line counts it.
    let footprint = engine.table().mem_footprint();
    println!(
        "compaction: {} epoch(s) run, {} slot(s) reclaimed; table memory {} byte(s) \
         over {} slot(s) ({} live)",
        compaction.epochs,
        compaction.reclaimed_slots,
        footprint.bytes,
        footprint.total_slots,
        footprint.live_slots
    );
    // The interning pool is process-global, shared with every other
    // pool user in the process. What reclamation holds is named only
    // once a reclaim has run.
    let pool = ValuePool::mem_footprint();
    let reclaimer = if pool.reclaimer_bytes > 0 {
        format!(", {} reclaimer", pool.reclaimer_bytes)
    } else {
        String::new()
    };
    println!(
        "pool: {} byte(s) interned over {} string(s) ({} chunk, {} entry, {} string, \
         {} map{reclaimer} byte(s); shared process-wide)",
        pool.bytes,
        pool.strings,
        pool.chunk_bytes,
        pool.entry_bytes,
        pool.string_bytes,
        pool.map_bytes
    );
    // Reclamation summary: pool-wide lifetime figures (every reclaiming
    // engine in the process contributes) plus this engine's own sweeps.
    // Only printed when --reclaim was on — without it both are zero and
    // the line would be noise.
    if reclaim {
        let (freed_strings, freed_bytes) = ValuePool::reclaimed();
        let swept = engine.reclaim_stats();
        println!(
            "reclaim: {} string(s) / {} byte(s) freed process-wide ({} live string(s) \
             remain); this engine swept {} string(s) / {} byte(s)",
            freed_strings,
            freed_bytes,
            ValuePool::live_strings(),
            swept.strings,
            swept.bytes
        );
    }
    // The three-way tier split (which matcher actually ran the evals).
    // Counters only move while the recorder is on, so the line is
    // printed only then.
    if recording {
        let snap = obs::MetricsSnapshot::capture();
        println!(
            "pattern tiers: {} fused / {} vm / {} interp eval(s)",
            snap.counter("pattern.fused_evals").unwrap_or(0),
            snap.counter("pattern.vm_evals").unwrap_or(0),
            snap.counter("pattern.interp_evals").unwrap_or(0)
        );
    }
    if timing {
        // Both figures come back out of the obs registry rather than a
        // local stopwatch — the same numbers --metrics-out serializes.
        let snap = obs::MetricsSnapshot::capture();
        if let Some(h) = snap.histogram("cli.replay_ns") {
            let secs = h.sum as f64 / 1e9;
            let rate = if secs > 0.0 {
                replayed_rows as f64 / secs
            } else {
                0.0
            };
            println!("timing: streamed {replayed_rows} row(s) in {secs:.3}s ({rate:.0} rows/s)");
        }
        if applied_ops > 0 {
            if let Some(h) = snap.histogram("cli.apply_ns") {
                let secs = h.sum as f64 / 1e9;
                let rate = if secs > 0.0 {
                    applied_ops as f64 / secs
                } else {
                    0.0
                };
                println!("timing: applied {applied_ops} op(s) in {secs:.3}s ({rate:.0} ops/s)");
            }
        }
    }
    if let Some(out) = &metrics_out {
        engine.publish_metrics();
        let snap = obs::MetricsSnapshot::capture();
        write_atomic(out, snap.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
        println!("metrics: full registry snapshot written to {out}");
    }

    let drifted = engine.drift_report();
    if !drifted.is_empty() {
        println!("\ndrifted rule(s) — a tuple's confidence fell below the drift threshold:");
        for d in &drifted {
            println!(
                "  [{}] {} tuple {} {}: confidence {:.3} < {:.3} ({} violation(s) in {} matched \
                 row(s))",
                store_indices[d.rule],
                d.dependency,
                d.tuple,
                d.pattern,
                d.confidence,
                d.min_confidence,
                d.live_violations,
                d.matched_rows
            );
        }
        if demote_drifted {
            let dir = store_dir.as_deref().expect("validated before replay");
            let store = RuleStore::open(dir).map_err(|e| format!("opening store {dir}: {e}"))?;
            let dataset = dataset_name(path);
            let mut demoted = 0usize;
            // A rule goes whole, however many of its tuples decayed.
            let mut rules: Vec<usize> = drifted.iter().map(|d| d.rule).collect();
            rules.dedup();
            for rule in rules {
                let store_idx = store_indices[rule];
                if store
                    .set_status(&dataset, store_idx, RuleStatus::Pending)
                    .map_err(|e| format!("demoting rule {store_idx}: {e}"))?
                {
                    demoted += 1;
                }
            }
            println!(
                "  demoted {demoted} rule(s) to Pending in store `{dir}` \
                 (re-review with `anmat rules`)"
            );
        }
    }
    Ok(())
}

/// One line per event, each described by `ledger` (which emitted them,
/// with no compaction since).
fn print_events(ledger: &ViolationLedger, events: &[LedgerEvent]) {
    for event in events {
        println!("{}", render_event(event, ledger));
    }
}

fn render_event(event: &LedgerEvent, ledger: &ViolationLedger) -> String {
    let sign = if event.is_created() { '+' } else { '-' };
    let v = ledger.describe(event.assertion());
    let detail = match &v.kind {
        ViolationKind::Constant {
            expected, found, ..
        } => format!(
            "expected {expected:?}, found {}",
            found
                .as_deref()
                .map_or("∅".to_string(), |f| format!("{f:?}"))
        ),
        ViolationKind::Variable {
            key,
            majority,
            found,
            ..
        } => format!(
            "block {key:?} majority {majority:?}, found {}",
            found
                .as_deref()
                .map_or("∅".to_string(), |f| format!("{f:?}"))
        ),
    };
    format!(
        "{sign} row {} [{}] {}={:?}: {detail}",
        v.row, v.dependency, v.lhs_attr, v.lhs_value
    )
}
