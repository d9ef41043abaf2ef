//! CLI contract tests: exit codes, usage routing, and the `stream`
//! subcommand end-to-end.

use anmat::prelude::*;
use std::process::{Command, Output};

fn anmat(args: &[&str]) -> Output {
    // Timing lines are wall-clock (nondeterministic); every assertion in
    // this suite compares exact output, so suppress them via the env
    // hook. `stream_timing_line_is_gated` exercises the un-suppressed
    // path explicitly.
    Command::new(env!("CARGO_BIN_EXE_anmat"))
        .env("ANMAT_NO_TIMING", "1")
        .args(args)
        .output()
        .expect("anmat binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_prints_usage_to_stdout_and_succeeds() {
    for flag in ["help", "--help", "-h"] {
        let out = anmat(&[flag]);
        assert!(out.status.success(), "`anmat {flag}` must succeed");
        assert!(stdout(&out).contains("USAGE"), "usage on stdout for {flag}");
        assert!(stderr(&out).is_empty(), "no stderr noise for {flag}");
    }
}

#[test]
fn unknown_command_fails_with_usage_on_stderr() {
    let out = anmat(&["frobnicate"]);
    assert!(!out.status.success(), "unknown command must fail");
    let err = stderr(&out);
    assert!(err.contains("unknown command `frobnicate`"));
    assert!(err.contains("USAGE"), "usage goes to stderr on error");
    assert!(stdout(&out).is_empty(), "nothing on stdout on error");
}

#[test]
fn no_command_fails_with_usage_on_stderr() {
    let out = anmat(&[]);
    assert!(!out.status.success(), "bare invocation must fail");
    assert!(stderr(&out).contains("USAGE"));
    assert!(stdout(&out).is_empty());
}

#[test]
fn stream_replays_csv_and_reports_violations() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_stream_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("zips.csv");
    std::fs::write(
        &csv,
        "zip,city\n90001,Los Angeles\n90002,Los Angeles\n90003,Los Angeles\n90004,New York\n",
    )
    .unwrap();
    let rules = dir.join("rules.json");
    let pfds = vec![Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::variable(
            "[\\D{3}]\\D{2}".parse::<ConstrainedPattern>().unwrap(),
        )],
    )];
    std::fs::write(&rules, serde_json::to_string(&pfds).unwrap()).unwrap();

    let out = anmat(&[
        "stream",
        csv.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stream failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("+ row 3"),
        "the New York row must be flagged on arrival:\n{text}"
    );
    assert!(
        text.contains("1 live violation(s)"),
        "summary line:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--batch` larger than the table replays the whole table as one
/// batch, exactly like `--batch <row count>`: the replay buffer is
/// sized by the rows, not by the flag.
#[test]
fn stream_batch_beyond_the_row_count_replays_one_batch() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_bigbatch_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, rules) = zips_fixture(&dir);
    let (csv, rules) = (csv.to_str().unwrap(), rules.to_str().unwrap());
    let strip_header =
        |out: &Output| -> String { stdout(out).lines().skip(1).collect::<Vec<_>>().join("\n") };
    let rows = anmat(&["stream", csv, "--rules", rules, "--batch", "4"]);
    assert!(rows.status.success(), "stream failed: {}", stderr(&rows));
    let max = anmat(&[
        "stream",
        csv,
        "--rules",
        rules,
        "--batch",
        "18446744073709551615",
    ]);
    assert!(
        max.status.success(),
        "huge --batch failed: {}",
        stderr(&max)
    );
    assert_eq!(strip_header(&rows), strip_header(&max));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_ops_replays_mutations_and_reports_live_rows() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_ops_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("zips.csv");
    std::fs::write(
        &csv,
        "zip,city\n90001,Los Angeles\n90002,Los Angeles\n90003,Los Angeles\n90004,New York\n",
    )
    .unwrap();
    let rules = dir.join("rules.json");
    let pfds = vec![Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::variable(
            "[\\D{3}]\\D{2}".parse::<ConstrainedPattern>().unwrap(),
        )],
    )];
    std::fs::write(&rules, serde_json::to_string(&pfds).unwrap()).unwrap();
    // Fix the erroneous row in place, delete a clean one, append a new
    // clean one: the violation retracts and the live count is 4.
    let ops = dir.join("fixes.ops");
    std::fs::write(&ops, "~,3,90004,Los Angeles\n-,0\n+,90005,Los Angeles\n").unwrap();

    let out = anmat(&[
        "stream",
        csv.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
        "--ops",
        ops.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stream --ops failed: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(text.contains("applying 3 op(s)"), "op-log banner:\n{text}");
    assert!(
        text.contains("- row 3"),
        "the update must retract row 3's violation:\n{text}"
    );
    assert!(
        text.contains("0 live violation(s)"),
        "violation cleared by the op-log:\n{text}"
    );
    assert!(
        text.contains("over 4 live row(s) (5 slot(s) ingested)"),
        "summary reports live rows, not raw pushes:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_compact_ratio_reclaims_slots_and_reports_epochs() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_compact_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("zips.csv");
    std::fs::write(
        &csv,
        "zip,city\n90001,Los Angeles\n90002,Los Angeles\n90003,Los Angeles\n90004,New York\n",
    )
    .unwrap();
    let rules = dir.join("rules.json");
    let pfds = vec![Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::variable(
            "[\\D{3}]\\D{2}".parse::<ConstrainedPattern>().unwrap(),
        )],
    )];
    std::fs::write(&rules, serde_json::to_string(&pfds).unwrap()).unwrap();
    // Delete half the table: 2 tombstones / 4 slots = 0.5 ≥ 0.3, so one
    // compaction epoch fires at the op-batch boundary.
    let ops = dir.join("churn.ops");
    std::fs::write(&ops, "-,0\n-,3\n").unwrap();

    let base_args = [
        "stream",
        csv.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
        "--ops",
        ops.to_str().unwrap(),
    ];
    // Without the flag: no epochs, 4 slots kept.
    let plain = anmat(&base_args);
    assert!(plain.status.success(), "stream failed: {}", stderr(&plain));
    let text = stdout(&plain);
    assert!(
        text.contains("compaction: 0 epoch(s) run, 0 slot(s) reclaimed"),
        "compaction summary always present:\n{text}"
    );
    assert!(text.contains("over 2 live row(s) (4 slot(s) ingested)"));
    assert!(
        text.contains("4 slot(s) (2 live)"),
        "uncompacted run keeps the tombstoned slots:\n{text}"
    );

    // With --compact-ratio 0.3: one epoch, two slots reclaimed, table
    // memory reported over the compacted slot count — and the lifetime
    // "ingested" figure unchanged.
    let mut args: Vec<&str> = base_args.to_vec();
    args.extend(["--compact-ratio", "0.3"]);
    let compacted = anmat(&args);
    assert!(
        compacted.status.success(),
        "compacting stream failed: {}",
        stderr(&compacted)
    );
    let text = stdout(&compacted);
    assert!(
        text.contains("compaction: 1 epoch(s) run, 2 slot(s) reclaimed"),
        "epoch summary:\n{text}"
    );
    assert!(
        text.contains("over 2 live row(s) (4 slot(s) ingested)"),
        "lifetime slot count survives compaction:\n{text}"
    );
    assert!(
        text.contains("2 slot(s) (2 live)"),
        "table memory reported over compacted slots:\n{text}"
    );

    // Bad ratios are rejected up front.
    for bad in ["0", "1.5", "nope"] {
        let mut args: Vec<&str> = base_args.to_vec();
        args.extend(["--compact-ratio", bad]);
        let out = anmat(&args);
        assert!(!out.status.success(), "`--compact-ratio {bad}` must fail");
        assert!(stderr(&out).contains("bad --compact-ratio"));
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_ops_rejects_malformed_logs() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_badops_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("d.csv");
    std::fs::write(&csv, "zip,city\n90001,Los Angeles\n90002,Los Angeles\n").unwrap();
    let rules = dir.join("rules.json");
    let pfds = vec![Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::variable(
            "[\\D{3}]\\D{2}".parse::<ConstrainedPattern>().unwrap(),
        )],
    )];
    std::fs::write(&rules, serde_json::to_string(&pfds).unwrap()).unwrap();

    let ops = dir.join("bad.ops");
    let run = |ops_text: &[u8]| {
        std::fs::write(&ops, ops_text).unwrap();
        anmat(&[
            "stream",
            csv.to_str().unwrap(),
            "--rules",
            rules.to_str().unwrap(),
            "--ops",
            ops.to_str().unwrap(),
        ])
    };
    let unknown = "op-log record 1: unknown op `?` (want `+`, `-` or `~`)";
    let utf8 = format!(
        "reading {}: stream did not contain valid UTF-8",
        ops.display()
    );
    // The whole stderr line for each log. Syntax errors name the record
    // (blank lines are not records) or, for CSV errors, the line; arity
    // and liveness errors come from validating the batch against the
    // table (the base CSV holds slots 0 and 1).
    for (ops_text, want) in [
        (&b"?,1\n"[..], unknown),
        (
            b"-,notanumber\n",
            "op-log record 1: bad row id `notanumber`",
        ),
        (
            b"-,99999999999999999999\n",
            "op-log record 1: bad row id `99999999999999999999`",
        ),
        (b"-\n", "op-log record 1: `-` wants exactly one row id"),
        (b"-,1,2\n", "op-log record 1: `-` wants exactly one row id"),
        (b"~\n", "op-log record 1: `~` wants a row id and cells"),
        (
            b"~,1\n",
            "applying ops: row 1 has 0 fields, schema expects 2",
        ),
        (b"+\n", "applying ops: row 2 has 0 fields, schema expects 2"),
        (
            b"+,90003\n",
            "applying ops: row 2 has 1 fields, schema expects 2",
        ),
        (
            b"+,90003,LA,extra\n",
            "applying ops: row 2 has 3 fields, schema expects 2",
        ),
        (
            b"-,7\n",
            "applying ops: row 7 is out of range or already deleted",
        ),
        (
            b"-,0\n-,0\n",
            "applying ops: row 0 is out of range or already deleted",
        ),
        (
            b"+,\"x\n",
            "parsing op-log: CSV error at line 2: unterminated quoted field",
        ),
        (
            b"+,a\"b,c\n",
            "parsing op-log: CSV error at line 1: quote inside unquoted field",
        ),
        (
            b"+,\"x\"y,c\n",
            "parsing op-log: CSV error at line 1: unexpected `y` after closing quote",
        ),
        (b"+,\xff\xfe,c\n", &utf8),
        (
            b"+,\"a\nb\",c\n?\n",
            "op-log record 2: unknown op `?` (want `+`, `-` or `~`)",
        ),
        // The reader stops at the first malformed record in file order:
        // the unknown op wins over the unterminated quote after it.
        (b"?,1\n+,\"x\n", unknown),
    ] {
        let out = run(ops_text);
        let shown = String::from_utf8_lossy(ops_text);
        assert!(!out.status.success(), "`{shown}` must fail");
        assert_eq!(stderr(&out), format!("error: {want}\n"), "log `{shown}`");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Write the standard 4-row zips fixture + one variable rule; returns
/// (csv, rules) paths inside `dir`.
fn zips_fixture(dir: &std::path::Path) -> (std::path::PathBuf, std::path::PathBuf) {
    let csv = dir.join("zips.csv");
    std::fs::write(
        &csv,
        "zip,city\n90001,Los Angeles\n90002,Los Angeles\n90003,Los Angeles\n90004,New York\n",
    )
    .unwrap();
    let rules = dir.join("rules.json");
    let pfds = vec![Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::variable(
            "[\\D{3}]\\D{2}".parse::<ConstrainedPattern>().unwrap(),
        )],
    )];
    std::fs::write(&rules, serde_json::to_string(&pfds).unwrap()).unwrap();
    (csv, rules)
}

/// Every subcommand rejects what it does not recognise — an unknown or
/// repeated flag (including the retired `--pattern-engine`,
/// `--interpret`, `--shard-by`, `--shards` and `--run-ahead`), a known
/// flag missing its value, or a
/// surplus positional — with exit code 1 and a message naming the
/// argument, before doing any work.
#[test]
fn unknown_and_valueless_arguments_are_rejected() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_args_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, rules) = zips_fixture(&dir);
    let (csv, rules) = (csv.to_str().unwrap(), rules.to_str().unwrap());
    let repair = dir.join("out.csv");
    let repair = repair.to_str().unwrap();
    let cases: [(&[&str], &str); 12] = [
        (
            &["stream", csv, "--rules", rules, "--bogus-flag"],
            "unexpected flag `--bogus-flag`",
        ),
        (
            &["detect", csv, "--rules", rules, "--repiar", repair],
            "unexpected flag `--repiar`",
        ),
        (
            &["stream", csv, "--rules", rules, "--batch"],
            "--batch needs a value",
        ),
        (
            &["stream", csv, "--batch", "--rules", rules],
            "--batch needs a value",
        ),
        (
            &["stream", csv, "--rules", rules, "--pattern-engine", "vm"],
            "unexpected flag `--pattern-engine`",
        ),
        (
            &["stream", csv, "--rules", rules, "--interpret"],
            "unexpected flag `--interpret`",
        ),
        (
            &["stream", csv, "--rules", rules, "--shard-by", "key"],
            "unexpected flag `--shard-by`",
        ),
        (
            &["stream", csv, "--rules", rules, "--shards", "2"],
            "unexpected flag `--shards`",
        ),
        (
            &["stream", csv, "--rules", rules, "--run-ahead", "4"],
            "unexpected flag `--run-ahead`",
        ),
        (
            &["stream", csv, "extra.csv", "--rules", rules],
            "unexpected argument `extra.csv`",
        ),
        (&["profile", csv, "--quiet"], "unexpected flag `--quiet`"),
        (
            &["stream", csv, "--rules", rules, "--rules", rules],
            "unexpected flag `--rules`",
        ),
    ];
    for (args, message) in cases {
        let out = anmat(args);
        assert_eq!(
            out.status.code(),
            Some(1),
            "`anmat {}` must exit 1",
            args.join(" ")
        );
        assert!(
            stderr(&out).contains(message),
            "`anmat {}`: stderr must name the argument ({message}):\n{}",
            args.join(" "),
            stderr(&out)
        );
        assert!(
            stdout(&out).is_empty(),
            "`anmat {}` must fail before doing any work:\n{}",
            args.join(" "),
            stdout(&out)
        );
    }
    assert!(
        !std::path::Path::new(repair).exists(),
        "no repair file written"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_metrics_out_writes_parseable_registry_snapshot() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_metrics_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, rules) = zips_fixture(&dir);
    // Mutations so the ledger sees churn.
    let ops = dir.join("fixes.ops");
    std::fs::write(&ops, "~,3,90004,Los Angeles\n-,0\n+,90005,Los Angeles\n").unwrap();
    let metrics = dir.join("metrics.json");

    let out = anmat(&[
        "stream",
        csv.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
        "--ops",
        ops.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stream --metrics-out failed: {}",
        stderr(&out)
    );
    assert!(
        stdout(&out).contains("metrics: full registry snapshot written to"),
        "snapshot banner:\n{}",
        stdout(&out)
    );

    let text = std::fs::read_to_string(&metrics).expect("snapshot file written");
    let json: serde::Value = serde_json::from_str(&text).expect("snapshot is valid JSON");
    let serde::Value::Object(top) = &json else {
        panic!("snapshot root must be an object");
    };
    let section = |name: &str| -> &serde::Value {
        &top.iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("snapshot has a `{name}` section"))
            .1
    };
    let keys = |v: &serde::Value| -> Vec<String> {
        let serde::Value::Object(entries) = v else {
            panic!("section must be an object");
        };
        entries.iter().map(|(k, _)| k.clone()).collect()
    };
    let counters = keys(section("counters"));
    let gauges = keys(section("gauges"));
    let histograms = keys(section("histograms"));
    // One representative per instrumented family: pool, table,
    // engine-phase, ledger.
    for want in [
        "pool.intern.misses",
        "table.push",
        "table.delete",
        "engine.ops",
        "ledger.created",
        "ledger.retracted",
    ] {
        assert!(
            counters.iter().any(|k| k == want),
            "counter `{want}` in {counters:?}"
        );
    }
    for want in [
        "pool.bytes",
        "table.slots",
        "table.live",
        "memo.evals",
        "ledger.live",
    ] {
        assert!(
            gauges.iter().any(|k| k == want),
            "gauge `{want}` in {gauges:?}"
        );
    }
    for want in ["cli.replay_ns", "cli.apply_ns"] {
        assert!(
            histograms.iter().any(|k| k == want),
            "histogram `{want}` in {histograms:?}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Output files are replaced whole through a temporary file in the same
/// directory, which is gone afterwards; a write that cannot land keeps
/// the `writing PATH: …` error form and exit code 1.
#[test]
fn output_files_are_replaced_whole_and_failed_writes_are_errors() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_atomic_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, rules) = zips_fixture(&dir);
    let (csv, rules) = (csv.to_str().unwrap(), rules.to_str().unwrap());
    let metrics = dir.join("metrics.json");
    let repaired = dir.join("repaired.csv");
    let stale = "x".repeat(1 << 16);
    std::fs::write(&metrics, &stale).unwrap();
    std::fs::write(&repaired, &stale).unwrap();

    let m = metrics.to_str().unwrap();
    let out = anmat(&["stream", csv, "--rules", rules, "--metrics-out", m]);
    assert!(out.status.success(), "stream failed: {}", stderr(&out));
    let text = std::fs::read_to_string(&metrics).unwrap();
    serde_json::from_str::<serde::Value>(&text).expect("snapshot replaced whole");
    let r = repaired.to_str().unwrap();
    let out = anmat(&["detect", csv, "--rules", rules, "--repair", r]);
    assert!(out.status.success(), "detect failed: {}", stderr(&out));
    let text = std::fs::read_to_string(&repaired).unwrap();
    assert!(
        text.starts_with("zip,city\n") && !text.contains('x'),
        "{text}"
    );
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        ["metrics.json", "repaired.csv", "rules.json", "zips.csv"],
        "no temporary file left behind"
    );

    let target = dir.to_str().unwrap();
    let out = anmat(&["stream", csv, "--rules", rules, "--metrics-out", target]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains(&format!("writing {target}: ")),
        "{}",
        stderr(&out)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_stats_every_prints_periodic_deterministic_lines() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_stats_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, rules) = zips_fixture(&dir);

    // 4 rows, batch 1, a stats line every 2 batches → exactly 2 lines.
    // Under ANMAT_NO_TIMING (the helper sets it) the line carries only
    // the deterministic figures — no rows/s.
    let out = anmat(&[
        "stream",
        csv.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
        "--stats-every",
        "2",
    ]);
    assert!(out.status.success(), "stream failed: {}", stderr(&out));
    let text = stdout(&out);
    let stats: Vec<&str> = text.lines().filter(|l| l.starts_with("stats: ")).collect();
    assert_eq!(stats.len(), 2, "one stats line per 2 batches:\n{text}");
    assert!(
        stats[0].starts_with("stats: 2 slot(s) (2 live), 0 live violation(s), pool "),
        "first tick sees two rows, no violation yet:\n{text}"
    );
    assert!(
        stats[1].starts_with("stats: 4 slot(s) (4 live), 1 live violation(s), pool "),
        "second tick sees all four rows and the violation:\n{text}"
    );
    assert!(
        !stats.iter().any(|l| l.contains("rows/s")),
        "no wall-clock rate under ANMAT_NO_TIMING:\n{text}"
    );

    // Bad values are rejected up front.
    let bad = anmat(&[
        "stream",
        csv.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
        "--stats-every",
        "0",
    ]);
    assert!(!bad.status.success());
    assert!(stderr(&bad).contains("bad --stats-every"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_timing_line_is_gated() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_timing_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, rules) = zips_fixture(&dir);
    let run = |extra: &[&str]| -> Output {
        // Bypass the suite helper: this test exercises the un-suppressed
        // timing path, so make sure the env hook is NOT set.
        Command::new(env!("CARGO_BIN_EXE_anmat"))
            .env_remove("ANMAT_NO_TIMING")
            .args([
                "stream",
                csv.to_str().unwrap(),
                "--rules",
                rules.to_str().unwrap(),
            ])
            .args(extra)
            .output()
            .expect("anmat binary runs")
    };

    let timed = run(&[]);
    assert!(timed.status.success(), "stream failed: {}", stderr(&timed));
    let text = stdout(&timed);
    assert!(
        text.contains("timing: streamed 4 row(s) in") && text.contains("rows/s"),
        "timing line present by default:\n{text}"
    );

    let quieted = run(&["--quiet"]);
    assert!(quieted.status.success());
    assert!(
        !stdout(&quieted).contains("timing:"),
        "--quiet suppresses the timing line:\n{}",
        stdout(&quieted)
    );

    let suppressed = anmat(&[
        "stream",
        csv.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
    ]);
    assert!(suppressed.status.success());
    assert!(
        !stdout(&suppressed).contains("timing:"),
        "ANMAT_NO_TIMING suppresses the timing line:\n{}",
        stdout(&suppressed)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_without_rules_source_fails() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_norules_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("d.csv");
    std::fs::write(&csv, "a,b\n1,2\n").unwrap();
    let out = anmat(&["stream", csv.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("need --store DIR or --rules FILE"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--rules` file cut off inside a literal, one that is not UTF-8, and
/// one nested far past the JSON parser's 128 levels (an error at the
/// first bracket too deep, not a stack overflow): `stream` and `detect`
/// both exit 1 with a message naming the file and what is wrong with it,
/// and print nothing on stdout.
#[test]
fn truncated_and_non_utf8_rules_files_are_rejected() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_hostile_rules_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, rules) = zips_fixture(&dir);
    let text = std::fs::read_to_string(&rules).unwrap();
    let cut = text.find(":false").expect("the fixture has a `false`") + ":fa".len();
    let trunc = dir.join("trunc.json");
    std::fs::write(&trunc, &text[..cut]).unwrap();
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, b"[{\"relation\":\"\xff\xfe\"}]").unwrap();
    let nested = dir.join("nested.json");
    std::fs::write(&nested, "[".repeat(50_000)).unwrap();
    let (csv, trunc, garbage, nested) = (
        csv.to_str().unwrap(),
        trunc.to_str().unwrap(),
        garbage.to_str().unwrap(),
        nested.to_str().unwrap(),
    );
    for (file, want) in [
        (
            trunc,
            format!("error: parsing {trunc}: invalid literal at line 1 column 263\n"),
        ),
        (
            garbage,
            format!("error: reading {garbage}: stream did not contain valid UTF-8\n"),
        ),
        (
            nested,
            format!("error: parsing {nested}: recursion limit exceeded at line 1 column 129\n"),
        ),
    ] {
        for command in ["stream", "detect"] {
            let out = anmat(&[command, csv, "--rules", file]);
            assert_eq!(
                out.status.code(),
                Some(1),
                "`anmat {command} --rules {file}`"
            );
            assert_eq!(stderr(&out), want, "`anmat {command} --rules {file}`");
            assert!(stdout(&out).is_empty(), "`anmat {command} --rules {file}`");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `pool:` summary line's byte total equals the sum of the four
/// parts it prints (chunk, entry, string and map bytes).
fn assert_pool_line_adds_up(text: &str) {
    let line = text
        .lines()
        .find(|l| l.starts_with("pool: "))
        .unwrap_or_else(|| panic!("no pool line:\n{text}"));
    let numbers: Vec<usize> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|t| !t.is_empty())
        .map(|t| t.parse().unwrap())
        .collect();
    // total, strings, then the four parts.
    assert_eq!(numbers.len(), 6, "{line}");
    assert_eq!(numbers[0], numbers[2..].iter().sum::<usize>(), "{line}");
}

/// `--reclaim` sweeps stranded strings at the compaction barrier and is
/// output-invariant below the header; `--checkpoint` writes a
/// snapshot-backed JSON checkpoint into the store.
#[test]
fn stream_reclaim_is_output_invariant_and_checkpoint_writes_json() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_reclaim_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("zips.csv");
    // Unique cities are stranded once their rows die; shared ones stay.
    let mut data = String::from("zip,city\n");
    for i in 0..40 {
        let prefix = ["900", "104"][i % 2];
        let city = if i % 4 == 0 {
            format!("uniq-{i}")
        } else {
            format!("city-{prefix}")
        };
        data.push_str(&format!("{prefix}{i:02},{city}\n"));
    }
    std::fs::write(&csv, data).unwrap();
    let pfds = vec![Pfd::new(
        "Zip",
        "zip",
        "city",
        vec![PatternTuple::variable(
            "[\\D{3}]\\D{2}".parse::<ConstrainedPattern>().unwrap(),
        )],
    )];
    let store_dir = dir.join("store");
    let store = RuleStore::open(&store_dir).unwrap();
    store
        .save(&DatasetRecord {
            name: "zips".into(),
            profile: None,
            rules: pfds
                .into_iter()
                .map(|pfd| StoredRule {
                    pfd,
                    status: RuleStatus::Confirmed,
                })
                .collect(),
        })
        .unwrap();
    // Delete the first 30 rows: tombstones cross --compact-ratio, one
    // epoch fires, and the dead rows' unique cities lose their last
    // reference right at the barrier.
    let ops = dir.join("churn.ops");
    std::fs::write(
        &ops,
        (0..30).map(|r| format!("-,{r}\n")).collect::<String>(),
    )
    .unwrap();

    let base = [
        "stream",
        csv.to_str().unwrap(),
        "--store",
        store_dir.to_str().unwrap(),
        "--ops",
        ops.to_str().unwrap(),
        "--compact-ratio",
        "0.3",
    ];
    let plain = anmat(&base);
    assert!(plain.status.success(), "stream failed: {}", stderr(&plain));

    let mut reclaim_args = base.to_vec();
    reclaim_args.extend(["--reclaim", "--checkpoint"]);
    let swept = anmat(&reclaim_args);
    assert!(
        swept.status.success(),
        "stream --reclaim failed: {}",
        stderr(&swept)
    );
    let text = stdout(&swept);
    assert_pool_line_adds_up(&stdout(&plain));
    assert_pool_line_adds_up(&text);
    assert!(
        text.contains("reclaim: ") && !text.contains("reclaim: 0 string(s)"),
        "the sweep must free the stranded unique cities:\n{text}"
    );
    assert!(
        text.contains("checkpoint: epoch 1, 10 live row(s)"),
        "snapshot-backed checkpoint banner:\n{text}"
    );
    let checkpoint_path = store_dir.join("zips.checkpoint.json");
    let checkpoint = std::fs::read_to_string(&checkpoint_path).unwrap();
    assert!(
        checkpoint.starts_with("{\"epoch\":1,\"table\":"),
        "checkpoint JSON shape:\n{checkpoint}"
    );
    assert!(checkpoint.contains("\"violations\":"));

    // Everything is identical modulo the reclaim / checkpoint lines and
    // the pool footprint itself (which is the point: the sweep shrinks
    // it) — reclamation never changes observable violation output.
    let filter = |s: &str| {
        s.lines()
            .filter(|l| {
                !l.starts_with("reclaim: ")
                    && !l.starts_with("checkpoint: ")
                    && !l.starts_with("pool: ")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        filter(&stdout(&plain)),
        filter(&text),
        "--reclaim must be output-invariant"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_checkpoint_without_store_fails() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("d.csv");
    std::fs::write(&csv, "a,b\n1,2\n").unwrap();
    let rules = dir.join("rules.json");
    let pfds = vec![Pfd::new(
        "R",
        "a",
        "b",
        vec![PatternTuple::variable(
            "[\\D{1}]".parse::<ConstrainedPattern>().unwrap(),
        )],
    )];
    std::fs::write(&rules, serde_json::to_string(&pfds).unwrap()).unwrap();
    let out = anmat(&[
        "stream",
        csv.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
        "--checkpoint",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--checkpoint needs --store DIR"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// What `anmat stream --checkpoint` writes.
#[derive(serde::Deserialize)]
struct Checkpoint {
    epoch: u64,
    table: Table,
    violations: Vec<Violation>,
}

#[test]
fn stream_checkpoint_renders_current_witnesses_without_witness_events() {
    let dir = std::env::temp_dir().join(format!("anmat_cli_witness_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Block `900`: rows 0–4 hold its majority, rows 5 and 6 disagree
    // (one with a null city). Block `104`: row 10 disagrees.
    let csv = dir.join("zips.csv");
    std::fs::write(
        &csv,
        "zip,city\n90001,Los Angeles\n90002,Los Angeles\n90003,Los Angeles\n\
         90004,Los Angeles\n90005,Los Angeles\n90006,New York\n90007,\n\
         10401,Boston\n10402,Boston\n10403,Boston\n10404,Salem\n",
    )
    .unwrap();
    let pfds = vec![
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::variable(
                "[\\D{3}]\\D{2}".parse::<ConstrainedPattern>().unwrap(),
            )],
        ),
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![PatternTuple::constant(
                ConstrainedPattern::unconstrained("900\\D{2}".parse().unwrap()),
                "Los Angeles",
            )],
        ),
    ];
    let store_dir = dir.join("store");
    RuleStore::open(&store_dir)
        .unwrap()
        .save(&DatasetRecord {
            name: "zips".into(),
            profile: None,
            rules: pfds
                .iter()
                .cloned()
                .map(|pfd| StoredRule {
                    pfd,
                    status: RuleStatus::Confirmed,
                })
                .collect(),
        })
        .unwrap();
    // The block's three oldest majority rows — three of its four
    // witnesses — leave, and a new majority row arrives.
    let ops = dir.join("expire.ops");
    std::fs::write(&ops, "-,0\n-,1\n-,2\n+,90008,Los Angeles\n").unwrap();
    let out = anmat(&[
        "stream",
        csv.to_str().unwrap(),
        "--store",
        store_dir.to_str().unwrap(),
        "--ops",
        ops.to_str().unwrap(),
        "--checkpoint",
    ]);
    assert!(out.status.success(), "stream failed: {}", stderr(&out));
    let text = stdout(&out);
    // Witnesses are evidence, not identity: no violation is retracted or
    // re-created when they move.
    let after_ops: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("applying 4 op(s)"))
        .skip(1)
        .take_while(|l| !l.starts_with("checkpoint: "))
        .collect();
    assert!(
        after_ops.is_empty(),
        "witness departures printed events:\n{text}"
    );
    // Rows 5 and 6 violate both rules, row 10 the variable one.
    assert!(
        text.contains("final: 5 live violation(s) (5 created, 0 retracted)"),
        "{text}"
    );

    let checkpoint: Checkpoint = serde_json::from_str(
        &std::fs::read_to_string(store_dir.join("zips.checkpoint.json")).unwrap(),
    )
    .unwrap();
    assert_eq!(checkpoint.epoch, 0);
    // The checkpoint's violations are batch detection over its table,
    // witnesses and repairs included (as sets: the checkpoint breaks
    // `(row, dependency)` ties by JSON text, batch detection by rule
    // order): block `900`'s witnesses are now rows 3, 4 and the new 11.
    let sorted = |mut v: Vec<Violation>| {
        v.sort();
        v
    };
    assert_eq!(
        sorted(checkpoint.violations.clone()),
        sorted(detect_all(&checkpoint.table, &pfds))
    );
    let witnesses: Vec<&Vec<RowId>> = checkpoint
        .violations
        .iter()
        .filter_map(|v| match &v.kind {
            ViolationKind::Variable { key, witnesses, .. } if key == "900" => Some(witnesses),
            _ => None,
        })
        .collect();
    assert_eq!(witnesses, vec![&vec![3, 4, 11], &vec![3, 4, 11]]);
    let _ = std::fs::remove_dir_all(&dir);
}
