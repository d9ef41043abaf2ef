//! Self-checks of the benchmark itself, on tiny workloads:
//!
//! * the same seed gives byte-identical inputs;
//! * replaying an op-log under different batch splits ends in the same
//!   ledger (marks fall on batch boundaries, and row ids after a
//!   compaction mark are already renumbered);
//! * in a traced run, spans cover each timed phase's wall time.
//!
//! Run with `cargo test --release --manifest-path perfbench/harness/Cargo.toml`.

use perfbench::gen;
use perfbench::measure::{self, Args};
use perfbench::{Spec, Workload};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// The string pool is process-global and `churn` reclaims from it, which
/// is safe only while no other table holds pool ids; the checks take
/// turns.
static POOL: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    POOL.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `workload`'s spec shrunk to a few hundred ops.
fn tiny(workload: Workload) -> Spec {
    let mut spec = workload.spec();
    if workload == Workload::Audit {
        spec.base_rows = 300;
        spec.closed_per_s = 4.0;
        spec.rate = 12.0;
    } else {
        spec.base_rows = 400;
        spec.closed_per_s = 600.0;
        spec.rate = 400.0;
        spec.batch = 32;
        spec.cap = 32;
    }
    if spec.compact_every > 0 {
        spec.compact_every = 90;
    }
    spec
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn args(workload: Workload, inputs: PathBuf, trace: bool) -> Args {
    Args {
        workload,
        spec: tiny(workload),
        inputs,
        seconds: 1,
        trace,
        setup_only: false,
    }
}

fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("inputs written")
        .map(|e| {
            let e = e.expect("dir entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("readable"),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn same_seed_gives_identical_inputs() {
    let _pool = exclusive();
    for w in Workload::ALL {
        let spec = tiny(w);
        let (a, b, c) = (
            temp_dir(&format!("same-{w}-a")),
            temp_dir(&format!("same-{w}-b")),
            temp_dir(&format!("same-{w}-c")),
        );
        gen::generate(w, &spec, 5, 1, &a).expect("generate a");
        gen::generate(w, &spec, 5, 1, &b).expect("generate b");
        gen::generate(w, &spec, 6, 1, &c).expect("generate c");
        assert_eq!(files(&a), files(&b), "{w}: seed 5 twice differs");
        assert_ne!(files(&a), files(&c), "{w}: seeds 5 and 6 agree");
    }
}

#[test]
fn batch_splits_end_in_the_same_ledger() {
    let _pool = exclusive();
    for w in [
        Workload::Append,
        Workload::Churn,
        Workload::Expire,
        Workload::AppendX2,
    ] {
        let dir = temp_dir(&format!("split-{w}"));
        gen::generate(w, &tiny(w), 11, 1, &dir).expect("generate");
        let args = args(w, dir, false);
        let one = measure::replay(&args, 1).expect("batches of 1");
        for batch in [7, 64, 4096] {
            assert_eq!(
                measure::replay(&args, batch).expect("replay"),
                one,
                "{w}: batches of {batch} end elsewhere"
            );
        }
        assert!(!one.is_empty(), "{w}: no violations to compare");
    }
}

#[test]
fn traced_spans_cover_the_timed_phases() {
    let _pool = exclusive();
    for w in Workload::ALL {
        let dir = temp_dir(&format!("trace-{w}"));
        gen::generate(w, &tiny(w), 3, 1, &dir).expect("generate");
        let outcome = measure::run(&args(w, dir, true), Instant::now());
        assert!(outcome.correct, "{w}: {:?}", outcome.error);
        assert_eq!(outcome.failed, 0);
        let coverage = outcome.get("trace.coverage").expect("coverage reported");
        assert!(
            coverage > 0.95,
            "{w}: spans cover only {coverage:.3} of the phases"
        );
        for (name, _) in measure::LAYERS {
            assert!(outcome.get(name).is_some(), "{w}: {name} missing");
        }
    }
}
