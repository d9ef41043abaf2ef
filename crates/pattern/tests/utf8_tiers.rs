//! Tier-accounting smoke test, in its own binary because the
//! [`anmat_obs::Recorder`] and its counters are process-global: running
//! this alongside other recorder-enabled tests (which Rust would
//! parallelize within one binary) would make the counter deltas
//! ambiguous.
//!
//! The contract under test: with the VM extended to full UTF-8, the
//! interpreter is *never* consulted on the compiled tiers —
//! `pattern.interp_evals` stays 0 on any input, ASCII or multibyte —
//! and every public-entry evaluation is attributed to exactly the tier
//! that ran it.

use anmat_obs as obs;
use anmat_pattern::{CompiledConstrained, CompiledPattern, ConstrainedPattern};
use std::sync::Mutex;

/// Serializes the tests: all read deltas of the same process-wide
/// counters, so interleaving them would corrupt each other's baselines.
static RECORDER: Mutex<()> = Mutex::new(());

/// Mixed corpus: ASCII, 2/3/4-byte scalars, titlecase, non-ASCII
/// digits, and boundary codepoints.
const CORPUS: &[&str] = &[
    "Abc-123",
    "Ångström",
    "中文数据",
    "٣٤٥",
    "ǅungla",
    "naïve café",
    "😀😀-ok",
    "\u{10FFFF}end",
    "",
    "90001",
];

fn counters() -> (u64, u64, u64) {
    let snap = obs::MetricsSnapshot::capture();
    (
        snap.counter("pattern.fused_evals").unwrap_or(0),
        snap.counter("pattern.vm_evals").unwrap_or(0),
        snap.counter("pattern.interp_evals").unwrap_or(0),
    )
}

#[test]
fn compiled_tiers_never_touch_the_interpreter() {
    // A fused-eligible pattern, a VM-only pattern (two variable-width
    // ops), and a constrained keyer.
    let fused: CompiledPattern = CompiledPattern::compile(&"\\A{2}\\D{3}".parse().unwrap());
    let vm_only: CompiledPattern = CompiledPattern::compile(&"\\A*-\\A*".parse().unwrap());
    let keyer = CompiledConstrained::compile(&"[\\A*]-\\A*".parse::<ConstrainedPattern>().unwrap());
    assert!(
        fused.is_fused(),
        "\\A{{2}}\\D{{3}} must take the fused tier"
    );
    assert!(!vm_only.is_fused(), "two stars cannot fuse");
    assert!(!keyer.program().is_fused(), "two stars cannot fuse");

    let _serial = RECORDER.lock().unwrap();
    obs::Recorder::enable();
    let before = counters();
    let mut buf = String::new();
    for s in CORPUS {
        std::hint::black_box(fused.matches(s));
        std::hint::black_box(vm_only.matches(s));
        std::hint::black_box(keyer.key_into(s, &mut buf));
    }
    let after = counters();
    obs::Recorder::disable();

    let n = CORPUS.len() as u64;
    assert_eq!(
        after.2 - before.2,
        0,
        "interp_evals must stay 0 on the compiled tiers — no UTF-8 fallback"
    );
    assert_eq!(
        after.0 - before.0,
        n,
        "one fused eval per fused-pattern call"
    );
    // vm_only + the unfusable keyer segmentation both land on the VM.
    assert_eq!(
        after.1 - before.1,
        2 * n,
        "vm evals for the unfusable programs"
    );
}

#[test]
fn tier_counters_follow_each_evaluation() {
    // Key extraction and span capture share one code path for both
    // compiled tiers; each call must tick the counter of the tier that
    // ran it, whichever tier the process happened to use first.
    let vm = CompiledConstrained::compile(&"[\\A*]-\\A*".parse::<ConstrainedPattern>().unwrap());
    let fused =
        CompiledConstrained::compile(&"[\\D{3}]\\D{2}".parse::<ConstrainedPattern>().unwrap());
    assert!(!vm.program().is_fused(), "two stars cannot fuse");
    assert!(fused.program().is_fused(), "fixed width must fuse");

    let _serial = RECORDER.lock().unwrap();
    obs::Recorder::enable();
    let mut buf = String::new();
    let before = counters();
    for _ in 0..5 {
        std::hint::black_box(vm.key_into("ab-cd", &mut buf));
    }
    for _ in 0..10 {
        std::hint::black_box(fused.key_into("90001", &mut buf));
    }
    let keys = counters();
    for _ in 0..5 {
        std::hint::black_box(vm.program().spans("ab-cd"));
    }
    for _ in 0..10 {
        std::hint::black_box(fused.program().spans("90001"));
    }
    let spans = counters();
    obs::Recorder::disable();

    assert_eq!(keys.1 - before.1, 5, "vm key extractions tick vm_evals");
    assert_eq!(
        keys.0 - before.0,
        10,
        "fused key extractions tick fused_evals"
    );
    assert_eq!(spans.1 - keys.1, 5, "vm span captures tick vm_evals");
    assert_eq!(spans.0 - keys.0, 10, "fused span captures tick fused_evals");
    assert_eq!(spans.2 - before.2, 0, "no call reaches the interpreter");
}

#[test]
fn screened_rejections_tick_their_tier_once() {
    // Both programs run on the VM behind the literal screen `, John`: an
    // input without that run is rejected before the VM starts, and must
    // still count as one VM evaluation, as a rejection by the VM would.
    let program: CompiledPattern =
        CompiledPattern::compile(&"\\LU\\LL+,\\ John\\S*".parse().unwrap());
    let keyer = CompiledConstrained::compile(
        &"\\LU\\LL+,\\ [John]\\S*"
            .parse::<ConstrainedPattern>()
            .unwrap(),
    );
    assert!(!program.is_fused(), "two variable-width ops cannot fuse");
    assert!(
        !keyer.program().is_fused(),
        "two variable-width ops cannot fuse"
    );
    let inputs = [
        ("Smith, Jane", false),
        ("Smith, Joh", false),
        ("Smith,John", false),
        ("中文", false),
        ("", false),
        ("Smith, John", true),
        ("Ångström, John!", true),
    ];

    let _serial = RECORDER.lock().unwrap();
    obs::Recorder::enable();
    let before = counters();
    let mut buf = String::new();
    for (s, matches) in inputs {
        assert_eq!(program.matches(s), matches, "{s:?}");
        assert_eq!(keyer.key_into(s, &mut buf), matches, "{s:?}");
    }
    let after = counters();
    obs::Recorder::disable();

    let n = inputs.len() as u64;
    assert_eq!(
        after.1 - before.1,
        2 * n,
        "one vm eval per call, screened or not"
    );
    assert_eq!(after.0 - before.0, 0, "no fused program ran");
    assert_eq!(after.2 - before.2, 0, "no call reaches the interpreter");
}
