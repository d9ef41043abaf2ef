//! Shared fixtures for the benchmark harness.
//!
//! Every bench regenerates one table or figure of the paper, or one of
//! this reproduction's own experiments: it first *prints* the reproduced
//! artifact — discovered tableaux, detected errors, scaling series — then
//! measures the relevant operation with Criterion. Each bench's `//! E<n>`
//! header names its experiment and the claim it checks, and the
//! repository README quotes the measured figures next to the design
//! they support. Run one with `cargo bench -p anmat-bench --bench NAME`.

use anmat_core::{DiscoveryConfig, Pfd};
use anmat_datagen::{Dataset, GenConfig};
use anmat_table::{Schema, Table};
use criterion::Criterion;
use std::time::Duration;

/// Criterion tuned for a large suite: small samples, short measurement.
#[must_use]
pub fn criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .configure_from_args()
}

/// The discovery configuration used across experiments (mirrors the
/// demo's defaults: moderate coverage, 10% allowed violations).
#[must_use]
pub fn experiment_config() -> DiscoveryConfig {
    DiscoveryConfig {
        min_support: 3,
        min_coverage: 0.5,
        max_violation_ratio: 0.1,
        ..DiscoveryConfig::default()
    }
}

/// The paper's Table 1 (D1: a Name table) verbatim, error included.
#[must_use]
pub fn paper_table1() -> Table {
    Table::from_str_rows(
        Schema::new(["name", "gender"]).expect("static schema"),
        [
            ["John Charles", "M"],
            ["John Bosco", "M"],
            ["Susan Orlean", "F"],
            ["Susan Boyle", "M"],
        ],
    )
    .expect("static rows")
}

/// The paper's Table 2 (D2: a Zip table) verbatim, error included.
#[must_use]
pub fn paper_table2() -> Table {
    Table::from_str_rows(
        Schema::new(["zip", "city"]).expect("static schema"),
        [
            ["90001", "Los Angeles"],
            ["90002", "Los Angeles"],
            ["90003", "Los Angeles"],
            ["90004", "New York"],
        ],
    )
    .expect("static rows")
}

/// Standard generator config per experiment scale.
#[must_use]
pub fn gen(rows: usize, seed: u64) -> GenConfig {
    GenConfig {
        rows,
        seed,
        error_rate: 0.01,
    }
}

/// Print a discovered-PFD + detection summary in Table 3 style.
pub fn print_table3_block(dataset: &str, data: &Dataset, pfds: &[Pfd]) {
    println!("── Table 3 block: {dataset} ──");
    for pfd in pfds {
        for line in pfd.to_string().lines() {
            println!("  {line}");
        }
    }
    let violations = anmat_core::detect_all(&data.table, pfds);
    let flagged: Vec<usize> = violations.iter().map(|v| v.row).collect();
    let score = data.score(&flagged);
    println!(
        "  detected {} violations | precision {:.3} recall {:.3} (ground truth {} errors)",
        violations.len(),
        score.precision(),
        score.recall(),
        data.errors.len()
    );
    for v in violations.iter().take(5) {
        let found = match &v.kind {
            anmat_core::ViolationKind::Constant { found, .. }
            | anmat_core::ViolationKind::Variable { found, .. } => {
                found.clone().unwrap_or_else(|| "∅".into())
            }
        };
        println!("    error: {} | {}", v.lhs_value, found);
    }
}
