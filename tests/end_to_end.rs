//! Cross-crate integration tests: the full discover → detect pipeline on
//! the synthetic paper datasets, scored against ground truth.

use anmat::datagen::{names, phone, zipcity, GenConfig};
use anmat::prelude::*;

fn config() -> DiscoveryConfig {
    DiscoveryConfig {
        min_support: 3,
        min_coverage: 0.5,
        max_violation_ratio: 0.15,
        ..DiscoveryConfig::default()
    }
}

#[test]
fn phone_state_pipeline_catches_injected_errors() {
    let data = phone::generate(&GenConfig {
        rows: 2000,
        seed: 42,
        error_rate: 0.01,
    });
    let pfds = discover(&data.table, &config());
    assert!(
        !pfds.is_empty(),
        "area-code rules must be discovered from dirty data"
    );
    let violations = detect_all(&data.table, &pfds);
    let flagged: Vec<usize> = violations.iter().map(|v| v.row).collect();
    let score = data.score(&flagged);
    assert!(
        score.recall() >= 0.9,
        "recall {:.2} too low ({} tp, {} fn)",
        score.recall(),
        score.true_positives,
        score.false_negatives
    );
    assert!(
        score.precision() >= 0.9,
        "precision {:.2} too low ({} tp, {} fp)",
        score.precision(),
        score.true_positives,
        score.false_positives
    );
}

#[test]
fn name_gender_pipeline_catches_flips() {
    let data = names::generate(&GenConfig {
        rows: 2000,
        seed: 7,
        error_rate: 0.01,
    });
    let pfds = discover(&data.table, &config());
    assert!(!pfds.is_empty());
    let violations = detect_all(&data.table, &pfds);
    let flagged: Vec<usize> = violations.iter().map(|v| v.row).collect();
    let score = data.score(&flagged);
    assert!(score.recall() >= 0.9, "recall {:.2}", score.recall());
    assert!(
        score.precision() >= 0.9,
        "precision {:.2}",
        score.precision()
    );
}

#[test]
fn zip_city_pipeline_catches_typos() {
    let data = zipcity::generate(
        &GenConfig {
            rows: 2000,
            seed: 3,
            error_rate: 0.01,
        },
        zipcity::ZipTarget::City,
    );
    let pfds = discover(&data.table, &config());
    let zip_city: Vec<&Pfd> = pfds
        .iter()
        .filter(|p| p.lhs_attr == "zip" && p.rhs_attr == "city")
        .collect();
    assert!(!zip_city.is_empty(), "zip → city must be discovered");
    let violations = detect_all(&data.table, &pfds);
    let flagged: Vec<usize> = violations
        .iter()
        .filter(|v| v.rhs_attr == "city")
        .map(|v| v.row)
        .collect();
    let score = data.score(&flagged);
    assert!(score.recall() >= 0.9, "recall {:.2}", score.recall());
}

#[test]
fn zip_state_pipeline_catches_case_errors() {
    let data = zipcity::generate(
        &GenConfig {
            rows: 2000,
            seed: 5,
            error_rate: 0.01,
        },
        zipcity::ZipTarget::State,
    );
    let pfds = discover(&data.table, &config());
    let violations = detect_all(&data.table, &pfds);
    let flagged: Vec<usize> = violations
        .iter()
        .filter(|v| v.rhs_attr == "state")
        .map(|v| v.row)
        .collect();
    let score = data.score(&flagged);
    assert!(
        score.recall() >= 0.9,
        "case-flipped states must be caught: recall {:.2}",
        score.recall()
    );
}

#[test]
fn pfd_catches_what_fd_cannot() {
    // The paper's core positioning claim (E15), on D2-style data: full
    // names are (nearly) all distinct, so FDs see nothing; PFDs key on the
    // first name.
    let data = names::generate(&GenConfig {
        rows: 1500,
        seed: 11,
        error_rate: 0.01,
    });
    let fd_miner = FdMiner::new(FdConfig::default());
    let fds = fd_miner.discover(&data.table);
    let name_col = data.table.schema().index_of("full_name").unwrap();
    let gender_col = data.table.schema().index_of("gender").unwrap();
    let fd_flagged: Vec<usize> = fds
        .iter()
        .filter(|f| f.lhs == vec![name_col] && f.rhs == gender_col)
        .flat_map(|f| fd_miner.detect(&data.table, f))
        .map(|v| v.row)
        .collect();
    let fd_score = data.score(&fd_flagged);

    let pfds = discover(&data.table, &config());
    let violations = detect_all(&data.table, &pfds);
    let pfd_flagged: Vec<usize> = violations.iter().map(|v| v.row).collect();
    let pfd_score = data.score(&pfd_flagged);

    assert!(
        pfd_score.recall() > fd_score.recall(),
        "PFD recall {:.2} must beat FD recall {:.2}",
        pfd_score.recall(),
        fd_score.recall()
    );
}

#[test]
fn csv_roundtrip_preserves_detection() {
    // Serialize the dirty table to CSV, re-read it, and confirm the same
    // rows are flagged — the demo's upload path.
    let data = phone::generate(&GenConfig {
        rows: 500,
        seed: 19,
        error_rate: 0.02,
    });
    let pfds = discover(&data.table, &config());
    let direct: Vec<usize> = detect_all(&data.table, &pfds)
        .iter()
        .map(|v| v.row)
        .collect();
    let text = csv::write_str(&data.table);
    let reread = csv::read_str(&text).unwrap();
    let roundtrip: Vec<usize> = detect_all(&reread, &pfds).iter().map(|v| v.row).collect();
    assert_eq!(direct, roundtrip);
}

#[test]
fn pfd_serde_roundtrip_preserves_detection() {
    let data = names::generate(&GenConfig {
        rows: 500,
        seed: 23,
        error_rate: 0.02,
    });
    let pfds = discover(&data.table, &config());
    let json = serde_json::to_string(&pfds).unwrap();
    let back: Vec<Pfd> = serde_json::from_str(&json).unwrap();
    assert_eq!(pfds, back);
    assert_eq!(
        detect_all(&data.table, &pfds),
        detect_all(&data.table, &back)
    );
}

#[test]
fn reports_render_on_real_pipeline() {
    let data = names::generate(&GenConfig {
        rows: 300,
        seed: 31,
        error_rate: 0.02,
    });
    let profile = TableProfile::profile(&data.table);
    let prof_view = report::profiling_view(&data.table, &profile);
    assert!(prof_view.contains("Column `full_name`"));
    let pfds = discover(&data.table, &config());
    assert!(!pfds.is_empty());
    let tab_view = report::tableau_view(&data.table, &pfds[0]);
    assert!(tab_view.contains("full_name → gender"));
    let violations = detect_all(&data.table, &pfds);
    let viol_view = report::violations_view(&data.table, &violations);
    assert!(viol_view.contains("violation(s)"));
}
