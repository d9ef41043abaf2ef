//! Helpers shared between the stream crate's integration-test binaries.

/// Local proptest case count, overridable by `PROPTEST_CASES` (the CI
/// churn-compaction and pattern-tier steps elevate it); in-repo
/// defaults stay small because each case runs discovery plus several
/// full engines.
pub fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
