//! Persistent rule store — the MongoDB substitution.
//!
//! The demo "store\[s\] the results in a MongoDB database" after profiling
//! and discovery. This module provides the equivalent persistence as a
//! plain directory of JSON documents: one *project* per directory,
//! holding named datasets' profiles, discovered PFDs, and confirmation
//! status (the Figure 4 workflow lets users confirm/reject each
//! dependency).

use crate::pfd::Pfd;
use anmat_table::{write_atomic, TableProfile};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A discovered dependency plus its user-confirmation state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredRule {
    /// The dependency.
    pub pfd: Pfd,
    /// Figure-4 confirmation status.
    pub status: RuleStatus,
}

/// User decision on a discovered dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RuleStatus {
    /// Discovered, not yet reviewed.
    Pending,
    /// Confirmed valid for the dataset.
    Confirmed,
    /// Rejected by the user.
    Rejected,
}

/// Everything stored for one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetRecord {
    /// Dataset name (file stem).
    pub name: String,
    /// The profiling result, if profiled.
    pub profile: Option<TableProfile>,
    /// Discovered rules with status.
    pub rules: Vec<StoredRule>,
}

/// A project directory holding dataset records as JSON files.
#[derive(Debug)]
pub struct RuleStore {
    root: PathBuf,
}

impl RuleStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<RuleStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(RuleStore { root })
    }

    /// The backing directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_for(&self, dataset: &str) -> PathBuf {
        // File-system safety: keep alphanumerics, map the rest to '_'.
        let safe: String = dataset
            .chars()
            .map(|c| {
                if c.is_alphanumeric() || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.root.join(format!("{safe}.json"))
    }

    /// Persist a dataset record, replacing any previous one whole
    /// ([`write_atomic`]).
    pub fn save(&self, record: &DatasetRecord) -> io::Result<()> {
        let json = serde_json::to_string_pretty(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        write_atomic(self.path_for(&record.name), json)
    }

    /// Load a dataset record by name.
    pub fn load(&self, dataset: &str) -> io::Result<DatasetRecord> {
        let text = fs::read_to_string(self.path_for(dataset))?;
        serde_json::from_str(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Does a record exist?
    #[must_use]
    pub fn contains(&self, dataset: &str) -> bool {
        self.path_for(dataset).exists()
    }

    /// List stored dataset names (sorted).
    pub fn list(&self) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("json") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    out.push(stem.to_string());
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Update one rule's confirmation status; returns whether it changed.
    pub fn set_status(
        &self,
        dataset: &str,
        rule_index: usize,
        status: RuleStatus,
    ) -> io::Result<bool> {
        let mut record = self.load(dataset)?;
        let Some(rule) = record.rules.get_mut(rule_index) else {
            return Ok(false);
        };
        if rule.status == status {
            return Ok(false);
        }
        rule.status = status;
        self.save(&record)?;
        Ok(true)
    }

    /// The confirmed (or pending, if `include_pending`) PFDs of a dataset —
    /// what detection should run with.
    pub fn active_rules(&self, dataset: &str, include_pending: bool) -> io::Result<Vec<Pfd>> {
        let record = self.load(dataset)?;
        Ok(record
            .rules
            .into_iter()
            .filter(|r| {
                r.status == RuleStatus::Confirmed
                    || (include_pending && r.status == RuleStatus::Pending)
            })
            .map(|r| r.pfd)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pfd::PatternTuple;
    use anmat_pattern::ConstrainedPattern;

    fn tmp_store(tag: &str) -> RuleStore {
        let dir = std::env::temp_dir().join(format!("anmat_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        RuleStore::open(dir).unwrap()
    }

    fn sample_rule() -> StoredRule {
        StoredRule {
            pfd: Pfd::new(
                "Zip",
                "zip",
                "city",
                vec![PatternTuple::constant(
                    ConstrainedPattern::unconstrained("900\\D{2}".parse().unwrap()),
                    "Los Angeles",
                )],
            ),
            status: RuleStatus::Pending,
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let store = tmp_store("roundtrip");
        let record = DatasetRecord {
            name: "zips".into(),
            profile: None,
            rules: vec![sample_rule()],
        };
        store.save(&record).unwrap();
        let loaded = store.load("zips").unwrap();
        assert_eq!(loaded, record);
        assert!(store.contains("zips"));
        assert!(!store.contains("other"));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn list_sorted() {
        let store = tmp_store("list");
        for name in ["beta", "alpha"] {
            store
                .save(&DatasetRecord {
                    name: name.into(),
                    profile: None,
                    rules: vec![],
                })
                .unwrap();
        }
        assert_eq!(store.list().unwrap(), vec!["alpha", "beta"]);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn confirmation_workflow() {
        let store = tmp_store("confirm");
        store
            .save(&DatasetRecord {
                name: "d".into(),
                profile: None,
                rules: vec![sample_rule(), sample_rule()],
            })
            .unwrap();
        // Pending rules run by default, not in confirmed-only mode.
        assert_eq!(store.active_rules("d", true).unwrap().len(), 2);
        assert_eq!(store.active_rules("d", false).unwrap().len(), 0);
        assert!(store.set_status("d", 0, RuleStatus::Confirmed).unwrap());
        assert!(store.set_status("d", 1, RuleStatus::Rejected).unwrap());
        assert_eq!(store.active_rules("d", false).unwrap().len(), 1);
        assert_eq!(store.active_rules("d", true).unwrap().len(), 1);
        // Out-of-range and no-op updates report false.
        assert!(!store.set_status("d", 9, RuleStatus::Confirmed).unwrap());
        assert!(!store.set_status("d", 0, RuleStatus::Confirmed).unwrap());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn unsafe_names_are_sanitized() {
        let store = tmp_store("sanitize");
        let record = DatasetRecord {
            name: "../weird name!".into(),
            profile: None,
            rules: vec![],
        };
        store.save(&record).unwrap();
        // Stored under a sanitized stem inside the root.
        assert!(store.contains("../weird name!"));
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 1);
        assert!(!listed[0].contains('/'));
        let _ = fs::remove_dir_all(store.root());
    }
}
