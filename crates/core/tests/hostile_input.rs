//! Hostile rule files: `--rules` JSON (`Vec<Pfd>`) and rule-store records
//! (`RuleStore::load`), truncated, mutated or replaced by arbitrary
//! bytes, are accepted or rejected with an error, never a panic.

use anmat_core::store::{DatasetRecord, RuleStatus, RuleStore, StoredRule};
use anmat_core::{LhsCell, PatternTuple, Pfd, RhsCell};
use anmat_table::{Schema, Table, TableProfile};
use proptest::prelude::*;

/// Rules covering each tableau shape: a variable tuple, a constant one,
/// and a wildcard LHS.
fn pfds() -> Vec<Pfd> {
    let q = |s: &str| s.parse().expect("pattern");
    vec![
        Pfd::new(
            "Zip",
            "zip",
            "city",
            vec![
                PatternTuple::variable(q("[\\D{3}]\\D{2}")),
                PatternTuple::constant(q("900\\D{2}"), "Los Angeles"),
            ],
        ),
        Pfd::new(
            "Zips",
            "zip",
            "state",
            vec![PatternTuple {
                lhs: LhsCell::Wildcard,
                rhs: RhsCell::Wildcard,
            }],
        ),
    ]
}

/// A `--rules` file.
fn rules_json() -> Vec<u8> {
    serde_json::to_string(&pfds())
        .expect("rules serialize")
        .into_bytes()
}

/// A rule-store record with a profile and every rule status.
fn record_json() -> Vec<u8> {
    let schema = Schema::new(["zip", "city", "state"]).expect("schema");
    let table = Table::from_str_rows(
        schema,
        [["90001", "Los Angeles", "CA"], ["10001", "New York", "NY"]],
    )
    .expect("table");
    let statuses = [RuleStatus::Confirmed, RuleStatus::Rejected];
    let record = DatasetRecord {
        name: "zips".into(),
        profile: Some(TableProfile::profile(&table)),
        rules: (pfds().into_iter().zip(statuses))
            .map(|(pfd, status)| StoredRule { pfd, status })
            .collect(),
    };
    serde_json::to_string_pretty(&record)
        .expect("record serializes")
        .into_bytes()
}

/// A byte biased towards JSON syntax.
fn json_byte() -> impl Strategy<Value = u8> {
    const SYNTAX: &[u8] = b"{}[]\",:\\ -+.0123456789eEtrufalsn";
    prop_oneof![(0..SYNTAX.len()).prop_map(|i| SYNTAX[i]), any::<u8>()]
}

/// One edit, at a position taken modulo the text's length.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Truncate(usize),
    Overwrite(usize, u8),
    Insert(usize, u8),
    Delete(usize),
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        any::<usize>().prop_map(Edit::Truncate),
        (any::<usize>(), json_byte()).prop_map(|(at, b)| Edit::Overwrite(at, b)),
        (any::<usize>(), json_byte()).prop_map(|(at, b)| Edit::Insert(at, b)),
        any::<usize>().prop_map(Edit::Delete),
    ]
}

fn apply(mut bytes: Vec<u8>, edits: &[Edit]) -> Vec<u8> {
    for &edit in edits {
        let len = bytes.len();
        match edit {
            Edit::Truncate(at) => bytes.truncate(at % (len + 1)),
            Edit::Overwrite(at, b) if len > 0 => bytes[at % len] = b,
            Edit::Insert(at, b) => bytes.insert(at % (len + 1), b),
            Edit::Delete(at) if len > 0 => {
                bytes.remove(at % len);
            }
            Edit::Overwrite(..) | Edit::Delete(_) => {}
        }
    }
    bytes
}

/// `valid` under one to three edits, or arbitrary bytes.
fn hostile(valid: Vec<u8>) -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(edit(), 1..4).prop_map(move |edits| apply(valid.clone(), &edits)),
        prop::collection::vec(json_byte(), 0..64),
    ]
}

proptest! {
    /// A `--rules` file's text: `Vec<Pfd>` parses or fails, and what
    /// parses serializes again.
    #[test]
    fn hostile_rule_files_never_panic(bytes in hostile(rules_json())) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(pfds) = serde_json::from_str::<Vec<Pfd>>(&text) {
            serde_json::to_string(&pfds).expect("parsed rules serialize");
        }
    }

    /// A rule-store record file, bytes as they are on disk (so invalid
    /// UTF-8 too): `RuleStore::load` returns a record or an error.
    #[test]
    fn hostile_store_records_never_panic(bytes in hostile(record_json())) {
        let dir = std::env::temp_dir().join(format!("anmat_hostile_store_{}", std::process::id()));
        let store = RuleStore::open(&dir).expect("store opens");
        std::fs::write(dir.join("zips.json"), &bytes).expect("record written");
        let _ = store.load("zips");
        std::fs::remove_dir_all(&dir).expect("store removed");
    }
}

/// Text nested far past the JSON parser's 128 levels is rejected with
/// an error, not a stack overflow: a `--rules` text, and a store record
/// whose rules are wrapped in 50,000 brackets.
#[test]
fn deep_nesting_is_rejected() {
    let deep = "[".repeat(50_000);
    let rules = format!("{deep}{}", String::from_utf8(rules_json()).expect("UTF-8"));
    let err = serde_json::from_str::<Vec<Pfd>>(&rules).expect_err("nested rules rejected");
    assert!(
        err.to_string().contains("recursion limit exceeded"),
        "{err}"
    );

    let mut record = String::from_utf8(record_json()).expect("UTF-8");
    let at = record.find("\"rules\":").expect("a rules field") + "\"rules\":".len();
    record.insert_str(at, &deep);
    let dir = std::env::temp_dir().join(format!("anmat_nested_store_{}", std::process::id()));
    let store = RuleStore::open(&dir).expect("store opens");
    std::fs::write(dir.join("zips.json"), &record).expect("record written");
    let err = store.load("zips").expect_err("nested record rejected");
    assert!(
        err.to_string().contains("recursion limit exceeded"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).expect("store removed");
}
