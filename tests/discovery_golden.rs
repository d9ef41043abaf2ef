//! Discovery's output, pinned: the rules `discover` returns over a fixed
//! matrix of generated tables, context styles and configurations, held
//! to one 64-bit digest per case of their serialized JSON.
//!
//! The matrix: every datagen dataset (zip → city, zip → state, phone,
//! names, employee, ChEMBL) at two seeds, each also with a copy whose
//! cells are null in a rotating column every fifth row (so every column
//! pair sees null LHS and null RHS cells), under both
//! [`ContextStyle`]s and two configurations. A change to how discovery
//! computes its rules must leave every digest as it is; on a mismatch
//! the test prints the case's JSON and the whole recomputed table.

use anmat::datagen::{chembl, employee, names, phone, zipcity, Dataset, GenConfig};
use anmat::prelude::*;
use std::fmt::Write as _;

/// Rows per generated table: past the 100 rows at which the miner's
/// significance test starts.
const ROWS: usize = 400;
const SEEDS: [u64; 2] = [3, 11];

/// `(case, FNV-1a 64 digest of serde_json::to_string(&rules))`.
const GOLDEN: &[(&str, u64)] = &[
    ("zip_city/s3/clean/induced/default", 0x7a2c5d2e12c7cf78),
    ("zip_city/s3/clean/induced/low_coverage", 0x58c6aba7a3ac3b2a),
    ("zip_city/s3/clean/anystring/default", 0x4f7c0dfe755e2ac6),
    (
        "zip_city/s3/clean/anystring/low_coverage",
        0xacea004dee716e90,
    ),
    ("zip_city/s3/nulls/induced/default", 0x1d635939cd571540),
    ("zip_city/s3/nulls/induced/low_coverage", 0x735cf7eabdc1bc12),
    ("zip_city/s3/nulls/anystring/default", 0x0acdc247fb2a5def),
    (
        "zip_city/s3/nulls/anystring/low_coverage",
        0x70530feb5b9086f1,
    ),
    ("zip_state/s3/clean/induced/default", 0x512c5736c1125d01),
    (
        "zip_state/s3/clean/induced/low_coverage",
        0x512c5736c1125d01,
    ),
    ("zip_state/s3/clean/anystring/default", 0xf94042c30c8ef3d1),
    (
        "zip_state/s3/clean/anystring/low_coverage",
        0xf5958750543e5feb,
    ),
    ("zip_state/s3/nulls/induced/default", 0xbfc5f6c1afd10e17),
    (
        "zip_state/s3/nulls/induced/low_coverage",
        0xbfc5f6c1afd10e17,
    ),
    ("zip_state/s3/nulls/anystring/default", 0xc2fa5e28fab1094c),
    (
        "zip_state/s3/nulls/anystring/low_coverage",
        0xc2fa5e28fab1094c,
    ),
    ("phone/s3/clean/induced/default", 0xebac1c22d6a5dede),
    ("phone/s3/clean/induced/low_coverage", 0xebac1c22d6a5dede),
    ("phone/s3/clean/anystring/default", 0xdf9b4d2e63e231f8),
    ("phone/s3/clean/anystring/low_coverage", 0x4840af37a8232ea9),
    ("phone/s3/nulls/induced/default", 0x69cf45ee74ed9e9e),
    ("phone/s3/nulls/induced/low_coverage", 0x69cf45ee74ed9e9e),
    ("phone/s3/nulls/anystring/default", 0x6c117602a19a987d),
    ("phone/s3/nulls/anystring/low_coverage", 0x21d9c37fc6ce3260),
    ("names/s3/clean/induced/default", 0x5a45d4c6b6ca1c53),
    ("names/s3/clean/induced/low_coverage", 0x2d4640157837b4b5),
    ("names/s3/clean/anystring/default", 0xc7f6b1f9e8d43264),
    ("names/s3/clean/anystring/low_coverage", 0xbaa2b23aa171f893),
    ("names/s3/nulls/induced/default", 0x9288ac3eb74912c9),
    ("names/s3/nulls/induced/low_coverage", 0x9d1efe1643b18571),
    ("names/s3/nulls/anystring/default", 0x256444c2b856f703),
    ("names/s3/nulls/anystring/low_coverage", 0x55a733ebceba868b),
    ("employee/s3/clean/induced/default", 0x0a89db1c3f91a568),
    ("employee/s3/clean/induced/low_coverage", 0x0a89db1c3f91a568),
    ("employee/s3/clean/anystring/default", 0xd01a62c3cd185b30),
    (
        "employee/s3/clean/anystring/low_coverage",
        0xd01a62c3cd185b30,
    ),
    ("employee/s3/nulls/induced/default", 0xeabd58df716d960c),
    ("employee/s3/nulls/induced/low_coverage", 0xeabd58df716d960c),
    ("employee/s3/nulls/anystring/default", 0x8041491816c69054),
    (
        "employee/s3/nulls/anystring/low_coverage",
        0x8041491816c69054,
    ),
    ("chembl/s3/clean/induced/default", 0x09612b07b5ecb5a5),
    ("chembl/s3/clean/induced/low_coverage", 0x338488cd4efd412d),
    ("chembl/s3/clean/anystring/default", 0x09612b07b5ecb5a5),
    ("chembl/s3/clean/anystring/low_coverage", 0x338488cd4efd412d),
    ("chembl/s3/nulls/induced/default", 0x09612b07b5ecb5a5),
    ("chembl/s3/nulls/induced/low_coverage", 0x338488cd4efd412d),
    ("chembl/s3/nulls/anystring/default", 0x09612b07b5ecb5a5),
    ("chembl/s3/nulls/anystring/low_coverage", 0x338488cd4efd412d),
    ("zip_city/s11/clean/induced/default", 0x5cb03bf7ff8843bf),
    (
        "zip_city/s11/clean/induced/low_coverage",
        0xbf57135d1afa137d,
    ),
    ("zip_city/s11/clean/anystring/default", 0xe92620bb4c3f3d27),
    (
        "zip_city/s11/clean/anystring/low_coverage",
        0x1589cd843976ba45,
    ),
    ("zip_city/s11/nulls/induced/default", 0xafff85b697ef8d2a),
    (
        "zip_city/s11/nulls/induced/low_coverage",
        0x4b3814605dc24764,
    ),
    ("zip_city/s11/nulls/anystring/default", 0x1a839e8bc10cadc8),
    (
        "zip_city/s11/nulls/anystring/low_coverage",
        0x712d1294a873a954,
    ),
    ("zip_state/s11/clean/induced/default", 0xee0da5a9a005a971),
    (
        "zip_state/s11/clean/induced/low_coverage",
        0xee0da5a9a005a971,
    ),
    ("zip_state/s11/clean/anystring/default", 0x18b59ddf7f462972),
    (
        "zip_state/s11/clean/anystring/low_coverage",
        0xbca4c99599e4f1b6,
    ),
    ("zip_state/s11/nulls/induced/default", 0xd9d6eb65899b647b),
    (
        "zip_state/s11/nulls/induced/low_coverage",
        0xd9d6eb65899b647b,
    ),
    ("zip_state/s11/nulls/anystring/default", 0xfba25c9b38f3a569),
    (
        "zip_state/s11/nulls/anystring/low_coverage",
        0x21cf0f4ec2a5f7bd,
    ),
    ("phone/s11/clean/induced/default", 0x4ff1063196e77f22),
    ("phone/s11/clean/induced/low_coverage", 0x4ff1063196e77f22),
    ("phone/s11/clean/anystring/default", 0xef4006d6ca15e837),
    ("phone/s11/clean/anystring/low_coverage", 0xe7dc073d8750e70d),
    ("phone/s11/nulls/induced/default", 0x10edd729bc27c2fc),
    ("phone/s11/nulls/induced/low_coverage", 0x10edd729bc27c2fc),
    ("phone/s11/nulls/anystring/default", 0xbb3d0ea018e3ec2a),
    ("phone/s11/nulls/anystring/low_coverage", 0x7d86fb2583e6ef01),
    ("names/s11/clean/induced/default", 0x2b7db12063c5c5e6),
    ("names/s11/clean/induced/low_coverage", 0x9f6a8a6b39d70ec5),
    ("names/s11/clean/anystring/default", 0xc1ede09d5c323454),
    ("names/s11/clean/anystring/low_coverage", 0xe99cd32f05f6d793),
    ("names/s11/nulls/induced/default", 0x8168554b759741d2),
    ("names/s11/nulls/induced/low_coverage", 0xd7d00ce1f8f735f6),
    ("names/s11/nulls/anystring/default", 0x8de4b30f35690a81),
    ("names/s11/nulls/anystring/low_coverage", 0x866167d4a22fd71a),
    ("employee/s11/clean/induced/default", 0x4d8e9a132393792c),
    (
        "employee/s11/clean/induced/low_coverage",
        0x4d8e9a132393792c,
    ),
    ("employee/s11/clean/anystring/default", 0x826b1e8433e48bc0),
    (
        "employee/s11/clean/anystring/low_coverage",
        0x826b1e8433e48bc0,
    ),
    ("employee/s11/nulls/induced/default", 0x4d096bd2fe4c91ac),
    (
        "employee/s11/nulls/induced/low_coverage",
        0x4d096bd2fe4c91ac,
    ),
    ("employee/s11/nulls/anystring/default", 0xf81fa1d3bc7a2de8),
    (
        "employee/s11/nulls/anystring/low_coverage",
        0xf81fa1d3bc7a2de8,
    ),
    ("chembl/s11/clean/induced/default", 0x09612b07b5ecb5a5),
    ("chembl/s11/clean/induced/low_coverage", 0x338488cd4efd412d),
    ("chembl/s11/clean/anystring/default", 0x09612b07b5ecb5a5),
    (
        "chembl/s11/clean/anystring/low_coverage",
        0x338488cd4efd412d,
    ),
    ("chembl/s11/nulls/induced/default", 0x09612b07b5ecb5a5),
    ("chembl/s11/nulls/induced/low_coverage", 0x338488cd4efd412d),
    ("chembl/s11/nulls/anystring/default", 0x09612b07b5ecb5a5),
    (
        "chembl/s11/nulls/anystring/low_coverage",
        0x338488cd4efd412d,
    ),
];

/// FNV-1a, 64-bit: stable across platforms and toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn datasets(seed: u64) -> Vec<(&'static str, Dataset)> {
    let config = GenConfig {
        rows: ROWS,
        seed,
        error_rate: 0.03,
    };
    vec![
        (
            "zip_city",
            zipcity::generate(&config, zipcity::ZipTarget::City),
        ),
        (
            "zip_state",
            zipcity::generate(&config, zipcity::ZipTarget::State),
        ),
        ("phone", phone::generate(&config)),
        ("names", names::generate(&config)),
        ("employee", employee::generate(&config)),
        ("chembl", chembl::generate(&config)),
    ]
}

/// A copy of `table` with row `r`'s cell in column `r / 5 mod width`
/// null for every fifth row.
fn with_nulls(table: &Table) -> Table {
    let mut copy = table.clone();
    let width = copy.column_count();
    for row in (0..copy.row_count()).step_by(5) {
        copy.set_cell(row, (row / 5) % width, Value::Null);
    }
    copy
}

fn configs() -> [(&'static str, DiscoveryConfig); 2] {
    [
        ("default", DiscoveryConfig::default()),
        (
            "low_coverage",
            DiscoveryConfig {
                min_support: 3,
                min_coverage: 0.3,
                max_violation_ratio: 0.15,
                ..DiscoveryConfig::default()
            },
        ),
    ]
}

/// Every case's name and its rules as JSON.
fn cases() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for seed in SEEDS {
        for (name, data) in datasets(seed) {
            let tables = [
                ("clean", data.table.clone()),
                ("nulls", with_nulls(&data.table)),
            ];
            for (variant, table) in &tables {
                for (style_name, style) in [
                    ("induced", ContextStyle::Induced),
                    ("anystring", ContextStyle::AnyString),
                ] {
                    for (config_name, config) in configs() {
                        let config = DiscoveryConfig {
                            context_style: style,
                            ..config
                        };
                        let rules = discover(table, &config);
                        let json = serde_json::to_string(&rules).expect("rules serialize");
                        out.push((
                            format!("{name}/s{seed}/{variant}/{style_name}/{config_name}"),
                            json,
                        ));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn discovered_rules_match_their_recorded_digests() {
    let cases = cases();
    let mut table = String::new();
    let mut mismatches = String::new();
    for (case, json) in &cases {
        let digest = fnv1a(json.as_bytes());
        let _ = writeln!(table, "    (\"{case}\", 0x{digest:016x}),");
        match GOLDEN.iter().find(|(name, _)| name == case) {
            Some(&(_, expected)) if expected == digest => {}
            Some(&(_, expected)) => {
                let _ = writeln!(
                    mismatches,
                    "{case}: expected 0x{expected:016x}, got 0x{digest:016x}\n{json}\n"
                );
            }
            None => {
                let _ = writeln!(mismatches, "{case}: no recorded digest");
            }
        }
    }
    assert_eq!(
        GOLDEN.len(),
        cases.len(),
        "recorded and computed case counts differ; computed:\n{table}"
    );
    assert!(
        mismatches.is_empty(),
        "{mismatches}\ncomputed digests:\n{table}"
    );
}
