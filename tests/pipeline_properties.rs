//! Cross-crate property tests on pipeline invariants.

use anmat::datagen::{names, zipcity, GenConfig};
use anmat::prelude::*;
use proptest::prelude::*;

fn config() -> DiscoveryConfig {
    DiscoveryConfig {
        min_support: 3,
        min_coverage: 0.5,
        max_violation_ratio: 0.15,
        ..DiscoveryConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Discovery is deterministic for a fixed table.
    #[test]
    fn discovery_deterministic(seed in 0u64..1000, rows in 200usize..600) {
        let data = names::generate(&GenConfig { rows, seed, error_rate: 0.02 });
        let a = discover(&data.table, &config());
        let b = discover(&data.table, &config());
        prop_assert_eq!(a, b);
    }

    /// Blocking and brute-force variable detection flag the same rows on
    /// arbitrary generated tables.
    #[test]
    fn blocking_equals_bruteforce(seed in 0u64..1000) {
        let data = names::generate(&GenConfig { rows: 300, seed, error_rate: 0.03 });
        let pfd = Pfd::new(
            "Name",
            "full_name",
            "gender",
            vec![PatternTuple::variable(
                "\\LU\\LL+,\\ [\\LU\\LL+]\\A*".parse().unwrap(),
            )],
        );
        let blocking: Vec<usize> =
            detect_pfd(&data.table, &pfd).iter().map(|v| v.row).collect();
        let brute: Vec<usize> = detect_variable_bruteforce(&data.table, &pfd)
            .iter()
            .map(|v| v.row)
            .collect();
        prop_assert_eq!(blocking, brute);
    }

    /// Every discovered PFD meets its own coverage threshold.
    #[test]
    fn discovered_pfds_meet_coverage(seed in 0u64..1000) {
        let data = zipcity::generate(
            &GenConfig { rows: 400, seed, error_rate: 0.02 },
            zipcity::ZipTarget::City,
        );
        let cfg = config();
        for pfd in discover(&data.table, &cfg) {
            prop_assert!(
                pfd.coverage(&data.table) + 1e-9 >= cfg.min_coverage,
                "{} has coverage {:.3} < γ {:.3}",
                pfd, pfd.coverage(&data.table), cfg.min_coverage
            );
        }
    }

    /// Raising γ never yields rules that a lower γ run lacked (the rule
    /// set shrinks or specializes as the knob tightens).
    #[test]
    fn coverage_monotonicity(seed in 0u64..500) {
        let data = zipcity::generate(
            &GenConfig { rows: 400, seed, error_rate: 0.01 },
            zipcity::ZipTarget::City,
        );
        let lo = discover(&data.table, &DiscoveryConfig { min_coverage: 0.3, ..config() });
        let hi = discover(&data.table, &DiscoveryConfig { min_coverage: 0.8, ..config() });
        // Count tableau tuples: the tighter threshold can only keep fewer
        // or equal.
        let count = |pfds: &[Pfd]| pfds.iter().map(|p| p.tableau.len()).sum::<usize>();
        prop_assert!(count(&hi) <= count(&lo), "hi {} > lo {}", count(&hi), count(&lo));
    }

    /// Repair application is idempotent: a second pass changes nothing.
    #[test]
    fn repair_idempotent(seed in 0u64..1000) {
        let mut data = zipcity::generate(
            &GenConfig { rows: 400, seed, error_rate: 0.02 },
            zipcity::ZipTarget::City,
        );
        let pfds = discover(&data.table, &config());
        let violations = detect_all(&data.table, &pfds);
        let _ = apply_repairs(&mut data.table, &violations);
        let again = detect_all(&data.table, &pfds);
        let second = apply_repairs(&mut data.table, &again);
        prop_assert_eq!(second.applied_count(), 0,
            "second repair pass must be a no-op");
    }

    /// Detection never flags a row whose LHS matches no tableau pattern.
    #[test]
    fn violations_match_some_pattern(seed in 0u64..1000) {
        let data = names::generate(&GenConfig { rows: 300, seed, error_rate: 0.05 });
        let pfds = discover(&data.table, &config());
        for v in detect_all(&data.table, &pfds) {
            // Constant and variable PFDs over the same pair share the
            // embedded-FD string; the flagged value must match a tableau
            // pattern of at least one of them (checked on the AST
            // interpreter, independently of detection's compiled code).
            let admits = pfds
                .iter()
                .filter(|p| p.embedded_fd() == v.dependency)
                .any(|p| {
                    p.tableau.iter().any(|t| match &t.lhs {
                        LhsCell::Pattern(q) => q.matches(&v.lhs_value),
                        LhsCell::Wildcard => true,
                    })
                });
            prop_assert!(
                admits,
                "flagged value {:?} matches no tableau pattern of {}",
                v.lhs_value, v.dependency
            );
        }
    }
}
