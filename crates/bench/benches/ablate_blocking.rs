//! E13 — §3 ablation: blocking vs quadratic pair enumeration for variable
//! PFDs.
//!
//! The paper: "this is still quadratic. The quadratic time complexity can
//! be avoided using blocking." This bench verifies the two paths agree and
//! measures the gap as rows grow.

use anmat_bench::criterion;
use anmat_core::{detect_pfd, detect_variable_bruteforce, PatternTuple, Pfd};
use anmat_datagen::names;
use anmat_pattern::ConstrainedPattern;
use criterion::{black_box, BenchmarkId, Criterion, Throughput};

fn lambda4() -> Pfd {
    Pfd::new(
        "Name",
        "full_name",
        "gender",
        vec![PatternTuple::variable(
            // Last, First [initial] — constrain the first-name token.
            "\\LU\\LL+,\\ [\\LU\\LL+]\\A*"
                .parse::<ConstrainedPattern>()
                .unwrap(),
        )],
    )
}

fn bench(c: &mut Criterion) {
    println!("── E13: blocking vs brute force (variable-PFD detection) ──");
    let pfd = lambda4();
    // Agreement check first.
    let small = names::generate(&anmat_bench::gen(500, 0xB10));
    let blocking_rows: Vec<usize> = detect_pfd(&small.table, &pfd)
        .iter()
        .map(|v| v.row)
        .collect();
    let brute_rows: Vec<usize> = detect_variable_bruteforce(&small.table, &pfd)
        .iter()
        .map(|v| v.row)
        .collect();
    assert_eq!(blocking_rows, brute_rows, "paths must agree");
    println!("paths agree on 500 rows: {} flagged", blocking_rows.len());

    let mut g = c.benchmark_group("ablate_blocking");
    for &rows in &[1_000usize, 4_000, 16_000] {
        let data = names::generate(&anmat_bench::gen(rows, 0xB11));
        g.throughput(Throughput::Elements(rows as u64));
        g.bench_with_input(BenchmarkId::new("blocking", rows), &data, |b, d| {
            b.iter(|| detect_pfd(black_box(&d.table), &pfd));
        });
        // Brute force is quadratic: cap the sizes it runs at.
        if rows <= 4_000 {
            g.bench_with_input(BenchmarkId::new("bruteforce", rows), &data, |b, d| {
                b.iter(|| detect_variable_bruteforce(black_box(&d.table), &pfd));
            });
        }
    }
    g.finish();
}

fn main() {
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
