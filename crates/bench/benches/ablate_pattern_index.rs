//! E14 — §3 ablation: prefix dispatch vs full scan for the paper's "index
//! supporting regular expressions for each column present on the LHS of
//! the PFDs".
//!
//! Every production path asks that index's question through a
//! `TableauMemo`: which of a list of patterns does this value match?
//! Detection asks it of a rule's constant tuples, discovery of a column
//! pair's candidate patterns, and coverage and the tableau report of
//! every tuple. The memo classifies each distinct value once, against
//! only the patterns whose literal prefix the value starts with (plus
//! those with none). This bench classifies the phone column's distinct
//! values against four patterns, three with a literal prefix and
//! `\D{10}` without, through a fresh memo per iteration (so compiling
//! the patterns is part of the cost), and compares that with the AST
//! interpreter matching every distinct value against every pattern.

use anmat_bench::criterion;
use anmat_datagen::phone;
use anmat_index::TableauMemo;
use anmat_pattern::{match_pattern, Pattern};
use anmat_table::ValueId;
use criterion::{black_box, BenchmarkId, Criterion, Throughput};

fn bench(c: &mut Criterion) {
    println!("── E14: prefix dispatch vs scan (distinct values × 4 patterns) ──");
    println!("  memo: a fresh TableauMemo, compiled matcher on prefix candidates only");
    println!("  scan: interpreter over every distinct value and every pattern");
    let patterns: Vec<Pattern> = ["850\\D{7}", "607\\D{7}", "\\D{10}", "21\\D{8}"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();

    let mut g = c.benchmark_group("ablate_pattern_index");
    for &rows in &[10_000usize, 50_000, 200_000] {
        let data = phone::generate(&anmat_bench::gen(rows, 0xE14));
        let mut values: Vec<ValueId> = data
            .table
            .iter_column(0)
            .map(|(_, v)| v)
            .filter(|v| !v.is_null())
            .collect();
        values.sort_unstable();
        values.dedup();
        // Agreement check: the memo's members are exactly the patterns
        // the interpreter accepts.
        let mut memo = TableauMemo::new(patterns.iter().map(Some));
        for &v in &values {
            let scanned: Vec<u32> = (0..patterns.len() as u32)
                .filter(|&m| match_pattern(&patterns[m as usize], v.render()))
                .collect();
            assert_eq!(memo.matches(v), scanned.as_slice(), "value {v}");
        }
        g.throughput(Throughput::Elements(values.len() as u64));
        g.bench_with_input(BenchmarkId::new("memo", rows), &values, |b, values| {
            b.iter(|| {
                let mut memo = TableauMemo::new(patterns.iter().map(Some));
                values
                    .iter()
                    .map(|&v| memo.matches(black_box(v)).len())
                    .sum::<usize>()
            });
        });
        g.bench_with_input(BenchmarkId::new("scan", rows), &values, |b, values| {
            b.iter(|| {
                values
                    .iter()
                    .map(|v| {
                        let value = black_box(v.render());
                        patterns.iter().filter(|p| match_pattern(p, value)).count()
                    })
                    .sum::<usize>()
            });
        });
    }
    g.finish();
}

fn main() {
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
