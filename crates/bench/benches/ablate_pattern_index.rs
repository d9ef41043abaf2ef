//! E14 — §3 ablation: pattern index vs full scan for constant-PFD
//! detection.
//!
//! The paper: "For better performance, we create an index supporting
//! regular expressions for each column present on the LHS of the PFDs."
//! This bench compares the index's lookup — the compiled matcher over
//! the sorted distinct values that start with the pattern's literal
//! prefix — against the interpreter scanning every distinct value, and
//! times building the index. Production detection no longer builds the
//! index: it dispatches each distinct LHS value to its tuples through a
//! `TableauMemo`. The index serves discovery's candidate validation,
//! which builds one per candidate dependency and looks up many patterns
//! in it, so its cost there is `build_index` plus lookups.

use anmat_bench::criterion;
use anmat_datagen::phone;
use anmat_index::PatternIndex;
use anmat_pattern::Pattern;
use criterion::{black_box, BenchmarkId, Criterion, Throughput};

fn bench(c: &mut Criterion) {
    println!("── E14: pattern index vs scan (constant-PFD lookups) ──");
    println!("  indexed: compiled matcher over the distinct values in the prefix range");
    println!("  indexed_no_prefix: the same for \\D{{10}} alone, whose range is every value");
    println!("  scan:    interpreter over every distinct value");
    let patterns: Vec<Pattern> = ["850\\D{7}", "607\\D{7}", "\\D{10}", "21\\D{8}"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();

    let mut g = c.benchmark_group("ablate_pattern_index");
    for &rows in &[10_000usize, 50_000, 200_000] {
        let data = phone::generate(&anmat_bench::gen(rows, 0xE14));
        let index = PatternIndex::build(&data.table, 0);
        // Agreement check.
        for p in &patterns {
            assert_eq!(index.lookup(p), index.lookup_scan(p));
        }
        g.throughput(Throughput::Elements(rows as u64));
        g.bench_with_input(BenchmarkId::new("indexed", rows), &index, |b, idx| {
            b.iter(|| {
                let mut total = 0usize;
                for p in &patterns {
                    total += idx.lookup(black_box(p)).len();
                }
                total
            });
        });
        // The one lookup with no literal prefix: its range is every
        // distinct value.
        let no_prefix = &patterns[2];
        g.bench_with_input(
            BenchmarkId::new("indexed_no_prefix", rows),
            &index,
            |b, idx| b.iter(|| idx.lookup(black_box(no_prefix)).len()),
        );
        g.bench_with_input(BenchmarkId::new("scan", rows), &index, |b, idx| {
            b.iter(|| {
                let mut total = 0usize;
                for p in &patterns {
                    total += idx.lookup_scan(black_box(p)).len();
                }
                total
            });
        });
        let build_data = data;
        g.bench_with_input(
            BenchmarkId::new("build_index", rows),
            &build_data,
            |b, d| {
                b.iter(|| PatternIndex::build(black_box(&d.table), 0));
            },
        );
    }
    g.finish();
}

fn main() {
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
