//! E8 — Figure 2: the discovery algorithm, measured.
//!
//! The paper gives pseudo-code, not runtimes; the reproducible artifact is
//! the scaling behaviour: discovery time vs rows (token and n-gram/prefix
//! extraction modes) should grow near-linearly thanks to the inverted
//! list.

use anmat_bench::{criterion, experiment_config};
use anmat_core::discover;
use anmat_datagen::{employee, names};
use criterion::{black_box, BenchmarkId, Criterion, Throughput};

fn bench(c: &mut Criterion) {
    println!("── Figure 2: discovery scaling (rows vs wall time, see Criterion output) ──");
    let cfg = experiment_config();
    let mut g = c.benchmark_group("fig2_discovery_scaling");
    for &rows in &[1_000usize, 5_000, 20_000] {
        // Token mode: multi-token name column.
        let tokens = names::generate(&anmat_bench::gen(rows, 0xF2));
        g.throughput(Throughput::Elements(rows as u64));
        g.bench_with_input(BenchmarkId::new("tokens", rows), &tokens, |b, d| {
            b.iter(|| discover(black_box(&d.table), &cfg));
        });
        // N-gram/prefix mode: single-token employee ids.
        let codes = employee::generate(&anmat_bench::gen(rows, 0xF3));
        g.bench_with_input(BenchmarkId::new("ngrams", rows), &codes, |b, d| {
            b.iter(|| discover(black_box(&d.table), &cfg));
        });
    }
    g.finish();
}

fn main() {
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
