//! E2 — PTIME data complexity (§5).
//!
//! The same two probe queries over synthetic office databases of growing
//! size: a per-object ("linear") query and a pairwise-join query. The §5
//! claim is polynomial data complexity; the report binary fits the
//! log–log slopes (~1 and ~2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lyric::execute;
use lyric_bench::workload::{office_db, Q_LINEAR, Q_PAIRWISE};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_linear_query");
    group.sample_size(10);
    for &n in &[8usize, 16, 32, 64, 128] {
        let db = office_db(n, 42);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut d = db.clone();
                black_box(execute(&mut d, Q_LINEAR).expect("evaluates"))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("e2_pairwise_query");
    group.sample_size(10);
    for &n in &[4usize, 8, 16, 32] {
        let db = office_db(n, 42);
        group.throughput(Throughput::Elements((n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut d = db.clone();
                black_box(execute(&mut d, Q_PAIRWISE).expect("evaluates"))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
