//! E7 — the §5 naive implementation: translating the object database to
//! flat constraint relations and evaluating with the constraint algebra,
//! vs the direct object evaluator. Answer equality is asserted by
//! `tests/flat_equivalence.rs`; this bench tracks the cost of both routes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lyric::execute;
use lyric_bench::workload::{office_db, Q_LINEAR};
use lyric_constraint::Var;
use lyric_flatrel::FlatDb;
use std::hint::black_box;

fn flat_plan(flat: &FlatDb) -> lyric_flatrel::Relation {
    let oir = flat.extent("Object_In_Room").expect("extent");
    let loc = flat.attr("Object_In_Room", "location").expect("location");
    let cat = flat
        .attr("Object_In_Room", "catalog_object")
        .expect("catalog");
    let ext = flat
        .attr("Office_Object", "extent")
        .expect("extent")
        .rename_col("obj", "cat_obj");
    let tr = flat
        .attr("Office_Object", "translation")
        .expect("translation")
        .rename_col("obj", "cat_obj");
    oir.join(loc, &[("obj", "obj")])
        .join(cat, &[("obj", "obj")])
        .rename_col("val", "cat_obj")
        .join(&ext, &[("cat_obj", "cat_obj")])
        .join(&tr, &[("cat_obj", "cat_obj")])
        .project(&["obj"], &[Var::new("u"), Var::new("v")])
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_flat_translation");
    group.sample_size(10);
    for &n in &[8usize, 32, 96] {
        let db = office_db(n, 42);
        group.bench_with_input(BenchmarkId::new("direct_evaluator", n), &n, |b, _| {
            b.iter(|| {
                let mut d = db.clone();
                black_box(execute(&mut d, Q_LINEAR).expect("evaluates"))
            })
        });
        group.bench_with_input(BenchmarkId::new("translate_database", n), &n, |b, _| {
            b.iter(|| black_box(FlatDb::from_database(&db)))
        });
        let flat = FlatDb::from_database(&db);
        group.bench_with_input(BenchmarkId::new("flat_algebra_plan", n), &n, |b, _| {
            b.iter(|| black_box(flat_plan(&flat)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
