//! E6 — the §1.2 LP application realm: `MAX … SUBJECT TO` over a
//! chemical-factory constraint database, swept over factory shape, plus
//! raw exact-simplex microbenchmarks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lyric::execute;
use lyric_arith::Rational;
use lyric_bench::workload::{factory_db, factory_query};
use lyric_simplex::{LpProblem, Relop};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_factory_queries");
    group.sample_size(10);
    for &(np, nm, npr) in &[(2usize, 2usize, 2usize), (8, 4, 3), (16, 6, 4)] {
        let db = factory_db(np, nm, npr, 17);
        let query = factory_query(nm, npr);
        let label = format!("p{np}_m{nm}_pr{npr}");
        group.bench_with_input(BenchmarkId::from_parameter(label), &np, |b, _| {
            b.iter(|| {
                let mut d = db.clone();
                black_box(execute(&mut d, &query).expect("evaluates"))
            })
        });
    }
    group.finish();

    // Raw simplex scaling: dense random-ish LPs of growing size.
    let mut group = c.benchmark_group("e6_simplex_raw");
    group.sample_size(10);
    for &n in &[4usize, 8, 16, 32] {
        let mut lp = LpProblem::new(n);
        // x_i >= 0, sum x <= n, staircase couplings.
        for i in 0..n {
            let mut coeffs = vec![Rational::zero(); n];
            coeffs[i] = Rational::from_int(-1);
            lp.push(coeffs, Relop::Le, Rational::zero());
        }
        lp.push(
            vec![Rational::one(); n],
            Relop::Le,
            Rational::from_int(n as i64),
        );
        for i in 0..n - 1 {
            let mut coeffs = vec![Rational::zero(); n];
            coeffs[i] = Rational::from_int(2);
            coeffs[i + 1] = Rational::from_int(-1);
            lp.push(coeffs, Relop::Le, Rational::from_int(3));
        }
        let objective: Vec<Rational> = (0..n)
            .map(|i| Rational::from_int((i % 3 + 1) as i64))
            .collect();
        group.bench_with_input(BenchmarkId::new("maximize", n), &n, |b, _| {
            b.iter(|| black_box(lp.maximize(&objective)))
        });
        group.bench_with_input(BenchmarkId::new("feasibility", n), &n, |b, _| {
            b.iter(|| black_box(lp.is_feasible()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
