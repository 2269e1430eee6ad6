//! E1 — the §4.1 worked example queries on the Figure 2 instance.
//!
//! Measures end-to-end `execute()` (parse + bind + constraint work) for
//! each query shape the paper walks through. Answer correctness is
//! asserted by `crates/core/tests/paper_queries.rs`; this bench tracks
//! cost.

use criterion::{criterion_group, criterion_main, Criterion};
use lyric::{execute, paper_example, parse_query};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_paper_queries");
    group.sample_size(20);
    let queries: Vec<(&str, &str)> = vec![
        (
            "q1_path_only",
            "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]",
        ),
        (
            "q2_projection_formula",
            "SELECT CO, ((u,v) | E AND D AND x = 6 AND y = 4)
             FROM Office_Object CO WHERE CO.extent[E] AND CO.translation[D]",
        ),
        (
            "q4_entailment",
            "SELECT DSK, ((w,z) | DSK.drawer.extent(w,z) AND z >= w)
             FROM Desk DSK
             WHERE DSK.color = 'red' AND DSK.drawer_center[C] AND (C(p,q) |= p = 0)",
        ),
        (
            "q5_satisfiability",
            "SELECT DSK FROM Object_In_Room O, Desk DSK
             WHERE O.catalog_object[DSK] AND O.location[L]
               AND DSK.drawer_center[C] AND DSK.translation[D]
               AND DSK.drawer.extent[DRE] AND DSK.drawer.translation[DRD]
               AND (C(p,q) AND DRE(w1,z1) AND DRD(w1,z1,x1,y1,u1,v1)
                    AND D(w,z,x,y,u,v) AND L(x,y) AND w = u1 AND z = v1
                    AND 0 < u AND u < 20 AND 0 < v AND v < 10)",
        ),
        (
            "lp_operators",
            "SELECT MAX(w + z SUBJECT TO ((w,z) | E)), MIN(w SUBJECT TO ((w,z) | E))
             FROM Desk D WHERE D.extent[E]",
        ),
    ];
    let db = paper_example::database();
    for (name, q) in &queries {
        group.bench_function(*name, |b| {
            b.iter(|| {
                let mut d = db.clone();
                black_box(execute(&mut d, q).expect("query evaluates"))
            })
        });
    }
    // Parse cost alone, for reference.
    group.bench_function("parse_q5", |b| {
        b.iter(|| black_box(parse_query(queries[3].1).expect("parses")))
    });
    // Database construction cost, for reference.
    group.bench_function("build_figure2_database", |b| {
        b.iter(|| black_box(paper_example::database()))
    });
    let _ = execute; // linked for doc purposes
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
