//! Box-pruning differential tests: interval-box pruning must be
//! *observationally free*.
//!
//! The prune in `Conjunction::satisfiable` may only change *how* an
//! answer is obtained, never the answer: for every §4.1 paper query and
//! for seeded random workloads, evaluation with `ExecOptions::boxes` on
//! and off must produce structurally identical results at every thread
//! count, with identical answer-driven counters (`prune_invariant`
//! projects away the how-counters: LP work, arithmetic ops, box and index
//! probes). The suite runs under the CI `LYRIC_ARITH_FAST` matrix, so the
//! guarantee is pinned across both arithmetic tiers too.
//!
//! Accounting invariants ride along: with boxes on, every satisfiability
//! check consults the box exactly once (`box_checks == sat_checks`); with
//! boxes off both box counters are zero; and pruning can only ever save
//! LP runs, never add them. Every constraint cell the paper queries
//! return has a box that holds its LP extrema.

use lyric::constraint::CstObject;
use lyric::{execute_with_options, paper_example, ExecOptions};
use lyric_bench::workload::{self, Q_LINEAR};
use proptest::prelude::*;

const PAPER_QUERIES: [&str; 5] = [
    "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]",
    "SELECT CO, ((u,v) | E AND D AND x = 6 AND y = 4)
     FROM Office_Object CO WHERE CO.extent[E] AND CO.translation[D]",
    "SELECT DSK, ((w,z) | DSK.drawer.extent(w,z) AND z >= w)
     FROM Desk DSK
     WHERE DSK.color = 'red' AND DSK.drawer_center[C] AND (C(p,q) |= p = 0)",
    "SELECT DSK FROM Object_In_Room O, Desk DSK
     WHERE O.catalog_object[DSK] AND O.location[L]
       AND DSK.drawer_center[C] AND DSK.translation[D]
       AND DSK.drawer.extent[DRE] AND DSK.drawer.translation[DRD]
       AND (C(p,q) AND DRE(w1,z1) AND DRD(w1,z1,x1,y1,u1,v1)
            AND D(w,z,x,y,u,v) AND L(x,y) AND w = u1 AND z = v1
            AND 0 < u AND u < 20 AND 0 < v AND v < 10)",
    "SELECT MAX(w + z SUBJECT TO ((w,z) | E)), MIN(w SUBJECT TO ((w,z) | E))
     FROM Desk D WHERE D.extent[E]",
];

/// A query whose WHERE box is disjoint from every stored extent (desks
/// live in a 200×100 room), so the box test prunes every sat check that
/// reaches a stored object.
const Q_DISJOINT: &str =
    "SELECT D FROM Desk D WHERE D.extent[E] AND (E(w,z) AND w >= 1000 AND z >= 1000)";

/// The suite isolates the sat-check-level box-prune layer, so the store
/// index stays off: with it on, a box-disjoint query is pruned at FROM
/// binding and the sat checks under test never run (that interplay is
/// covered by `tests/index_differential.rs`).
fn opts(threads: usize, boxes: bool) -> ExecOptions {
    ExecOptions::default()
        .with_threads(threads)
        .with_boxes(boxes)
        .with_index(false)
}

/// Structural equality plus denotation equality for constraint columns,
/// mirroring the concurrency differential: every pair of aligned CST
/// cells must be mutually entailing, so the check does not depend on a
/// syntactic normalization accident.
fn assert_same_answer(a: &lyric::QueryResult, b: &lyric::QueryResult, label: &str) {
    assert_eq!(a, b, "{label}: answers differ");
    for (ar, br) in a.rows.iter().zip(&b.rows) {
        for (ac, bc) in ar.iter().zip(br) {
            if let (Some(x), Some(y)) = (ac.as_cst(), bc.as_cst()) {
                assert!(x.denotes_same(y), "{label}: CST cells not denotation-equal");
            }
        }
    }
}

/// The box of an answer cell is sound against the LP: the object is
/// LP-unsat or has a nonempty box, every per-variable `bounding_box`
/// bound lies inside the box side (closed), and an LP-unbounded side is
/// an infinite box side.
fn assert_box_holds_lp_extrema(obj: &CstObject, label: &str) {
    let Some(lp) = obj.bounding_box() else {
        return;
    };
    let bx = obj.interval_box();
    assert!(
        !bx.is_empty(),
        "{label}: box empty but LP-satisfiable: {obj}"
    );
    for (v, (lo, hi)) in obj.free().iter().zip(&lp) {
        let iv = bx.interval(v);
        let below = iv
            .lo()
            .is_none_or(|(b, _)| lo.as_ref().is_some_and(|m| b <= m));
        let above = iv
            .hi()
            .is_none_or(|(b, _)| hi.as_ref().is_some_and(|m| b >= m));
        assert!(
            below && above,
            "{label}: box {iv} for {v} excludes LP {lo:?}..{hi:?} in {obj}"
        );
    }
}

/// Run one query twice (boxes on / boxes off) and assert the full
/// observational-equivalence bundle. Returns the boxes-on answer.
fn assert_boxes_free(
    db: &lyric::oodb::Database,
    q: &str,
    threads: usize,
    label: &str,
) -> lyric::QueryResult {
    let on = execute_with_options(&mut db.clone(), q, &opts(threads, true))
        .unwrap_or_else(|e| panic!("{label}: boxes-on run failed: {e}"));
    let off = execute_with_options(&mut db.clone(), q, &opts(threads, false))
        .unwrap_or_else(|e| panic!("{label}: boxes-off run failed: {e}"));
    assert_same_answer(&on, &off, label);
    assert_eq!(
        on.stats.prune_invariant(),
        off.stats.prune_invariant(),
        "{label}: answer-driven counters differ"
    );
    assert_eq!(
        on.stats.box_checks, on.stats.sat_checks,
        "{label}: boxes on must consult the box once per sat check"
    );
    assert_eq!(
        off.stats.box_checks + off.stats.box_prunes,
        0,
        "{label}: boxes off must never touch the box layer"
    );
    assert!(
        on.stats.lp_runs <= off.stats.lp_runs,
        "{label}: pruning added LP runs ({} > {})",
        on.stats.lp_runs,
        off.stats.lp_runs
    );
    assert!(
        on.stats.box_prunes <= on.stats.box_checks,
        "{label}: more prunes than checks"
    );
    on
}

/// Every §4.1 paper query, at one and four threads: answers and
/// answer-driven counters are bit-identical with pruning on and off, and
/// every constraint cell's box holds its LP extrema.
#[test]
fn paper_queries_are_box_pruning_invariant() {
    let db = paper_example::database();
    for (i, q) in PAPER_QUERIES.iter().enumerate() {
        for threads in [1usize, 4] {
            let label = format!("paper query {i} at {threads} threads");
            let on = assert_boxes_free(&db, q, threads, &label);
            for cst in on.rows.iter().flatten().filter_map(|cell| cell.as_cst()) {
                assert_box_holds_lp_extrema(cst, &label);
            }
        }
    }
}

/// A box-disjoint query actually prunes: nonzero `box_prunes`, and every
/// prune is a simplex run saved (strictly fewer `lp_runs` than the
/// exact-LP baseline). With the store index on, the probe prunes every
/// candidate itself and the answer is the same.
#[test]
fn disjoint_windows_prune_and_save_lp_runs() {
    let db = paper_example::database();
    for threads in [1usize, 4] {
        assert_boxes_free(
            &db,
            Q_DISJOINT,
            threads,
            &format!("disjoint at {threads} threads"),
        );
    }
    let base = ExecOptions::default().with_index(false);
    let on = execute_with_options(&mut db.clone(), Q_DISJOINT, &base.clone().with_boxes(true))
        .expect("boxes-on run");
    let off = execute_with_options(&mut db.clone(), Q_DISJOINT, &base.with_boxes(false))
        .expect("boxes-off run");
    assert!(on.rows.is_empty(), "nothing lives at w >= 1000");
    assert!(
        on.stats.box_prunes > 0,
        "disjoint query must prune: {}",
        on.stats
    );
    assert!(
        on.stats.lp_runs < off.stats.lp_runs,
        "every prune must save an LP run ({} vs {})",
        on.stats.lp_runs,
        off.stats.lp_runs
    );
    let indexed = execute_with_options(
        &mut db.clone(),
        Q_DISJOINT,
        &ExecOptions::default().with_boxes(true).with_index(true),
    )
    .expect("index-on run");
    assert_eq!(indexed, on, "the index changed the disjoint answer");
    assert!(
        indexed.stats.index_pruned > 0,
        "the index must prune: {}",
        indexed.stats
    );
}

/// The default-options path (boxes on) matches an explicit boxes-off run
/// on answers — the guard that turning the feature on by default changed
/// nothing observable.
#[test]
fn default_options_match_exact_lp_answers() {
    let mut db = paper_example::database();
    let default = lyric::execute(&mut db, Q_DISJOINT).expect("default run");
    let off = execute_with_options(
        &mut db.clone(),
        Q_DISJOINT,
        &ExecOptions::default().with_boxes(false),
    )
    .expect("exact-LP run");
    assert_same_answer(&default, &off, "default vs exact-LP");
    assert_eq!(default.stats.prune_invariant(), off.stats.prune_invariant());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Seeded workload sweep: the E2 linear query over random office
    /// databases is box-pruning invariant at one and four threads.
    #[test]
    fn workload_answers_are_box_pruning_invariant(n in 2usize..8, seed in 0u64..500) {
        let db = workload::office_db(n, seed);
        for threads in [1usize, 4] {
            assert_boxes_free(&db, Q_LINEAR, threads,
                &format!("office n={n} seed={seed} threads={threads}"));
        }
    }

    /// Random conjunctions, straight at the engine API: satisfiability
    /// and entailment answers are identical with boxes on and off (the
    /// library-level face of the same guarantee the query sweeps pin).
    #[test]
    fn conjunction_answers_are_box_pruning_invariant(seed in 0u64..1_000_000) {
        let mut r = workload::rng(seed);
        let c = workload::random_conjunction(&mut r, 3, 5);
        let d = workload::random_conjunction(&mut r, 3, 3);
        let run = |boxes: bool| {
            let o = ExecOptions::default().with_boxes(boxes);
            let (answers, stats, _) = lyric::engine::run(&o, None, || {
                (c.satisfiable(), d.satisfiable(), c.implies(&d))
            });
            (answers.expect("unlimited budget"), stats)
        };
        let (ans_on, stats_on) = run(true);
        let (ans_off, stats_off) = run(false);
        prop_assert_eq!(ans_on, ans_off, "answers diverge for seed {}", seed);
        prop_assert_eq!(
            stats_on.prune_invariant(),
            stats_off.prune_invariant(),
            "answer-driven counters diverge for seed {}",
            seed
        );
        prop_assert_eq!(stats_on.box_checks, stats_on.sat_checks);
        prop_assert_eq!(stats_off.box_checks, 0u64);
    }
}
