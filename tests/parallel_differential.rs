//! Concurrency differential tests: parallel evaluation must be
//! *observationally serial*.
//!
//! For every §4.1 paper query and for seeded random workloads, the answer
//! at 1, 2, 4, and 8 threads must be structurally identical to the serial
//! answer (same columns, same rows, same order) — and, for constraint
//! columns, denotation-equal by mutual entailment, so the check does not
//! depend on any syntactic normalization accident. The evaluation is fully
//! deterministic, so the merged per-worker [`lyric::EngineStats`] must
//! equal the serial counters *exactly*; and a budget crossed under
//! parallel execution must abort with the same resource classification
//! as the serial run.

use lyric::{execute_with_options, paper_example, EngineBudget, ExecOptions};
use lyric_bench::workload::{self, Q_LINEAR, Q_PAIRWISE};
use lyric_constraint::Dnf;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The §4.1 worked-example queries (the same set the bench report runs).
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

fn opts(threads: usize) -> ExecOptions {
    ExecOptions::default().with_threads(threads)
}

/// Structural equality plus denotation equality for constraint columns:
/// `a == b` already compares columns and rows cell-by-cell, and on top of
/// that every pair of aligned CST cells must be mutually entailing.
fn assert_same_answer(serial: &lyric::QueryResult, parallel: &lyric::QueryResult, label: &str) {
    assert_eq!(serial, parallel, "{label}: answers differ");
    for (sr, pr) in serial.rows.iter().zip(&parallel.rows) {
        for (sc, pc) in sr.iter().zip(pr) {
            if let (Some(a), Some(b)) = (sc.as_cst(), pc.as_cst()) {
                assert!(a.denotes_same(b), "{label}: CST cells not denotation-equal");
            }
        }
    }
}

/// Every §4.1 paper query: parallel answers at every thread count equal
/// the serial answer, structurally and by denotation.
#[test]
fn paper_queries_parallel_equals_serial() {
    for (i, q) in PAPER_QUERIES.iter().enumerate() {
        let serial = {
            let mut db = paper_example::database();
            execute_with_options(&mut db, q, &opts(1)).expect("paper query evaluates serially")
        };
        for threads in THREAD_COUNTS {
            let mut db = paper_example::database();
            let par = execute_with_options(&mut db, q, &opts(threads))
                .expect("paper query evaluates in parallel");
            assert_same_answer(
                &serial,
                &par,
                &format!("paper query {i} at {threads} threads"),
            );
        }
    }
}

/// The evaluation is deterministic, so under default options the merged
/// per-worker stat deltas must sum to *exactly* the serial counters —
/// nothing double-counted in the shared-atomic mirror, nothing lost in
/// the merge. The count itself is pinned too: each answer row builds one
/// CST oid from a one-disjunct object, and canonicalizing it (once) is
/// the query's only satisfiability check.
#[test]
fn merged_worker_stats_equal_serial_counters() {
    let db = workload::office_db(10, 42);
    let serial = execute_with_options(&mut db.clone(), Q_LINEAR, &opts(1))
        .expect("linear query evaluates serially");
    for threads in THREAD_COUNTS {
        let par = execute_with_options(&mut db.clone(), Q_LINEAR, &opts(threads))
            .expect("linear query evaluates in parallel");
        assert_same_answer(&serial, &par, &format!("Q_LINEAR at {threads} threads"));
        assert_eq!(
            serial.stats, par.stats,
            "stats must be exactly serial at {threads} threads"
        );
        assert_eq!(
            par.stats.sat_checks,
            par.rows.len() as u64,
            "one sat check per CST oid at {threads} threads: {}",
            par.stats
        );
    }
}

/// Arithmetic-tier sweep: at every thread count the answer and the
/// semantic (mode-independent) counters are identical with the
/// small-coefficient fast path on and off, so the concurrency layer and
/// the arithmetic representation compose without observable interaction.
#[test]
fn arith_tier_sweep_is_thread_count_invariant() {
    let db = workload::office_db(10, 42);
    for threads in THREAD_COUNTS {
        let run = |fast: bool| {
            execute_with_options(
                &mut db.clone(),
                Q_PAIRWISE,
                &opts(threads).with_arith_fast(fast),
            )
            .expect("pairwise query evaluates")
        };
        let fast = run(true);
        let big = run(false);
        assert_same_answer(&big, &fast, &format!("tier sweep at {threads} threads"));
        assert_eq!(
            fast.stats.semantic(),
            big.stats.semantic(),
            "semantic counters diverge between tiers at {threads} threads"
        );
        assert_eq!(
            big.stats.arith_small_ops, 0,
            "BigInt-only run used the small tier at {threads} threads"
        );
        assert!(
            fast.stats.arith_small_ops > 0,
            "fast path never fired at {threads} threads"
        );
    }
}

/// A budget crossed under parallel execution aborts with the same error
/// classification (resource and limit) as the serial run.
#[test]
fn budget_aborts_classify_identically_under_parallelism() {
    let db = workload::office_db(8, 42);
    // Boxes off: interval pruning answers this workload's sat checks
    // without any pivots, and the point here is hitting the pivot cap.
    let tight = EngineBudget::unlimited().with_max_pivots(20);
    let serial_err = execute_with_options(
        &mut db.clone(),
        Q_PAIRWISE,
        &opts(1).with_budget(tight.clone()).with_boxes(false),
    )
    .expect_err("20 pivots cannot cover the pairwise query");
    for threads in THREAD_COUNTS {
        let par_err = execute_with_options(
            &mut db.clone(),
            Q_PAIRWISE,
            &opts(threads).with_budget(tight.clone()).with_boxes(false),
        )
        .expect_err("budget must also trip in parallel");
        match (&serial_err, &par_err) {
            (
                lyric::LyricError::BudgetExceeded {
                    resource: a,
                    limit: la,
                    ..
                },
                lyric::LyricError::BudgetExceeded {
                    resource: b,
                    limit: lb,
                    ..
                },
            ) => {
                assert_eq!(a, b, "resource classification at {threads} threads");
                assert_eq!(la, lb, "limit at {threads} threads");
            }
            other => panic!("both runs must be budget aborts, got {other:?}"),
        }
    }
}

/// Large DNF products and canonicalization under a multi-threaded engine
/// context produce bit-identical objects to the serial path (seeded sweep
/// over sizes; `Dnf` equality is structural, so this pins the
/// deterministic merge — including against the context-free serial
/// product, which never enters `parallel_map` at all).
#[test]
fn dnf_operations_are_thread_count_invariant() {
    for &(k, m, nvars, seed) in &[
        (8usize, 4usize, 3usize, 7u64),
        (12, 5, 3, 11),
        (16, 6, 4, 13),
    ] {
        let (a, b) = {
            let mut r = workload::rng(seed);
            (
                workload::random_dnf(&mut r, k, m, nvars),
                workload::random_dnf(&mut r, k, m, nvars),
            )
        };
        let run = |threads: usize| -> (Dnf, Dnf) {
            let o = ExecOptions::default().with_threads(threads);
            let (value, _stats, _) = lyric::engine::run(&o, None, || (a.and(&b), a.simplify()));
            value.expect("unlimited budget")
        };
        let (prod1, simp1) = run(1);
        for threads in [2usize, 4, 8] {
            let (prod, simp) = run(threads);
            assert_eq!(prod1, prod, "DNF product differs at {threads} threads");
            assert_eq!(simp1, simp, "DNF simplify differs at {threads} threads");
        }
        // Outside any engine context `parallel_map` falls back to the plain
        // serial loop, so this pins the parallel product against code that
        // never touched the pool at all.
        assert_eq!(prod1, a.and(&b), "context-free product differs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Seeded workload sweep: the E2 linear query over random office
    /// databases answers identically at every thread count.
    #[test]
    fn workload_answers_are_thread_count_invariant(n in 2usize..10, seed in 0u64..500) {
        let db = workload::office_db(n, seed);
        let serial = execute_with_options(&mut db.clone(), Q_LINEAR, &opts(1))
            .expect("linear query evaluates");
        for threads in [2usize, 4, 8] {
            let par = execute_with_options(&mut db.clone(), Q_LINEAR, &opts(threads))
                .expect("linear query evaluates");
            prop_assert_eq!(&serial, &par, "n={} seed={} threads={}", n, seed, threads);
        }
    }

    /// The factory LP workload (MAX … SUBJECT TO) is likewise invariant.
    #[test]
    fn factory_answers_are_thread_count_invariant(np in 2usize..6, seed in 0u64..100) {
        let db = workload::factory_db(np, 3, 2, seed);
        let q = workload::factory_query(3, 2);
        let serial = execute_with_options(&mut db.clone(), &q, &opts(1))
            .expect("factory query evaluates");
        let par = execute_with_options(&mut db.clone(), &q, &opts(4))
            .expect("factory query evaluates");
        prop_assert_eq!(serial, par);
    }
}
