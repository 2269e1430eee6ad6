//! Arithmetic differential tests: the small-coefficient fast path must be
//! *observationally BigInt*.
//!
//! Every §4.1 paper query and the seeded E2/E8 workloads are evaluated
//! twice — once with [`ExecOptions::with_arith_fast`] enabled (the
//! two-tier `i64`-inline representation) and once disabled (every value
//! lives in the all-`BigInt` tier, exactly the pre-fast-path engine).
//! The answers must be structurally identical and denotation-equal, and
//! the *semantic* engine counters (everything except the three
//! arithmetic-tier op counters, which by construction differ between
//! modes) must match exactly: same pivots, same FM
//! eliminations, same entailment checks, same arena bytes. On top of
//! that, the tier counters themselves are pinned: the BigInt-only run
//! must report zero small-tier ops, and the fast run must actually use
//! the small tier on these all-small-coefficient workloads.

use lyric::{execute_with_options, paper_example, ExecOptions};
use lyric_bench::workload::{self, Q_LINEAR, Q_PAIRWISE};

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

fn opts(fast: bool) -> ExecOptions {
    ExecOptions::default().with_arith_fast(fast)
}

/// Structural equality plus denotation equality for constraint columns,
/// plus exact equality of the mode-independent (semantic) stat counters.
fn assert_same_result(fast: &lyric::QueryResult, big: &lyric::QueryResult, label: &str) {
    assert_eq!(fast.columns, big.columns, "{label}: columns differ");
    assert_eq!(fast.rows, big.rows, "{label}: rows differ");
    for (fr, br) in fast.rows.iter().zip(&big.rows) {
        for (fc, bc) in fr.iter().zip(br) {
            if let (Some(a), Some(b)) = (fc.as_cst(), bc.as_cst()) {
                assert!(a.denotes_same(b), "{label}: CST cells not denotation-equal");
            }
        }
    }
    assert_eq!(
        fast.stats.semantic(),
        big.stats.semantic(),
        "{label}: semantic counters diverge between arithmetic tiers"
    );
}

/// Pin the tier counters themselves: BigInt-only runs never touch the
/// small tier, and the fast path actually fires on small coefficients.
fn assert_tier_counters(fast: &lyric::QueryResult, big: &lyric::QueryResult, label: &str) {
    assert_eq!(
        big.stats.arith_small_ops, 0,
        "{label}: disabled fast path still produced small-tier ops"
    );
    if big.stats.arith_big_ops > 0 {
        assert!(
            fast.stats.arith_small_ops > 0,
            "{label}: fast path never fired on an all-small workload"
        );
    } else {
        // A query with no arithmetic at all stays silent in both tiers.
        assert_eq!(fast.stats.arith_small_ops, 0, "{label}");
    }
}

/// Every §4.1 paper query answers identically with the fast path on and
/// off, and the semantic counters match exactly.
#[test]
fn paper_queries_fast_path_equals_bigint() {
    for (i, q) in PAPER_QUERIES.iter().enumerate() {
        let fast = execute_with_options(&mut paper_example::database(), q, &opts(true))
            .expect("paper query evaluates with fast path");
        let big = execute_with_options(&mut paper_example::database(), q, &opts(false))
            .expect("paper query evaluates on BigInt tier");
        let label = format!("paper query {i}");
        assert_same_result(&fast, &big, &label);
        assert_tier_counters(&fast, &big, &label);
    }
}

/// The seeded E2 office workloads (linear scan and the pairwise join
/// that dominates the LP benchmarks) are tier-invariant too.
#[test]
fn office_workloads_fast_path_equals_bigint() {
    let db = workload::office_db(10, 42);
    for (name, q) in [("Q_LINEAR", Q_LINEAR), ("Q_PAIRWISE", Q_PAIRWISE)] {
        let fast = execute_with_options(&mut db.clone(), q, &opts(true))
            .expect("office query evaluates with fast path");
        let big = execute_with_options(&mut db.clone(), q, &opts(false))
            .expect("office query evaluates on BigInt tier");
        assert_same_result(&fast, &big, name);
        assert_tier_counters(&fast, &big, name);
    }
}

/// The E8 factory LP workload (MAX … SUBJECT TO over generated product
/// mixes) exercises the simplex pivot loop hardest; answers and semantic
/// counters must still be bit-identical across tiers.
#[test]
fn factory_workload_fast_path_equals_bigint() {
    for &(np, seed) in &[(3usize, 7u64), (5, 11)] {
        let db = workload::factory_db(np, 3, 2, seed);
        let q = workload::factory_query(3, 2);
        let fast = execute_with_options(&mut db.clone(), &q, &opts(true))
            .expect("factory query evaluates with fast path");
        let big = execute_with_options(&mut db.clone(), &q, &opts(false))
            .expect("factory query evaluates on BigInt tier");
        let label = format!("factory np={np} seed={seed}");
        assert_same_result(&fast, &big, &label);
        assert_tier_counters(&fast, &big, &label);
    }
}

/// The tier toggle composes with the thread pool: a multi-threaded fast
/// run equals a serial BigInt run, semantically and by answer (workers
/// inherit the region's arithmetic mode through `RegionPlan`).
#[test]
fn fast_path_is_thread_count_invariant() {
    let db = workload::office_db(8, 42);
    let big_serial = execute_with_options(&mut db.clone(), Q_PAIRWISE, &opts(false))
        .expect("pairwise query evaluates on BigInt tier");
    for threads in [2usize, 4, 8] {
        let fast_par = execute_with_options(
            &mut db.clone(),
            Q_PAIRWISE,
            &opts(true).with_threads(threads),
        )
        .expect("pairwise query evaluates in parallel with fast path");
        assert_same_result(
            &fast_par,
            &big_serial,
            &format!("Q_PAIRWISE fast@{threads} threads vs big serial"),
        );
    }
}

/// `ExecOptions::default()` takes its arithmetic mode from the
/// process-wide default (the `LYRIC_ARITH_FAST` environment variable,
/// on unless explicitly "0"), so deployments can A/B the tiers without
/// touching code.
#[test]
fn default_options_follow_process_default() {
    assert_eq!(
        ExecOptions::default().arith_fast,
        lyric_arith::default_fast_path()
    );
}
