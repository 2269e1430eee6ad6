//! Explain differential tests: EXPLAIN ANALYZE must be *observationally
//! free* and its attribution *exact*.
//!
//! For every §4.1 paper query, across threads {1, 4} × interval boxes
//! on/off × the arithmetic fast path on/off:
//!
//! * the explained answer (columns, rows, CST denotations) is
//!   bit-identical to the plain evaluation, and the semantic counters
//!   (`EngineStats::semantic`) agree — the instrumentation only observes;
//! * Σ per-node exclusive counters equals the explained run's
//!   `QueryResult::stats` **exactly** (the trace→plan fold is total);
//! * Σ per-node exclusive time equals the trace's summed span self-time
//!   exactly, and on serial runs never exceeds the traced total (the
//!   collector's saturating-subtraction tolerance);
//! * the root node's `rows_out` is the answer cardinality, and the
//!   per-node row counters are identical at every thread count (row
//!   totals are multiset-invariant over the work distribution);
//! * the JSON document passes the schema validator, and the shape hash is
//!   stable for a query text across runs and thread counts.

use lyric::trace::plan::validate_plan_json;
use lyric::{
    execute_shared, execute_with_options, paper_example, ExecOptions, ExplainReport, LyricError,
    QueryResult,
};

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

/// Run `q` as EXPLAIN ANALYZE under `o`: the answer and its analyzed plan.
fn run_explained(
    db: &lyric::oodb::Database,
    q: &str,
    o: &ExecOptions,
) -> Result<(QueryResult, ExplainReport), LyricError> {
    let mut res = execute_shared(db, q, &o.clone().with_explain(true))?;
    let report = res.plan.take().expect("an explained run returns its plan");
    Ok((res, report))
}

fn opts(threads: usize, boxes: bool, fast: bool) -> ExecOptions {
    ExecOptions::default()
        .with_threads(threads)
        .with_boxes(boxes)
        .with_arith_fast(fast)
}

/// Structural equality plus denotation equality for constraint columns.
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

/// Run one query plain and explained under the same options and assert
/// the full bundle: identical answer, exact attribution, valid JSON.
fn assert_explain_free(
    db: &lyric::oodb::Database,
    q: &str,
    o: &ExecOptions,
    label: &str,
) -> (u64, Vec<(u64, u64)>) {
    let plain = execute_with_options(&mut db.clone(), q, o)
        .unwrap_or_else(|e| panic!("{label}: plain run failed: {e}"));
    let (explained, report) =
        run_explained(db, q, o).unwrap_or_else(|e| panic!("{label}: explained run failed: {e}"));
    assert_same_answer(&explained, &plain, label);
    assert_eq!(
        explained.stats.semantic(),
        plain.stats.semantic(),
        "{label}: semantic counters differ"
    );

    let a = report.analysis.as_ref().expect("analyzed report");
    assert_eq!(
        a.summed_stats(),
        explained.stats,
        "{label}: per-node counters do not sum to the query stats"
    );
    assert_eq!(
        a.summed_self_time(),
        a.total_self,
        "{label}: per-node self time does not sum to the trace self time"
    );
    if o.threads <= 1 {
        assert!(
            a.total_self <= a.total,
            "{label}: serial self-time sum {:?} exceeds traced total {:?}",
            a.total_self,
            a.total
        );
    }
    assert_eq!(
        a.nodes[0].rows_out,
        explained.rows.len() as u64,
        "{label}: root rows_out is not the answer cardinality"
    );
    assert_eq!(
        a.nodes.len(),
        report.plan.node_count(),
        "{label}: one observation slot per plan node"
    );

    let json = report.to_json().to_string();
    let n = validate_plan_json(&json).unwrap_or_else(|e| panic!("{label}: invalid JSON: {e}"));
    assert_eq!(n, report.plan.node_count(), "{label}: node count mismatch");

    let rows = a.nodes.iter().map(|o| (o.rows_in, o.rows_out)).collect();
    (report.shape_hash, rows)
}

/// The full matrix: paper corpus × threads × boxes × arithmetic tiers.
/// Row counters and the shape hash must agree across every cell.
#[test]
fn paper_queries_are_explain_invariant() {
    let db = paper_example::database();
    for (i, q) in PAPER_QUERIES.iter().enumerate() {
        let mut baseline: Option<(u64, Vec<(u64, u64)>)> = None;
        for threads in [1usize, 4] {
            for boxes in [true, false] {
                for fast in [true, false] {
                    let label =
                        format!("paper query {i} threads={threads} boxes={boxes} fast={fast}");
                    let got = assert_explain_free(&db, q, &opts(threads, boxes, fast), &label);
                    match &baseline {
                        None => baseline = Some(got),
                        Some((hash, rows)) => {
                            assert_eq!(got.0, *hash, "{label}: shape hash not stable");
                            assert_eq!(&got.1, rows, "{label}: per-node rows not deterministic");
                        }
                    }
                }
            }
        }
    }
}

/// Repeated explained runs of one query keep the same shape hash while
/// the process warms up — the first run builds the database's store
/// index, the second reuses it (counters may differ; the shape may not).
#[test]
fn shape_hash_survives_cache_warming() {
    let db = paper_example::database();
    let o = ExecOptions::default();
    let (_, first) = run_explained(&db, PAPER_QUERIES[1], &o).unwrap();
    let (_, second) = run_explained(&db, PAPER_QUERIES[1], &o).unwrap();
    assert_eq!(first.shape_hash, second.shape_hash);
    assert_eq!(first.plan, second.plan, "static plan is identical");
}

/// Budget aborts surface identically with and without explain.
#[test]
fn explained_budget_aborts_match_plain() {
    use lyric::EngineBudget;
    let db = paper_example::database();
    let o = ExecOptions::default().with_budget(EngineBudget::default().with_max_pivots(1));
    let q = PAPER_QUERIES[4]; // the LP query must pivot
    let plain = execute_with_options(&mut db.clone(), q, &o);
    let explained = run_explained(&db, q, &o);
    match (&plain, &explained) {
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        other => panic!(
            "expected both to abort, got plain={:?} explained-ok={}",
            other.0.as_ref().err(),
            other.1.is_ok()
        ),
    }
}
