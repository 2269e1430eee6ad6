//! Well-formedness properties of emitted span trees.
//!
//! Every trace a run returns under `ExecOptions::trace` must satisfy: a single
//! `query` root covering the whole source; children nested within their
//! parent's time interval, in disjoint start order *per logical thread*
//! (siblings with different `tid`s ran concurrently and may overlap); and
//! per-span *exclusive* counter deltas that sum exactly to the query's
//! aggregate [`lyric::EngineStats`] — the trace partitions the query's
//! work with nothing counted twice and nothing lost, whether it ran
//! serially or across a worker pool. The Chrome export of every checked
//! trace must also validate structurally.

use lyric::trace::{SpanKind, Trace, TraceSpan, MAIN_TID};
use lyric::ExecOptions;
use lyric::{
    execute_with_options, paper_example, EngineBudget, EngineStats, LyricError, QueryResult,
};
use lyric_bench::workload::{self, Q_LINEAR, Q_PAIRWISE};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

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

/// Run `src` traced under `opts`: the answer and its span tree.
fn traced_with_options(
    db: &mut lyric::oodb::Database,
    src: &str,
    opts: &ExecOptions,
) -> Result<(QueryResult, Trace), LyricError> {
    let mut res = execute_with_options(db, src, &opts.clone().with_trace(true))?;
    let trace = res.trace.take().expect("a traced run returns its trace");
    Ok((res, trace))
}

/// [`traced_with_options`] under `budget`, default options otherwise.
fn traced(
    db: &mut lyric::oodb::Database,
    src: &str,
    budget: EngineBudget,
) -> Result<(QueryResult, Trace), LyricError> {
    traced_with_options(db, src, &ExecOptions::default().with_budget(budget))
}

/// Children must sit inside their parent's interval and, *per logical
/// thread id*, be pairwise disjoint and in start order. Siblings with
/// different tids are worker subtrees of a parallel region: they ran
/// concurrently, so only the per-tid sequences are ordered.
fn assert_nested(span: &TraceSpan) {
    let mut cursors: BTreeMap<u32, Duration> = BTreeMap::new();
    for c in &span.children {
        let cursor = cursors.entry(c.tid).or_insert(span.start);
        assert!(
            c.start >= *cursor,
            "same-tid sibling spans overlap or are out of order"
        );
        assert!(c.end() <= span.end(), "child span escapes its parent");
        *cursor = c.end();
        assert_nested(c);
    }
}

fn assert_well_formed(trace: &Trace, aggregate: &EngineStats) {
    assert_eq!(trace.root.kind, SpanKind::Query, "single query root");
    assert_eq!(trace.dropped_spans, 0, "no spans over the cap");
    assert_nested(&trace.root);
    // The exclusive (self) deltas partition the aggregate exactly:
    // nothing counted twice, nothing lost.
    assert_eq!(trace.summed_self_stats(), *aggregate);
    assert_eq!(*trace.total_stats(), *aggregate);
    // And the Chrome export of the same tree is structurally valid.
    let chrome = lyric::trace::to_chrome_trace(trace);
    let events =
        lyric::trace::chrome::validate_chrome_trace(&chrome).expect("chrome export validates");
    assert!(events >= trace.span_count());
}

/// The acceptance case: `:profile` on the paper's Q1 yields a span tree
/// whose per-span deltas sum exactly to `QueryResult::stats`, plus a
/// valid Chrome export.
#[test]
fn q1_trace_partitions_query_stats() {
    let mut db = paper_example::database();
    let src = PAPER_QUERIES[0];
    let (res, trace) = traced(&mut db, src, EngineBudget::unlimited()).expect("q1 evaluates");
    assert_eq!(res.rows.len(), 1);
    assert_well_formed(&trace, &res.stats);
    // The root covers the whole source and the front-end phases are there.
    assert_eq!(trace.root.source, Some((0, src.len())));
    let kinds: Vec<SpanKind> = trace.root.children.iter().map(|c| c.kind).collect();
    for expected in [
        SpanKind::Lex,
        SpanKind::Parse,
        SpanKind::Analyze,
        SpanKind::FromBind,
        SpanKind::Where,
    ] {
        assert!(kinds.contains(&expected), "missing {expected:?} phase");
    }
}

/// Every §4.1 paper query produces a well-formed trace; the queries cover
/// path predicates, sat and entailment checks, and the LP operators.
#[test]
fn paper_query_traces_are_well_formed() {
    for src in PAPER_QUERIES {
        let mut db = paper_example::database();
        let (res, trace) =
            traced(&mut db, src, EngineBudget::unlimited()).expect("paper query evaluates");
        assert_well_formed(&trace, &res.stats);
    }
    // The entailment query (Q4) actually records an entailment-check span.
    let mut db = paper_example::database();
    let (_, trace) =
        traced(&mut db, PAPER_QUERIES[2], EngineBudget::unlimited()).expect("q4 evaluates");
    let mut saw_entail = false;
    trace
        .root
        .walk(&mut |s, _| saw_entail |= s.kind == SpanKind::EntailCheck);
    assert!(saw_entail, "q4 must record an entail_check span");
}

/// A budget abort under tracing returns the same error as the untraced
/// path — the partial trace is discarded, not half-sealed.
#[test]
fn traced_budget_abort_matches_untraced() {
    // Boxes off: interval pruning answers this workload's sat checks
    // without any pivots, and the point here is hitting the pivot cap.
    let opts = ExecOptions::default()
        .with_budget(EngineBudget::unlimited().with_max_pivots(1))
        .with_boxes(false);
    let mut db = workload::office_db(8, 42);
    let traced = traced_with_options(&mut db.clone(), Q_PAIRWISE, &opts).map(|_| ());
    let untraced = execute_with_options(&mut db, Q_PAIRWISE, &opts).map(|_| ());
    match (traced, untraced) {
        (
            Err(lyric::LyricError::BudgetExceeded { resource: a, .. }),
            Err(lyric::LyricError::BudgetExceeded { resource: b, .. }),
        ) => {
            assert_eq!(a, b);
        }
        other => panic!("both runs must abort on the 1-pivot budget, got {other:?}"),
    }
}

/// Multi-threaded evaluation still yields ONE well-formed logical trace:
/// a single query root, per-tid nesting, self-stats partitioning the
/// aggregate exactly, multiple distinct tids present, and a Chrome export
/// that validates — while the answer stays identical to the serial run.
#[test]
fn multithreaded_traces_are_well_formed() {
    let db = workload::office_db(10, 42);
    let serial = lyric::execute(&mut db.clone(), Q_LINEAR).expect("linear query evaluates");
    for threads in [2usize, 4, 8] {
        let opts = ExecOptions::default().with_threads(threads);
        let (res, trace) =
            traced_with_options(&mut db.clone(), Q_LINEAR, &opts).expect("linear query evaluates");
        assert_well_formed(&trace, &res.stats);
        assert_eq!(
            res, serial,
            "tracing + {threads} threads changed the answer"
        );
        let tids = trace.distinct_tids();
        assert_eq!(tids[0], MAIN_TID);
        assert!(
            tids.len() >= 2,
            "expected worker subtrees at {threads} threads, got tids {tids:?}"
        );
        // Worker subtrees are explicit worker-kind spans.
        let mut workers = 0usize;
        trace
            .root
            .walk(&mut |s, _| workers += usize::from(s.kind == SpanKind::Worker));
        assert!(workers >= 1, "worker spans must be recorded");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Traces of the E2 workload query stay well-formed across database
    /// sizes and seeds, and tracing never changes the answer.
    #[test]
    fn workload_traces_are_well_formed(n in 2usize..12, seed in 0u64..1_000) {
        let db = workload::office_db(n, seed);
        let (traced_res, trace) = traced(
            &mut db.clone(),
            Q_LINEAR,
            EngineBudget::unlimited(),
        )
        .expect("linear query evaluates");
        assert_well_formed(&trace, &traced_res.stats);
        let plain_res = lyric::execute(&mut db.clone(), Q_LINEAR).expect("linear query evaluates");
        prop_assert_eq!(traced_res, plain_res);
    }
}
