//! The one query runner, pinned. Every statement — through
//! `execute_shared` and through `execute_with_options`, under each
//! combination of the two report flags (`trace`, `explain`) and thread
//! budgets 1 and 4 — answers exactly as the plain run does, returns its
//! span tree and its analyzed plan exactly when asked, and feeds the
//! sinks exactly once: one query-log line and one flight-recorder record
//! per admitted statement, budget aborts included, and none for a
//! statement the analyzer rejects, which also leaves
//! `lyric_queries_total` untouched. The query-log sink and the flight
//! ring are process-global, so the whole matrix is one `#[test]`.

use lyric::engine::{EngineBudget, Resource};
use lyric::metrics::{querylog, MetricValue};
use lyric::{
    execute, execute_shared, execute_with_options, paper_example, ExecOptions, LyricError,
    QueryResult,
};

/// The §4.1 extent query: it pivots, so a one-pivot budget aborts it.
const PAPER: &str = "SELECT CO, ((u,v) | E AND D AND x = 6 AND y = 4)
     FROM Office_Object CO WHERE CO.extent[E] AND CO.translation[D]";

/// `E` is a two-variable extent used with three: the analyzer rejects the
/// statement before any engine work.
const REJECTED: &str = "SELECT X FROM Desk X WHERE X.extent[E] AND (E(a,b,c))";

fn queries_total() -> u64 {
    lyric::metrics::global()
        .snapshot()
        .families
        .iter()
        .filter(|f| f.name == "lyric_queries_total")
        .flat_map(|f| &f.series)
        .map(|s| match &s.value {
            MetricValue::Counter(v) => *v,
            _ => panic!("lyric_queries_total is not a counter"),
        })
        .sum()
}

fn flight_records() -> u64 {
    let doc = lyric::flight::recorder::to_json();
    doc.get("queries_recorded")
        .and_then(|v| v.as_f64())
        .expect("the recorder counts its pushes") as u64
}

/// The sink traffic of one statement: query-log lines, flight records,
/// and engine queries counted by the registry.
fn observe(
    run: impl FnOnce() -> Result<QueryResult, LyricError>,
) -> (Result<QueryResult, LyricError>, [u64; 3]) {
    let log = querylog::capture();
    let (records, queries) = (flight_records(), queries_total());
    let result = run();
    querylog::set_sink(None);
    let lines = String::from_utf8(log.lock().unwrap().clone())
        .expect("log is UTF-8")
        .lines()
        .count() as u64;
    let sinks = [lines, flight_records() - records, queries_total() - queries];
    (result, sinks)
}

/// The per-flag fields of an answered run: present exactly when asked
/// for, and each reconciles exactly with the run's counters.
fn assert_reports(res: &QueryResult, trace: bool, explain: bool, label: &str) {
    assert_eq!(
        res.trace.is_some(),
        trace,
        "{label}: trace returned iff requested"
    );
    assert_eq!(
        res.plan.is_some(),
        explain,
        "{label}: plan returned iff requested"
    );
    if let Some(t) = &res.trace {
        assert_eq!(*t.total_stats(), res.stats, "{label}: trace total");
        assert_eq!(t.summed_self_stats(), res.stats, "{label}: trace partition");
    }
    if let Some(report) = &res.plan {
        let a = report
            .analysis
            .as_ref()
            .expect("an explained plan is analyzed");
        assert_eq!(a.summed_stats(), res.stats, "{label}: per-node counters");
        assert_eq!(
            a.nodes[0].rows_out,
            res.rows.len() as u64,
            "{label}: root rows"
        );
    }
}

#[test]
fn every_entry_point_and_flag_runs_the_one_runner() {
    lyric::flight::set_dump_dir(None);
    let db = paper_example::database();
    let reference = execute(&mut db.clone(), PAPER).expect("the paper query evaluates");
    assert!(!reference.rows.is_empty());

    let one_pivot = EngineBudget::unlimited().with_max_pivots(1);
    let cases = [
        ("paper select", PAPER, EngineBudget::unlimited()),
        ("pivot abort", PAPER, one_pivot),
        ("rejected", REJECTED, EngineBudget::unlimited()),
    ];
    for threads in [1usize, 4] {
        for (name, query, budget) in &cases {
            let base = ExecOptions::default()
                .with_threads(threads)
                .with_budget(budget.clone());
            let plain = execute_with_options(&mut db.clone(), query, &base);
            for trace in [false, true] {
                for explain in [false, true] {
                    let opts = base.clone().with_trace(trace).with_explain(explain);
                    for shared in [true, false] {
                        let label = format!(
                            "{name}, threads={threads}, trace={trace}, explain={explain}, \
                             shared={shared}"
                        );
                        let (got, [lines, records, queries]) = observe(|| {
                            if shared {
                                execute_shared(&db, query, &opts)
                            } else {
                                execute_with_options(&mut db.clone(), query, &opts)
                            }
                        });
                        match (&plain, &got) {
                            (Ok(p), Ok(g)) => {
                                assert_eq!(g.rows, reference.rows, "{label}: rows");
                                assert_eq!(g.rows, p.rows, "{label}: rows");
                                assert_eq!(
                                    g.stats.semantic(),
                                    p.stats.semantic(),
                                    "{label}: semantic counters"
                                );
                                assert_reports(g, trace, explain, &label);
                            }
                            (
                                Err(LyricError::BudgetExceeded { resource: a, .. }),
                                Err(LyricError::BudgetExceeded { resource: b, .. }),
                            ) => {
                                assert_eq!(
                                    (*a, *b),
                                    (Resource::Pivots, Resource::Pivots),
                                    "{label}"
                                );
                            }
                            (Err(LyricError::Analysis(_)), Err(LyricError::Analysis(_))) => {
                                assert_eq!(
                                    [lines, records, queries],
                                    [0, 0, 0],
                                    "{label}: a rejected statement reaches no sink"
                                );
                                continue;
                            }
                            other => panic!("{label}: plain and flagged runs disagree: {other:?}"),
                        }
                        assert_eq!(lines, 1, "{label}: one query-log line");
                        assert_eq!(records, 1, "{label}: one flight record");
                        assert_eq!(queries, 1, "{label}: one engine query");
                    }
                }
            }
        }
    }
}
