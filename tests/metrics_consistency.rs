//! The PR's exact-counter acceptance check: the process-lifetime metric
//! registry must agree *exactly* with the per-query `EngineStats` the
//! evaluator hands back.
//!
//! A single `#[test]` (so no other test in this binary races the global
//! registry) runs a mixed serial/parallel query suite against a shared
//! database, summing each returned `EngineStats`, then asserts that the
//! registry deltas match: `lyric_queries_total` equals the number of
//! queries, the `lyric_query_duration_us` histogram saw one observation
//! per query, and every `lyric_engine_<counter>_total` delta equals the
//! corresponding summed per-query counter. A budget-exceeding query is
//! then checked to land in `lyric_budget_aborts_total` while still
//! counting as a query, with the counters it consumed on its query-log
//! line, in the `lyric_engine_<counter>_total` deltas and judged by
//! `lyric_budget_threshold_total`. Last, work outside the query runner —
//! a direct `lyric::engine::run`, the analyzer's deep check — moves no
//! series at all: the runner's sink is their only writer.

use lyric::metrics::{global, MetricValue, Snapshot};
use lyric::trace::stats::COUNTER_NAMES;
use lyric::{analyze_src, execute_shared, AnalyzerOptions, EngineBudget, ExecOptions, LyricError};
use lyric_bench::workload::{self, Q_LINEAR, Q_PAIRWISE};
use std::sync::Arc;

/// Sum of a counter family across all its label sets (0 when absent).
fn counter_total(snap: &Snapshot, name: &str) -> u64 {
    snap.families
        .iter()
        .filter(|f| f.name == name)
        .flat_map(|f| &f.series)
        .map(|s| match &s.value {
            MetricValue::Counter(v) => *v,
            _ => panic!("{name} is not a counter"),
        })
        .sum()
}

/// One labelled series of a counter family (0 when absent).
fn counter_at(snap: &Snapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    snap.families
        .iter()
        .filter(|f| f.name == name)
        .flat_map(|f| &f.series)
        .filter(|s| {
            s.labels.len() == labels.len()
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
        })
        .map(|s| match &s.value {
            MetricValue::Counter(v) => *v,
            _ => panic!("{name} is not a counter"),
        })
        .sum()
}

/// Observation count of a histogram family (0 when absent).
fn hist_count(snap: &Snapshot, name: &str) -> u64 {
    snap.families
        .iter()
        .filter(|f| f.name == name)
        .flat_map(|f| &f.series)
        .map(|s| match &s.value {
            MetricValue::Histogram(h) => h.count,
            _ => panic!("{name} is not a histogram"),
        })
        .sum()
}

#[test]
fn registry_deltas_equal_summed_query_stats() {
    let db = Arc::new(workload::office_db(10, 7));
    let before = global().snapshot();

    let mut queries = 0u64;
    let mut expected = [0u64; COUNTER_NAMES.len()];
    for q in [Q_LINEAR, Q_PAIRWISE] {
        for threads in [1usize, 2, 4] {
            let opts = ExecOptions::default().with_threads(threads);
            let res = execute_shared(&db, q, &opts).expect("suite query evaluates");
            for (slot, v) in expected.iter_mut().zip(res.stats.counters()) {
                *slot += v;
            }
            queries += 1;
        }
    }

    let after = global().snapshot();
    assert_eq!(
        counter_total(&after, "lyric_queries_total")
            - counter_total(&before, "lyric_queries_total"),
        queries,
        "every execute_shared call is one query"
    );
    assert_eq!(
        hist_count(&after, "lyric_query_duration_us")
            - hist_count(&before, "lyric_query_duration_us"),
        queries,
        "one latency observation per query"
    );
    for (i, name) in COUNTER_NAMES.iter().enumerate() {
        let family = format!("lyric_engine_{name}_total");
        let delta = counter_total(&after, &family) - counter_total(&before, &family);
        assert_eq!(
            delta, expected[i],
            "{family}: registry delta {delta} != summed per-query stats {}",
            expected[i]
        );
    }

    // A budget abort still counts as a query, and classifies its resource.
    // Boxes off: interval pruning answers this workload's sat checks
    // without any pivots, and the point here is hitting the pivot cap.
    let tight = EngineBudget::unlimited().with_max_pivots(1);
    let before = after;
    let log = lyric::metrics::querylog::capture();
    let err = execute_shared(
        &db,
        Q_PAIRWISE,
        &ExecOptions::default()
            .with_threads(2)
            .with_budget(tight)
            .with_boxes(false),
    )
    .expect_err("one pivot cannot evaluate the pairwise query");
    assert!(
        matches!(err, LyricError::BudgetExceeded { .. }),
        "expected a budget error, got {err:?}"
    );
    let after = global().snapshot();
    lyric::metrics::querylog::set_sink(None);
    assert_eq!(
        counter_total(&after, "lyric_queries_total")
            - counter_total(&before, "lyric_queries_total"),
        1
    );
    assert_eq!(
        counter_total(&after, "lyric_budget_aborts_total")
            - counter_total(&before, "lyric_budget_aborts_total"),
        1,
        "the abort is classified under lyric_budget_aborts_total"
    );

    // The abort's log line carries the counters it consumed, and they are
    // exactly what the engine totals moved by.
    let text = String::from_utf8(log.lock().unwrap().clone()).expect("log is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "one query, one log line: {text}");
    let line = lyric::trace::json::parse(lines[0]).expect("the log line is JSON");
    assert_eq!(
        line.get("outcome").and_then(|o| o.as_str()),
        Some("budget_exceeded")
    );
    let stats = line.get("stats").expect("the line carries stats");
    let logged = |name: &str| {
        stats
            .get(name)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("stats.{name} missing")) as u64
    };
    let pivots = logged("pivots");
    assert!(
        pivots > 1,
        "the abort consumed pivots past its cap: {pivots}"
    );
    for name in COUNTER_NAMES {
        let family = format!("lyric_engine_{name}_total");
        let delta = counter_total(&after, &family) - counter_total(&before, &family);
        assert_eq!(delta, logged(name), "{family} moved by the logged {name}");
    }
    // Each threshold series moved exactly when its counter ended above
    // that percent of its limit: here both pivot lines, nothing else.
    for (resource, consumed, limit) in [("pivots", pivots, Some(1)), ("fm_atoms", 0, None)] {
        for percent in ["50", "90"] {
            let labels = [("resource", resource), ("percent", percent)];
            let delta = counter_at(&after, "lyric_budget_threshold_total", &labels)
                - counter_at(&before, "lyric_budget_threshold_total", &labels);
            let pct: u64 = percent.parse().unwrap();
            let crossed = limit.is_some_and(|l: u64| consumed * 100 > l * pct);
            assert_eq!(delta, crossed as u64, "{resource} {percent}%");
        }
    }
    assert_eq!(
        counter_total(&after, "lyric_budget_threshold_total")
            - counter_total(&before, "lyric_budget_threshold_total"),
        2,
        "no other resource had a limit"
    );

    // Engine work outside the query runner moves no series: a direct
    // engine run and the analyzer's LP-backed deep check (LYA041).
    let before = global().snapshot();
    let region = workload::random_satisfiable_conjunction(&mut workload::rng(7), 3, 6);
    let (sat, stats, _) =
        lyric::engine::run(&ExecOptions::default().with_boxes(false), None, || {
            region.satisfiable()
        });
    assert!(sat.expect("unlimited budget"));
    assert!(
        stats.lp_runs > 0,
        "the direct run did engine work: {stats:?}"
    );
    let deep = AnalyzerOptions {
        deep_unsat: true,
        ..AnalyzerOptions::default()
    };
    let diags = analyze_src(
        db.schema(),
        "SELECT D, ((x,y) | x <= y AND y <= x AND x + y >= 3 AND x + y <= 1) FROM Desk D",
        &deep,
    );
    assert!(
        diags.iter().any(|d| d.code == "LYA041"),
        "the deep check ran: {diags:?}"
    );
    assert_eq!(global().snapshot(), before, "no registry series moved");
}
