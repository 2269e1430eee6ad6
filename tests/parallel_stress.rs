//! Stress and soak tests for concurrent query evaluation.
//!
//! Many OS threads fire [`lyric::execute_shared`] at one shared
//! [`lyric::Database`] with jittered per-query thread counts and budgets;
//! every answer must equal the precomputed serial answer, and budget trips
//! must classify identically no matter which thread hit them. These runs
//! exercise the shared store index, the shared budget atomics, and the
//! worker pool under genuine OS-level contention rather than the
//! single-query fan-out the differential suite covers.

use lyric::{execute_shared, execute_with_options, EngineBudget, ExecOptions, LyricError};
use lyric_bench::workload::{self, Q_LINEAR, Q_PAIRWISE};
use std::sync::Arc;

fn opts(threads: usize) -> ExecOptions {
    ExecOptions::default().with_threads(threads)
}

/// Eight OS threads each run a mixed bag of queries against one shared
/// database, with per-call thread counts jittered from a seed. Every
/// answer must match its precomputed serial counterpart.
#[test]
fn concurrent_shared_database_queries_agree_with_serial() {
    let db = Arc::new(workload::office_db(12, 42));
    let queries = [Q_LINEAR, Q_PAIRWISE];
    let expected: Vec<_> = queries
        .iter()
        .map(|q| execute_shared(&db, q, &opts(1)).expect("serial baseline evaluates"))
        .collect();

    let mismatches = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let db = Arc::clone(&db);
                let expected = &expected;
                let queries = &queries;
                s.spawn(move || {
                    let mut bad = 0usize;
                    for rep in 0..3u64 {
                        for (i, q) in queries.iter().enumerate() {
                            // Deterministic jitter: thread count depends on
                            // the OS thread, the repeat, and the query.
                            let threads = 1 + ((t + rep + i as u64) % 4) as usize;
                            match execute_shared(&db, q, &opts(threads)) {
                                Ok(r) if r == expected[i] => {}
                                _ => bad += 1,
                            }
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum::<usize>()
    });
    assert_eq!(mismatches, 0, "concurrent executions diverged from serial");
}

/// Concurrent budget-limited runs: every thread that trips the pivot
/// budget must report the same resource classification and limit as the
/// serial abort, regardless of contention on the shared atomics.
#[test]
fn concurrent_budget_aborts_classify_identically() {
    let db = Arc::new(workload::office_db(8, 42));
    // Boxes off: interval pruning answers this workload's sat checks
    // without any pivots, and the point here is hitting the pivot cap.
    let tight = EngineBudget::unlimited().with_max_pivots(20);
    let serial_err = execute_shared(
        &db,
        Q_PAIRWISE,
        &opts(1).with_budget(tight.clone()).with_boxes(false),
    )
    .expect_err("20 pivots cannot cover the pairwise query");
    let (serial_resource, serial_limit) = match &serial_err {
        LyricError::BudgetExceeded {
            resource, limit, ..
        } => (*resource, *limit),
        other => panic!("expected budget abort, got {other:?}"),
    };

    std::thread::scope(|s| {
        for t in 0..6usize {
            let db = Arc::clone(&db);
            let tight = tight.clone();
            s.spawn(move || {
                let o = opts(1 + t % 4).with_budget(tight).with_boxes(false);
                match execute_shared(&db, Q_PAIRWISE, &o) {
                    Err(LyricError::BudgetExceeded {
                        resource, limit, ..
                    }) => {
                        assert_eq!(resource, serial_resource, "resource classification");
                        assert_eq!(limit, serial_limit, "limit");
                    }
                    other => panic!("expected budget abort under contention, got {other:?}"),
                }
            });
        }
    });
}

/// Soak: a longer seeded sweep alternating databases and thread counts on
/// one OS thread pool, confirming no cross-query state leaks through
/// per-database index slots or per-thread arenas and arithmetic modes.
#[test]
fn soak_alternating_databases_and_thread_counts() {
    let dbs: Vec<_> = (0..4u64)
        .map(|seed| Arc::new(workload::office_db(6 + seed as usize, seed)))
        .collect();
    let expected: Vec<_> = dbs
        .iter()
        .map(|db| execute_shared(db, Q_LINEAR, &opts(1)).expect("serial baseline evaluates"))
        .collect();

    std::thread::scope(|s| {
        for t in 0..4usize {
            let dbs = &dbs;
            let expected = &expected;
            s.spawn(move || {
                for rep in 0..6usize {
                    let i = (t + rep) % dbs.len();
                    let threads = 1 + (t * 3 + rep) % 4;
                    let got = execute_shared(&dbs[i], Q_LINEAR, &opts(threads))
                        .expect("soak query evaluates");
                    assert_eq!(
                        got, expected[i],
                        "db {i} diverged at {threads} threads (rep {rep})"
                    );
                }
            });
        }
    });
}

/// Observability stays deterministic under concurrency: with many OS
/// threads logging queries at once, every captured query-log line is a
/// complete, parseable JSON object (whole-line writes — no byte
/// interleaving), each concurrent query produced exactly one line with
/// the right thread count, and the Prometheus rendering keeps its
/// guaranteed ordering (families sorted by name, label sets sorted
/// within a family).
#[test]
fn query_log_and_metrics_are_deterministic_under_concurrency() {
    let db = Arc::new(workload::office_db(8, 11));
    let buf = lyric::metrics::querylog::capture();

    // One whitespace variant of the linear query per (thread, rep): same
    // answer, distinct FNV hash — so this test's lines are identifiable
    // even if other tests in this binary log concurrently.
    let variant = |t: usize, rep: usize| format!("{}{}", Q_LINEAR, " ".repeat(1 + t * 4 + rep));
    const THREADS: usize = 6;
    const REPS: usize = 3;

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = Arc::clone(&db);
            let variant = &variant;
            s.spawn(move || {
                for rep in 0..REPS {
                    execute_shared(&db, &variant(t, rep), &opts(3))
                        .expect("logged query evaluates");
                }
            });
        }
    });

    let captured = String::from_utf8(buf.lock().unwrap().clone()).expect("log is UTF-8");
    lyric::metrics::querylog::set_sink(None);

    let mut seen = std::collections::BTreeMap::new();
    for line in captured.lines() {
        let json = lyric::trace::json::parse(line)
            .unwrap_or_else(|e| panic!("interleaved or malformed log line ({e}): {line}"));
        let hash = json
            .get("query_hash")
            .and_then(|v| v.as_str())
            .expect("every line carries a query_hash")
            .to_string();
        let threads = json
            .get("threads")
            .and_then(|v| v.as_f64())
            .map(|f| f as u64);
        *seen.entry((hash, threads)).or_insert(0u32) += 1;
    }
    for t in 0..THREADS {
        for rep in 0..REPS {
            let hash = format!(
                "{:016x}",
                lyric::metrics::querylog::query_hash(&variant(t, rep))
            );
            assert_eq!(
                seen.get(&(hash.clone(), Some(3))).copied(),
                Some(1),
                "query variant ({t}, {rep}) must log exactly once with threads=3"
            );
        }
    }

    // The Prometheus exposition keeps its deterministic shape even while
    // other tests mutate counters: families strictly sorted by name,
    // series sorted by label set, and the whole text parses.
    let text = lyric::metrics::render_prometheus();
    let exp = lyric::metrics::prometheus::parse(&text).expect("scrape parses");
    let names: Vec<&String> = exp.families.iter().map(|f| &f.name).collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted, "families must render in sorted order");
    for family in &exp.families {
        for sample in &family.samples {
            // The synthetic `le` bucket label is appended after the
            // (sorted) series labels; exclude it from the ordering check.
            let labels: Vec<&String> = sample
                .labels
                .iter()
                .map(|(k, _)| k)
                .filter(|k| k.as_str() != "le")
                .collect();
            let mut sorted = labels.clone();
            sorted.sort();
            assert_eq!(
                labels, sorted,
                "label keys of {} must render sorted",
                sample.name
            );
        }
    }
}

/// `execute_shared` takes `&Database` and therefore cannot run statements
/// that mutate the database: CREATE VIEW must be rejected as a type error,
/// not silently dropped.
#[test]
fn execute_shared_rejects_create_view() {
    const VIEW: &str = "CREATE VIEW X AS SUBCLASS OF Object_In_Room
         SELECT Y
         FROM Object_In_Room Y, Region X
         WHERE Y.catalog_object[CO] AND Y.location[L] AND CO.extent[E] AND CO.translation[D]
           AND (((u,v) | E AND D AND L(x,y)) |= X(u,v))";

    let db = lyric::paper_example::database();
    let err = execute_shared(&db, VIEW, &opts(2)).expect_err("CREATE VIEW must be rejected");
    match err {
        LyricError::TypeError(msg) => assert!(
            msg.contains("SELECT"),
            "message should point at SELECT-only: {msg}"
        ),
        other => panic!("expected type error, got {other:?}"),
    }

    // The read-only rejection is about mutation, not the statement itself:
    // the same view works through the mutable entry point.
    let mut mdb = lyric::paper_example::database();
    execute_with_options(&mut mdb, VIEW, &opts(1))
        .expect("CREATE VIEW works through execute_with_options");
}
