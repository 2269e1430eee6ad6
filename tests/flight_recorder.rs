//! The flight recorder end to end: budget aborts drop exactly one
//! parseable black-box dump attributing the offender, the in-flight
//! registry is observably non-empty *during* evaluation and empty after
//! every exit path, and the `LYRIC_SLOW_MS` breach trigger fires on its
//! own. The dump directory and slow threshold are process-global, so
//! the tests that touch them serialize on one mutex.

use lyric::engine::EngineBudget;
use lyric::{execute_shared, execute_with_options, paper_example, ExecOptions, LyricError};
use lyric_bench::workload::{self, Q_PAIRWISE};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes every test that re-points the process-global dump
/// directory or slow threshold.
static DUMP_STATE: Mutex<()> = Mutex::new(());

/// A fresh, empty dump directory unique to this test.
fn fresh_dump_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lyric-flight-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dump dir");
    dir
}

/// The dump files currently in `dir` whose trigger member of the file
/// name matches.
fn dumps_in(dir: &PathBuf, trigger: &str) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).expect("dump dir readable") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if name.starts_with("flight-") && name.contains(&format!("-{trigger}-")) {
            found.push(path);
        }
    }
    found
}

/// The acceptance pin: a query that trips its pivot budget writes
/// exactly one `budget_abort` dump — valid JSON whose offender carries
/// the query, outcome, tripped resource and the counters the abort
/// consumed, and whose in-flight section still contains the aborting
/// slot (the dump is written *before* the registry guard releases). The
/// registry itself is empty once the call returns, and the recorder ring
/// holds the record with the same counters.
#[test]
fn budget_abort_writes_one_attributed_dump() {
    let _lock = DUMP_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = fresh_dump_dir("abort");
    lyric::flight::set_dump_dir(Some(dir.clone()));

    let mut db = paper_example::database();
    // The desk-in-room join: its `(φ)` needs the simplex.
    let query = "SELECT DSK FROM Object_In_Room O, Desk DSK
         WHERE O.catalog_object[DSK] AND O.location[L]
           AND DSK.drawer_center[C] AND DSK.translation[D]
           AND DSK.drawer.extent[DRE] AND DSK.drawer.translation[DRD]
           AND (C(p,q) AND DRE(w1,z1) AND DRD(w1,z1,x1,y1,u1,v1)
                AND D(w,z,x,y,u,v) AND L(x,y) AND w = u1 AND z = v1
                AND 0 < u AND u < 20 AND 0 < v AND v < 10)";
    let opts = ExecOptions::default().with_budget(EngineBudget::unlimited().with_max_pivots(1));
    let err = execute_with_options(&mut db, query, &opts)
        .expect_err("1 pivot cannot evaluate a paper query");
    assert!(matches!(err, LyricError::BudgetExceeded { .. }), "{err}");
    lyric::flight::set_dump_dir(None);

    assert_eq!(lyric::flight::inflight::len(), 0, "registry drained");

    let dumps = dumps_in(&dir, "budget_abort");
    assert_eq!(dumps.len(), 1, "exactly one dump: {dumps:?}");
    let text = std::fs::read_to_string(&dumps[0]).expect("dump readable");
    let doc = lyric::trace::json::parse(&text).expect("dump is valid JSON");
    assert_eq!(doc.get("trigger").unwrap().as_str(), Some("budget_abort"));
    assert!(doc.get("git_rev").is_some() && doc.get("version").is_some());

    let hash = format!("{:016x}", lyric::metrics::querylog::query_hash(query));
    let offender = doc.get("offender").expect("offender attributed");
    assert_eq!(
        offender.get("query_hash").unwrap().as_str(),
        Some(hash.as_str())
    );
    assert_eq!(
        offender.get("outcome").unwrap().as_str(),
        Some("budget_exceeded")
    );
    assert!(
        offender
            .get("resource")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("pivot"),
        "tripped resource named"
    );
    let inflight = doc.get("inflight").unwrap().as_arr().unwrap();
    assert!(
        inflight
            .iter()
            .any(|s| s.get("query_hash").and_then(|h| h.as_str()) == Some(hash.as_str())),
        "dump captured the offender still in flight"
    );

    let record = lyric::flight::recorder::recent_queries()
        .into_iter()
        .find(|q| {
            q.query_hash == lyric::metrics::querylog::query_hash(query)
                && q.outcome.name() == "budget_exceeded"
        })
        .expect("recorder ring holds the aborted query's record");
    let counters = record.stats.nonzero_counters();
    assert!(
        record.stats.pivots > 1,
        "the record holds the pivots past the cap: {counters:?}"
    );
    let stats = offender.get("stats").expect("the offender carries stats");
    for (name, value) in counters {
        assert_eq!(
            stats.get(name).and_then(|v| v.as_f64()),
            Some(value as f64),
            "offender stats.{name}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A query that finishes over the slow threshold dumps with the `slow`
/// trigger (threshold 0 marks every completion slow).
#[test]
fn slow_threshold_breach_dumps_on_its_own() {
    let _lock = DUMP_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = fresh_dump_dir("slow");
    lyric::flight::set_dump_dir(Some(dir.clone()));
    lyric::metrics::querylog::set_slow_ms(Some(0));

    let db = paper_example::database();
    let query = "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]";
    let res = execute_shared(&db, query, &ExecOptions::default());
    lyric::metrics::querylog::set_slow_ms(None);
    lyric::flight::set_dump_dir(None);
    res.expect("query evaluates");

    let dumps = dumps_in(&dir, "slow");
    assert_eq!(dumps.len(), 1, "one completion, one slow dump");
    let doc = lyric::trace::json::parse(&std::fs::read_to_string(&dumps[0]).unwrap())
        .expect("dump is valid JSON");
    let offender = doc.get("offender").expect("offender attributed");
    assert_eq!(offender.get("outcome").unwrap().as_str(), Some("ok"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Registered queries are visible mid-flight: while a worker thread
/// evaluates, a concurrent scrape of the registry sees the slot — query
/// hash, live counters — and once the worker drains, the registry is
/// empty again. The worker repeats a deadline-bounded adversarial query
/// until the scraper has seen it, so the test never races on one fixed
/// window.
#[test]
fn inflight_registry_is_visible_during_evaluation_and_empty_after() {
    let _lock = DUMP_STATE.lock().unwrap_or_else(|e| e.into_inner());
    lyric::flight::set_dump_dir(None); // deadline aborts must not spray files

    let db = workload::office_db(8, 42);
    let hash = lyric::metrics::querylog::query_hash(Q_PAIRWISE);
    let seen = AtomicBool::new(false);
    let opts = ExecOptions::default()
        .with_budget(EngineBudget::unlimited().with_deadline(Duration::from_millis(300)))
        .with_boxes(false);

    std::thread::scope(|s| {
        let worker = s.spawn(|| {
            // Evaluate until observed (bounded: ~300ms per attempt).
            for _ in 0..40 {
                let _ = execute_shared(&db, Q_PAIRWISE, &opts);
                if seen.load(Ordering::Relaxed) {
                    break;
                }
            }
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            let snapshot = lyric::flight::inflight::snapshot();
            if let Some(slot) = snapshot.iter().find(|s| s.query_hash == hash) {
                assert!(slot.query.contains("SELECT"), "slot carries the text");
                seen.store(true, Ordering::Relaxed);
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        worker.join().expect("worker exits");
    });
    assert!(
        seen.load(Ordering::Relaxed),
        "scraper saw the in-flight slot"
    );
    assert_eq!(
        lyric::flight::inflight::len(),
        0,
        "registry empty after drain"
    );
}
