//! CI smoke check for the live-introspection surfaces, end to end over
//! HTTP: start `lyric-serve` in-process on an ephemeral port and assert
//! that
//!
//! * `GET /version` and `GET /debug/caches` serve well-formed JSON and
//!   `/metrics` carries the `lyric_build_info` gauge with a `git_rev`
//!   label;
//! * unknown paths answer a JSON 404 that enumerates every endpoint;
//! * a deliberately slow query is *observable*: while a background
//!   thread drives it, `GET /debug/inflight` shows the registered slot
//!   (matched by query hash), and once the thread drains the registry
//!   is empty again;
//! * `GET /debug/flight` holds the completed queries afterwards;
//! * a budget abort with a dump directory configured writes exactly one
//!   `budget_abort` black-box file that parses and attributes the
//!   offender.
//!
//! Exits nonzero on any failure. Run with
//! `cargo run -p lyric-bench --bin flight_smoke --release`.

use lyric::engine::EngineBudget;
use lyric::ExecOptions;
use lyric_bench::workload::{self, Q_PAIRWISE};
use lyric_serve::{http_request, Server};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// GET a path and parse the body as JSON, asserting the status.
fn get_json(addr: SocketAddr, path: &str, want_status: u16) -> lyric::trace::Json {
    let (status, body) = http_request(addr, "GET", path, "").expect("request succeeds");
    assert_eq!(status, want_status, "GET {path} answered {status}: {body}");
    lyric::trace::json::parse(&body)
        .unwrap_or_else(|e| panic!("GET {path} body is not valid JSON ({e:?}): {body}"))
}

fn main() {
    let mut failures = 0usize;
    lyric::metrics::build::register_build_info();
    lyric::flight::recorder::set_enabled(true);

    let db = Arc::new(workload::office_db(8, 42));

    // Surfaces server: generous budget, used for the scrape assertions
    // and the in-flight observation.
    let addr = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&db),
        ExecOptions::default()
            .with_budget(EngineBudget::unlimited().with_deadline(Duration::from_millis(300)))
            .with_boxes(false),
    )
    .expect("bind an ephemeral port")
    .spawn()
    .expect("start the accept loop");
    println!("serving on http://{addr}");

    // --- /version and build identity ------------------------------------
    let version = get_json(addr, "/version", 200);
    for key in ["version", "git_rev", "host_parallelism"] {
        if version.get(key).is_none() {
            eprintln!("FAIL: /version lacks {key}: {version}");
            failures += 1;
        }
    }
    let (status, metrics) = http_request(addr, "GET", "/metrics", "").expect("metrics reachable");
    assert_eq!(status, 200, "/metrics must answer 200");
    if !(metrics.contains("lyric_build_info") && metrics.contains("git_rev=\"")) {
        eprintln!("FAIL: /metrics lacks the lyric_build_info gauge with a git_rev label");
        failures += 1;
    }

    // --- JSON 404 enumerating the surface --------------------------------
    let not_found = get_json(addr, "/nope", 404);
    let endpoints = not_found
        .get("endpoints")
        .and_then(|e| e.as_arr())
        .map(|a| a.len())
        .unwrap_or(0);
    if endpoints != lyric_serve::ENDPOINTS.len() {
        eprintln!(
            "FAIL: 404 body enumerates {endpoints} endpoints, serve exports {}",
            lyric_serve::ENDPOINTS.len()
        );
        failures += 1;
    }

    // --- /debug/caches ----------------------------------------------------
    let caches = get_json(addr, "/debug/caches", 200);
    for key in ["generation", "index"] {
        if caches.get(key).is_none() {
            eprintln!("FAIL: /debug/caches lacks {key}: {caches}");
            failures += 1;
        }
    }

    // --- in-flight observation -------------------------------------------
    // A worker drives the adversarial pairwise query (deadline-bounded by
    // the server's budget) until a concurrent /debug/inflight scrape has
    // seen its slot; afterwards the registry must drain to empty.
    let hash = format!("{:016x}", lyric::metrics::querylog::query_hash(Q_PAIRWISE));
    let seen = AtomicBool::new(false);
    std::thread::scope(|s| {
        let worker = s.spawn(|| {
            for _ in 0..40 {
                let _ = http_request(addr, "POST", "/query", Q_PAIRWISE);
                if seen.load(Ordering::Relaxed) {
                    break;
                }
            }
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline && !seen.load(Ordering::Relaxed) {
            let inflight = get_json(addr, "/debug/inflight", 200);
            let observed = inflight
                .get("queries")
                .and_then(|q| q.as_arr())
                .map(|slots| {
                    slots.iter().any(|slot| {
                        slot.get("query_hash").and_then(|h| h.as_str()) == Some(hash.as_str())
                    })
                })
                .unwrap_or(false);
            if observed {
                seen.store(true, Ordering::Relaxed);
            }
        }
        worker.join().expect("worker exits");
    });
    if !seen.load(Ordering::Relaxed) {
        eprintln!("FAIL: /debug/inflight never showed the running query");
        failures += 1;
    }
    let drained = get_json(addr, "/debug/inflight", 200);
    if drained.get("inflight").and_then(|v| v.as_f64()) != Some(0.0) {
        eprintln!("FAIL: registry not empty after drain: {drained}");
        failures += 1;
    }
    println!("in-flight slot observed over HTTP, registry drained");

    // --- /debug/flight holds the completions ------------------------------
    let flight = get_json(addr, "/debug/flight", 200);
    let held = flight
        .get("queries")
        .and_then(|q| q.as_arr())
        .map(|a| a.len())
        .unwrap_or(0);
    if held == 0 {
        eprintln!("FAIL: /debug/flight holds no completed queries: {flight}");
        failures += 1;
    }
    println!("/debug/flight holds {held} completed queries");

    // --- budget abort writes exactly one parsing dump ----------------------
    // A second server with a pivot budget the pairwise query must trip
    // (cf. tests/parallel_stress.rs); one POST, one abort, one dump.
    let abort_addr = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&db),
        ExecOptions::default()
            .with_budget(EngineBudget::unlimited().with_max_pivots(20))
            .with_boxes(false),
    )
    .expect("bind the abort server")
    .spawn()
    .expect("start the abort accept loop");
    let dir = std::env::temp_dir().join(format!("lyric-flight-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dump dir");
    lyric::flight::set_dump_dir(Some(dir.clone()));
    let (status, body) =
        http_request(abort_addr, "POST", "/query", Q_PAIRWISE).expect("abort query sent");
    lyric::flight::set_dump_dir(None);
    if status == 200 {
        eprintln!("FAIL: 20 pivots evaluated the pairwise query: {body}");
        failures += 1;
    }
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("dump dir readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .map(|n| n.to_string_lossy().contains("-budget_abort-"))
                .unwrap_or(false)
        })
        .collect();
    if dumps.len() != 1 {
        eprintln!("FAIL: expected exactly one budget_abort dump, found {dumps:?}");
        failures += 1;
    } else {
        let text = std::fs::read_to_string(&dumps[0]).expect("dump readable");
        let doc = lyric::trace::json::parse(&text).expect("dump is valid JSON");
        assert_eq!(doc.get("trigger").unwrap().as_str(), Some("budget_abort"));
        let offender = doc.get("offender").expect("offender attributed");
        if offender.get("query_hash").and_then(|h| h.as_str()) != Some(hash.as_str()) {
            eprintln!("FAIL: dump offender is not the aborted query: {offender}");
            failures += 1;
        }
        println!("budget abort dumped to {}", dumps[0].display());
    }
    let _ = std::fs::remove_dir_all(&dir);

    if failures > 0 {
        eprintln!("flight smoke FAILED with {failures} inconsistencies");
        std::process::exit(1);
    }
    println!("flight smoke OK: introspection surfaces consistent end to end");
}
