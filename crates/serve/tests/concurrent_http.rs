//! Answers over HTTP under concurrent clients equal the serial
//! `execute_shared` answers: a closed loop of one client per evaluation
//! permit (at most four) sends the served workload's scan and join shapes over
//! `office_db` and E16's three probes over `scaling_db`, and every reply
//! is a 200 whose rows are the serial rows, in order. No client sees a
//! 503, because a closed-loop client on at most as many connections as
//! there are permits always finds one free, and the scraped
//! `lyric_queries_total` moves by exactly the number of replies.
//!
//! A single `#[test]` in its own binary, so no other test moves the
//! process-global registry between the two scrapes.

use lyric::metrics::prometheus::{parse, sample_value};
use lyric::oodb::Database;
use lyric::trace::Json;
use lyric::{execute_shared, ExecOptions};
use lyric_bench::workload::{
    office_db, q_join_window, q_region_window, q_scan_window, q_weight_eq, q_weight_ge, scaling_db,
};
use lyric_serve::{http_request, Server};
use std::net::SocketAddr;
use std::sync::Arc;

/// Requests each client sends.
const REQUESTS: usize = 30;
/// Client threads at most, whatever the permit count.
const MAX_CLIENTS: usize = 4;

/// Rows as the server renders them: each oid as its display string.
type Rows = Vec<Vec<String>>;

fn rows_of_reply(body: &str) -> Rows {
    let reply = lyric::trace::json::parse(body).expect("reply is valid JSON");
    let rows = reply.get("rows").and_then(Json::as_arr).expect("rows");
    rows.iter()
        .map(|row| {
            let cells = row.as_arr().expect("a row is an array");
            cells
                .iter()
                .map(|c| c.as_str().expect("a cell is a string").to_string())
                .collect()
        })
        .collect()
}

fn queries_total(addr: SocketAddr) -> f64 {
    let (status, body) = http_request(addr, "GET", "/metrics", "").expect("scrape");
    assert_eq!(status, 200);
    let scrape = parse(&body).expect("the scrape parses");
    sample_value(&scrape, "lyric_queries_total", &[]).unwrap_or(0.0)
}

#[test]
fn concurrent_http_answers_equal_serial_answers() {
    let opts = ExecOptions::default().with_threads(1);
    let offices = Arc::new(office_db(16, 42));
    let items = Arc::new(scaling_db(2_000, 42));
    let mut cases: Vec<(Arc<Database>, String)> = Vec::new();
    for w in [(10, 70, 20, 50), (100, 160, 40, 70), (0, 200, 0, 100)] {
        cases.push((Arc::clone(&offices), q_scan_window(w.0, w.1, w.2, w.3)));
        cases.push((Arc::clone(&offices), q_join_window(w.0, w.1, w.2, w.3)));
    }
    for q in [
        q_weight_eq(1_234),
        q_weight_ge(1_950),
        q_region_window(1_000),
    ] {
        cases.push((Arc::clone(&items), q));
    }

    let bind = |db: &Arc<Database>| {
        Server::bind("127.0.0.1:0", Arc::clone(db), opts.clone())
            .expect("bind an ephemeral port")
            .spawn()
            .expect("start the workers")
    };
    let (office_addr, items_addr) = (bind(&offices), bind(&items));
    // Each case with its server and its serial answer, computed before
    // the first scrape.
    let cases: Vec<(SocketAddr, String, Rows)> = cases
        .into_iter()
        .map(|(db, q)| {
            let result = execute_shared(&db, &q, &opts).expect("serial run");
            let rows = result
                .rows
                .iter()
                .map(|row| row.iter().map(|oid| oid.to_string()).collect())
                .collect();
            let addr = if Arc::ptr_eq(&db, &offices) {
                office_addr
            } else {
                items_addr
            };
            (addr, q, rows)
        })
        .collect();
    assert!(
        cases.iter().any(|(_, _, rows)| !rows.is_empty()),
        "some case has rows to compare"
    );

    let permits = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = permits.min(MAX_CLIENTS);
    let before = queries_total(office_addr);
    let replies: usize = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let cases = &cases;
                s.spawn(move || {
                    for k in 0..REQUESTS {
                        let (addr, q, expected) = &cases[(c * 7 + k) % cases.len()];
                        let (status, body) =
                            http_request(*addr, "POST", "/query", q).expect("request sent");
                        assert_eq!(status, 200, "client {c}, request {k}: {body}");
                        assert_eq!(&rows_of_reply(&body), expected, "{q}");
                    }
                    REQUESTS
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    let after = queries_total(office_addr);
    assert_eq!(after - before, replies as f64, "one count per 200 reply");
}
