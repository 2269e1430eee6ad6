//! The `/metrics` scrape agrees *exactly* with the work `POST /query`
//! reports: over live HTTP, the summed reply `stats` equal the scraped
//! deltas of `lyric_queries_total`, of `lyric_query_duration_us_count`
//! and of every `lyric_engine_<counter>_total`. After the first query
//! the scrape shows exactly the families the server, the flight
//! recorder and the query runner's sink register — no engine-internal
//! series.
//!
//! A single `#[test]` in its own binary, so no other test moves the
//! process-global registry between the two scrapes (the in-process twin
//! is the root `tests/metrics_consistency.rs`).

use lyric::metrics::prometheus::{parse, sample_value, Exposition};
use lyric::trace::stats::COUNTER_NAMES;
use lyric::ExecOptions;
use lyric_serve::{http_request, Server};
use std::net::SocketAddr;
use std::sync::Arc;

const QUERIES: [&str; 3] = [
    "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]",
    "SELECT CO, ((u,v) | E AND D AND x = 6 AND y = 4)
     FROM Office_Object CO WHERE CO.extent[E] AND CO.translation[D]",
    "SELECT DSK FROM Object_In_Room O, Desk DSK
     WHERE O.catalog_object[DSK] AND O.location[L]
       AND DSK.drawer_center[C] AND DSK.translation[D]
       AND DSK.drawer.extent[DRE] AND DSK.drawer.translation[DRD]
       AND (C(p,q) AND DRE(w1,z1) AND DRD(w1,z1,x1,y1,u1,v1)
            AND D(w,z,x,y,u,v) AND L(x,y) AND w = u1 AND z = v1
            AND 0 < u AND u < 20 AND 0 < v AND v < 10)",
];

/// Every family a scrape shows once one query has run, besides the 16
/// `lyric_engine_<counter>_total`.
const FAMILIES: [&str; 9] = [
    "lyric_arena_pool_hits",
    "lyric_arena_pool_misses",
    "lyric_arena_recycled_bytes",
    "lyric_budget_aborts_total",
    "lyric_budget_threshold_total",
    "lyric_inflight_queries",
    "lyric_queries_total",
    "lyric_query_duration_us",
    "lyric_serve_busy_total",
];

fn scrape(addr: SocketAddr) -> Exposition {
    let (status, body) = http_request(addr, "GET", "/metrics", "").expect("scrape succeeds");
    assert_eq!(status, 200, "/metrics answers 200");
    parse(&body).expect("the scrape is valid text format 0.0.4")
}

#[test]
fn scraped_deltas_equal_summed_reply_stats() {
    let db = Arc::new(lyric::paper_example::database());
    let addr = Server::bind("127.0.0.1:0", db, ExecOptions::default().with_threads(2))
        .expect("bind an ephemeral port")
        .spawn()
        .expect("start the accept loop");

    // The tracked series, each unlabelled; 0 before its family registers.
    let mut series = vec![
        "lyric_queries_total".to_string(),
        "lyric_query_duration_us_count".to_string(),
    ];
    series.extend(
        COUNTER_NAMES
            .iter()
            .map(|n| format!("lyric_engine_{n}_total")),
    );
    let values = |exp: &Exposition| -> Vec<f64> {
        let value = |name: &String| sample_value(exp, name, &[]).unwrap_or(0.0);
        series.iter().map(value).collect()
    };
    let before = values(&scrape(addr));

    // A rejected query and a malformed envelope are 400s that move nothing.
    for body in ["SELECT ???", r#"{"query": 7}"#] {
        let (status, reply) = http_request(addr, "POST", "/query", body).expect("request sent");
        assert_eq!(status, 400, "{body:?} is rejected: {reply}");
    }
    assert_eq!(values(&scrape(addr)), before, "rejections move no series");

    // Each query counts once (the explained one included) and adds its
    // reply's stats.
    let explained = format!(r#"{{"query": "{}", "explain": true}}"#, QUERIES[0]);
    let bodies = QUERIES.iter().chain(&QUERIES).chain(&QUERIES).copied();
    let mut expected = vec![0.0; series.len()];
    for (i, body) in bodies.chain([explained.as_str()]).enumerate() {
        let (status, reply) = http_request(addr, "POST", "/query", body).expect("query sent");
        assert_eq!(status, 200, "{body}: {reply}");
        if i == 0 {
            let mut shown: Vec<String> =
                scrape(addr).families.into_iter().map(|f| f.name).collect();
            shown.sort();
            let mut want: Vec<String> = FAMILIES.iter().map(|f| f.to_string()).collect();
            want.extend(
                COUNTER_NAMES
                    .iter()
                    .map(|n| format!("lyric_engine_{n}_total")),
            );
            want.sort();
            assert_eq!(shown, want, "the families a scrape shows after one query");
        }
        let reply = lyric::trace::json::parse(&reply).expect("the reply is valid JSON");
        let stats = reply.get("stats").expect("the reply carries stats");
        // One query, one histogram observation, and each engine counter
        // by its `stats` member.
        let counter = |n: &&str| stats.get(n).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let moves = [1.0, 1.0]
            .into_iter()
            .chain(COUNTER_NAMES.iter().map(counter));
        for (slot, delta) in expected.iter_mut().zip(moves) {
            *slot += delta;
        }
    }

    let scraped = scrape(addr);
    let after = values(&scraped);
    for (i, name) in series.iter().enumerate() {
        assert_eq!(after[i] - before[i], expected[i], "{name}");
    }
    // The histogram is consistent with itself: its +Inf bucket is _count.
    assert_eq!(
        sample_value(
            &scraped,
            "lyric_query_duration_us_bucket",
            &[("le", "+Inf")]
        ),
        sample_value(&scraped, "lyric_query_duration_us_count", &[]),
    );
}
