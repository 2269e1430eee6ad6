//! Query-log schema compatibility: v2 lines carry the version and build
//! members, and consumers written against v1 keep working — pinned here
//! by running a v1 fixture line and a freshly captured v2 line through
//! the same parser and the same member probes. One `#[test]`, because
//! the capture sink is process-global.

use lyric::metrics::querylog;
use lyric::trace::json::{parse, Json};
use lyric::{execute_shared, paper_example, ExecOptions};

/// A query-log line as this repo emitted it before the v2 prefix
/// (no `v`, no `git_rev`). Frozen verbatim: if this stops parsing, a
/// consumer of archived logs breaks.
const V1_FIXTURE: &str = "{\"query_hash\":\"159e09cddc8e355c\",\"query\":\"SELECT X FROM Desk X\",\
\"outcome\":\"ok\",\"rows\":1,\"duration_us\":287,\"threads\":1,\"trace_id\":41,\
\"stats\":{\"pivots\":7,\"cache_hits\":2}}";

fn probe_common_members(line: &Json) {
    for key in [
        "query_hash",
        "outcome",
        "rows",
        "duration_us",
        "threads",
        "trace_id",
        "stats",
    ] {
        assert!(line.get(key).is_some(), "missing {key}");
    }
    assert_eq!(line.get("outcome").unwrap().as_str(), Some("ok"));
}

#[test]
fn v1_fixture_and_live_v2_lines_parse_identically() {
    // The archived v1 shape still parses and answers the same probes.
    let v1 = parse(V1_FIXTURE).expect("v1 fixture parses");
    probe_common_members(&v1);
    assert!(v1.get("v").is_none(), "fixture predates the version member");

    // A line captured from the live logger is v2: same body, prefixed
    // with the schema version and the build's git revision.
    let db = paper_example::database();
    let buf = querylog::capture();
    let query = "SELECT X FROM Desk X";
    let res = execute_shared(&db, query, &ExecOptions::default());
    querylog::set_sink(None);
    res.expect("query evaluates");

    let captured = String::from_utf8(buf.lock().unwrap().clone()).expect("log is UTF-8");
    let hash = format!("{:016x}", querylog::query_hash(query));
    let line = captured
        .lines()
        .find(|l| l.contains(&hash))
        .expect("the query logged while captured");
    let v2 = parse(line).expect("v2 line parses");
    probe_common_members(&v2);
    assert_eq!(
        v2.get("v").unwrap().as_f64(),
        Some(querylog::SCHEMA_VERSION as f64),
        "live lines carry the schema version"
    );
    let rev = v2
        .get("git_rev")
        .unwrap()
        .as_str()
        .expect("git_rev is a string");
    assert!(!rev.is_empty());
}
