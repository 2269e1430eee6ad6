//! The flight recorder proper: a process-lifetime ring of recent
//! completed queries.
//!
//! Aircraft flight recorders answer "what were the last minutes like?"
//! after the fact; this one does the same for the engine. The ring holds
//! the [`QueryRecord`] of each completed query (any outcome, with the
//! counters it consumed), capacity [`QUERY_RING`]. Recording is always
//! on and costs one ring push per query.

use crate::ring::Ring;
use lyric_metrics::querylog::QueryRecord;
use lyric_trace::json::Json;
use std::sync::OnceLock;

/// Completed-query ring capacity.
pub const QUERY_RING: usize = 256;

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn query_ring() -> &'static Ring<QueryRecord> {
    static R: OnceLock<Ring<QueryRecord>> = OnceLock::new();
    R.get_or_init(|| Ring::new(QUERY_RING))
}

/// Record a completed query.
pub fn record_query(record: QueryRecord) {
    query_ring().push(record);
}

/// The held query records, oldest first.
pub fn recent_queries() -> Vec<QueryRecord> {
    query_ring().snapshot()
}

/// Empty the ring (tests and the REPL's dump-then-reset flows).
pub fn clear() {
    query_ring().clear();
}

/// The recorded queries as JSON, oldest first ([`QueryRecord::to_json`]).
pub(crate) fn queries_json() -> Json {
    Json::Arr(recent_queries().iter().map(QueryRecord::to_json).collect())
}

/// The recorder state as a JSON document (the `/debug/flight` body).
pub fn to_json() -> Json {
    Json::obj([
        ("query_capacity", Json::int(query_ring().capacity() as u64)),
        ("queries_recorded", Json::int(query_ring().pushed())),
        ("queries", queries_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(hash: u64) -> QueryRecord {
        QueryRecord {
            query_hash: hash,
            query: "SELECT X FROM Desk X".to_string(),
            outcome: lyric_metrics::querylog::Outcome::Ok,
            rows: 1,
            duration_us: 42,
            threads: 1,
            trace_id: hash,
            end_unix_ms: unix_ms(),
            stats: lyric_trace::stats::EngineStats {
                pivots: 3,
                ..Default::default()
            },
            plan: None,
        }
    }

    #[test]
    fn recorded_queries_round_trip_through_json() {
        record_query(summary(0xabcd));
        let doc = to_json();
        let text = doc.to_string();
        let parsed = lyric_trace::json::parse(&text).expect("valid JSON");
        let queries = parsed.get("queries").unwrap().as_arr().unwrap();
        assert!(queries
            .iter()
            .any(|q| q.get("query_hash").and_then(Json::as_str) == Some("000000000000abcd")));
        let mine = queries
            .iter()
            .find(|q| q.get("query_hash").and_then(Json::as_str) == Some("000000000000abcd"))
            .unwrap();
        assert_eq!(
            mine.get("stats").unwrap().get("pivots").unwrap().as_f64(),
            Some(3.0)
        );
        assert!(mine.get("resource").is_none(), "empty resource omitted");
        assert!(
            mine.get("error").is_none(),
            "the error text is the offender's"
        );
    }
}
