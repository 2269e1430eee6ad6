//! The flight recorder proper: process-lifetime rings of recent
//! completed-query summaries and sampled trace events.
//!
//! Aircraft flight recorders answer "what were the last minutes like?"
//! after the fact; this one does the same for the engine. Two rings:
//!
//! * **queries** — the [`QueryRecord`] of each completed query (any
//!   outcome), capacity [`QUERY_RING`]. Recording is on by default and
//!   costs one striped-ring push per query; `LYRIC_FLIGHT=0` (or
//!   [`set_enabled`]) turns it off.
//! * **events** — recent [`FlightEvent`]s teed from the engine's
//!   existing `trace_event` instrumentation sites, capacity
//!   [`EVENT_RING`]. Events fire orders of magnitude more often than
//!   queries complete, so this ring is **off by default** and sampled
//!   (1 in [`SAMPLE_EVERY`]) when on — the disabled check is one
//!   relaxed atomic load and allocates nothing, preserving the
//!   zero-alloc tracing-off guarantee pinned by
//!   `crates/engine/tests/trace_overhead.rs`.

use crate::ring::Ring;
use lyric_metrics::env::Switch;
use lyric_metrics::querylog::{Outcome, QueryRecord};
use lyric_trace::json::Json;
use lyric_trace::model::EventKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Completed-query ring capacity.
pub const QUERY_RING: usize = 256;

/// Sampled-event ring capacity.
pub const EVENT_RING: usize = 1024;

static ENABLED: Switch = Switch::new(|e| e.flight);

/// True when completed queries are recorded (the default). Initially
/// from `LYRIC_FLIGHT` (`0`/`off`/`false` disables), then [`set_enabled`].
pub fn enabled() -> bool {
    ENABLED.get()
}

/// Enable or disable completed-query recording process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.set(on);
}

static EVENTS_ENABLED: Switch = Switch::new(|e| e.flight_events.unwrap_or(false));

/// True when trace events are teed into the event ring. **Off by
/// default**; enabled by `LYRIC_FLIGHT_EVENTS=1` (or `on`/`true`) or
/// [`set_events_enabled`] (the serve binary and REPL turn it on at
/// startup — they are the surfaces that can show the ring).
pub fn events_enabled() -> bool {
    EVENTS_ENABLED.get()
}

/// Enable or disable the event tee process-wide.
pub fn set_events_enabled(on: bool) {
    EVENTS_ENABLED.set(on);
}

/// Turn the event tee on *unless* `LYRIC_FLIGHT_EVENTS` was set
/// explicitly. The long-lived surfaces (serve binary, REPL) call this at
/// startup: they can show the ring, so they default the tee on, but an
/// operator's explicit env setting always wins.
pub fn enable_events_default() {
    if lyric_metrics::env::get().flight_events.is_none() {
        set_events_enabled(true);
    }
}

/// 1-in-N event sampling stride of the event tee.
pub const SAMPLE_EVERY: u64 = 16;

/// The engine's per-event-site gate: false (one relaxed load, no
/// allocation) when the tee is off; when on, true for 1 in
/// [`SAMPLE_EVERY`] calls. The caller only builds the `EventKind` (and
/// its label string) when this returns true or a tracer is attached.
pub fn event_tick() -> bool {
    if !events_enabled() {
        return false;
    }
    static TICK: AtomicU64 = AtomicU64::new(0);
    TICK.fetch_add(1, Ordering::Relaxed)
        .is_multiple_of(SAMPLE_EVERY)
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// One sampled trace event in the event ring.
#[derive(Clone)]
pub struct FlightEvent {
    /// Engine context generation of the emitting query.
    pub trace_id: u64,
    /// Wall-clock capture time, ms since the Unix epoch.
    pub unix_ms: u64,
    /// The event's rendered label (`EventKind::label`).
    pub label: String,
}

impl FlightEvent {
    /// The event as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("trace_id", Json::int(self.trace_id)),
            ("unix_ms", Json::int(self.unix_ms)),
            ("label", Json::str(self.label.clone())),
        ])
    }
}

/// A query record as a `/debug/flight` element: identity, outcome and
/// tripped resource, rows, timing, and the nonzero engine counters.
pub(crate) fn record_json(r: &QueryRecord) -> Json {
    let mut pairs = vec![
        ("query_hash", Json::str(format!("{:016x}", r.query_hash))),
        ("query", Json::str(r.query.clone())),
        ("outcome", Json::str(r.outcome.name())),
    ];
    if let Outcome::BudgetExceeded { resource, .. } = &r.outcome {
        pairs.push(("resource", Json::str(*resource)));
    }
    pairs.extend([
        ("rows", Json::int(r.rows)),
        ("duration_us", Json::int(r.duration_us)),
        ("threads", Json::int(r.threads as u64)),
        ("trace_id", Json::int(r.trace_id)),
        ("end_unix_ms", Json::int(r.end_unix_ms)),
        ("stats", r.stats.nonzero_json()),
    ]);
    Json::obj(pairs)
}

fn query_ring() -> &'static Ring<QueryRecord> {
    static R: OnceLock<Ring<QueryRecord>> = OnceLock::new();
    R.get_or_init(|| Ring::new(QUERY_RING))
}

fn event_ring() -> &'static Ring<FlightEvent> {
    static R: OnceLock<Ring<FlightEvent>> = OnceLock::new();
    R.get_or_init(|| Ring::new(EVENT_RING))
}

fn recorded_counter() -> &'static lyric_metrics::Counter {
    static C: OnceLock<lyric_metrics::Counter> = OnceLock::new();
    C.get_or_init(|| {
        lyric_metrics::global().counter(
            "lyric_flight_queries_total",
            "Completed queries recorded in the flight-recorder ring.",
        )
    })
}

/// Record a completed query (no-op while the recorder is disabled).
pub fn record_query(record: QueryRecord) {
    if !enabled() {
        return;
    }
    query_ring().push(record);
    recorded_counter().inc();
}

/// Record one sampled trace event. Callers gate on [`event_tick`]
/// first; this function unconditionally pushes.
pub fn record_event(trace_id: u64, kind: &EventKind) {
    event_ring().push(FlightEvent {
        trace_id,
        unix_ms: unix_ms(),
        label: kind.label(),
    });
}

/// The held query records, oldest first.
pub fn recent_queries() -> Vec<QueryRecord> {
    query_ring().snapshot()
}

/// The held sampled events, oldest first.
pub fn recent_events() -> Vec<FlightEvent> {
    event_ring().snapshot()
}

/// Empty both rings (tests and the REPL's dump-then-reset flows).
pub fn clear() {
    query_ring().clear();
    event_ring().clear();
}

/// The recorder state as a JSON document (the `/debug/flight` body).
pub fn to_json() -> Json {
    Json::obj([
        ("enabled", Json::Bool(enabled())),
        ("events_enabled", Json::Bool(events_enabled())),
        ("query_capacity", Json::int(query_ring().capacity() as u64)),
        ("event_capacity", Json::int(event_ring().capacity() as u64)),
        ("queries_recorded", Json::int(query_ring().pushed())),
        (
            "queries",
            Json::Arr(recent_queries().iter().map(record_json).collect()),
        ),
        (
            "events",
            Json::Arr(recent_events().iter().map(|e| e.to_json()).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(hash: u64) -> QueryRecord {
        QueryRecord {
            query_hash: hash,
            query: "SELECT X FROM Desk X".to_string(),
            outcome: Outcome::Ok,
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
        set_enabled(true);
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
    }

    #[test]
    fn disabled_recorder_drops_summaries() {
        set_enabled(false);
        let before = query_ring().pushed();
        record_query(summary(0xfeed));
        assert_eq!(query_ring().pushed(), before);
        set_enabled(true);
    }

    #[test]
    fn event_tick_is_false_while_disabled_and_samples_when_on() {
        set_events_enabled(false);
        assert!(!event_tick());
        set_events_enabled(true);
        let hits = (0..(SAMPLE_EVERY * 4)).filter(|_| event_tick()).count() as u64;
        assert!(hits >= 3, "roughly 1 in {SAMPLE_EVERY} sampled, got {hits}");
        set_events_enabled(false);
    }
}
