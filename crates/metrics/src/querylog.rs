//! A structured JSON query log: one line per executed query.
//!
//! # Schema (v2)
//!
//! Every line is a self-contained JSON object:
//!
//! ```json
//! {"v":2,"query_hash":"b51c3e4f9a21d807","git_rev":"13d0522",
//!  "outcome":"ok","rows":12,"duration_us":1834,"threads":4,
//!  "trace_id":117,"slow":false,"stats":{"pivots":96,"lp_runs":24,...}}
//! ```
//!
//! * `v` — schema version, currently [`SCHEMA_VERSION`] (2). v1 lines
//!   (no `v`, no `git_rev`) remain parseable; consumers should treat a
//!   missing `v` as 1.
//! * `query_hash` — FNV-1a 64-bit hash of the query source, hex; stable
//!   across runs so log lines for the same query aggregate.
//! * `git_rev` — the build's short git revision ([`crate::build`]), so
//!   log lines from mixed deployments attribute to the right build.
//!   New in v2.
//! * `outcome` — `"ok"`, `"budget_exceeded"` (plus a `"resource"`
//!   field), or `"error"`.
//! * `trace_id` — the engine context generation; unique per context
//!   within a process run.
//! * `stats` — the per-query engine counters, keyed like
//!   `EngineStats::COUNTER_NAMES`.
//! * `slow` — present and `true` when `LYRIC_SLOW_MS` is configured and
//!   the query met the threshold.
//!
//! The full member-by-member schema (both versions) is documented in
//! DESIGN.md §4g.
//!
//! # Sinks and thresholds
//!
//! The log is off until a sink is installed — [`set_sink`]/[`capture`]
//! in code, or the `LYRIC_QUERY_LOG` environment variable (`stderr` or a
//! file path, appended). When `LYRIC_SLOW_MS` (or [`set_slow_ms`]) is
//! set, only queries at or above the threshold are written — a classic
//! slow-query log — and each one also bumps the
//! `lyric_slow_queries_total` counter. Lines are written atomically
//! under one mutex, so concurrent queries never interleave bytes.

use lyric_trace::json::Json;
use lyric_trace::stats::EngineStats;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// The query-log line schema version written by [`QueryRecord::log_json`].
/// Bumped to 2 when `git_rev` (and the `v` member itself) were added;
/// v1 lines carry neither.
pub const SCHEMA_VERSION: u64 = 2;

/// FNV-1a 64-bit hash of a query's source text.
pub fn query_hash(src: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in src.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Query source text is truncated to this many characters in records,
/// in-flight slots and dumps (enough to recognize the query, bounded
/// enough that rings and dumps stay small).
pub const QUERY_TRUNCATE: usize = 160;

/// Truncate query text for display, appending an ellipsis when cut, and
/// collapsing newlines so truncated text stays one line.
pub fn truncate_query(src: &str) -> String {
    let mut out = String::with_capacity(QUERY_TRUNCATE + 1);
    for (taken, c) in src.chars().enumerate() {
        if taken == QUERY_TRUNCATE {
            out.push('…');
            break;
        }
        out.push(if c == '\n' || c == '\r' { ' ' } else { c });
    }
    out
}

/// How one query ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Evaluation completed.
    Ok,
    /// A resource budget tripped.
    BudgetExceeded {
        /// The tripped resource's name.
        resource: &'static str,
        /// The error message (limit and amount consumed).
        message: String,
    },
    /// Any other evaluation error; carries its message.
    Error(String),
}

impl Outcome {
    /// The `outcome` member: `"ok"`, `"budget_exceeded"` or `"error"`.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::BudgetExceeded { .. } => "budget_exceeded",
            Outcome::Error(_) => "error",
        }
    }
}

/// One finished query as every sink sees it. The query runner builds it
/// once per admitted statement; the `/metrics` series, the query-log line
/// ([`Self::log_json`]), the flight recorder's ring entry and the anomaly
/// dump's offender ([`Self::to_json`]) are all projections of it.
#[derive(Clone, Debug)]
pub struct QueryRecord {
    /// FNV-1a hash of the full query source ([`query_hash`]).
    pub query_hash: u64,
    /// The source text, truncated for display ([`truncate_query`]).
    pub query: String,
    /// How the query ended.
    pub outcome: Outcome,
    /// Answer rows (0 unless the outcome is `ok`).
    pub rows: u64,
    /// Evaluation wall-clock in microseconds.
    pub duration_us: u64,
    /// The thread budget the query ran with.
    pub threads: usize,
    /// The engine context generation (doubles as a per-process trace id).
    pub trace_id: u64,
    /// Completion wall-clock time, ms since the Unix epoch.
    pub end_unix_ms: u64,
    /// The engine counters the query consumed, whatever its outcome: a
    /// budget abort's are the work done up to the abort.
    pub stats: EngineStats,
    /// The explain-analyze summary (the hottest plan nodes by exclusive
    /// time), present when slow-query forensics ran the query explained.
    pub plan: Option<Json>,
}

impl QueryRecord {
    /// The query-log line: one JSON object in the v2 schema, with the
    /// `slow` member when a threshold is configured and the plan summary
    /// as the `explain` member.
    pub fn log_json(&self) -> Json {
        let head = vec![
            ("v", Json::int(SCHEMA_VERSION)),
            ("query_hash", self.hash_json()),
            ("git_rev", Json::str(crate::build::git_rev())),
        ];
        let slow = slow_ms().map(|thr| {
            let slow = self.duration_us >= thr.saturating_mul(1000);
            ("slow", Json::Bool(slow))
        });
        self.encode(head, slow)
    }

    /// The record as one JSON object outside the log: the `/debug/flight`
    /// element and the body of an anomaly dump's offender. The log line's
    /// members, but the query text and completion time in place of the
    /// schema version, build and `slow` flag.
    pub fn to_json(&self) -> Json {
        let head = vec![
            ("query_hash", self.hash_json()),
            ("query", Json::str(self.query.clone())),
        ];
        self.encode(head, Some(("end_unix_ms", Json::int(self.end_unix_ms))))
    }

    fn hash_json(&self) -> Json {
        Json::str(format!("{:016x}", self.query_hash))
    }

    /// `head`, the outcome (and tripped resource), rows, duration, threads
    /// and trace id, then `extra`, the plan summary as `explain`, and every
    /// engine counter as `stats`.
    fn encode(
        &self,
        mut pairs: Vec<(&'static str, Json)>,
        extra: Option<(&'static str, Json)>,
    ) -> Json {
        pairs.push(("outcome", Json::str(self.outcome.name())));
        if let Outcome::BudgetExceeded { resource, .. } = &self.outcome {
            pairs.push(("resource", Json::str(*resource)));
        }
        pairs.extend([
            ("rows", Json::int(self.rows)),
            ("duration_us", Json::int(self.duration_us)),
            ("threads", Json::int(self.threads as u64)),
            ("trace_id", Json::int(self.trace_id)),
        ]);
        pairs.extend(extra);
        if let Some(plan) = &self.plan {
            pairs.push(("explain", plan.clone()));
        }
        pairs.push(("stats", self.stats.to_json()));
        Json::obj(pairs)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

type Sink = Box<dyn Write + Send>;

fn sink_slot() -> &'static Mutex<Option<Sink>> {
    static SINK: OnceLock<Mutex<Option<Sink>>> = OnceLock::new();
    SINK.get_or_init(|| {
        let sink = crate::env::get().query_log.as_deref().and_then(|target| {
            if target == "stderr" || target == "-" {
                Some(Box::new(std::io::stderr()) as Sink)
            } else {
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(target)
                    .ok()
                    .map(|f| Box::new(f) as Sink)
            }
        });
        Mutex::new(sink)
    })
}

/// Install (or, with `None`, remove) the query-log sink. Whole lines are
/// written and flushed under one lock, so writers never interleave.
pub fn set_sink(sink: Option<Box<dyn Write + Send>>) {
    *lock(sink_slot()) = sink;
}

/// True when a sink is installed (callers can skip building records).
pub fn active() -> bool {
    lock(sink_slot()).is_some()
}

struct BufSink(Arc<Mutex<Vec<u8>>>);

impl Write for BufSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        lock(&self.0).extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Install an in-memory sink and return the shared buffer — the test hook
/// for asserting on log output.
pub fn capture() -> Arc<Mutex<Vec<u8>>> {
    let buf = Arc::new(Mutex::new(Vec::new()));
    set_sink(Some(Box::new(BufSink(Arc::clone(&buf)))));
    buf
}

/// Slow threshold in milliseconds; negative = unset. Initialized from
/// `LYRIC_SLOW_MS`, overridable via [`set_slow_ms`].
fn slow_cell() -> &'static AtomicI64 {
    static SLOW: OnceLock<AtomicI64> = OnceLock::new();
    SLOW.get_or_init(|| AtomicI64::new(crate::env::get().slow_ms.map_or(-1, |v| v as i64)))
}

/// Override the slow-query threshold (`None` clears it, logging every
/// query again).
pub fn set_slow_ms(ms: Option<u64>) {
    slow_cell().store(ms.map_or(-1, |v| v as i64), Ordering::Relaxed);
}

/// The configured slow-query threshold, if any.
pub fn slow_ms() -> Option<u64> {
    let v = slow_cell().load(Ordering::Relaxed);
    (v >= 0).then_some(v as u64)
}

/// Whether slow-query log lines should carry an explain-analyze summary.
/// Initialized from `LYRIC_SLOW_EXPLAIN`, overridable via
/// [`set_slow_explain`].
fn slow_explain_cell() -> &'static AtomicBool {
    static SLOW_EXPLAIN: OnceLock<AtomicBool> = OnceLock::new();
    SLOW_EXPLAIN.get_or_init(|| AtomicBool::new(crate::env::get().slow_explain))
}

/// Override the slow-explain gate (the `LYRIC_SLOW_EXPLAIN` default).
pub fn set_slow_explain(on: bool) {
    slow_explain_cell().store(on, Ordering::Relaxed);
}

/// True when slow-query lines should carry an explain-analyze summary:
/// the gate is on **and** a slow threshold is configured (without a
/// threshold every query would pay the explain instrumentation).
pub fn slow_explain() -> bool {
    slow_explain_cell().load(Ordering::Relaxed) && slow_ms().is_some()
}

fn slow_counter() -> &'static crate::Counter {
    static C: OnceLock<crate::Counter> = OnceLock::new();
    C.get_or_init(|| {
        crate::global().counter(
            "lyric_slow_queries_total",
            "Queries at or above the LYRIC_SLOW_MS threshold.",
        )
    })
}

/// Write one query's line. A no-op when no sink is installed; when a
/// slow threshold is configured, only queries at or above it are written
/// (each also bumping `lyric_slow_queries_total`).
pub fn log(r: &QueryRecord) {
    let mut guard = lock(sink_slot());
    let Some(sink) = guard.as_mut() else {
        return;
    };
    if let Some(thr) = slow_ms() {
        if r.duration_us < thr.saturating_mul(1000) {
            return;
        }
        slow_counter().inc();
    }
    let mut line = r.log_json().to_string();
    line.push('\n');
    let _ = sink.write_all(line.as_bytes());
    let _ = sink.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> QueryRecord {
        QueryRecord {
            query_hash: query_hash("SELECT X FROM Desk X"),
            query: "SELECT X FROM Desk X".to_string(),
            outcome: Outcome::Ok,
            rows: 3,
            duration_us: 1500,
            threads: 2,
            trace_id: 41,
            end_unix_ms: 0,
            stats: EngineStats {
                pivots: 7,
                sat_checks: 2,
                ..Default::default()
            },
            plan: None,
        }
    }

    #[test]
    fn fnv_hash_is_stable() {
        assert_eq!(query_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(query_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(query_hash("SELECT X"), query_hash("SELECT  X"));
    }

    #[test]
    fn truncation_is_char_safe_and_single_line() {
        let long = "é".repeat(QUERY_TRUNCATE + 40);
        let cut = truncate_query(&long);
        assert_eq!(cut.chars().count(), QUERY_TRUNCATE + 1);
        assert!(cut.ends_with('…'));
        assert_eq!(truncate_query("a\nb"), "a b");
    }

    #[test]
    fn record_formats_as_one_json_line() {
        let line = record().log_json().to_string();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"v\":2,\"query_hash\":\""));
        assert!(line.contains("\"git_rev\":\""));
        assert!(line.contains("\"outcome\":\"ok\""));
        assert!(line.contains("\"rows\":3"));
        assert!(line.contains("\"duration_us\":1500"));
        assert!(line.contains("\"trace_id\":41"));
        assert!(line.contains(",\"stats\":{\"pivots\":7,"));
        assert!(line.contains(",\"sat_checks\":2,"));
    }

    #[test]
    fn v2_members_precede_the_v1_body() {
        // The v2 additions are a prefix extension: everything after
        // `git_rev` is byte-identical to a v1 line, so consumers that
        // scan for `"outcome"`, `"explain"`, or `"stats"` substrings
        // keep working unchanged on both versions.
        let line = record().log_json().to_string();
        let outcome_at = line.find("\"outcome\"").unwrap();
        assert!(line.find("\"v\":2").unwrap() < outcome_at);
        assert!(line.find("\"git_rev\"").unwrap() < outcome_at);
    }

    #[test]
    fn budget_outcome_carries_the_resource() {
        let mut r = record();
        r.outcome = Outcome::BudgetExceeded {
            resource: "simplex pivots",
            message: String::new(),
        };
        let line = r.log_json().to_string();
        assert!(line.contains("\"outcome\":\"budget_exceeded\""));
        assert!(line.contains("\"resource\":\"simplex pivots\""));
    }

    #[test]
    fn explain_summary_is_spliced_verbatim() {
        let mut r = record();
        r.plan = Some(Json::Arr(vec![Json::obj([
            ("node", Json::int(3)),
            ("op", Json::str("sat")),
            ("self_us", Json::int(120)),
        ])]));
        let line = r.log_json().to_string();
        assert!(
            line.contains(",\"explain\":[{\"node\":3,\"op\":\"sat\",\"self_us\":120}],\"stats\":{"),
            "{line}"
        );
    }

    #[test]
    fn slow_explain_gate_requires_a_threshold() {
        set_slow_explain(true);
        set_slow_ms(None);
        assert!(!slow_explain(), "no threshold, nothing to attach to");
        set_slow_ms(Some(5));
        assert!(slow_explain());
        set_slow_explain(false);
        assert!(!slow_explain());
        set_slow_ms(None);
    }
}
