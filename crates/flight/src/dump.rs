//! Anomaly dumps: serialize the flight-recorder state to a black-box
//! file when something goes wrong.
//!
//! A ring buffer is only useful if its contents survive the incident.
//! When a query aborts on budget, panics, fails in the engine after
//! passing the analyzer, or breaches the `LYRIC_SLOW_MS` threshold,
//! [`crate::finish`] calls [`dump`] with a [`Trigger`] and an *offender*
//! built from the query's record (its [`QueryRecord::to_json`], plus the
//! live in-flight slot and the error text). The dump is one
//! self-contained JSON document — the recorder ring, in-flight registry,
//! build identity —
//! written to `LYRIC_FLIGHT_DIR` (or the [`set_dump_dir`] override) as
//! `flight-<unix_ms>-<trigger>-<n>.json`. No directory configured means
//! no dump: the feature is opt-in per deployment, and the write happens
//! on the (rare, already-doomed) anomaly path, never on the hot path.
//!
//! Panics are special: the engine's chained panic hook calls
//! [`panic_dump`] for non-budget payloads, which dumps only when the
//! panicking thread actually has an in-flight query (a test harness
//! panicking elsewhere must not spray files), with a recursion guard so
//! a panic inside the dump itself cannot loop.

use crate::inflight;
use crate::recorder;
use lyric_metrics::querylog::{Outcome, QueryRecord};
use lyric_trace::json::Json;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Why a dump was written; becomes the `trigger` member and part of the
/// file name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// A resource budget tripped mid-evaluation.
    BudgetAbort,
    /// A panic unwound through an in-flight query.
    Panic,
    /// The analyzer admitted the query but the engine still errored.
    EngineError,
    /// The query finished but breached the `LYRIC_SLOW_MS` threshold.
    Slow,
    /// An operator asked for a dump (REPL `:flight dump`).
    Manual,
}

impl Trigger {
    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Trigger::BudgetAbort => "budget_abort",
            Trigger::Panic => "panic",
            Trigger::EngineError => "engine_error",
            Trigger::Slow => "slow",
            Trigger::Manual => "manual",
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn dir_slot() -> &'static Mutex<Option<PathBuf>> {
    static DIR: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    DIR.get_or_init(|| Mutex::new(lyric_metrics::env::get().flight_dir.clone()))
}

/// Override (or, with `None`, clear) the dump directory. The
/// `LYRIC_FLIGHT_DIR` environment variable supplies the initial value;
/// tests use this override to avoid racing on process-global env state.
pub fn set_dump_dir(dir: Option<PathBuf>) {
    *lock(dir_slot()) = dir;
}

/// The directory dumps are written to, if one is configured.
pub fn dump_dir() -> Option<PathBuf> {
    lock(dir_slot()).clone()
}

fn dumps_counter(trigger: Trigger) -> lyric_metrics::Counter {
    lyric_metrics::global().counter_with(
        "lyric_flight_dumps_total",
        "Flight-recorder black-box dumps written, by trigger.",
        &[("trigger", trigger.name())],
    )
}

/// Build the dump document without writing it (also serves
/// `/debug/flight`-style introspection of what *would* be dumped).
pub fn build_doc(trigger: Trigger, offender: Option<Json>) -> Json {
    Json::obj([
        ("v", Json::int(1)),
        ("trigger", Json::str(trigger.name())),
        ("ts_ms", Json::int(recorder::unix_ms())),
        ("git_rev", Json::str(lyric_metrics::build::git_rev())),
        ("version", Json::str(lyric_metrics::build::version())),
        ("offender", offender.unwrap_or(Json::Null)),
        (
            "inflight",
            Json::Arr(inflight::snapshot().iter().map(|s| s.to_json()).collect()),
        ),
        ("queries", recorder::queries_json()),
    ])
}

/// Serialize the recorder state to a black-box file. Returns the path
/// written, or `None` when no dump directory is configured or the write
/// failed (the anomaly path must never turn an abort into a second
/// failure, so I/O errors are swallowed).
pub fn dump(trigger: Trigger, offender: Option<Json>) -> Option<PathBuf> {
    let dir = dump_dir()?;
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let doc = build_doc(trigger, offender);
    let path = dir.join(format!(
        "flight-{}-{}-{n}.json",
        recorder::unix_ms(),
        trigger.name()
    ));
    let _ = std::fs::create_dir_all(&dir);
    let mut text = doc.to_string();
    text.push('\n');
    match std::fs::write(&path, text) {
        Ok(()) => {
            dumps_counter(trigger).inc();
            Some(path)
        }
        Err(_) => None,
    }
}

/// The dump's `offender` member for a finished query: the record as
/// [`QueryRecord::to_json`] encodes it, plus the query's live in-flight
/// slot (while the caller still holds the registry guard) and, unless the
/// query succeeded, its error text.
pub(crate) fn offender(record: &QueryRecord) -> Json {
    let mut doc = record.to_json();
    if let Json::Obj(pairs) = &mut doc {
        if let Some(slot) = inflight::current_snapshot() {
            pairs.push(("inflight".to_string(), slot.to_json()));
        }
        if let Outcome::BudgetExceeded { message, .. } | Outcome::Error(message) = &record.outcome {
            pairs.push(("error".to_string(), Json::str(message.clone())));
        }
    }
    doc
}

/// The panic-hook entry: dump if (and only if) the panicking thread has
/// an in-flight query and a dump directory is configured. `payload` is
/// the rendered panic message. Guarded against recursive panics.
pub fn panic_dump(payload: &str) {
    thread_local! {
        static DUMPING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }
    if DUMPING.with(|d| d.replace(true)) {
        return;
    }
    let finish = || DUMPING.with(|d| d.set(false));
    if dump_dir().is_none() {
        finish();
        return;
    }
    if let Some(slot) = inflight::current_snapshot() {
        let mut offender = match slot.to_json() {
            Json::Obj(pairs) => pairs,
            _ => Vec::new(),
        };
        offender.push(("panic".to_string(), Json::str(payload)));
        let _ = dump(Trigger::Panic, Some(Json::Obj(offender)));
    }
    finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_dir_means_no_dump() {
        set_dump_dir(None);
        assert!(dump(Trigger::Manual, None).is_none());
    }

    #[test]
    fn doc_has_the_pinned_top_level_members() {
        let doc = build_doc(Trigger::BudgetAbort, Some(Json::str("offender")));
        for key in [
            "v", "trigger", "ts_ms", "git_rev", "version", "offender", "inflight", "queries",
        ] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
        assert_eq!(doc.get("trigger").unwrap().as_str(), Some("budget_abort"));
        let parsed = lyric_trace::json::parse(&doc.to_string()).expect("valid JSON");
        assert_eq!(parsed.get("v").unwrap().as_f64(), Some(1.0));
    }
}
