//! Process-lifetime flight recorder and in-flight query registry.
//!
//! Quantifier elimination is worst-case exponential, so a legitimate
//! LyriC query can run for minutes — and while it runs, or after it
//! aborts, the process has historically been a black box. This crate is
//! the live-introspection and post-mortem layer the ROADMAP's serving
//! and streaming items sit on. Three pieces:
//!
//! * [`inflight`] — a registry of currently-executing queries. The
//!   query runner registers a slot (query hash + truncated text, start
//!   time, thread count, budget caps) whose [`Progress`] atomics are the
//!   engine's own per-query counters, so `/debug/inflight` and REPL
//!   `:inflight` show live progress and percent-of-budget. A guard type
//!   deregisters on every exit path, including budget unwind and panic.
//! * [`recorder`] — a fixed-capacity [`ring::Ring`] of
//!   completed-query records, each with the counters its query consumed
//!   (an aborted query's too).
//! * [`mod@dump`] — the anomaly black box: on budget abort, panic,
//!   analyzer-pass-but-engine-error, or a `LYRIC_SLOW_MS` breach, the
//!   recorder state plus the offender's record is serialized to a
//!   structured JSON file under `LYRIC_FLIGHT_DIR`.
//!
//! The runner hands each finished query's [`QueryRecord`] to [`finish`],
//! which pushes it onto the ring and writes the dump an anomaly calls
//! for. Like `lyric-trace` and `lyric-metrics`, this crate is
//! dependency-free (std plus those two) and sits *below* `lyric-engine`
//! in the workspace: the engine counts into the slot, surfaces pull JSON
//! out, and a query takes the registry's and the ring's mutex only as
//! it starts and finishes, never per engine operation.
//!
//! Every admitted query is registered and recorded; there is no off
//! switch, because a recorder that could be off could not be switched on
//! for a query that is already running. `LYRIC_FLIGHT_DIR=...` (parsed
//! once in `lyric_metrics::env`) configures, and thereby enables,
//! anomaly dumps.

#![warn(missing_docs)]

pub mod dump;
pub mod inflight;
pub mod recorder;
pub mod ring;

pub use dump::{dump, panic_dump, set_dump_dir, Trigger};
pub use inflight::{register, BudgetCaps, InflightDesc, InflightGuard, Progress};
pub use recorder::record_query;
pub use ring::Ring;

use lyric_metrics::querylog::{Outcome, QueryRecord};

/// Close a registered query's flight scope: push its record onto the
/// ring and, on an anomaly — a budget abort, an engine error, or a
/// `LYRIC_SLOW_MS` breach — write a black-box dump *before* the guard
/// deregisters, so the dump's in-flight section still holds the
/// offender with its live counters.
pub fn finish(guard: InflightGuard, record: QueryRecord) {
    let trigger = match record.outcome {
        Outcome::BudgetExceeded { .. } => Some(Trigger::BudgetAbort),
        Outcome::Error(_) => Some(Trigger::EngineError),
        Outcome::Ok => lyric_metrics::querylog::slow_ms()
            .filter(|&ms| record.duration_us / 1000 >= ms)
            .map(|_| Trigger::Slow),
    };
    let anomaly = trigger.map(|t| (t, dump::offender(&record)));
    record_query(record);
    if let Some((trigger, offender)) = anomaly {
        let _ = dump(trigger, Some(offender));
    }
    drop(guard);
}
