//! Process-lifetime metrics for the LyriC engine.
//!
//! Per-query telemetry ([`EngineStats`], traces) dies with its
//! `QueryResult`; a long-lived engine needs the *cumulative* picture —
//! how many pivots since startup, what the p99 query latency is, how
//! often budgets trip. This crate is that layer. Its one dependency is
//! `lyric-trace` (itself dependency-free), for the counter set and the
//! JSON writer, so it can sit below every other crate in the workspace:
//!
//! * a global [`Registry`] of named metrics: monotonic [`Counter`]s
//!   (stripe-sharded atomics, so hot increment sites do not contend),
//!   [`Gauge`]s, and log-linear [`Histogram`]s with fixed buckets
//!   and p50/p90/p99/max quantile estimation (see [`hist`] for the
//!   documented error bound);
//! * Prometheus text-format 0.0.4 exposition via [`render_prometheus`],
//!   with a validating [`prometheus::parse`] used by the tests;
//! * the per-query record every sink reads ([`querylog::QueryRecord`])
//!   and the structured JSON query log written from it: one line per
//!   query with the query hash, row count, duration, per-query engine
//!   counters, thread count, budget outcome, and trace id, plus a
//!   slow-query threshold configurable through `LYRIC_SLOW_MS`;
//! * the runtime environment ([`mod@env`]): every `LYRIC_*` variable but
//!   `LYRIC_ARITH_FAST`, parsed once per process, for the engine, the
//!   flight recorder and the query log alike.
//!
//! Metrics are enabled by default; [`set_enabled`] (or
//! `LYRIC_METRICS=0`) turns every recording path into an early return so
//! the overhead of the disabled path is one relaxed atomic load
//! (experiment E12 pins the enabled-path overhead).
//!
//! [`EngineStats`]: lyric_trace::stats::EngineStats

#![warn(missing_docs)]

pub mod build;
pub mod env;
pub mod hist;
pub mod prometheus;
pub mod querylog;
mod registry;

pub use hist::HistSnapshot;
pub use registry::{
    global, render_table, Counter, FamilySnapshot, Gauge, Histogram, MetricKind, MetricValue,
    Registry, SeriesSnapshot, Snapshot,
};

static ENABLED: env::Switch = env::Switch::new(|e| e.metrics);

/// True when metric recording is enabled (the default). Controlled by
/// [`set_enabled`] and initially by `LYRIC_METRICS` ([`env::Env::metrics`]).
pub fn enabled() -> bool {
    ENABLED.get()
}

/// Enable or disable all metric recording process-wide. Reading
/// ([`Registry::snapshot`], [`render_prometheus`]) always works; only the
/// recording paths are gated.
pub fn set_enabled(on: bool) {
    ENABLED.set(on);
}

/// Render the global registry in Prometheus text format 0.0.4. Output is
/// deterministic for a quiescent registry: families sort by name and
/// series by their label sets.
pub fn render_prometheus() -> String {
    prometheus::render(&global().snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_toggles() {
        // Registers nothing in the global registry; only flips the flag.
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}
