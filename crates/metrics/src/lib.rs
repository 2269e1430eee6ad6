//! Process-lifetime metrics for the LyriC engine.
//!
//! Per-query telemetry ([`EngineStats`], traces) dies with its
//! `QueryResult`; a long-lived engine needs the *cumulative* picture —
//! how many pivots since startup, what the p99 query latency is, how
//! often budgets trip. This crate is that layer. Its one dependency is
//! `lyric-trace` (itself dependency-free), for the counter set and the
//! JSON writer, so it can sit below every other crate in the workspace:
//!
//! * a global [`Registry`] of named metrics: monotonic [`Counter`]s and
//!   [`Gauge`]s (one atomic each), and log-linear [`Histogram`]s with
//!   fixed buckets
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
//! Recording is always on. The runner's sink writes the per-query series
//! once per finished query — a few dozen relaxed atomic updates and one
//! histogram observation — which is too little to need an off switch.
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

/// Render the global registry in Prometheus text format 0.0.4. Output is
/// deterministic for a quiescent registry: families sort by name and
/// series by their label sets.
pub fn render_prometheus() -> String {
    prometheus::render(&global().snapshot())
}
