//! Per-query evaluation tracing for the LyriC constraint pipeline.
//!
//! The paper's tractability argument is *per syntactic family*: every
//! single LyriC operation is polynomial, but the real cost of a query is
//! dominated by where projection, DNF products, and LP solves land.
//! Aggregate counters ([`EngineStats`], carried by `lyric-engine`) say how
//! much work a query did; this crate says **where**. Each evaluation phase
//! (lex, parse, analyze, FROM-binding enumeration, per-predicate WHERE
//! checks, SELECT constraint construction, `MAX/MIN … SUBJECT TO` solves,
//! and the engine-level Fourier–Motzkin / simplex runs underneath them)
//! records a span in a hierarchical [`Trace`]; each span carries its
//! wall-clock duration, the byte range of the source fragment it
//! evaluates, and the delta of [`EngineStats`] counters consumed inside
//! it. Structured [`TraceEvent`]s (box prunes, disjuncts pruned, budget
//! consumption crossing 50/90%) attach to the enclosing span.
//!
//! Three sinks consume a trace:
//!
//! * [`render::render_tree`] — a human-readable indented tree with
//!   per-span hot-path percentages (the REPL's `:profile` output);
//! * [`chrome::to_chrome_trace`] — a Chrome trace-event JSON document
//!   loadable in `chrome://tracing` or Perfetto (hand-rolled via
//!   [`json`], honouring the workspace's no-external-deps constraint);
//! * [`agg::hot_spans`] — grouped per-site totals, used by the bench
//!   `report` binary's hot-span table.
//!
//! This crate is deliberately dependency-free and engine-agnostic: it
//! defines the data model and the sinks. `lyric-engine` owns the
//! thread-local context that decides *when* a [`collect::Collector`] is
//! installed and feeds it stats snapshots; when no collector is installed
//! tracing costs nothing.

#![warn(missing_docs)]

pub mod agg;
pub mod chrome;
pub mod collect;
pub mod json;
pub mod model;
pub mod plan;
pub mod render;
pub mod stats;

pub use agg::{hot_spans, HotSpan};
pub use chrome::to_chrome_trace;
pub use collect::Collector;
pub use json::Json;
pub use model::{EventKind, Phase, SpanKind, Trace, TraceEvent, TraceSpan, MAIN_TID};
pub use plan::{NodeObs, PlanAnalysis, PlanNode};
pub use render::render_tree;
pub use stats::EngineStats;
