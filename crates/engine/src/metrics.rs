//! Bridges per-query engine telemetry into the process-lifetime
//! [`lyric_metrics`] registry.
//!
//! Every metric the engine owns is registered once (lazily) in a single
//! [`EngineMetrics`] struct, so the hot paths pay one `OnceLock` load
//! plus a striped atomic increment. The per-query [`EngineStats`]
//! counters are flushed into their cumulative registry counters exactly
//! once, at the [`run`](crate::run) boundary teardown — after all
//! worker deltas have been merged — so the registry totals are *exactly*
//! the sum of every query's final stats (`tests/metrics_consistency.rs`
//! asserts this equality in process, and `lyric-serve`'s
//! `tests/metrics_scrape.rs` over a live `/metrics` scrape).

use crate::{BudgetExceeded, Resource};
use lyric_metrics::{Counter, Gauge, Histogram, LocalHistogram};
use lyric_trace::stats::COUNTER_NAMES;
use std::sync::OnceLock;
use std::time::Duration;

/// Short label value for a [`Resource`] (Prometheus label values avoid
/// the spaces in [`Resource::name`]).
pub(crate) fn resource_label(r: Resource) -> &'static str {
    match r {
        Resource::Pivots => "pivots",
        Resource::FmAtoms => "fm_atoms",
        Resource::Disjuncts => "disjuncts",
        Resource::Time => "time",
    }
}

const RESOURCES: [Resource; 4] = [
    Resource::Pivots,
    Resource::FmAtoms,
    Resource::Disjuncts,
    Resource::Time,
];

fn resource_index(r: Resource) -> usize {
    match r {
        Resource::Pivots => 0,
        Resource::FmAtoms => 1,
        Resource::Disjuncts => 2,
        Resource::Time => 3,
    }
}

pub(crate) struct EngineMetrics {
    queries: Counter,
    query_duration_us: Histogram,
    /// Cumulative [`EngineStats`] counters, in [`COUNTER_NAMES`] order.
    stat_totals: Vec<Counter>,
    budget_aborts: [Counter; 4],
    /// `[resource][threshold]` for the 50%/90% crossings.
    budget_thresholds: [[Counter; 2]; 4],
    parallel_regions: Counter,
    parallel_serial: Counter,
    pool_steals: Counter,
    worker_items_us: Histogram,
    worker_merge_us: Histogram,
    threads_gauge: Gauge,
    arith_fast_gauge: Gauge,
    boxes_gauge: Gauge,
    index_gauge: Gauge,
    arena_pool_hits_gauge: Gauge,
    arena_pool_misses_gauge: Gauge,
    arena_recycled_bytes_gauge: Gauge,
}

pub(crate) fn metrics() -> &'static EngineMetrics {
    static M: OnceLock<EngineMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = lyric_metrics::global();
        EngineMetrics {
            queries: r.counter(
                "lyric_queries_total",
                "Engine contexts run to completion (including budget aborts).",
            ),
            query_duration_us: r.histogram(
                "lyric_query_duration_us",
                "Wall-clock query evaluation time in microseconds.",
            ),
            stat_totals: COUNTER_NAMES
                .iter()
                .map(|name| {
                    r.counter(
                        &format!("lyric_engine_{name}_total"),
                        &format!("Cumulative EngineStats `{name}` across all queries."),
                    )
                })
                .collect(),
            budget_aborts: RESOURCES.map(|res| {
                r.counter_with(
                    "lyric_budget_aborts_total",
                    "Queries aborted by a budget limit, by resource.",
                    &[("resource", resource_label(res))],
                )
            }),
            budget_thresholds: RESOURCES.map(|res| {
                crate::BUDGET_THRESHOLDS.map(|pct| {
                    r.counter_with(
                        "lyric_budget_threshold_total",
                        "Budget consumption threshold crossings, by resource and percent.",
                        &[
                            ("resource", resource_label(res)),
                            ("percent", if pct == 50 { "50" } else { "90" }),
                        ],
                    )
                })
            }),
            parallel_regions: r.counter(
                "lyric_parallel_regions_total",
                "parallel_map regions that forked worker threads.",
            ),
            parallel_serial: r.counter(
                "lyric_parallel_serial_total",
                "parallel_map calls under an active context that stayed serial.",
            ),
            pool_steals: r.counter(
                "lyric_pool_steals_total",
                "Successful work-steals between pool workers.",
            ),
            worker_items_us: r.histogram(
                "lyric_worker_item_us",
                "Per-item evaluation time inside parallel regions, microseconds.",
            ),
            worker_merge_us: r.histogram(
                "lyric_worker_merge_us",
                "Time to merge worker telemetry after a parallel region join, microseconds.",
            ),
            threads_gauge: r.gauge(
                "lyric_threads",
                "Thread budget of the most recently installed engine context.",
            ),
            arith_fast_gauge: r.gauge(
                "lyric_arith_fast",
                "1 when the most recent context used the small-coefficient \
                 arithmetic fast path, 0 for the all-BigInt baseline.",
            ),
            boxes_gauge: r.gauge(
                "lyric_boxes",
                "1 when the most recent context ran the interval-box \
                 disjointness test before LP calls, 0 for exact-LP only.",
            ),
            index_gauge: r.gauge(
                "lyric_index",
                "1 when the most recent context pre-filtered FROM extents \
                 through the store index, 0 for full-extent scans.",
            ),
            arena_pool_hits_gauge: r.gauge(
                "lyric_arena_pool_hits",
                "Arena buffer acquisitions served by a recycled buffer \
                 (process lifetime).",
            ),
            arena_pool_misses_gauge: r.gauge(
                "lyric_arena_pool_misses",
                "Arena buffer acquisitions that allocated a fresh buffer \
                 (process lifetime).",
            ),
            arena_recycled_bytes_gauge: r.gauge(
                "lyric_arena_recycled_bytes",
                "Capacity bytes returned to arena pools (process lifetime).",
            ),
        }
    })
}

/// Record the effective execution options of a freshly installed context.
pub(crate) fn record_options(threads: usize, arith_fast: bool, boxes: bool, index: bool) {
    if !lyric_metrics::enabled() {
        return;
    }
    let m = metrics();
    m.threads_gauge.set(threads as u64);
    m.arith_fast_gauge.set(arith_fast as u64);
    m.boxes_gauge.set(boxes as u64);
    m.index_gauge.set(index as u64);
}

/// Flush one completed context: bump the query counter, observe the
/// duration, add the final per-query stats into the cumulative totals,
/// and classify a budget abort if one ended the query.
pub(crate) fn flush_query(
    stats: &crate::EngineStats,
    elapsed: Duration,
    abort: Option<&BudgetExceeded>,
) {
    if !lyric_metrics::enabled() {
        return;
    }
    let m = metrics();
    m.queries.inc();
    m.query_duration_us.observe(elapsed.as_micros() as u64);
    for (counter, value) in m.stat_totals.iter().zip(stats.counters()) {
        if value > 0 {
            counter.add(value);
        }
    }
    if let Some(b) = abort {
        m.budget_aborts[resource_index(b.resource)].inc();
    }
    let arena = lyric_arith::arena_stats();
    m.arena_pool_hits_gauge.set(arena.pool_hits);
    m.arena_pool_misses_gauge.set(arena.pool_misses);
    m.arena_recycled_bytes_gauge.set(arena.recycled_bytes);
}

/// Record a 50%/90% budget-consumption crossing (mirrors the trace
/// event, but lands in the registry whether or not tracing is on).
pub(crate) fn budget_threshold(r: Resource, percent: u64) {
    if !lyric_metrics::enabled() {
        return;
    }
    let slot = crate::BUDGET_THRESHOLDS.iter().position(|&p| p == percent);
    if let Some(slot) = slot {
        metrics().budget_thresholds[resource_index(r)][slot].inc();
    }
}

/// Record whether a `parallel_map` region forked or stayed serial (the
/// serial side is only counted under an active context — library calls
/// outside the engine are not fallbacks).
pub(crate) fn parallel_region(forked: bool) {
    if !lyric_metrics::enabled() {
        return;
    }
    let m = metrics();
    if forked {
        m.parallel_regions.inc();
    } else {
        m.parallel_serial.inc();
    }
}

/// Record one successful steal in the work-stealing pool.
pub(crate) fn pool_steal() {
    if !lyric_metrics::enabled() {
        return;
    }
    metrics().pool_steals.inc();
}

/// Merge one worker's per-item latency histogram after a region join.
pub(crate) fn merge_worker_items(local: &LocalHistogram) {
    if local.count() > 0 {
        metrics().worker_items_us.merge_local(local);
    }
}

/// Record how long the post-join telemetry merge took.
pub(crate) fn worker_merge_time(elapsed: Duration) {
    metrics()
        .worker_merge_us
        .observe(elapsed.as_micros() as u64);
}
