//! The one sink a finished query leaves by. The query runner builds the
//! query's [`QueryRecord`] and hands it here; this projects it onto every
//! surface — the per-query `/metrics` series, the query-log line, and the
//! flight recorder's ring and anomaly dump. The engine writes nothing to
//! the process registry, so the series below move nowhere else, and each
//! equals the sum of the records it has seen.

use lyric_engine::trace::stats::COUNTER_NAMES;
use lyric_engine::{flight, EngineBudget, Resource, BUDGET_THRESHOLDS};
use lyric_metrics::querylog::{self, Outcome, QueryRecord};
use lyric_metrics::{Counter, Gauge, Histogram};
use std::sync::OnceLock;

const RESOURCES: [Resource; 4] = [
    Resource::Pivots,
    Resource::FmAtoms,
    Resource::Disjuncts,
    Resource::Time,
];

/// A resource's label value (Prometheus label values avoid the spaces in
/// [`Resource::name`]).
fn label(r: Resource) -> &'static str {
    match r {
        Resource::Pivots => "pivots",
        Resource::FmAtoms => "fm_atoms",
        Resource::Disjuncts => "disjuncts",
        Resource::Time => "time",
    }
}

/// The per-query series, registered together on the first query.
struct Series {
    queries: Counter,
    duration_us: Histogram,
    /// `lyric_engine_<counter>_total`, in [`COUNTER_NAMES`] order.
    counters: Vec<Counter>,
    /// By resource, in [`RESOURCES`] order.
    aborts: [Counter; 4],
    /// By resource, then by [`BUDGET_THRESHOLDS`] percent.
    thresholds: [[Counter; 2]; 4],
    arena_pool_hits: Gauge,
    arena_pool_misses: Gauge,
    arena_recycled_bytes: Gauge,
}

fn series() -> &'static Series {
    static S: OnceLock<Series> = OnceLock::new();
    S.get_or_init(|| {
        let r = lyric_metrics::global();
        Series {
            queries: r.counter(
                "lyric_queries_total",
                "Queries admitted to the engine, whatever their outcome.",
            ),
            duration_us: r.histogram(
                "lyric_query_duration_us",
                "Wall-clock query evaluation time in microseconds.",
            ),
            counters: COUNTER_NAMES
                .iter()
                .map(|name| {
                    r.counter(
                        &format!("lyric_engine_{name}_total"),
                        &format!("Cumulative EngineStats `{name}` across all queries."),
                    )
                })
                .collect(),
            aborts: RESOURCES.map(|res| {
                r.counter_with(
                    "lyric_budget_aborts_total",
                    "Queries aborted by a budget limit, by resource.",
                    &[("resource", label(res))],
                )
            }),
            thresholds: RESOURCES.map(|res| {
                BUDGET_THRESHOLDS.map(|pct| {
                    r.counter_with(
                        "lyric_budget_threshold_total",
                        "Queries that ended above a percent of a budget limit, \
                         by resource and percent.",
                        &[
                            ("resource", label(res)),
                            ("percent", if pct == 50 { "50" } else { "90" }),
                        ],
                    )
                })
            }),
            arena_pool_hits: r.gauge(
                "lyric_arena_pool_hits",
                "Arena buffer acquisitions served by a recycled buffer \
                 (process lifetime).",
            ),
            arena_pool_misses: r.gauge(
                "lyric_arena_pool_misses",
                "Arena buffer acquisitions that allocated a fresh buffer \
                 (process lifetime).",
            ),
            arena_recycled_bytes: r.gauge(
                "lyric_arena_recycled_bytes",
                "Capacity bytes returned to arena pools (process lifetime).",
            ),
        }
    })
}

/// Publish one finished query: its `/metrics` series, its query-log
/// line, and its flight record with the dump an anomaly calls for.
/// `budget` is the budget it ran under, which the threshold series are
/// judged against; `guard` is its in-flight slot, released last.
pub(crate) fn publish(record: QueryRecord, budget: &EngineBudget, guard: flight::InflightGuard) {
    count(&record, budget);
    querylog::log(&record);
    flight::finish(guard, record);
}

fn count(record: &QueryRecord, budget: &EngineBudget) {
    let m = series();
    m.queries.inc();
    m.duration_us.observe(record.duration_us);
    for (counter, value) in m.counters.iter().zip(record.stats.counters()) {
        if value > 0 {
            counter.add(value);
        }
    }
    let s = &record.stats;
    for (i, r) in RESOURCES.into_iter().enumerate() {
        // A monotonic counter crosses a percent line during the run
        // exactly when it ends above it; time is judged at the end.
        let (consumed, limit) = match r {
            Resource::Pivots => (s.pivots, budget.max_pivots),
            Resource::FmAtoms => (s.fm_atoms, budget.max_fm_atoms),
            Resource::Disjuncts => (s.disjuncts_produced, budget.max_disjuncts),
            Resource::Time => (
                record.duration_us,
                budget.deadline.map(|d| d.as_micros() as u64),
            ),
        };
        if let Some(limit) = limit {
            for (pct, counter) in BUDGET_THRESHOLDS.into_iter().zip(&m.thresholds[i]) {
                if consumed as u128 * 100 > limit as u128 * pct as u128 {
                    counter.inc();
                }
            }
        }
        if matches!(record.outcome, Outcome::BudgetExceeded { resource, .. } if resource == r.name())
        {
            m.aborts[i].inc();
        }
    }
    let arena = lyric_arith::arena_stats();
    m.arena_pool_hits.set(arena.pool_hits);
    m.arena_pool_misses.set(arena.pool_misses);
    m.arena_recycled_bytes.set(arena.recycled_bytes);
}
