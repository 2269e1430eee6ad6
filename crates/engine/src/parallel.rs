//! Parallel regions: fork a slice of independent work items across
//! scoped worker threads that take indices from one shared cursor, then
//! merge the workers' telemetry back into the parent context
//! deterministically.
//!
//! # Design
//!
//! [`parallel_map`] is the single entry point. It falls back to a plain
//! serial loop unless *all* of the following hold: an engine context is
//! active, its thread budget is at least 2, the caller is not already
//! inside a worker (nested regions run serial — the outer region owns the
//! thread budget), and there are at least [`MIN_PARALLEL_ITEMS`] items.
//! The serial path is byte-for-byte the pre-parallel engine: same
//! iteration order, same note order, same trace shape.
//!
//! When a region does fork, each worker thread gets its own
//! [`ActiveContext`] carrying the parent's budget, deadline clock,
//! acceleration switches and generation, but a *zeroed* local
//! [`EngineStats`] — local counters are per-worker deltas, so span deltas
//! never double-count across threads. Every worker shares the query's
//! progress cell, where the budgeted counters (pivots, FM atoms, disjuncts)
//! accumulate for the whole query; limits are checked against those totals,
//! so `BudgetExceeded` fires as promptly as in a serial run and carries the
//! same resource classification.
//!
//! # Determinism
//!
//! Work is handed out as *indices* and results are reassembled in index
//! order, so the output vector — and therefore the query answer — is
//! bit-identical to the serial run's no matter how the handout
//! interleaves. Worker stats and trace subtrees are merged in worker-id
//! order after the join, so Σ worker deltas equals the serial counters:
//! no item's work depends on what another worker did first. A panic in
//! any worker (including the engine's internal budget unwind) aborts the
//! handout, and the first payload in worker order is re-raised on the
//! calling thread after the join, where `run`'s boundary translates a
//! budget unwind into `Err(BudgetExceeded)` exactly as for serial
//! evaluation.

use crate::pool::Cursor;
use crate::{trace, ActiveContext, EngineStats, BUDGET_THRESHOLDS, CONTEXT};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Minimum item count for forking a region: parallel regions with fewer
/// items stay serial, since forking threads for a couple of bindings
/// costs more than it saves, and tiny workloads (the paper's worked
/// examples) keep their exact serial span trees.
pub const MIN_PARALLEL_ITEMS: usize = 4;

/// Worker thread ids start here; [`trace::MAIN_TID`] is the coordinator.
const WORKER_TID_BASE: u32 = 2;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Everything a worker context needs, captured from the parent context
/// before the fork.
struct RegionPlan {
    budget: crate::EngineBudget,
    /// Interval-box pruning flag, copied onto worker contexts so every
    /// worker makes the same prune-or-solve decisions as a serial run.
    boxes: bool,
    /// Store-index probing flag, copied onto worker contexts for the
    /// same reason.
    index: bool,
    generation: u64,
    started: Instant,
    threads: usize,
    /// The parent thread's arithmetic mode; copied onto worker threads.
    arith_fast: bool,
    /// The parent tracer's origin `Instant`; `Some` iff tracing.
    trace_origin: Option<Instant>,
    /// The query's progress cell, shared with every worker: the budget
    /// totals all workers check against, and what `/debug/inflight` reads.
    progress: Arc<lyric_flight::Progress>,
}

/// Decide whether a region over `items` items forks, and capture the plan
/// if so.
fn plan_region(items: usize) -> Option<RegionPlan> {
    CONTEXT.with(|c| {
        let borrow = c.borrow();
        let active = borrow.as_ref()?;
        // Worker contexts run with a thread budget of 1, so nested
        // regions stay serial here too.
        if active.threads < 2 || items < MIN_PARALLEL_ITEMS {
            return None;
        }
        Some(RegionPlan {
            budget: active.budget.clone(),
            boxes: active.boxes,
            index: active.index,
            generation: active.generation,
            started: active.started,
            threads: active.threads,
            arith_fast: lyric_arith::fast_path_enabled(),
            trace_origin: active.tracer.as_ref().map(|t| t.origin()),
            progress: Arc::clone(&active.progress),
        })
    })
}

/// A worker's exported telemetry: its local counter deltas and, when
/// tracing, its sealed span subtree plus drop count.
struct WorkerReport {
    stats: EngineStats,
    subtree: Option<(trace::TraceSpan, u64)>,
}

/// Installs a worker [`ActiveContext`] on construction and exports the
/// worker's telemetry into `slot` on drop — including when a budget abort
/// (or any panic) unwinds through the worker, so the parent can always
/// merge a complete report.
struct WorkerContext<'a> {
    slot: &'a Mutex<Option<WorkerReport>>,
}

impl<'a> WorkerContext<'a> {
    fn install(plan: &RegionPlan, worker: usize, slot: &'a Mutex<Option<WorkerReport>>) -> Self {
        let tid = WORKER_TID_BASE + worker as u32;
        lyric_arith::set_fast_path(plan.arith_fast);
        CONTEXT.with(|c| {
            let mut borrow = c.borrow_mut();
            debug_assert!(borrow.is_none(), "fresh worker thread has no context");
            *borrow = Some(ActiveContext {
                budget: plan.budget.clone(),
                stats: EngineStats::default(),
                started: plan.started,
                notes_since_clock: 0,
                boxes: plan.boxes,
                index: plan.index,
                tracer: plan
                    .trace_origin
                    .map(|o| trace::Collector::worker(o, tid, format!("worker {worker}"))),
                // Deadline-percentage events are announced by the parent
                // context only; every worker repeating them would duplicate
                // the crossing.
                time_thresholds_emitted: BUDGET_THRESHOLDS.len(),
                generation: plan.generation,
                threads: 1,
                arith_base: lyric_arith::op_counters(),
                progress: Arc::clone(&plan.progress),
            });
        });
        WorkerContext { slot }
    }
}

impl Drop for WorkerContext<'_> {
    fn drop(&mut self) {
        let mut ctx = CONTEXT
            .with(|c| c.borrow_mut().take())
            .expect("worker context still installed");
        crate::refresh_arith(&mut ctx);
        let stats = ctx.stats;
        let subtree = ctx.tracer.map(|t| t.finish_subtree(stats));
        *lock(self.slot) = Some(WorkerReport { stats, subtree });
    }
}

/// Apply `f` to every item of `items`, in parallel when the active engine
/// context has a thread budget above 1 (see the module docs for the exact
/// conditions). Results are returned in item order; answers are identical
/// to the serial loop `items.iter().enumerate().map(|(i, x)| f(i, x))`.
///
/// `f` runs under a worker engine context: `note`/`tally`/`span` hooks
/// work as usual, budget aborts propagate to the enclosing `run`
/// boundary, and recorded spans appear in the trace under per-worker
/// subtrees with distinct `tid`s.
pub fn parallel_map<I, R, F>(items: &[I], f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(usize, &I) -> R + Sync,
{
    let Some(plan) = plan_region(items.len()) else {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    };
    let workers = plan.threads.min(items.len());
    let cursor = Cursor::new(items.len());
    let reports: Vec<Mutex<Option<WorkerReport>>> =
        (0..workers).map(|_| Mutex::new(None)).collect();
    let results: Vec<Mutex<Vec<(usize, R)>>> =
        (0..workers).map(|_| Mutex::new(Vec::new())).collect();
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    std::thread::scope(|s| {
        for w in 0..workers {
            let plan = &plan;
            let cursor = &cursor;
            let f = &f;
            let report_slot = &reports[w];
            let result_slot = &results[w];
            let panic_payload = &panic_payload;
            std::thread::Builder::new()
                .name(format!("lyric-worker-{w}"))
                .spawn_scoped(s, move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let _ctx = WorkerContext::install(plan, w, report_slot);
                        let mut out = Vec::new();
                        while let Some(i) = cursor.next() {
                            out.push((i, f(i, &items[i])));
                        }
                        out
                    }));
                    match outcome {
                        Ok(out) => *lock(result_slot) = out,
                        Err(payload) => {
                            cursor.abort();
                            lock(panic_payload).get_or_insert(payload);
                        }
                    }
                })
                .expect("spawn scoped worker thread");
        }
    });

    // Merge per-worker stats and trace subtrees into the parent context
    // in worker-id order — deterministic regardless of the handout.
    CONTEXT.with(|c| {
        let mut borrow = c.borrow_mut();
        let active = borrow.as_mut().expect("parent context still installed");
        for slot in &reports {
            let Some(report) = lock(slot).take() else {
                continue;
            };
            active.stats.absorb(&report.stats);
            if let Some((span, dropped)) = report.subtree {
                if let Some(tracer) = active.tracer.as_mut() {
                    // Idle workers (took no index before the region
                    // drained) contribute an empty subtree; skip the noise.
                    if !span.children.is_empty()
                        || !report.stats.is_zero()
                        || !span.events.is_empty()
                    {
                        tracer.attach_subtree(span, dropped);
                    }
                }
            }
        }
    });

    // Re-raise the first worker panic (budget unwinds included) on the
    // calling thread, *after* the telemetry merge so the boundary still
    // sees consistent totals.
    if let Some(payload) = lock(&panic_payload).take() {
        resume_unwind(payload);
    }

    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    for slot in results {
        for (i, r) in slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every item evaluated exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{note, note_many, run, EngineBudget, ExecOptions, Resource};
    use std::sync::atomic::Ordering;

    fn opts(threads: usize) -> ExecOptions {
        ExecOptions::default()
            .with_budget(EngineBudget::unlimited())
            .with_threads(threads)
    }

    #[test]
    fn results_keep_item_order() {
        for threads in [1, 2, 4, 8] {
            let items: Vec<u64> = (0..100).collect();
            let progress = Arc::new(lyric_flight::Progress::default());
            let (out, stats, _) = run(&opts(threads), Some(Arc::clone(&progress)), || {
                parallel_map(&items, |i, &x| {
                    note(Resource::Pivots);
                    (i as u64) * 1_000 + x * x
                })
            });
            let out = out.unwrap();
            let expect: Vec<u64> = (0..100).map(|x| x * 1_000 + x * x).collect();
            assert_eq!(out, expect);
            assert_eq!(stats.pivots, 100, "worker deltas sum to serial count");
            assert_eq!(
                progress.pivots.load(Ordering::Relaxed),
                100,
                "every worker counts into the one progress cell"
            );
        }
    }

    #[test]
    fn serial_fallback_without_context() {
        let items = [1, 2, 3, 4, 5, 6];
        let out = parallel_map(&items, |_, &x| x * 2);
        assert_eq!(out, vec![2, 4, 6, 8, 10, 12]);
    }

    #[test]
    fn small_regions_stay_serial() {
        // Under MIN_PARALLEL_ITEMS the current thread evaluates everything,
        // so thread-local state set by f is visible to the caller.
        run(&opts(8), None, || {
            let items = [1, 2, 3];
            let tid = std::thread::current().id();
            let out = parallel_map(&items, |_, _| std::thread::current().id());
            assert!(out.iter().all(|&t| t == tid));
        })
        .0
        .unwrap();
    }

    #[test]
    fn nested_regions_fall_back_to_serial() {
        let items: Vec<u32> = (0..16).collect();
        let (out, stats, _) = run(&opts(4), None, || {
            parallel_map(&items, |_, &x| {
                let inner: Vec<u32> = (0..8).collect();
                // Inside a worker, a nested parallel_map must not fork.
                let tid = std::thread::current().id();
                let nested = parallel_map(&inner, |_, &y| {
                    note(Resource::FmAtoms);
                    assert_eq!(std::thread::current().id(), tid);
                    y + x
                });
                nested.iter().sum::<u32>()
            })
        });
        let out = out.unwrap();
        assert_eq!(out.len(), 16);
        assert_eq!(stats.fm_atoms, 16 * 8);
    }

    #[test]
    fn budget_abort_propagates_with_serial_classification() {
        let items: Vec<u64> = (0..64).collect();
        let serial = run(&opts(1), None, || {
            parallel_map(&items, |_, _| note_many(Resource::Disjuncts, 10))
        })
        .0
        .map(|_| ());
        for threads in [2, 4, 8] {
            let mut o = opts(threads);
            o.budget = EngineBudget::unlimited().with_max_disjuncts(100);
            let (value, stats, _) = run(&o, None, || {
                parallel_map(&items, |_, _| note_many(Resource::Disjuncts, 10))
            });
            let err = value.expect_err("limit of 100 must trip under parallel execution");
            assert_eq!(err.resource, Resource::Disjuncts);
            assert_eq!(err.limit, 100);
            assert!(err.consumed > 100, "consumed {} <= limit", err.consumed);
            assert!(
                stats.disjuncts_produced >= err.consumed,
                "the aborted region's merged counters hold the abort's work"
            );
        }
        assert!(serial.is_ok(), "unlimited serial run sanity check");
    }

    #[test]
    fn worker_panics_propagate_as_ordinary_panics() {
        let caught = std::panic::catch_unwind(|| {
            let _ = run(&opts(4), None, || {
                let items: Vec<u32> = (0..32).collect();
                parallel_map(&items, |_, &x| {
                    if x == 17 {
                        panic!("worker panic");
                    }
                    x
                })
            });
        });
        assert!(caught.is_err());
        assert!(!crate::is_active());
    }

    #[test]
    fn traced_regions_graft_worker_subtrees() {
        let items: Vec<u32> = (0..32).collect();
        let (value, stats, trace) = run(&opts(4).with_trace(true), None, || {
            let _outer = crate::span(crate::SpanKind::Where, || "w".into(), None);
            let _ = parallel_map(&items, |i, _| {
                let _s = crate::span(crate::SpanKind::SatCheck, || format!("s{i}"), None);
                note(Resource::Pivots);
            });
        });
        value.unwrap();
        let trace = trace.expect("traced run seals a trace");
        assert_eq!(stats.pivots, 32);
        assert_eq!(*trace.total_stats(), stats);
        // Σ self-stats still partitions the total across worker subtrees.
        assert_eq!(trace.summed_self_stats(), stats);
        let tids = trace.distinct_tids();
        assert!(tids.len() >= 2, "expected worker tids, got {tids:?}");
        assert_eq!(tids[0], lyric_trace::MAIN_TID);
        // All 32 sat_check spans are recorded, under worker roots.
        let mut sat = 0;
        let mut workers = 0;
        trace.root.walk(&mut |s, _| match s.kind {
            crate::SpanKind::SatCheck => sat += 1,
            crate::SpanKind::Worker => workers += 1,
            _ => {}
        });
        assert_eq!(sat, 32);
        assert!(workers >= 1);
        assert_eq!(trace.dropped_spans, 0);
    }
}
