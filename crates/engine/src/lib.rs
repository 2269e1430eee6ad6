//! Evaluation budgets and engine statistics for the LyriC constraint
//! pipeline.
//!
//! The paper's central design tension is that every LyriC operation must
//! stay tractable: it refuses eager quantifier elimination precisely
//! because Fourier–Motzkin and DNF negation can explode exponentially.
//! This crate is the engine's defense and its instrumentation: a
//! per-query [`EngineBudget`] (pivots, FM atoms, DNF disjuncts, deadline)
//! and an [`EngineStats`] counter set, carried in a thread-local
//! context so the deep call graph (simplex pivot loop, FM product
//! loop, DNF products) does not need threading a handle through every
//! signature.
//!
//! # Usage
//!
//! Cost sites call [`note`] (or [`note_many`]) with a [`Resource`]; the
//! active context counts the work and, when a budget limit is crossed,
//! unwinds with a [`BudgetExceeded`] payload. [`run`] — the one way to
//! install a context — catches that unwind at the boundary and returns
//! `Err(BudgetExceeded)` instead, beside the counters the run consumed;
//! ordinary panics propagate untouched. With no active context (`note`
//! outside `run`) all accounting is a no-op, so library code is usable
//! standalone at zero cost beyond one thread-local read.
//!
//! The engine writes nothing to the process-lifetime metric registry:
//! its counters leave through what [`run`] returns, and the query runner
//! projects them onto every surface (`/metrics`, the query log, the
//! flight recorder) from one record.
//!
//! The unwind-based abort uses [`std::panic::panic_any`] with a private
//! payload type; callers never observe it because `run` downcasts at the
//! boundary. Cost sites therefore keep their existing infallible
//! signatures — exactly the "degrade gracefully instead of hanging"
//! contract from the roadmap.
//!
//! # Tracing
//!
//! Under [`ExecOptions::trace`] (or [`ExecOptions::explain`], which needs
//! the same tree) [`run`] attaches a [`trace::Collector`] to the context:
//! cost sites additionally open hierarchical spans via [`span`] and
//! attach structured events via [`trace_event`], and the collector seals
//! the per-query span tree ([`trace::Trace`]) at the boundary. Without
//! one (or outside any context) every tracing hook is a no-op that
//! allocates nothing and never invokes its label/event closures —
//! tracing is strictly opt-in per query.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt;
use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod parallel;
mod pool;

pub use parallel::{parallel_map, MIN_PARALLEL_ITEMS};

/// Minimum `|left|·|right|` pair count before a DNF product is evaluated
/// row-parallel (see `lyric-constraint`).
pub const DNF_PARALLEL_MIN_PAIRS: usize = 64;

/// The trace data model and sinks (re-exported so dependents need no
/// direct `lyric-trace` dependency).
pub use lyric_trace as trace;
pub use lyric_trace::{EventKind, SpanKind};

/// The flight recorder and in-flight registry (re-exported so dependents
/// need no direct `lyric-flight` dependency). A [`flight::Progress`] cell
/// holds every context's live per-query counters; [`run`] takes a
/// registered query's cell so `/debug/inflight` reads them as they move.
pub use lyric_flight as flight;

/// The budgetable resources of the constraint pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Simplex pivot steps (phase 1 + phase 2).
    Pivots,
    /// Atoms produced by Fourier–Motzkin elimination (the |L|·|U| product).
    FmAtoms,
    /// Disjuncts produced by DNF products (`and`) and negation.
    Disjuncts,
    /// Wall-clock evaluation time.
    Time,
}

impl Resource {
    /// Human-readable resource name, as used in budget error messages.
    pub fn name(self) -> &'static str {
        match self {
            Resource::Pivots => "simplex pivots",
            Resource::FmAtoms => "fourier-motzkin atoms",
            Resource::Disjuncts => "dnf disjuncts",
            Resource::Time => "wall-clock time",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Raised (as an `Err` from [`run`]) when a budget limit is crossed.
/// `limit`/`consumed` are in the resource's native unit — counts for the
/// counter resources, milliseconds for [`Resource::Time`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BudgetExceeded {
    /// The resource whose limit was crossed.
    pub resource: Resource,
    /// The configured limit for that resource.
    pub limit: u64,
    /// How much had been consumed when the evaluation was aborted.
    pub consumed: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "evaluation budget exceeded: {} (consumed {} of limit {})",
            self.resource, self.consumed, self.limit
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Per-query resource limits. `None` means unlimited. The default budget
/// is fully unlimited so that installing a context for *statistics* never
/// changes results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineBudget {
    /// Cap on simplex pivot steps across all LP runs of the query.
    pub max_pivots: Option<u64>,
    /// Cap on atoms produced by Fourier–Motzkin elimination.
    pub max_fm_atoms: Option<u64>,
    /// Cap on disjuncts produced by DNF products and negation.
    pub max_disjuncts: Option<u64>,
    /// Wall-clock deadline for the whole evaluation.
    pub deadline: Option<Duration>,
}

impl EngineBudget {
    /// Unlimited on every axis.
    pub fn unlimited() -> Self {
        EngineBudget::default()
    }

    /// A conservative interactive envelope: generous enough for every
    /// paper query, small enough to stop adversarial blowups in well
    /// under a second of wall-clock on current hardware.
    pub fn interactive() -> Self {
        EngineBudget {
            max_pivots: Some(200_000),
            max_fm_atoms: Some(50_000),
            max_disjuncts: Some(20_000),
            deadline: Some(Duration::from_secs(5)),
        }
    }

    /// Replace the pivot cap.
    pub fn with_max_pivots(mut self, n: u64) -> Self {
        self.max_pivots = Some(n);
        self
    }

    /// Replace the Fourier–Motzkin atom cap.
    pub fn with_max_fm_atoms(mut self, n: u64) -> Self {
        self.max_fm_atoms = Some(n);
        self
    }

    /// Replace the DNF disjunct cap.
    pub fn with_max_disjuncts(mut self, n: u64) -> Self {
        self.max_disjuncts = Some(n);
        self
    }

    /// Replace the wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    fn limit_for(&self, r: Resource) -> Option<u64> {
        match r {
            Resource::Pivots => self.max_pivots,
            Resource::FmAtoms => self.max_fm_atoms,
            Resource::Disjuncts => self.max_disjuncts,
            Resource::Time => None, // handled via the deadline clock
        }
    }
}

/// Monotonic work counters for one engine context (defined in
/// [`lyric_trace::stats`] so trace spans can carry typed deltas; see that
/// module for the counter list). [`snapshot`] reads them out mid-run.
pub use lyric_trace::EngineStats;

/// How often the deadline clock is consulted, in [`note`] calls. Reading
/// `Instant::now()` on every counted atom would dominate small solves.
///
/// The trade-off is *overshoot*: after the configured
/// [`EngineBudget::deadline`] passes, evaluation keeps running until the
/// next clock consultation, i.e. for at most `DEADLINE_STRIDE − 1` further
/// counted notes (plus whatever uncounted work sits between them). A
/// `Resource::Time` abort is therefore guaranteed within one stride of the
/// first note after the deadline — the engine tests pin exactly that.
pub const DEADLINE_STRIDE: u64 = 64;

struct ActiveContext {
    budget: EngineBudget,
    stats: EngineStats,
    started: Instant,
    notes_since_clock: u64,
    /// Interval-box pruning of LP calls enabled for this context?
    boxes: bool,
    /// Store-index probing of FROM extents enabled for this context?
    index: bool,
    /// Span/event collector; `Some` only for a traced or explained run.
    tracer: Option<trace::Collector>,
    /// How many deadline thresholds (50%, 90%) have been announced.
    time_thresholds_emitted: usize,
    /// This context's generation (copied from [`GENERATION`] at install
    /// time; worker contexts copy their parent's, so every event of one
    /// query carries the same tag).
    generation: u64,
    /// Thread budget for parallel regions opened under this context; 1
    /// means strictly serial evaluation (and marks worker contexts, whose
    /// nested regions stay serial).
    threads: usize,
    /// The thread's cumulative arithmetic-path counters at the last
    /// refresh; [`refresh_arith`] drains the delta into `stats`.
    arith_base: lyric_arith::OpCounters,
    /// The query's live counters, shared by the coordinator and every
    /// worker context: budgeted work is counted here and the limit is
    /// checked against these query-wide totals, so a limit crossed by the
    /// *sum* of all workers aborts promptly; sat checks, box prunes and
    /// index probes are counted here at their sites. A registered query's
    /// in-flight slot reads the same cell.
    progress: Arc<lyric_flight::Progress>,
}

/// Fold the thread's cumulative small/big/promotion arithmetic counters
/// into the active context's stats. Incremental — it adds only the delta
/// since the previous refresh — so worker contributions merged via
/// `EngineStats::absorb` are never clobbered. Called at span entry/exit
/// (so trace self-stats attribute arithmetic to the span that did it), on
/// [`snapshot`], and at context teardown.
fn refresh_arith(active: &mut ActiveContext) {
    let now = lyric_arith::op_counters();
    active.stats.arith_small_ops += now.small_ops - active.arith_base.small_ops;
    active.stats.arith_big_ops += now.big_ops - active.arith_base.big_ops;
    active.stats.arith_promotions += now.promotions - active.arith_base.promotions;
    active.arith_base = now;
}

thread_local! {
    static CONTEXT: RefCell<Option<ActiveContext>> = const { RefCell::new(None) };
}

/// Bumped every time a context is installed. A context's generation is
/// its query's `trace_id` (in the query log and the flight ring).
/// Process-global (not thread-local) so concurrent contexts on different
/// threads get distinct generations while the workers of one parallel
/// region share one.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// Private unwind payload; `run` downcasts it at the boundary.
struct BudgetUnwind(BudgetExceeded);

/// The default panic hook prints a backtrace banner for every panic,
/// including our internal budget unwind. Install (once, process-wide) a
/// hook that stays silent for [`BudgetUnwind`] payloads and delegates to
/// the previous hook otherwise — after handing genuine panics to the
/// flight recorder, which writes a black-box dump when the panicking
/// thread has an in-flight query and a dump directory is configured.
fn silence_budget_unwinds() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<BudgetUnwind>().is_none() {
                let payload = info.payload();
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                lyric_flight::panic_dump(&message);
                previous(info);
            }
        }));
    });
}

/// True when an engine context is installed on this thread.
pub fn is_active() -> bool {
    CONTEXT.with(|c| c.borrow().is_some())
}

/// True when interval boxes should run in front of the LP of each
/// satisfiability check (entailment checks reach it through theirs): an
/// empty box refutes the conjunction, and a nonempty box decides one
/// whose atoms each mention at most one variable, where the box is exact.
/// False outside any context: standalone library use stays exact-LP
/// only, so plain unit tests of the constraint layer never depend on the
/// abstract domain.
pub fn boxes_enabled() -> bool {
    CONTEXT.with(|c| c.borrow().as_ref().is_some_and(|a| a.boxes))
}

/// True when index-answerable FROM variables should bind from store-index
/// probes instead of their extents. False outside any context:
/// standalone library use never builds an index behind the caller's back.
pub fn index_enabled() -> bool {
    CONTEXT.with(|c| c.borrow().as_ref().is_some_and(|a| a.index))
}

/// The current generation: the active context's (its query's
/// `trace_id`), or the process-global counter outside any context.
pub fn generation() -> u64 {
    CONTEXT
        .with(|c| c.borrow().as_ref().map(|a| a.generation))
        .unwrap_or_else(|| GENERATION.load(Ordering::Relaxed))
}

/// The budget-consumption thresholds announced as trace events, percent.
/// A counter crosses one during a run exactly when it ends above it, so
/// the query runner counts the crossings from the final counters.
pub const BUDGET_THRESHOLDS: [u64; 2] = [50, 90];

/// Count `n` units of `r`, aborting the enclosing [`run`] when a budget
/// limit is crossed. A no-op without an active context.
pub fn note_many(r: Resource, n: u64) {
    let exceeded = CONTEXT.with(|c| {
        let mut borrow = c.borrow_mut();
        let active = borrow.as_mut()?;
        // Local stats take the delta (they feed span deltas and the merged
        // per-worker sums); the query-wide total in the shared progress
        // cell is what the limit is checked against, so an abort fires as
        // promptly in a parallel region as in a serial run.
        let cells = match r {
            Resource::Pivots => Some((&mut active.stats.pivots, &active.progress.pivots)),
            Resource::FmAtoms => Some((&mut active.stats.fm_atoms, &active.progress.fm_atoms)),
            Resource::Disjuncts => Some((
                &mut active.stats.disjuncts_produced,
                &active.progress.disjuncts,
            )),
            Resource::Time => None,
        };
        let before = cells.map_or(0, |(local, total)| {
            *local += n;
            total.fetch_add(n, Ordering::Relaxed)
        });
        let counter = before + n;
        if let Some(limit) = active.budget.limit_for(r) {
            // Counters are monotonic, so each percent line is crossed by
            // exactly one note (across workers too — fetch_add hands out
            // disjoint intervals); announce crossings to the tracer.
            if let Some(tracer) = active.tracer.as_mut() {
                for pct in BUDGET_THRESHOLDS {
                    let line = limit as u128 * pct as u128;
                    if before as u128 * 100 <= line && counter as u128 * 100 > line {
                        tracer.event(EventKind::BudgetThreshold {
                            resource: r.name(),
                            percent: pct as u8,
                            consumed: counter,
                            limit,
                        });
                    }
                }
            }
            if counter > limit {
                return Some(BudgetExceeded {
                    resource: r,
                    limit,
                    consumed: counter,
                });
            }
        }
        // Deadline check, amortized over DEADLINE_STRIDE notes.
        active.notes_since_clock += 1;
        if active.notes_since_clock >= DEADLINE_STRIDE {
            active.notes_since_clock = 0;
            if let Some(deadline) = active.budget.deadline {
                let elapsed = active.started.elapsed();
                let tracer = active.tracer.as_mut().filter(|_| !deadline.is_zero());
                if let Some(tracer) = tracer {
                    let pct_elapsed =
                        (elapsed.as_nanos().saturating_mul(100) / deadline.as_nanos()) as u64;
                    while let Some(&pct) = BUDGET_THRESHOLDS.get(active.time_thresholds_emitted) {
                        if pct_elapsed <= pct {
                            break;
                        }
                        active.time_thresholds_emitted += 1;
                        tracer.event(EventKind::BudgetThreshold {
                            resource: Resource::Time.name(),
                            percent: pct as u8,
                            consumed: elapsed.as_millis() as u64,
                            limit: deadline.as_millis() as u64,
                        });
                    }
                }
                if elapsed > deadline {
                    return Some(BudgetExceeded {
                        resource: Resource::Time,
                        limit: deadline.as_millis() as u64,
                        consumed: elapsed.as_millis() as u64,
                    });
                }
            }
        }
        None
    });
    if let Some(b) = exceeded {
        panic_any(BudgetUnwind(b));
    }
}

/// Count one unit of `r`. See [`note_many`].
pub fn note(r: Resource) {
    note_many(r, 1);
}

/// Record an uncapped statistic (no budget applies).
pub fn tally(f: impl FnOnce(&mut EngineStats)) {
    CONTEXT.with(|c| {
        if let Some(active) = c.borrow_mut().as_mut() {
            f(&mut active.stats);
        }
    });
}

/// An uncapped counter that `/debug/inflight` shows live beside the
/// three budgeted ones; see [`note_live`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Live {
    /// Satisfiability checks.
    SatChecks,
    /// Interval-box prunes (LP solves skipped).
    BoxPrunes,
    /// Store-index probes.
    IndexProbes,
}

/// Count `n` units of a live counter, at its site: into the context's
/// stats and into the query's shared progress cell. A no-op without an
/// active context.
pub fn note_live(counter: Live, n: u64) {
    CONTEXT.with(|c| {
        if let Some(active) = c.borrow_mut().as_mut() {
            let (local, total) = match counter {
                Live::SatChecks => (&mut active.stats.sat_checks, &active.progress.sat_checks),
                Live::BoxPrunes => (&mut active.stats.box_prunes, &active.progress.box_prunes),
                Live::IndexProbes => (
                    &mut active.stats.index_probes,
                    &active.progress.index_probes,
                ),
            };
            *local += n;
            total.fetch_add(n, Ordering::Relaxed);
        }
    });
}

/// Read the current context's counters, or `None` outside a context.
pub fn snapshot() -> Option<EngineStats> {
    CONTEXT.with(|c| {
        c.borrow_mut().as_mut().map(|a| {
            refresh_arith(a);
            a.stats
        })
    })
}

// ---------------------------------------------------------------- tracing

/// True when the active context is collecting a trace. Instrumentation
/// sites may use this to skip building expensive labels, though [`span`]
/// and [`trace_event`] already defer closure evaluation behind the check.
pub fn tracing() -> bool {
    CONTEXT.with(|c| c.borrow().as_ref().is_some_and(|a| a.tracer.is_some()))
}

/// Closes its span when dropped. Returned by [`span`]; inert (and
/// allocation-free) when tracing is off.
#[must_use = "the span closes when this guard drops"]
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        CONTEXT.with(|c| {
            if let Some(active) = c.borrow_mut().as_mut() {
                refresh_arith(active);
                let stats = active.stats;
                if let Some(t) = active.tracer.as_mut() {
                    t.exit(stats);
                }
            }
        });
    }
}

/// Open a trace span for the current scope: the span covers the lifetime
/// of the returned guard (drop order closes it even when a budget abort
/// unwinds through). `label` is only invoked — and nothing is allocated —
/// when the active context is tracing; `source` is the byte range of the
/// source fragment the span evaluates, when known.
pub fn span(
    kind: SpanKind,
    label: impl FnOnce() -> String,
    source: Option<(usize, usize)>,
) -> SpanGuard {
    span_node(kind, None, label, source)
}

/// [`span`] with an explain-plan node id stamped on the recorded span.
/// An explained run threads stable node ids through the evaluator's
/// operator sites so the trace→plan attribution fold can charge each
/// span's exclusive time and counters to its plan operator; plain
/// execution passes `None` everywhere (via [`span`]) and pays nothing.
pub fn span_node(
    kind: SpanKind,
    node: Option<u32>,
    label: impl FnOnce() -> String,
    source: Option<(usize, usize)>,
) -> SpanGuard {
    CONTEXT.with(|c| {
        let mut borrow = c.borrow_mut();
        let Some(active) = borrow.as_mut() else {
            return SpanGuard { active: false };
        };
        if active.tracer.is_none() {
            return SpanGuard { active: false };
        }
        refresh_arith(active);
        let stats = active.stats;
        let tracer = active.tracer.as_mut().expect("checked above");
        tracer.enter_node(kind, label(), source, stats, node);
        SpanGuard { active: true }
    })
}

/// Attach a structured event to the innermost open span. `event` is only
/// invoked when the active context is tracing — otherwise this is one
/// thread-local read, allocating nothing.
pub fn trace_event(event: impl FnOnce() -> EventKind) {
    CONTEXT.with(|c| {
        if let Some(t) = c.borrow_mut().as_mut().and_then(|a| a.tracer.as_mut()) {
            t.event(event());
        }
    });
}

/// Per-execution options: the resource budget, how many threads parallel
/// regions may use, the acceleration switches, and what the run reports
/// besides its answer (a span tree, an analyzed plan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOptions {
    /// Resource limits for the evaluation.
    pub budget: EngineBudget,
    /// Thread budget for parallel regions ([`parallel_map`]); 1 means
    /// strictly serial. Defaults to [`default_threads`].
    pub threads: usize,
    /// Use the inline small-coefficient arithmetic fast path? Defaults to
    /// [`lyric_arith::default_fast_path`] (`LYRIC_ARITH_FAST`; `0`, `off`
    /// or `false` turns it off). `false` forces every rational operation
    /// onto the `BigInt` path — the measurement baseline and differential
    /// oracle.
    pub arith_fast: bool,
    /// Decide satisfiability checks by their interval box where the box
    /// settles them? On by default: an empty box refutes the conjunction,
    /// and a nonempty box decides one whose atoms each mention at most one
    /// variable, where the box is exact, so it only ever skips LPs whose
    /// answer it knows. `false` sends every check straight to simplex —
    /// the differential baseline for the box layer.
    pub boxes: bool,
    /// Bind index-answerable FROM variables from store-index probes
    /// (scalar postings and bounding-box pages)? Defaults to
    /// [`default_index`] (`LYRIC_INDEX`; `0`, `off` or `false` turns it
    /// off).
    /// `false` scans every extent in full — the differential baseline for
    /// the scan-vs-index soundness layer.
    pub index: bool,
    /// Record the evaluation's span tree: [`run`] returns it sealed, and
    /// the query runner hands it back as `QueryResult::trace`. Off by
    /// default.
    pub trace: bool,
    /// EXPLAIN ANALYZE: the query runner attributes the evaluation to its
    /// plan and hands the analyzed plan back as `QueryResult::plan`; [`run`]
    /// collects the span tree that attribution reads. Off by default.
    pub explain: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            budget: EngineBudget::unlimited(),
            threads: default_threads(),
            arith_fast: lyric_arith::default_fast_path(),
            boxes: true,
            index: default_index(),
            trace: false,
            explain: false,
        }
    }
}

impl ExecOptions {
    /// Replace the budget.
    pub fn with_budget(mut self, budget: EngineBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Replace the thread budget (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enable or disable the small-coefficient arithmetic fast path.
    pub fn with_arith_fast(mut self, fast: bool) -> Self {
        self.arith_fast = fast;
        self
    }

    /// Enable or disable interval-box pruning of LP calls.
    pub fn with_boxes(mut self, boxes: bool) -> Self {
        self.boxes = boxes;
        self
    }

    /// Enable or disable binding FROM variables through the store index.
    pub fn with_index(mut self, index: bool) -> Self {
        self.index = index;
        self
    }

    /// Record (or not) the evaluation's span tree.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Run (or not) as EXPLAIN ANALYZE.
    pub fn with_explain(mut self, explain: bool) -> Self {
        self.explain = explain;
        self
    }
}

/// The default for store-index probing of FROM extents: on unless
/// `LYRIC_INDEX` turns it off ([`lyric_metrics::env::Env::index`]).
/// Probes are sound — every probe returns a superset of the oids a full
/// scan could keep or error on — so the index defaults on.
pub fn default_index() -> bool {
    lyric_metrics::env::get().index
}

/// The default thread budget: `LYRIC_THREADS` when set to a positive
/// integer, else the host's parallelism
/// ([`lyric_metrics::build::host_parallelism`]). Both are read once per
/// process.
pub fn default_threads() -> usize {
    lyric_metrics::env::get()
        .threads
        .unwrap_or_else(lyric_metrics::build::host_parallelism)
}

/// Run `f` under an engine context built from `opts` — the one way to
/// install one. The budget, thread budget and acceleration switches
/// apply to everything `f` does, and a span collector records it
/// when [`ExecOptions::trace`] or [`ExecOptions::explain`] asks for one.
/// `progress` is the query's live counter cell: a registered in-flight
/// slot's, so `/debug/inflight` reads the run as it moves, or `None` for
/// a private one.
///
/// Returns `f`'s value, or `Err(BudgetExceeded)` if a limit was
/// crossed; beside it, the [`EngineStats`] the run accumulated (an
/// aborted run's too, worker deltas merged) and the sealed trace (`Some`
/// exactly when a collector was attached and the run was not aborted —
/// a partial trace is discarded with the context). The run writes
/// nothing to the process-lifetime registry. Contexts do not nest: a
/// `run` inside an active context would silently re-scope the outer
/// budget, so it panics — callers gate on [`is_active`] instead.
pub fn run<T>(
    opts: &ExecOptions,
    progress: Option<Arc<lyric_flight::Progress>>,
    f: impl FnOnce() -> T,
) -> (Result<T, BudgetExceeded>, EngineStats, Option<trace::Trace>) {
    silence_budget_unwinds();
    let generation = GENERATION.fetch_add(1, Ordering::Relaxed) + 1;
    let threads = opts.threads.max(1);
    // Pin the thread's arithmetic mode for the run (workers copy it from
    // the region plan); restored below so nested library use after the
    // query sees the caller's mode again.
    let prev_arith_fast = lyric_arith::set_fast_path(opts.arith_fast);
    CONTEXT.with(|c| {
        let mut borrow = c.borrow_mut();
        assert!(
            borrow.is_none(),
            "engine contexts do not nest; check engine::is_active() first"
        );
        *borrow = Some(ActiveContext {
            budget: opts.budget.clone(),
            stats: EngineStats::default(),
            started: Instant::now(),
            notes_since_clock: 0,
            boxes: opts.boxes,
            index: opts.index,
            tracer: (opts.trace || opts.explain).then(|| trace::Collector::new(String::new(), 0)),
            time_thresholds_emitted: 0,
            generation,
            threads,
            arith_base: lyric_arith::op_counters(),
            progress: progress.unwrap_or_default(),
        });
    });

    let outcome = catch_unwind(AssertUnwindSafe(f));
    let mut context = CONTEXT
        .with(|c| c.borrow_mut().take())
        .expect("context still installed");
    lyric_arith::set_fast_path(prev_arith_fast);
    // Worker deltas were merged into `stats` on region join (an aborted
    // region's too), so these are the whole run's counters.
    refresh_arith(&mut context);
    let stats = context.stats;
    match outcome {
        Ok(value) => (Ok(value), stats, context.tracer.map(|t| t.finish(stats))),
        Err(payload) => match payload.downcast::<BudgetUnwind>() {
            Ok(unwound) => (Err(unwound.0), stats, None),
            Err(other) => resume_unwind(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(budget: EngineBudget) -> ExecOptions {
        ExecOptions::default().with_budget(budget)
    }

    #[test]
    fn noop_without_context() {
        note_many(Resource::Pivots, 1_000_000);
        assert!(snapshot().is_none());
        assert!(!is_active());
    }

    #[test]
    fn stats_accumulate() {
        let (value, stats, _) = run(&opts(EngineBudget::unlimited()), None, || {
            note_many(Resource::Pivots, 7);
            note_many(Resource::FmAtoms, 3);
            note(Resource::Disjuncts);
            tally(|s| s.sat_checks += 2);
        });
        value.expect("unlimited budget");
        assert_eq!(stats.pivots, 7);
        assert_eq!(stats.fm_atoms, 3);
        assert_eq!(stats.disjuncts_produced, 1);
        assert_eq!(stats.sat_checks, 2);
    }

    #[test]
    fn progress_cell_counts_budgeted_and_live_work() {
        let progress = Arc::new(lyric_flight::Progress::default());
        let (value, stats, _) = run(
            &opts(EngineBudget::unlimited()),
            Some(Arc::clone(&progress)),
            || {
                note_many(Resource::Pivots, 7);
                note_many(Resource::FmAtoms, 3);
                note(Resource::Disjuncts);
                note_live(Live::SatChecks, 2);
                note_live(Live::BoxPrunes, 1);
                note_live(Live::IndexProbes, 4);
            },
        );
        value.expect("unlimited budget");
        let p = &progress;
        let live = [
            &p.pivots,
            &p.fm_atoms,
            &p.disjuncts,
            &p.sat_checks,
            &p.box_prunes,
            &p.index_probes,
        ]
        .map(|c| c.load(Ordering::Relaxed));
        assert_eq!(live, [7, 3, 1, 2, 1, 4]);
        let s = stats;
        assert_eq!(
            [
                s.pivots,
                s.fm_atoms,
                s.disjuncts_produced,
                s.sat_checks,
                s.box_prunes,
                s.index_probes
            ],
            live,
            "the live cell and the stats count the same work"
        );
    }

    #[test]
    fn budget_aborts_with_payload() {
        let (value, stats, trace) = run(
            &opts(EngineBudget::unlimited().with_max_pivots(10)).with_trace(true),
            None,
            || {
                note_live(Live::SatChecks, 3);
                for _ in 0..100 {
                    note(Resource::Pivots);
                }
            },
        );
        let err = value.expect_err("limit of 10 must trip");
        assert_eq!(err.resource, Resource::Pivots);
        assert_eq!(err.limit, 10);
        assert_eq!(err.consumed, 11);
        // The aborted run's counters come back; its partial trace does not.
        assert_eq!((stats.pivots, stats.sat_checks), (11, 3));
        assert!(trace.is_none());
        // The context is cleaned up even after an abort.
        assert!(!is_active());
    }

    #[test]
    fn deadline_aborts() {
        let err = run(
            &opts(EngineBudget::unlimited().with_deadline(Duration::from_millis(1))),
            None,
            || loop {
                note(Resource::Pivots);
            },
        )
        .0
        .expect_err("deadline must trip");
        assert_eq!(err.resource, Resource::Time);
        assert!(err.consumed >= err.limit);
    }

    #[test]
    fn ordinary_panics_pass_through() {
        let caught = std::panic::catch_unwind(|| {
            let _ = run(&opts(EngineBudget::unlimited()), None, || {
                panic!("user panic");
            });
        });
        assert!(caught.is_err());
        assert!(!is_active());
    }

    /// Pins the overshoot contract documented on [`DEADLINE_STRIDE`]: with
    /// an already-expired deadline, the abort lands on the first clock
    /// consultation — within one stride of the first note.
    #[test]
    fn deadline_trips_within_one_stride() {
        use std::cell::Cell;
        let noted = Cell::new(0u64);
        let err = run(
            &opts(EngineBudget::unlimited().with_deadline(Duration::ZERO)),
            None,
            || loop {
                noted.set(noted.get() + 1);
                note(Resource::Pivots);
            },
        )
        .0
        .expect_err("expired deadline must trip");
        assert_eq!(err.resource, Resource::Time);
        assert!(
            noted.get() <= DEADLINE_STRIDE,
            "aborted only after {} notes; stride is {DEADLINE_STRIDE}",
            noted.get()
        );
    }

    #[test]
    fn traced_run_records_spans_events_and_thresholds() {
        let (value, stats, trace) = run(
            &opts(EngineBudget::unlimited().with_max_pivots(1_000)).with_trace(true),
            None,
            || {
                let _w = span(SpanKind::Where, || "w".into(), Some((2, 8)));
                note_many(Resource::Pivots, 600); // crosses the 50% line
                note_many(Resource::Pivots, 350); // crosses the 90% line
                trace_event(|| EventKind::BoxPrune);
            },
        );
        value.expect("within budget");
        let trace = trace.expect("traced run seals a trace");
        assert_eq!(stats.pivots, 950);
        assert_eq!(*trace.total_stats(), stats);
        assert_eq!(trace.summed_self_stats(), stats);
        assert_eq!(trace.root.children.len(), 1);
        let w = &trace.root.children[0];
        assert_eq!(w.source, Some((2, 8)));
        let crossings: Vec<u8> = w
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::BudgetThreshold { percent, .. } => Some(percent),
                _ => None,
            })
            .collect();
        assert_eq!(crossings, vec![50, 90]);
        assert!(w
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::BoxPrune)));
    }

    #[test]
    fn span_guard_closes_during_budget_unwind() {
        // A budget abort unwinds through open SpanGuards; Drop must close
        // them so the collector sees balanced enter/exit (`run` discards
        // the partial trace on Err).
        let err = run(
            &opts(EngineBudget::unlimited().with_max_pivots(5)).with_trace(true),
            None,
            || {
                let _g = span(SpanKind::LpSolve, || "solve".into(), None);
                note_many(Resource::Pivots, 50);
            },
        )
        .0
        .expect_err("limit of 5 must trip");
        assert_eq!(err.resource, Resource::Pivots);
        assert!(!is_active());
    }

    #[test]
    fn span_and_event_are_inert_without_tracing() {
        let (value, stats, trace) = run(&opts(EngineBudget::unlimited()), None, || {
            let _g = span(
                SpanKind::Where,
                || unreachable!("label closure must not run when tracing is off"),
                None,
            );
            trace_event(|| unreachable!("event closure must not run when tracing is off"));
            assert!(!tracing());
        });
        value.expect("unlimited budget");
        assert!(stats.is_zero());
        assert!(trace.is_none(), "no collector unless trace or explain asks");
        // And outside any context at all.
        let _g = span(SpanKind::Where, || unreachable!(), None);
        trace_event(|| unreachable!());
    }
}
