//! The trace data model: span taxonomy, structured events, and the
//! finished span tree.

use crate::stats::EngineStats;
use std::time::Duration;

/// The evaluation phase a span measures. One variant per phase of the
/// pipeline, top (whole query) to bottom (a single simplex run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// The whole statement, root of every trace.
    Query,
    /// Tokenization of the source text.
    Lex,
    /// Parsing the token stream into the AST.
    Parse,
    /// The static-analysis admission gate.
    Analyze,
    /// Enumerating the extent bindings of one FROM item.
    FromBind,
    /// Filtering the binding set through the whole WHERE clause.
    Where,
    /// One satisfiability predicate (`(φ)` in WHERE) on one binding.
    SatCheck,
    /// One entailment predicate (`φ |= ψ`) on one binding.
    EntailCheck,
    /// One comparison predicate (`=`, `<`, `CONTAINS`, …) on one binding.
    Compare,
    /// One path predicate (`X.drawer[Y]`) on one binding.
    PathPred,
    /// Evaluating one SELECT item on one binding.
    SelectItem,
    /// Instantiating a CST formula as a constraint object.
    Instantiate,
    /// A `MAX/MIN/MAX_POINT/MIN_POINT … SUBJECT TO` operator.
    Optimize,
    /// One simplex run (feasibility or optimization).
    LpSolve,
    /// One Fourier–Motzkin / equality-substitution variable elimination.
    FmEliminate,
    /// Materializing a `CREATE VIEW` result into the database.
    ViewMaterialize,
    /// One worker thread's share of a parallel region; its children are
    /// the spans recorded on that thread.
    Worker,
}

impl SpanKind {
    /// Stable snake_case name, used by every sink.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::Lex => "lex",
            SpanKind::Parse => "parse",
            SpanKind::Analyze => "analyze",
            SpanKind::FromBind => "from_bind",
            SpanKind::Where => "where",
            SpanKind::SatCheck => "sat_check",
            SpanKind::EntailCheck => "entail_check",
            SpanKind::Compare => "compare",
            SpanKind::PathPred => "path_pred",
            SpanKind::SelectItem => "select_item",
            SpanKind::Instantiate => "instantiate",
            SpanKind::Optimize => "optimize",
            SpanKind::LpSolve => "lp_solve",
            SpanKind::FmEliminate => "fm_eliminate",
            SpanKind::ViewMaterialize => "view_materialize",
            SpanKind::Worker => "worker",
        }
    }
}

/// A structured event attached to the span that was open when it fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// Canonicalization dropped `count` infeasible/duplicate disjuncts.
    DisjunctsPruned {
        /// How many disjuncts were discarded.
        count: u64,
    },
    /// A DNF conjunction distributed a `left × right` disjunct product.
    DnfProduct {
        /// Disjuncts on the left operand.
        left: usize,
        /// Disjuncts on the right operand.
        right: usize,
    },
    /// An interval-box disjointness test proved a conjunction empty and
    /// skipped the LP solve entirely.
    BoxPrune,
    /// Store-index probes answered one FROM variable's binding.
    IndexProbe {
        /// Size of the FROM class's extent, which the probes answered for.
        candidates: u64,
        /// Members discarded without instantiation.
        pruned: u64,
    },
    /// Consumption of a budgeted resource crossed `percent`% of its limit.
    BudgetThreshold {
        /// The resource's display name (`lyric_engine::Resource::name`).
        resource: &'static str,
        /// The threshold crossed: 50 or 90.
        percent: u8,
        /// Units consumed when the crossing was observed.
        consumed: u64,
        /// The configured limit.
        limit: u64,
    },
}

impl EventKind {
    /// Short label for renderers.
    pub fn label(&self) -> String {
        match self {
            EventKind::DisjunctsPruned { count } => format!("{count} disjuncts pruned"),
            EventKind::DnfProduct { left, right } => format!("dnf product {left}x{right}"),
            EventKind::BoxPrune => "box prune".into(),
            EventKind::IndexProbe { candidates, pruned } => {
                format!("index probe {pruned}/{candidates} pruned")
            }
            EventKind::BudgetThreshold {
                resource,
                percent,
                consumed,
                limit,
            } => format!("budget {percent}% crossed: {resource} {consumed}/{limit}"),
        }
    }
}

/// An event plus when it fired, as an offset from the trace origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Offset from the trace origin.
    pub at: Duration,
    /// What happened.
    pub kind: EventKind,
}

/// Thread id of the coordinating (query) thread in exported traces.
pub const MAIN_TID: u32 = 1;

/// One finished span: a phase of the evaluation with its timing, source
/// attribution, counter delta, events, and child spans.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// The phase this span measures.
    pub kind: SpanKind,
    /// Logical thread id: [`MAIN_TID`] on the coordinating thread; worker
    /// subtrees of a parallel region carry their worker's id. Siblings
    /// with *different* tids ran concurrently and may overlap in time;
    /// the nesting invariant (disjoint, ordered siblings) holds per tid.
    pub tid: u32,
    /// Human label (variable/class names, column name, LP direction, …).
    pub label: String,
    /// Byte range of the source fragment this span evaluates, when known.
    pub source: Option<(usize, usize)>,
    /// Start, as an offset from the trace origin.
    pub start: Duration,
    /// Wall-clock duration (inclusive of children).
    pub duration: Duration,
    /// [`EngineStats`] delta consumed inside this span, children included.
    pub stats: EngineStats,
    /// Events that fired while this span was the innermost open one.
    pub events: Vec<TraceEvent>,
    /// Child spans, in execution order.
    pub children: Vec<TraceSpan>,
    /// The explain-plan node this span is attributed to, when the query
    /// ran explained (`ExecOptions::explain`). Spans without a node id (engine
    /// internals such as LP solves, or anything below the instrumented
    /// operator sites) are attributed to their nearest annotated ancestor
    /// by [`crate::plan::analyze`]; `None` everywhere on plain traces.
    pub node: Option<u32>,
}

impl TraceSpan {
    /// End offset (`start + duration`).
    pub fn end(&self) -> Duration {
        self.start + self.duration
    }

    /// The *exclusive* counter delta: this span's consumption minus its
    /// children's. Summing `self_stats` over a whole tree reproduces the
    /// root's inclusive delta exactly (counters are monotonic and child
    /// intervals are disjoint sub-intervals of the parent).
    pub fn self_stats(&self) -> EngineStats {
        let mut inherited = EngineStats::default();
        for c in &self.children {
            inherited.absorb(&c.stats);
        }
        self.stats.delta_since(&inherited)
    }

    /// The *exclusive* wall-clock time: duration minus children durations
    /// (saturating, for robustness against clock granularity).
    pub fn self_time(&self) -> Duration {
        let inherited: Duration = self.children.iter().map(|c| c.duration).sum();
        self.duration.saturating_sub(inherited)
    }

    /// Number of spans in this subtree, itself included.
    pub fn tree_size(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(TraceSpan::tree_size)
            .sum::<usize>()
    }

    /// Visit every span in the subtree, depth-first, with its depth.
    pub fn walk(&self, f: &mut impl FnMut(&TraceSpan, usize)) {
        fn go(s: &TraceSpan, depth: usize, f: &mut impl FnMut(&TraceSpan, usize)) {
            f(s, depth);
            for c in &s.children {
                go(c, depth + 1, f);
            }
        }
        go(self, 0, f);
    }
}

/// One front-end phase for [`Trace::prepend_phases`]: its kind, how
/// long it took, and the source range it covered.
pub type Phase = (SpanKind, Duration, Option<(usize, usize)>);

/// A finished trace: the root [`TraceSpan`] (always [`SpanKind::Query`])
/// plus collection metadata.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The root span; its `stats` are the query's aggregate counters and
    /// its `duration` the whole evaluation wall-clock.
    pub root: TraceSpan,
    /// Spans not recorded because the collector's cap was reached. Their
    /// time and counters are still absorbed by their recorded ancestors.
    pub dropped_spans: u64,
}

impl Trace {
    /// The query's aggregate counters (the root span's inclusive delta).
    pub fn total_stats(&self) -> &EngineStats {
        &self.root.stats
    }

    /// Total evaluation wall-clock.
    pub fn total_duration(&self) -> Duration {
        self.root.duration
    }

    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        self.root.tree_size()
    }

    /// Sum of [`TraceSpan::self_stats`] over every recorded span. Always
    /// equals `total_stats()` — the well-formedness invariant the property
    /// suite pins.
    pub fn summed_self_stats(&self) -> EngineStats {
        let mut acc = EngineStats::default();
        self.root.walk(&mut |s, _| acc.absorb(&s.self_stats()));
        acc
    }

    /// The distinct thread ids appearing anywhere in the tree, sorted.
    /// `[MAIN_TID]` for a serial trace; parallel regions add one id per
    /// worker that recorded spans.
    pub fn distinct_tids(&self) -> Vec<u32> {
        let mut tids = std::collections::BTreeSet::new();
        self.root.walk(&mut |s, _| {
            tids.insert(s.tid);
        });
        tids.into_iter().collect()
    }

    /// Put phases that ran *before* the collector started — a query's
    /// front end, which passes before its engine context is installed —
    /// at the head of the tree: each [`Phase`] becomes one of the root's
    /// first children, in order, every recorded offset shifts by their
    /// total, and the root widens to cover them.
    pub fn prepend_phases(&mut self, phases: &[Phase]) {
        fn shift(s: &mut TraceSpan, by: Duration) {
            s.start += by;
            s.events.iter_mut().for_each(|e| e.at += by);
            s.children.iter_mut().for_each(|c| shift(c, by));
        }
        let lead: Duration = phases.iter().map(|p| p.1).sum();
        shift(&mut self.root, lead);
        self.root.start -= lead;
        self.root.duration += lead;
        let mut at = self.root.start;
        let front: Vec<TraceSpan> = phases
            .iter()
            .map(|&(kind, duration, source)| {
                at += duration;
                TraceSpan {
                    kind,
                    tid: self.root.tid,
                    label: String::new(),
                    source,
                    start: at - duration,
                    duration,
                    stats: EngineStats::default(),
                    events: Vec::new(),
                    children: Vec::new(),
                    node: None,
                }
            })
            .collect();
        self.root.children.splice(0..0, front);
    }
}
